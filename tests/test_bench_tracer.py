"""The benchmark's tracer (`bench/tracer.py`), installed around one
`verify` run.

The tracer wraps engine functions by name (`HopfProvider.coproduct`,
`qhopf.invariants.pi_degree_and_io`, ...) and the fill points of every
provider class it finds by walking `HopfProvider.__subclasses__()`.  An
engine rename breaks its install, and a provider class that the walk
reaches twice (by two inheritance paths) has its fills wrapped twice,
so every fill would count twice.  The module is loaded from its file,
as the benchmark loads it; nothing in it is edited.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import qhopf.cli
from qhopf.families import build
from qhopf.families.base import HopfProvider
from qhopf.params import parse_params

ROOT = Path(__file__).resolve().parents[1]
FILLS = ("_multiply_raw", "_coproduct_raw", "_antipode_raw")
INSTANCE = ROOT / "instances" / "b_1_123_z6.json"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_each_fill_point_once_around_one_verify(capsys):
    tracer_module = _load_tracer()
    classes = list(tracer_module._subclasses(HopfProvider))
    assert len(classes) == len(set(classes)), "a provider class has two paths"
    originals = {
        (cls, key): vars(cls)[key]
        for cls in classes
        for key in FILLS
        if key in vars(cls)
    }
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        wrapped = Counter((owner, attr) for owner, attr, _ in tracer._undo)
        assert {k: wrapped[k] for k in originals} == dict.fromkeys(originals, 1)
        argv = ["verify", "--window", "1", "--format", "structured", str(INSTANCE)]
        assert qhopf.cli.main(argv) == 0
        assert '"passed": true' in capsys.readouterr().out
        names = {span[1] for span in tracer.spans}
        assert {"cli.verify", "families.build", "verify.axioms"} <= names
        metrics = tracer.layer_metrics()
        assert metrics["families.coproduct_fills"] > 0
        assert metrics["families.antipode_fills"] > 0

        # one call counted per fill: a twice-wrapped fill counts two.
        # An instance spy, outside the tracer's wrappers, counts the
        # stated calls: B states Delta at its three x^0 indices of box(1)
        # but 1, and S on its two y-letters; the base derives the rest
        alg = build(parse_params({"family": "B", "n": 1, "p": [1, 2, 3],
                                  "q": {"order": 6, "power": 1}}))
        stated = Counter()
        for key, fill in (("_coproduct_raw", "families.coproduct_fill"),
                          ("_antipode_raw", "families.antipode_fill")):
            def spied(i, raw=getattr(alg, key), fill=fill):
                stated[fill] += 1
                return raw(i)

            setattr(alg, key, spied)
        box = alg.basis_box(1)
        before = Counter(tracer.calls)
        for i in box:
            alg.coproduct_basis(i)
            alg.antipode_basis(i)
        assert stated == {"families.coproduct_fill": 3, "families.antipode_fill": 2}
        for fill, count in stated.items():
            assert tracer.calls[fill] - before[fill] == count, fill
    finally:
        tracer.uninstall()
    for (cls, key), fn in originals.items():
        assert vars(cls)[key] is fn, (cls, key)
