"""Shared instance lists for the test suite."""

import json
from pathlib import Path

from qhopf.families import build
from qhopf.params import parse_params

INSTANCES = Path(__file__).resolve().parents[1] / "instances"
VALID_CORPUS = sorted(
    p.stem for p in INSTANCES.glob("*.json") if not p.stem.startswith("bad_")
)
# the verify-cyclo benchmark ops: instance and window
VERIFY_CYCLO_OPS = [
    ("b_2_123_z12", 3),
    ("a_3_z5", 3),
    ("a_2_z3", 3),
    ("a_2_z4p3", 3),
    ("b_7_135_z105", 2),
]

SCALAR_GRID = [1, -1, {"order": 3, "power": 1}, {"order": 5, "power": 1}, 2]

B_SPECS = [
    {"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}},
    {"family": "B", "n": 2, "p": [1, 2, 3], "q": {"order": 12, "power": 1}},
    {"family": "B", "n": 7, "p": [1, 3, 5], "q": {"order": 105, "power": 1}},
]


def grid_specs():
    """The 32-instance verification grid."""
    specs = [
        {"family": "GroupZ2"},
        {"family": "GroupZSemiZ"},
        {"family": "EnvAbelian"},
        {"family": "EnvNonabelian"},
    ]
    for n in range(4):
        for q in SCALAR_GRID:
            specs.append({"family": "A", "n": n, "q": q})
    specs.extend(B_SPECS)
    for n in range(2, 6):
        specs.append({"family": "C", "n": n})
    specs.append({"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}})
    return specs


def grid_params():
    return [parse_params(s) for s in grid_specs()]


def spec_label(spec):
    from qhopf.params import params_str

    return params_str(parse_params(spec))


def build_instance(name):
    """The provider of instances/<name>.json."""
    return build(parse_params(json.loads((INSTANCES / f"{name}.json").read_text())))


def exact_report(cls, params, window, axioms=("bialgebra",)):
    """The `axioms` report of a fresh `cls(params)` by the exact route
    alone: the zero-only pass switched off, and `moves_pairs()` None,
    so no pair and no index takes its model's residuals and each is
    computed on its own."""
    import pytest

    import qhopf.verify
    from qhopf.verify import verify_axioms

    alone = type(cls.__name__, (cls,), {"moves_pairs": lambda self: None})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qhopf.verify, "bialgebra_vanishes", lambda alg, i, j, terms: False)
        return verify_axioms(
            alone(params), window=window, axioms=axioms, max_failures=500
        )
