"""Command-line parsing: usage errors, help and version text, the cost
of parsing one command line, and the exact-line loop in `qhopf.cli.main`
against argparse.

`golden_cli.json` holds only valid command lines.  FRONT_END pins what
`qhopf.cli.main` does with the ones that stop in argument parsing, or
just after it: exit code and the sha256 of stdout and of stderr.  The
digests are of CPython 3.11's argparse text at 80 columns.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qhopf.cli as cli

# sha256 of no output
EMPTY = hashlib.sha256(b"").hexdigest()

# " ".join(argv) -> [exit code, sha256 of stdout, sha256 of stderr], recorded
# before the command parsers were split
FRONT_END = {
    "": [2, EMPTY, "73928624e16c9ff454f1c180fb4de33b1f093f349328fa5b2645fb1e2bddee24"],
    "-h": [
        0, "af30f1c78ab2888ee167fbce284eaf2e9407cecf5a1818debb6530476664d19a", EMPTY
    ],
    "--version": [
        0, "243106364b8a7c8920ddfe3bde9be64ec33dd03a36082ef9efae97f49e84fdf4", EMPTY
    ],
    "frobnicate f": [
        2, EMPTY, "dcf7ca8f1ca913d8aeb9b6b863942a917834366207e25708553e28a823d0e6bc"
    ],
    "verify -h": [
        0, "41b62856b3983f6f7c56906324dbd2576385d4ba1b84298d93bfd3582d47719f", EMPTY
    ],
    "invariants -h": [
        0, "0032f41f1f7ca619a01ba4c89adf2a98d839c90506a0a66fbee40cb392f6a9ea", EMPTY
    ],
    "iso -h": [
        0, "8cc6ed2d32b3b0682840212de0cd11313fe81c0c5512dc32093c15027b402a93", EMPTY
    ],
    "comodule -h": [
        0, "ac86d82119c20afb2db5d5f8638a1d3c3ec767150644691d6cd9bb2134278d69", EMPTY
    ],
    "report -h": [
        0, "75c5074528a28c228f39d2e6ac6df11a5a75825860e921b5e11b3e1b7cb285ef", EMPTY
    ],
    "verify": [
        2, EMPTY, "0e609bb32d044176f036ea7ecad68437b947d9ca63fbdcb663a16b8aaa331af6"
    ],
    "iso f": [
        2, EMPTY, "deb6c8ffb9c267526ad467768667344925e9ecee4faab4c7f68a9e54d53514cf"
    ],
    "verify --format xml f": [
        2, EMPTY, "60243d6c1047716cffb980b639af682132f171c1d3b23db48a792846b0f75757"
    ],
    "verify --window x f": [
        2, EMPTY, "a87500c90ec34514178ad7d6753bed0003b9d2b6b4b4d13525843f5174d361d4"
    ],
    "verify --bogus f": [
        2, EMPTY, "1eaf2b606eae62201b5ca23d6bb729bccbe93c01a15f4996c23621534a23ba39"
    ],
    "--format structured verify f": [
        2, EMPTY, "70a17b1051f37de5afd89539268855a3af750a2160daf07d030cbbdacf5dc9ad"
    ],
    "--bogus verify": [
        2, EMPTY, "0e609bb32d044176f036ea7ecad68437b947d9ca63fbdcb663a16b8aaa331af6"
    ],
    "iso f g h": [
        2, EMPTY, "02d1220ffc44577ee33955dfea40bea00bbdab30aa78721e5581171d1db5e661"
    ],
    "report f --version": [
        2, EMPTY, "e6ba35e61f6378bf3bf4a82e4c3590492345f33d763a7fe7fda806e5db8e40f3"
    ],
    "verify --format structured no/such/spec.json": [
        2, EMPTY, "54b203f39cdde4f9af6e4f49d77ee62b9fce09c7e891d9b0d30ad5dc4f0ae031"
    ],
    # either side of the exact-line loop in `main`, recorded before it was
    # added; no instance is read
    "verify --win 2 no/such/spec.json": [
        2, EMPTY, "54b203f39cdde4f9af6e4f49d77ee62b9fce09c7e891d9b0d30ad5dc4f0ae031"
    ],
    "verify --window=2 no/such/spec.json": [
        2, EMPTY, "54b203f39cdde4f9af6e4f49d77ee62b9fce09c7e891d9b0d30ad5dc4f0ae031"
    ],
    "verify --window -1 no/such/spec.json": [
        2, EMPTY, "61522a029765926d846e41a86ccfff5db3ba32ec4bb75da5afd3454b51da8e79"
    ],
    "iso no/such/a.json --format structured no/such/b.json": [
        2, EMPTY, "cb132a5a22ee4ee01f1ce2630e269b4e2fc9a73af6676866ae518d5fb28810e5"
    ],
    "verify --jobs 2 --jobs 0 no/such/spec.json": [
        2, EMPTY, "4774c2a49aa4a6eff9bf0d7eb73b2b9043ab23335679652bd50366d5d94d6f6e"
    ],
    "comodule --quotient -x no/such/spec.json": [
        2, EMPTY, "a14c4fe2dbe826c4cb3a043424c3e7586217349337d4dcb531ba277d5f69ce3c"
    ],
    "verify --seed 2 --window 2 --jobs 1 --format human no/such/spec.json": [
        2, EMPTY, "54b203f39cdde4f9af6e4f49d77ee62b9fce09c7e891d9b0d30ad5dc4f0ae031"
    ],
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_front_end(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return [code, _digest(out.getvalue()), _digest(err.getvalue())]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests of CPython 3.11 argparse text"
)
@pytest.mark.parametrize("line", list(FRONT_END))
def test_front_end_output_is_pinned(monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_front_end(line.split()) == FRONT_END[line]


def test_one_command_line_builds_one_parser(monkeypatch):
    """An exact command line builds no parser; any other builds only the
    named subcommand's (the top-level parser with all five subparsers
    would be six)."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "cmd_iso", lambda args: 0)
    assert cli.main(["iso", "--format", "structured", "f", "g"]) == 0
    assert built == []
    assert cli.main(["iso", "--form", "structured", "f", "g"]) == 0
    assert built == ["qhopf iso"]


def test_exact_command_line_loads_no_argparse():
    """A fresh interpreter runs an exact command line (its files do not
    exist, so it stops at the input error) without importing argparse."""
    probe = (
        "import sys, qhopf.cli\n"
        "code = qhopf.cli.main(['iso', '--window', '2', 'no/such/a.json', 'b'])\n"
        "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        check=True,
    )
    assert done.stdout == "2 []\n"


def test_cli_import_loads_every_engine_module_and_no_heavy_stdlib():
    """`import qhopf.cli` in a fresh interpreter, with no site packages,
    loads every engine module (a lazy import would leave its caches out
    of reach of whoever clears them after that import) and none of the
    standard modules that dataclasses, typing or argparse bring in."""
    package = Path(cli.__file__).resolve().parent
    skip = {"qhopf.__main__", "qhopf.families.rewriter"}
    engine = set()
    for path in package.rglob("*.py"):
        name = ".".join(("qhopf",) + path.relative_to(package).with_suffix("").parts)
        engine.add(name.removesuffix(".__init__"))
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(package.parent)!r})\n"
        "import qhopf.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'qhopf'))\n"
        "print(sorted({'argparse', 'gettext', 'dataclasses', 'inspect', 'typing'}"
        " & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True,
        check=True,
    )
    assert done.stdout == f"{sorted(engine - skip)}\n[]\n"


# every flag of any subcommand
FLAGS = sorted(
    {flag for flag, _ in cli.COMMON_OPTIONS}
    | {flag for *_, options in cli.COMMANDS.values() for flag, _ in options}
)
# words only argparse reads: abbreviations, --opt=value, help, version,
# "--" and a lone "-"
ODD_FLAGS = [
    "--win", "--form", "--se", "--j", "--quot", "--window=2",
    "--format=structured", "-h", "--help", "--", "-", "--version", "-w",
]
# numbers signed, padded, underscored and in non-ASCII digits, the empty
# word, and valid and invalid --format and --quotient values
VALUES = [
    "1", "2", "0", "-1", "+2", "-0", " 3", "4 ", "1_0", "\u0663", "\uff12",
    "", "x", "2.0", "human", "structured", "xml", "HUMAN", "default", "other",
]
POSITIONALS = ["f", "g", "no/such.json", "", "iso", "a b"]

PIECES = st.one_of(
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES + ODD_FLAGS)).map(list),
    st.tuples(st.sampled_from(ODD_FLAGS), st.sampled_from(VALUES)).map(list),
    st.sampled_from(FLAGS + ODD_FLAGS + VALUES + POSITIONALS).map(lambda w: [w]),
)
WORDS = st.lists(PIECES, max_size=7).map(lambda pieces: sum(pieces, []))


@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(sorted(cli.COMMANDS)), words=WORDS)
@example(name="iso", words=["f", "--format", "structured", "g"])
@example(name="comodule", words=["--quotient", "", "--seed", " 3", "\u0663"])
@example(name="verify", words=["--jobs", "1_0", "--window", "+2", "f"])
@example(name="comodule", words=["--quotient", "-h", "f"])
def test_exact_loop_agrees_with_argparse(name, words):
    """Whenever the loop takes a command line, the subcommand's parser
    takes it too, with no word left over and the same values."""
    exact = cli._parse_exact(name, words)
    if exact is None:
        return
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            parsed, extra = cli._command_parser(name).parse_known_args(words)
    except SystemExit:
        pytest.fail(f"argparse rejects {words!r}: {sink.getvalue()}")
    assert extra == []
    assert vars(exact) == vars(parsed)


@pytest.mark.parametrize(
    "line",
    [
        "verify --win 2 f",
        "verify --window=2 f",
        "verify --window -1 f",
        "verify --jobs 2 --jobs 1 f",
        "verify --window x f",
        "verify --format xml f",
        "verify --seed",
        "verify -- f",
        "verify - f",
        "verify -h",
        "verify f g",
        "iso f",
        "comodule --quotient -x f",
    ],
)
def test_exact_loop_leaves_other_lines_to_argparse(line):
    name, *words = line.split()
    assert cli._parse_exact(name, words) is None


def test_handler_is_looked_up_at_call_time(monkeypatch):
    """A rebound `qhopf.cli.cmd_iso` is the one called, so wrappers put
    around the handlers from outside (a tracer's spans) see every call."""
    seen = []

    def handler(args):
        seen.append((args.first, args.second, args.window))
        return 3

    monkeypatch.setattr(cli, "cmd_iso", handler)
    assert cli.main(["iso", "--window", "5", "f", "g"]) == 3
    assert seen == [("f", "g", 5)]
