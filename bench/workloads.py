"""The three benchmark workloads: fixed op lists and the checks on every op.

An op is one `qhopf` command line.  The instance set of each workload is
fixed; the seed only fixes the order in which passes run the ops (and is
passed through to the CLI as `--seed`, which structured output echoes).

Checks are tied to the engine's contract, not to verdicts the project
plans to change:

- every `verify` and `report` exits 0 with `passed: true`;
- every `invariants` exits 0 with a structured document;
- every `comodule` exits 0, except on `clift_3_z4`, which has no built-in
  quotient and must exit 2 with an input error;
- every command on a `bad_*` file exits 2 with an `input error:` line and
  no traceback;
- `iso` exits 0 or 3, agrees with its own `isomorphic` field, and its
  verdicts are reflexive, symmetric and transitive over the corpus
  (checked per pass by `iso_consistency`);
- `verify --jobs 2` (a coverage op of the traced run) prints exactly the
  bytes `--jobs 1` prints for the same command line (checked by the
  runner against a reference pass).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

INSTANCE_DIR = "instances"

VERIFY_CYCLO = [
    ("b_2_123_z12", 3),
    ("a_3_z5", 3),
    ("a_2_z3", 3),
    ("a_2_z4p3", 3),
    ("b_7_135_z105", 2),
]
VERIFY_RATIONAL = [
    ("c_2", 3),
    ("c_3", 3),
    ("c_5", 3),
    ("clift_2_1", 3),
    ("clift_3_z4", 3),
]
NO_QUOTIENT = {"clift_3_z4"}
ANALYSIS_WINDOW = 5

WORKLOADS = ("verify-cyclo", "verify-rational", "analysis-corpus")


@dataclass(frozen=True)
class Op:
    """One command line plus what its result must look like."""

    argv: tuple[str, ...]
    expect: str  # "pass", "ok", "input_error", "iso" or "same_as_jobs1"
    pair: tuple[str, str] | None = None  # iso operands, by instance name

    def jobs1(self) -> Op:
        """The same command line run in a single process."""
        argv = list(self.argv)
        argv[argv.index("--jobs") + 1] = "1"
        return Op(tuple(argv), "pass")


def instance_path(name: str) -> str:
    return os.path.join(INSTANCE_DIR, name + ".json")


def corpus() -> tuple[list[str], list[str]]:
    """(valid, bad) instance names of the shipped corpus, sorted."""
    names = sorted(
        f[: -len(".json")] for f in os.listdir(INSTANCE_DIR) if f.endswith(".json")
    )
    bad = [n for n in names if n.startswith("bad_")]
    return [n for n in names if n not in bad], bad


def _cmd(command: str, seed: int, window: int, *files: str, jobs: int = 1) -> tuple:
    return (
        command, "--format", "structured", "--seed", str(seed),
        "--window", str(window), "--jobs", str(jobs),
        *(instance_path(f) for f in files),
    )


def build_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one pass, in the order the seed fixes."""
    if workload == "verify-cyclo":
        ops = [Op(_cmd("verify", seed, w, name), "pass") for name, w in VERIFY_CYCLO]
    elif workload == "verify-rational":
        ops = [Op(_cmd("verify", seed, w, name), "pass") for name, w in VERIFY_RATIONAL]
    elif workload == "analysis-corpus":
        ops = _analysis_ops(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def coverage_ops(seed: int) -> list[Op]:
    """One op of every command on small instances.  A traced run adds them
    to every workload, so that every layer metric is a measured value on
    every workload and none reads a constant 0."""
    return [
        Op(_cmd("invariants", seed, 2, "a_2_z3"), "ok"),
        Op(_cmd("comodule", seed, 2, "a_2_z3"), "ok"),
        Op(_cmd("comodule", seed, 2, "c_2"), "ok"),
        Op(_cmd("iso", seed, 2, "a_2_z3", "c_2"), "iso", ("a_2_z3", "c_2")),
        Op(_cmd("report", seed, 1, "a_2_z3"), "pass"),
        Op(_cmd("verify", seed, 2, "b_1_123_z6", jobs=2), "same_as_jobs1"),
    ]


def _analysis_ops(seed: int) -> list[Op]:
    valid, bad = corpus()
    w = ANALYSIS_WINDOW
    ops = []
    for name in valid:
        ops.append(Op(_cmd("invariants", seed, w, name), "ok"))
        expect = "input_error" if name in NO_QUOTIENT else "ok"
        ops.append(Op(_cmd("comodule", seed, w, name), expect))
        ops.append(Op(_cmd("report", seed, 1, name), "pass"))
    for a in valid:
        for b in valid:
            ops.append(Op(_cmd("iso", seed, w, a, b), "iso", (a, b)))
    anchor = valid[0]
    for name in bad:
        for command in ("verify", "invariants", "comodule", "report"):
            ops.append(Op(_cmd(command, seed, w, name), "input_error"))
        ops.append(Op(_cmd("iso", seed, w, name, anchor), "input_error"))
        ops.append(Op(_cmd("iso", seed, w, anchor, name), "input_error"))
    return ops


def check(op: Op, code, out: str, err: str) -> str | None:
    """None if the op's result honours the contract, else the reason."""
    if op.expect == "input_error":
        if code != 2:
            return f"exit {code}, want 2"
        if "Traceback" in err:
            return "traceback on stderr"
        if not any(line.startswith("input error:") for line in err.splitlines()):
            return "no 'input error:' line on stderr"
        return None
    if "Traceback" in err:
        return "traceback on stderr"
    if op.expect == "iso":
        if code not in (0, 3):
            return f"exit {code}, want 0 or 3"
        doc = _doc(out)
        if doc is None or doc.get("isomorphic") is not (code == 0):
            return "isomorphic field disagrees with the exit code"
        return None
    if code != 0:
        return f"exit {code}, want 0"
    doc = _doc(out)
    if doc is None:
        return "stdout is not one JSON document"
    if op.expect in ("pass", "same_as_jobs1"):
        if doc.get("axioms", {}).get("passed") is not True:
            return "axioms not passed"
    return None


def _doc(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def iso_consistency(verdicts: dict) -> set:
    """Iso operand pairs whose verdict breaks reflexivity, symmetry or
    transitivity.  `verdicts` maps (a, b) to True/False."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for (a, b), same in verdicts.items():
        if same:
            parent[find(a)] = find(b)
    bad = set()
    for (a, b), same in verdicts.items():
        if a == b and not same:
            bad.add((a, b))
        if verdicts.get((b, a), same) != same:
            bad.add((a, b))
        if not same and find(a) == find(b):
            bad.add((a, b))
    return bad
