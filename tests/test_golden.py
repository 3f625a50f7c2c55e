"""Golden run of every command over the instance corpus.

`golden_cli.json` maps each command line to [exit code, sha256 of
stdout, sha256 of stderr], all with `--format structured` (no timing
data), run in-process through `qhopf.cli.main` from the repository root:

* verify, invariants, comodule and report at `--window 2` on every
  instance file, the invalid `bad_*.json` ones included;
* comodule at `--window 3` (the CLI default) and at `--window 5` (the
  benchmark's window) on every instance file as well;
* iso on every ordered pair of valid instances, and on each invalid
  file against itself and against a valid instance in both orders.

Any change to a byte of output or to an exit code fails here.  After an
intended change, regenerate the file from a checkout with

    python tests/test_golden.py --update

and say in the change description which command lines moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_cli.json")
STRUCTURED = ["--format", "structured"]


def command_lines() -> list[list[str]]:
    names = sorted(p.name for p in (ROOT / "instances").glob("*.json"))
    paths = [f"instances/{name}" for name in names]
    valid = [p for p in paths if not Path(p).name.startswith("bad_")]
    bad = [p for p in paths if p not in valid]
    lines = [
        [cmd, "--window", "2", *STRUCTURED, path]
        for cmd in ("verify", "invariants", "comodule", "report")
        for path in paths
    ]
    lines += [
        ["comodule", "--window", window, *STRUCTURED, path]
        for window in ("3", "5")
        for path in paths
    ]
    lines += [["iso", *STRUCTURED, a, b] for a in valid for b in valid]
    for path in bad:
        for pair in ((path, path), (path, valid[0]), (valid[0], path)):
            lines.append(["iso", *STRUCTURED, *pair])
    return lines


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_all() -> dict[str, list]:
    """Run every command line from the repository root; key -> result."""
    from qhopf.cli import main

    out = {}
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in command_lines():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            out[" ".join(argv)] = [code, _digest(stdout.getvalue()), _digest(stderr.getvalue())]
    finally:
        os.chdir(cwd)
    return out


def test_every_command_matches_the_golden_run():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_all()
    assert sorted(got) == sorted(want), "the set of golden command lines changed"
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"{len(moved)} command lines differ, e.g. {moved[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.write_text(json.dumps(run_all(), sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
