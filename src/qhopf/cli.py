"""Command-line front end.

Five subcommands over instance spec files (small JSON objects, see
qhopf.params):

    qhopf verify INSTANCE        axiom checks on a basis window
    qhopf invariants INSTANCE    the invariant vector
    qhopf iso FIRST SECOND       isomorphism decision with explanation
    qhopf comodule INSTANCE      coactions for the built-in quotient
    qhopf report INSTANCE        instance echo + axioms + invariants

Exit codes: 0 success (iso: isomorphic), 1 axiom or comodule check
failure, 2 input error, 3 non-isomorphic, 4 internal error (an
uncaught exception: a bug in qhopf, reported with its traceback).

The subcommands and their arguments are stated once, in `COMMANDS`.
A command line that names a subcommand is first read by a plain loop
over that table (`_parse_exact`).  It takes the line only when

  - every later word is an exact flag of the subcommand, the value
    after it, or a positional,
  - no flag appears twice, and no value or positional starts with "-",
  - each value passes its option's type and choices, and
  - there are exactly as many positionals as the subcommand has.

Any other line goes to the subcommand's own argparse parser, so
argparse alone writes help, version and usage-error text.  The
top-level parser, which lists all five, is built only for -h,
--version and usage errors.  Every subcommand rejects `--window` or
`--jobs` below 1 with exit 2 before its handler runs.

`--format structured` emits a JSON document with sorted keys and no
timing data, so repeated runs are byte-identical; the human format
prints wall-clock time.  `--seed` is echoed into structured output for
provenance even though every computation here is deterministic.
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

from qhopf import __version__
from qhopf.comodule import Coaction, QuotientError, default_quotient
from qhopf.families import build
from qhopf.families.builder import family
from qhopf.invariants import invariant_vector, isomorphic
from qhopf.params import ParamError, parse_params, params_str, params_to_json
from qhopf.verify import verify_axioms


class InputError(Exception):
    """Unreadable file, malformed JSON, or invalid instance parameters."""


def _load_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    try:
        return parse_params(obj)
    except ParamError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _stamp(doc: dict, args) -> dict:
    doc["seed"] = args.seed
    doc["tool"] = {"name": "qhopf", "version": __version__}
    return doc


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _check_window(args) -> None:
    if args.window < 1:
        raise InputError(f"--window must be >= 1, got {args.window}")
    if args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {args.jobs}")


def _print_invariants(vec) -> None:
    for name, value in vec.fields():
        if name == "abelianization_goldie_rank":
            rank, quotient = value
            value = f"rank={rank} quotient={quotient}"
        print(f"  {name}: {value}")


# -- subcommands --------------------------------------------------------


def cmd_verify(args) -> int:
    params = _load_instance(args.instance)
    alg = build(params)
    t0 = time.perf_counter()
    report = verify_axioms(alg, window=args.window, jobs=args.jobs)
    elapsed = time.perf_counter() - t0
    if args.format == "structured":
        _emit(
            _stamp(
                {
                    "command": "verify",
                    "instance": params_to_json(params),
                    "axioms": report.to_json(),
                },
                args,
            )
        )
    else:
        print(f"verify {params_str(params)}  window={args.window}")
        for name in sorted(report.checked):
            print(f"  {name}: {report.checked[name]} checks")
        for f in report.failures:
            print(f"  FAIL {f.axiom} at {f.where}: {f.residual}")
        verdict = "PASS" if report.passed else "FAIL"
        print(f"{verdict} in {elapsed:.2f}s")
    return 0 if report.passed else 1


def cmd_invariants(args) -> int:
    params = _load_instance(args.instance)
    alg = build(params)
    t0 = time.perf_counter()
    vec = invariant_vector(alg, bound=args.window)
    elapsed = time.perf_counter() - t0
    if args.format == "structured":
        _emit(
            _stamp(
                {
                    "command": "invariants",
                    "instance": params_to_json(params),
                    "window": args.window,
                    "invariants": vec.to_json(),
                },
                args,
            )
        )
    else:
        print(f"invariants {params_str(params)}  window={args.window}")
        _print_invariants(vec)
        print(f"done in {elapsed:.2f}s")
    return 0


def cmd_iso(args) -> int:
    p1 = _load_instance(args.first)
    p2 = _load_instance(args.second)
    same, why = isomorphic(p1, p2)
    if args.format == "structured":
        _emit(
            _stamp(
                {
                    "command": "iso",
                    "instances": [params_to_json(p1), params_to_json(p2)],
                    "isomorphic": same,
                    "explanation": why,
                },
                args,
            )
        )
    else:
        verdict = "isomorphic" if same else "non-isomorphic"
        print(f"{verdict}: {params_str(p1)} vs {params_str(p2)}")
        print(f"  {why}")
    return 0 if same else 3


def cmd_comodule(args) -> int:
    if args.quotient != "default":
        raise InputError(
            f"unknown quotient {args.quotient!r} (the only built-in is 'default')"
        )
    params = _load_instance(args.instance)
    alg = build(params)
    try:
        co = Coaction(alg, default_quotient(alg))
    except QuotientError as exc:
        raise InputError(f"{args.instance}: {exc}") from exc

    t0 = time.perf_counter()
    verdicts = co.box_verdicts(args.window)
    doc: dict = {
        "command": "comodule",
        "instance": params_to_json(params),
        "window": args.window,
        "quotient": {"kind": co.spec.kind, "name": "default"},
        **verdicts,
    }
    ok = all(verdicts.values())

    if co.spec.kind == "laurent":
        doc["bigrades"] = {
            name: {"lam": co.lam_degree(idx), "rho": co.rho_degree(idx)}
            for name, idx in alg.generators()
        }
        sweep = [
            {"n": n, "spans": co.strong_grading(n, args.window)}
            for n in range(1, args.window + 1)
        ]
        doc["strong_grading"] = sweep
        ok = ok and all(row["spans"] for row in sweep)
    else:
        doc["derivations"] = {
            name: {
                "delta_l": alg.el_str(co.delta_l(alg.basis_el(idx))),
                "delta_r": alg.el_str(co.delta_r(alg.basis_el(idx))),
            }
            for name, idx in alg.generators()
        }
        taylor = {
            name: co.taylor_matches(alg.basis_el(idx))
            for name, idx in alg.generators()
        }
        doc["taylor"] = taylor
        doc["coinvariants"] = {
            "left": [alg.el_str(v) for v in co.left_coinvariants(args.window)],
            "right": [alg.el_str(v) for v in co.right_coinvariants(args.window)],
        }
        ok = ok and all(taylor.values())
    elapsed = time.perf_counter() - t0

    if args.format == "structured":
        _emit(_stamp(doc, args))
    else:
        print(f"comodule {params_str(params)}  window={args.window}")
        print(f"  quotient: default ({co.spec.kind})")
        print(f"  bicomodule compatible on box: {doc['bicomodule_compatible']}")
        print(f"  counit collapse on box: {doc['counit_collapse']}")
        if co.spec.kind == "laurent":
            print(f"  bigrade decomposition on box: {doc['decomposition']}")
            for name, grades in doc["bigrades"].items():
                print(f"  {name}: lam={grades['lam']} rho={grades['rho']}")
            for row in doc["strong_grading"]:
                print(f"  strong grading n={row['n']}: {row['spans']}")
        else:
            for name, ders in doc["derivations"].items():
                print(f"  delta_l({name}) = {ders['delta_l']}")
                print(f"  delta_r({name}) = {ders['delta_r']}")
            for name, good in doc["taylor"].items():
                print(f"  taylor expansion at {name}: {good}")
            for side in ("left", "right"):
                basis = doc["coinvariants"][side]
                print(f"  {side} coinvariants ({len(basis)}): {', '.join(basis)}")
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict} in {elapsed:.2f}s")
    return 0 if ok else 1


def cmd_report(args) -> int:
    params = _load_instance(args.instance)
    alg = build(params)
    t0 = time.perf_counter()
    report = verify_axioms(alg, window=args.window, jobs=args.jobs)
    vec = invariant_vector(alg, bound=args.window)
    pi = family(params).pi(params)
    elapsed = time.perf_counter() - t0

    if args.format == "structured":
        doc = {
            "command": "report",
            "instance": params_to_json(params),
            "axioms": report.to_json(),
            "invariants": vec.to_json(),
        }
        if pi is not None:
            doc["pi"] = pi
        _emit(_stamp(doc, args))
    else:
        print(f"report {params_str(params)}  window={args.window}")
        print(f"  axioms: {'PASS' if report.passed else 'FAIL'}"
              f" ({sum(report.checked.values())} checks)")
        for f in report.failures:
            print(f"    FAIL {f.axiom} at {f.where}: {f.residual}")
        _print_invariants(vec)
        if isinstance(pi, dict):
            print(f"  pi_degree: {pi['pi_degree']}"
                  f"  integral_order: {pi['integral_order']}")
        elif pi == "infinite":
            print("  pi_degree: infinite")
        print(f"done in {elapsed:.2f}s")
    return 0 if report.passed else 1


# -- wiring --------------------------------------------------------------


COMMON_OPTIONS = (
    ("--window", dict(type=int, default=3, metavar="N",
                      help="basis box radius (default 3)")),
    ("--format", dict(choices=("human", "structured"), default="human",
                      help="output format (default human)")),
    ("--seed", dict(type=int, default=0, metavar="S",
                    help="seed recorded in structured output (default 0)")),
    ("--jobs", dict(type=int, default=1, metavar="J",
                    help="worker processes for the bialgebra pair scan (default 1)")),
)

# name -> (handler, help, positional arguments, extra options as (flag,
# add_argument keywords) pairs); the handler is named, not bound, and
# looked up in this module when it is called
COMMANDS = {
    "verify": (
        "cmd_verify", "run the Hopf axiom checks on a window", ("instance",), ()
    ),
    "invariants": (
        "cmd_invariants", "compute the invariant vector", ("instance",), ()
    ),
    "iso": (
        "cmd_iso", "decide isomorphism of two instances", ("first", "second"), ()
    ),
    "comodule": (
        "cmd_comodule", "coactions and gradings for the built-in quotient",
        ("instance",),
        (("--quotient", dict(default="default",
                             help="quotient name (only 'default' is built in)")),),
    ),
    "report": (
        "cmd_report", "full instance report: axioms, invariants, PI data",
        ("instance",), (),
    ),
}


def _add_arguments(parser, name: str) -> None:
    _, _, positionals, options = COMMANDS[name]
    for flag, keywords in COMMON_OPTIONS:
        parser.add_argument(flag, **keywords)
    for positional in positionals:
        parser.add_argument(positional, help="instance spec (JSON file)")
    for flag, keywords in options:
        parser.add_argument(flag, **keywords)


def _command_parser(name: str):
    import argparse

    parser = argparse.ArgumentParser(prog=f"qhopf {name}")
    _add_arguments(parser, name)
    return parser


def _top_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="qhopf",
        description="Exact window verification, invariants, and isomorphism "
        "classification for eight families of Hopf algebra domains.",
    )
    parser.add_argument(
        "--version", action="version", version=f"qhopf {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, _, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    return parser


def _parse_exact(name: str, words: list[str]):
    """The namespace that subcommand `name`'s parser would give
    `words`, read without building the parser; None for a line the
    loop leaves to argparse (see the module docstring)."""
    _, _, positionals, options = COMMANDS[name]
    options = dict(COMMON_OPTIONS + options)
    given, found = {}, []
    rest = iter(words)
    for word in rest:
        if not word.startswith("-"):
            found.append(word)
            continue
        value = next(rest, "-")  # a flag with no value is declined too
        if word not in options or word in given or value.startswith("-"):
            return None
        keywords = options[word]
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[word] = value
    if len(found) != len(positionals):
        return None
    values = dict(zip(positionals, found))
    for flag, keywords in options.items():
        values[flag[2:]] = given.get(flag, keywords.get("default"))
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in COMMANDS:
        args = _parse_exact(name, argv[1:])
        if args is None:
            args, extra = _command_parser(name).parse_known_args(argv[1:])
            if extra:
                _top_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        # -h, --version, a missing or unknown command: the top-level
        # parser, with every subcommand's parser under it, prints and exits
        args = _top_parser().parse_args(argv)
        name = args.command
    handler = globals()[COMMANDS[name][0]]
    try:
        _check_window(args)
        return handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # not the axiom-failure code 1: an exception here is a bug
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
