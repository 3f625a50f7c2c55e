"""qhopf benchmark: three fixed CLI workloads, timed end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload verify-cyclo --seed 1 --seconds 40 --trace 0

Every op is one `qhopf` command line, executed in this process through
`qhopf.cli.main(argv)` with `--format structured`; stdout and stderr are
captured and every op's exit code and output are checked (see
workloads.py).  Each command builds a fresh provider, and the benchmark
clears qhopf's module-level `functools` caches before each op, so every
op starts as cold as a separate `qhopf` invocation would.

--trace 0 repeats passes over the op list for about --seconds seconds,
each pass in a new seeded order, and reports the end-to-end metrics from
every op's median latency, scaled to a fixed host speed by a host probe
timed around it (see HOST_PROBE).  --trace 1 adds a few coverage ops (see
workloads.coverage_ops), runs one untraced and one traced pass and
reports the per-layer metrics (see tracer.py and scalar_micro.py).  The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it name every metric with its unit.
Full results, including the sha256 of every op's stdout, machine info and
the trace, go to bench/out/.

See bench/README.md for the metric definitions and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import traceback
from bisect import bisect_left
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

from workloads import WORKLOADS, build_ops, check, coverage_ops, iso_consistency

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

PROBES = 3  # set-up and host probe pairs before the first pass and after each
PROBE_EVERY_S = 2.0  # in a pass, a host probe after an op once this long has passed
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)

UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# times a fresh interpreter needs to import the CLI and read the inputs
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import qhopf.cli
for path in sys.argv[1:]:
    with open(path, "rb") as fh:
        fh.read()
print(time.perf_counter() - t0)
"""

# times a fresh interpreter needs to import a fixed set of stdlib modules.
# No qhopf code runs in it, so it measures the host's speed alone, on the
# kind of work qhopf does (bytecode, small objects, dicts).
HOST_PROBE = """\
import time
t0 = time.perf_counter()
import argparse, dataclasses, decimal, email.message, fractions
import json, statistics, unittest
print(time.perf_counter() - t0)
"""
# HOST_PROBE's time on a quiet 2-vCPU Xeon VM with Python 3.11.7.  The
# timing metrics are scaled to a host on which the probe takes this long.
HOST_REF_S = 0.028


class Runner:
    """Executes ops in-process, checks them and keeps per-op records."""

    def __init__(self, tracer=None):
        import qhopf.cli

        self.cli = qhopf.cli
        self.tracer = tracer
        self.caches = _module_caches()
        self.reference: dict[tuple, str] = {}
        self.records: dict[tuple, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, op):
        for cached in self.caches:
            cached.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed op, recorded with its traceback
            err.write(traceback.format_exc())
            code = None
        return code, out.getvalue(), err.getvalue(), perf_counter() - t0

    def run_pass(self, ops, label: str, after_op=None) -> dict:
        """One pass over `ops`; returns wall, cpu and per-op seconds and
        start times.  `after_op`, if given, is called after every op."""
        r0 = _cpu_seconds()
        t0 = perf_counter()
        starts, times, cpu_times, verdicts, reasons = [], [], [], {}, {}
        for i, op in enumerate(ops):
            if self.tracer is not None:
                self.tracer.op_id = f"{label}:{i}"
            c0 = _cpu_seconds()
            starts.append(perf_counter())
            code, out, err, dt = self.run_op(op)
            c1 = _cpu_seconds()
            times.append(dt)
            cpu_times.append(c1[0] - c0[0] + c1[1] - c0[1])
            reason = check(op, code, out, err)
            if reason is None and op.expect == "same_as_jobs1":
                if out != self.reference.get(op.argv):
                    reason = "stdout differs from the --jobs 1 stdout"
            if op.expect == "iso" and reason is None:
                verdicts[op.pair] = code == 0
            if reason is not None:
                reasons[i] = reason
            self._record(op, code, out, dt)
            if after_op is not None:
                after_op()
        wall = perf_counter() - t0
        cpu = _cpu_seconds()
        for pair in iso_consistency(verdicts):
            i = next(i for i, op in enumerate(ops) if op.pair == pair)
            reasons[i] = "iso verdicts not an equivalence relation"
        self.attempted += len(ops)
        for i, reason in sorted(reasons.items()):
            self.failures.append(f"{label}: {' '.join(ops[i].argv)}: {reason}")
        return {
            "label": label,
            "wall_s": wall,
            "cpu_s": cpu[0] - r0[0],
            "children_cpu_s": cpu[1] - r0[1],
            "op_start": starts,
            "op_s": times,
            "op_cpu_s": cpu_times,
        }

    def run_reference(self, ops, label: str) -> dict:
        """Run each `--jobs 2` op with `--jobs 1` and keep its stdout."""
        solo = [op.jobs1() for op in ops]
        result = self.run_pass(solo, label)
        for op, one in zip(ops, solo):
            self.reference[op.argv] = self.records[one.argv]["stdout"]
        return result

    def _record(self, op, code, out, dt) -> None:
        rec = self.records.setdefault(op.argv, {
            "argv": list(op.argv), "exit": [], "sha256": [], "ms": [], "stdout": out,
        })
        rec["exit"].append(code)
        rec["ms"].append(dt * 1e3)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest not in rec["sha256"]:
            rec["sha256"].append(digest)

    def op_table(self) -> list[dict]:
        return [
            {k: v for k, v in rec.items() if k != "stdout"}
            for rec in self.records.values()
        ]


def _module_caches() -> list:
    seen, out = set(), []
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "qhopf":
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and id(value) not in seen:
                seen.add(id(value))
                out.append(value)
    return out


def _cpu_seconds() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def tail_percentile(n_ops: int) -> float:
    """Highest ladder percentile with at least 10 of the workload's ops
    beyond it; 100 (the maximum) when it has fewer than 20 ops."""
    for p in TAIL_LADDER:
        if n_ops * (100.0 - p) / 100.0 >= 10:
            return p
    return 100.0


def nearest_rank(ordered: list[float], p: float) -> float:
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def probe(script: str, *args: str) -> float:
    done = subprocess.run(
        [sys.executable, "-I", "-c", script, *args],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


class HostClock:
    """Host probe readings over time, to scale op times to host speed."""

    def __init__(self):
        self.at: list[float] = []
        self.probe_s: list[float] = []

    def read(self) -> float:
        seconds = probe(HOST_PROBE)
        self.at.append(perf_counter())
        self.probe_s.append(seconds)
        return seconds

    def read_if_due(self) -> None:
        if perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.read()

    def scale(self, start: float, seconds: float) -> float:
        """HOST_REF_S over the mean of the readings just before and just
        after the interval [start, start + seconds]."""
        after = bisect_left(self.at, start + seconds)
        near = self.probe_s[max(0, after - 1):after + 1]
        return HOST_REF_S * len(near) / sum(near)


def run_probes(files: list[str], setup: list[float], clock: HostClock) -> list[float]:
    """PROBES set-up probes, each followed by a host probe; returns the
    set-up probes scaled by their host probe."""
    scaled = []
    for _ in range(PROBES):
        setup.append(probe(SETUP_PROBE, *files))
        scaled.append(setup[-1] * HOST_REF_S / clock.read())
    return scaled


def workload_files(ops) -> list[str]:
    files = {arg for op in ops for arg in op.argv if arg.endswith(".json")}
    return sorted(files)


def reference_loop_s() -> float:
    """A fixed stdlib loop; its time shows host speed drift between runs."""
    t0 = perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return perf_counter() - t0


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


# -- the two kinds of run -------------------------------------------------


def timed_run(ops, seconds: float, seed: int) -> tuple[dict, dict, Runner]:
    runner = Runner()
    # the host's speed swings by more than the bounds within minutes, so
    # every op sample is scaled by the host probes taken around it, and
    # every set-up probe by the host probe run right after it
    clock = HostClock()
    # set-up probes are spread over the run so that one burst of host
    # noise cannot move their median
    files = workload_files(ops)
    setup = []
    setup_scaled = run_probes(files, setup, clock)
    rng = random.Random(seed)
    reps = [1] * len(ops)
    samples = [[] for _ in ops]  # (start, wall, cpu) of every run of op i
    passes = []
    start = perf_counter()
    while True:
        # every pass runs each op reps[i] times in a new seeded order, so
        # that no op always follows the same neighbour
        order = [i for i, n in enumerate(reps) for _ in range(n)]
        if passes:
            rng.shuffle(order)
        gc.collect()
        done = runner.run_pass(
            [ops[i] for i in order], f"pass{len(passes)}", clock.read_if_due
        )
        runs = zip(done["op_start"], done["op_s"], done["op_cpu_s"])
        for i, sample in zip(order, runs):
            samples[i].append(sample)
        if not passes:
            reps = repeats([[t for _, t, _ in s] for s in samples], done["wall_s"])
        passes.append(done)
        setup_scaled += run_probes(files, setup, clock)
        if perf_counter() - start + done["wall_s"] / 2 > seconds:
            break
    # each op's latency is the median of its samples; the pass metrics add
    # the ops up, the latency metrics take percentiles over the ops
    pct = tail_percentile(len(ops))

    def summary(wall, cpu) -> dict:
        op_ms = sorted(median(wall(s) for s in runs) * 1e3 for runs in samples)
        return {
            "wall_s": sum(op_ms) / 1e3,
            "cpu_s": sum(median(cpu(s) for s in runs) for runs in samples),
            "op_p50_ms": median(op_ms),
            "op_tail_ms": nearest_rank(op_ms, pct),
        }

    measured = summary(lambda s: s[1], lambda s: s[2])
    measured["setup_s"] = median(setup)
    metrics = summary(
        lambda s: s[1] * clock.scale(s[0], s[1]),
        lambda s: s[2] * clock.scale(s[0], s[1]),
    )
    # ru_maxrss is in KiB
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["setup_s"] = median(setup_scaled)
    detail = {
        "passes": [
            {k: v for k, v in p.items() if k not in ("op_start", "op_s", "op_cpu_s")}
            for p in passes
        ],
        "ops": len(ops),
        "op_repeats": reps,
        "op_samples": sum(len(runs) for runs in samples),
        "op_tail_percentile": pct,
        "measured": measured,
        "setup_samples_s": setup,
        "host_samples_s": clock.probe_s,
    }
    return metrics, detail, runner


def repeats(op_s: list[list[float]], pass_s: float) -> list[int]:
    """How often each op runs per pass after the first: an op shorter than
    a quarter of an even share of the pass repeats up to that share, so
    that short ops, which are cheap to sample, get many samples.  The
    repeats lengthen a pass by at most a quarter."""
    share = pass_s / (4 * len(op_s))
    return [max(1, int(share / t[0])) for t in op_s]


def traced_run(ops, seed: int) -> tuple[dict, dict, Runner]:
    from scalar_micro import scalar_metrics
    from tracer import Tracer

    tracer = Tracer()
    runner = Runner(tracer)
    ops = ops + coverage_ops(seed)
    parallel = [op for op in ops if op.expect == "same_as_jobs1"]
    solo = runner.run_reference(parallel, "untraced-jobs1")
    plain = runner.run_pass(ops, "untraced")
    par_s = sum(t for op, t in zip(ops, plain["op_s"]) if op in parallel)
    speedup = sum(solo["op_s"]) / par_s
    metrics = {
        "verify.scan_speedup": speedup,
        "verify.parallel_efficiency": speedup / 2,
        "verify.worker_cpu_s": plain["children_cpu_s"],
    }

    tracer.install()
    try:
        traced = runner.run_pass(ops, "traced")
        # pool workers keep their counts; these passes count the scan work
        runner.run_pass([op.jobs1() for op in parallel], "traced-jobs1")
    finally:
        tracer.uninstall()
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics.update(scalar_metrics())
    detail = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "trace": tracer.dump(),
    }
    return metrics, detail, runner


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sources = ROOT / "src" / "qhopf" / "cli.py"
    if not sources.is_file() or not (ROOT / "instances").is_dir():
        print(f"error: no qhopf sources or instances/ under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    meta = {"machine": machine_info(), "ref_loop_before_s": reference_loop_s()}
    ops = build_ops(args.workload, args.seed)
    if args.trace:
        metrics, detail, runner = traced_run(ops, args.seed)
        units = per_layer_units()
    else:
        metrics, detail, runner = timed_run(ops, args.seconds, args.seed)
        units = UNITS
    meta["ref_loop_after_s"] = reference_loop_s()

    failed = len(runner.failures)
    summary = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "meta": meta, "result": summary,
            "fail_ratio": failed / runner.attempted, "failures": runner.failures,
            "detail": detail, "ops": runner.op_table(),
        }, fh)

    for reason in runner.failures[:20]:
        print(f"FAIL {reason}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {failed / runner.attempted:.6g} "
          f"({failed}/{runner.attempted} ops)")
    if not args.trace:
        for name, value in detail["measured"].items():
            print(f"{args.workload} {name} measured = {value:.6g} {UNITS[name]}")
        print(f"host probe median {median(detail['host_samples_s']) * 1e3:.4g} ms "
              f"over {len(detail['host_samples_s'])} probes; timing metrics are "
              f"scaled to a {HOST_REF_S * 1e3:g} ms host probe")
        print(f"{args.workload} op_tail_ms is p{detail['op_tail_percentile']:g} "
              f"over {detail['ops']} ops, each the median of its samples "
              f"({detail['op_samples']} op samples in {len(detail['passes'])} passes)")
    print(f"reference loop {meta['ref_loop_before_s']:.4f} s before, "
          f"{meta['ref_loop_after_s']:.4f} s after; results in "
          f"{out_file.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
