"""cavitydark benchmark: one workload per fresh process, closed loop.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client in one thread starts each operation only after the previous
one ended.  With --trace 0 the run measures the end-to-end metrics, each
time paced against a fixed reference kernel (pace.py); with
--trace 1 it runs each operation untraced and then traced, and reports
the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The run
imports cavitydark from src/ of the checkout it sits in and exits 2
without a result when that is missing.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from pace import Pace
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5  # fresh processes before the operations, and as many after
MIN_SAMPLES = 3
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "op_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# the set-up is paced by the kernel timed in the same fresh process
# right after it, on the vCPU the set-up most likely ran on
SETUP_TEMPLATE = """\
import os, sys, time
src, bench = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
t0 = time.perf_counter()
{body}elapsed = time.perf_counter() - t0
if not os.path.abspath(cavitydark.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit("cavitydark was imported from outside " + src)
sys.path.insert(0, bench)
import pace
pace.kernel()
print(repr(elapsed * pace.REFERENCE_S[False] / pace.kernel()))
"""


def import_program():
    """Import cavitydark from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    import cavitydark
    import cavitydark.checks
    import cavitydark.cli

    if not Path(cavitydark.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: cavitydark was imported from {cavitydark.__file__}")
    return cavitydark


def measure_setup(code, samples):
    """Append SETUP_REPEATS paced times of the set-up code, each in a fresh
    interpreter process."""
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_TEMPLATE.format(body=code), str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up process failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))


def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples above it once that reaches p90 (100 samples or more), else
    p75 interpolated between samples.  A run of a few dozen operations
    has too few samples above p90 for it to repeat between runs; p75
    keeps several above it."""
    s = sorted(samples)
    n = len(s)
    if n < 100:
        return (statistics.quantiles(s, n=4, method="inclusive")[-1] if n > 1 else s[0]), 75.0
    return s[n - 11], 100.0 * (n - 10) / n


def environment(name, seed, seconds, trace, size, workers):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report varies between versions
        blas = "unknown"
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "commit": commit, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "CAVITYDARK_WORKERS": workers,
    }


class Runner:
    """Runs operations of one workload and counts the failed ones."""

    def __init__(self, wl, corrupt=False):
        self.wl, self.corrupt = wl, corrupt
        self.attempted = self.failed = 0
        self.problems = []

    def one(self, i, timed, pace=None):
        """Run and check operation i; return (wall seconds, paced seconds,
        work units) of a passing operation, None for a failed one.  Without
        a pace, the whole operation is timed and its paced time is its
        wall time."""
        wl = self.wl
        inp = wl.inputs(i)
        self.attempted += 1
        try:
            if pace is None:
                t0 = perf_counter()
                raw = timed(lambda: wl.operate(inp, plain))
                wall = paced = perf_counter() - t0
            else:
                pace.start()
                raw = wl.operate(inp, pace.step)
                wall, paced = pace.wall, pace.paced
            out = wl.output(inp, raw)
            if self.corrupt:
                out = wl.corrupt(out)
            problems = wl.check(inp, out)
        except Exception as exc:  # a crashing operation is a failed one
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append((i, problems))
            return None
        return wall, paced, wl.work(inp, out)

    def loop(self, seconds, pace):
        """Closed loop for `seconds` of wall time (checks and pacing
        included), at least MIN_SAMPLES operations; returns the passing
        (wall, paced, work)."""
        results = []
        deadline = perf_counter() + seconds
        i = 1
        while perf_counter() < deadline or len(results) < MIN_SAMPLES:
            r = self.one(i, None, pace)
            if r is not None:
                results.append(r)
            elif self.failed > 2 * MIN_SAMPLES:
                break
            i += 1
        return results


def plain(fn):
    return fn()


def run_workload(name, seed, seconds, trace, size="full", workdir=None, corrupt=False):
    """One benchmark run; returns (result dict, report lines)."""
    workers = os.environ.pop("CAVITYDARK_WORKERS", None)
    cls = WORKLOADS[name]
    setup = []
    if not trace:
        measure_setup(cls.setup_code, setup)
    cd = import_program()
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=workdir or ROOT) as tmp:
        wl = cls(cd, seed, Path(tmp), size)
        runner = Runner(wl, corrupt)
        runner.one(0, plain)  # warm-up: lazy imports and first-call costs
        lines = [f"env {json.dumps(environment(name, seed, seconds, trace, size, workers))}"]
        if trace:
            metrics, ok, info = traced_metrics(cd, wl, runner, seconds)
            lines += info
        else:
            results = runner.loop(seconds, Pace(cls.pace_eigensolve))
            measure_setup(cls.setup_code, setup)
            metrics, info = end_to_end(results, statistics.median(setup), wl)
            lines += info
            ok = True
    for i, problems in runner.problems[:5]:
        lines.append(f"FAILED op {i}: {'; '.join(problems)[:500]}")
    lines.append(f"fail_ratio {runner.failed / runner.attempted:.6g} "
                 f"({runner.failed} of {runner.attempted} operations)")
    result = {
        "correct": ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, lines


def end_to_end(results, setup_s, wl):
    walls = [w for w, _, _ in results]
    paced = [p for _, p, _ in results]
    op_tail, pct = tail(paced) if paced else (None, 0)
    values = {
        "setup_s": setup_s,
        "op_s": statistics.fmean(paced) if paced else None,
        "op_tail_s": op_tail,
        "work_per_s": sum(u for _, _, u in results) / sum(paced) if paced else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"paced, median of {2 * SETUP_REPEATS} fresh processes, before and after",
        "op_s": f"paced, mean of {len(results)} operations",
        "op_tail_s": f"paced, p{pct:.0f} of {len(results)} operations",
        "work_per_s": f"{wl.work_unit} per paced second, over {len(results)} operations",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    info = [f"{m} {values[m]} {u} ({notes[m]})" for m, u in END_TO_END.items()]
    if walls:
        info.append(f"op wall median {statistics.median(walls):.6g} s; "
                    f"wall/paced median {statistics.median(w / p for w, p in zip(walls, paced)):.4g}")
    info.append("op wall times (s): " + " ".join(f"{w:.4f}" for w in walls))
    info.append("op paced times (s): " + " ".join(f"{p:.4f}" for p in paced))
    return metrics, info


def traced_metrics(cd, wl, runner, seconds):
    """Alternate untraced and traced runs of each operation, so both see
    the same machine load, for `seconds` of wall time."""
    tracer = spans.Tracer()
    untraced, walls, summaries = [], [], []
    deadline = perf_counter() + seconds
    i = 1
    while perf_counter() < deadline or len(walls) < MIN_SAMPLES:
        plain_run = runner.one(i, plain)
        if plain_run is not None:
            untraced.append(plain_run[0])
        spans.install(tracer, cd)
        try:
            traced_run = runner.one(i, tracer.run_op)
        finally:
            tracer.restore()
        if traced_run is not None:
            walls.append(tracer.last_wall)
            summaries.append(tracer.summarize(tracer.last_wall, wl.dark_expected))
        if runner.failed > 2 * MIN_SAMPLES:
            break
        i += 1
    if not summaries or not untraced:
        return {}, False, ["no traced or untraced operation passed"]
    values = spans.per_layer(untraced, walls, summaries)
    slack = max(abs(values["trace.overhead_s"]), 0.02 * statistics.median(walls), 1e-3)
    worst = max(abs(s["trace.unattributed_s"]) for s in summaries)
    ok = worst <= slack
    info = [f"{m} {values[m] if isinstance(values[m], int) else f'{values[m]:.6g}'} "
            f"{spans.unit_of(m)}" for m in spans.METRICS]
    info.append(
        f"trace: untraced median wall {statistics.median(untraced):.6g} s over {len(untraced)} ops, "
        f"traced {statistics.median(walls):.6g} s over {len(walls)} ops; "
        f"worst unattributed {worst:.3g} s vs allowed {slack:.3g} s: {'ok' if ok else 'FAILED'}"
    )
    metrics = {m: {"value": values[m], "unit": spans.unit_of(m)} for m in spans.METRICS}
    return metrics, ok, info


def run_all(args):
    """Each workload in its own fresh process; one summary line per metric."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            summary["metrics"][f"{name}.{m}"] = v
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every operation, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "cavitydark" / "__init__.py").is_file():
        print(f"bench: no cavitydark sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
