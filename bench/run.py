"""Pipeline benchmark of mixedwave: solve, estimate and reconstruct.

Run from the root of a checkout:

    python3 bench/run.py --workload estimate-varcoef --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seconds 35          # every workload
    python3 bench/run.py --workload all --smoke               # one small round each

A run repeats whole rounds of the workload until `--seconds` have
passed and reports the median of each timing over its rounds, in CPU
seconds of this process (see README.md for why not wall time).  With
`--trace 1` it adds one round under cProfile and reports the per-layer
metrics instead of the end-to-end ones.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import os

# Read once, when numpy is first imported: one BLAS and OpenMP thread,
# and no huge-page advice on large arrays, which made peak RSS differ by
# tens of MB between runs of the same round.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import ctypes

# glibc raises its mmap threshold as large blocks are freed, so how much
# of the heap a round leaves resident differed from run to run.  A fixed
# threshold of 1 MiB makes peak RSS repeat and costs no measurable time.
_M_MMAP_THRESHOLD = -3
try:
    ctypes.CDLL(None).mallopt(_M_MMAP_THRESHOLD, 1 << 20)
except AttributeError:  # not glibc: its allocator keeps its own policy
    pass

import argparse
import cProfile
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("estimate-varcoef", "study-standing", "solve-forced-rt1")
END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "estimate_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one untimed round at the smoke size")
    return ap.parse_args(argv)


def _import_package():
    """Import mixedwave from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import mixedwave
    except ImportError as exc:
        raise SystemExit("bench: cannot import mixedwave from {}: {}".format(SRC, exc))
    if not Path(mixedwave.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("bench: mixedwave imported from {}, not {}".format(
            mixedwave.__file__, SRC))
    return Path(mixedwave.__file__).resolve().parent


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "solver.bytes_written":
        return "B"
    return "count"


def run_workload(args):
    package_dir = _import_package()
    import workloads
    from profiling import Attribution

    size = workloads.SIZES[args.workload]["smoke" if args.smoke else "full"]
    os.makedirs(ROOT / ".bench_work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=ROOT / ".bench_work")
    rounds = []
    try:
        def one_round(size, profiler=None):
            rdir = tempfile.mkdtemp(dir=workdir)
            # Garbage left by the previous round is not this round's cost.
            gc.collect()
            try:
                return workloads.run_round(args.workload, size, args.seed, rdir, profiler)
            finally:
                shutil.rmtree(rdir)

        if args.smoke:
            rounds.append(one_round(size))
        else:
            one_round(workloads.SIZES[args.workload]["warm"])
            # A traced run spends half its time on untraced rounds, for
            # the overhead and the per-stage timings, then traces one more.
            seconds = args.seconds / 2 if args.trace else args.seconds
            # Whole rounds only, and none that would end past the deadline.
            deadline = time.perf_counter() + seconds
            while not rounds or time.perf_counter() + rounds[-1].elapsed <= deadline:
                rounds.append(one_round(size))
        traced = None
        if args.trace:
            profiler = cProfile.Profile()
            traced = one_round(size, profiler)
            profiler.create_stats()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counted = rounds + ([traced] if traced else [])
    wrong = sorted({w for r in counted for w in r.wrong})
    failed = sorted({f for r in counted for f in r.failed})
    for line in wrong:
        print("WRONG   {}: {}".format(args.workload, line))
    for line in failed:
        print("FAILED  {}: {}".format(args.workload, line))
    print("rounds  {}: {} timed ({} CPU s; {} wall s){}".format(
        args.workload, len(rounds), " ".join("%.2f" % r.cpu for r in rounds),
        " ".join("%.2f" % r.elapsed for r in rounds),
        ", 1 traced (%.2f CPU s)" % traced.cpu if traced else ""), file=sys.stderr)

    if args.trace:
        metrics = {name: statistics.median(r.times[name] for r in rounds)
                   for name in workloads.STAGES}
        metrics.update(rounds[0].counts)
        attribution = Attribution(profiler, package_dir).metrics()
        metrics.update(attribution)
        untraced = statistics.median(r.cpu for r in rounds)
        module_self = sum(v for k, v in attribution.items() if k.endswith(".self_s"))
        metrics["trace_overhead_s"] = traced.cpu - untraced
        # The profiler's clock is wall time, so its remainder is taken from
        # the traced round's wall time.
        metrics["trace.unattributed_s"] = traced.elapsed - module_self
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
    else:
        e2e = [r.end_to_end() for r in rounds]
        metrics = {name: {"value": statistics.median(e[name] for e in e2e), "unit": unit}
                   for name, unit in END_TO_END.items() if name != "peak_rss_mb"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        }
    return {
        "correct": not wrong,
        "attempted": sum(r.attempted for r in counted),
        "failed": sum(len(r.failed) for r in counted),
        "metrics": metrics,
    }


def run_all(args):
    """Each workload in a fresh process of its own; prints a summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            raise SystemExit("bench: workload {} exited with {}".format(name, proc.returncode))
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print("{}  correct={} attempted={} failed={}".format(
            name, res["correct"], res["attempted"], res["failed"]))
        for metric, m in res["metrics"].items():
            print("    {:38s} {:>14.6g} {}".format(metric, m["value"], m["unit"]))
    return results


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
