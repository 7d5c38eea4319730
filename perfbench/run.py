"""hypdiss benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Drives `hypdiss.cli.main(argv)` in this process, the path the README commands
take, as one client in a closed loop with BLAS pinned to one thread.  Every
operation's exit code and output files are checked (see workloads.py).

--trace 0 reports the end-to-end metrics: the median warm operation time in
units of a reference kernel timed between the operations (the raw median in
seconds is kept in the record), the median cold set-up time over fresh
interpreters (setup_probe.py), the peak resident memory of this process, and
the share of correct operations.
--trace 1 alternates untraced and traced operations (tracer.py) and reports
the per-layer metrics and the tracing overhead.  --quick runs one operation
and one set-up probe whatever --seconds says.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the provenance and the raw median operation seconds.  A fuller record, with the spans of
the first traced operation, goes to .perfbench_out/results/.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "HYPDISS_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120

sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REF_MATRIX = np.random.default_rng(0).normal(size=(8, 8))
REF_REPEATS = 600
REF_SHARE = 0.05  # reference sampling time after an operation, relative to it


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    return ap.parse_args(argv)


def provenance():
    import numpy
    import scipy

    # the ceiling keeps git from reporting an enclosing repository's HEAD
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hypdiss")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def setup_probe(workload, argv):
    """Seconds from a fresh interpreter's start to a ready model."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
           ",".join(workloads.MODULES[workload]), "--"] + argv
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Runner:
    """Runs one workload's operations and checks each one."""

    def __init__(self, workload, seed, workdir):
        import hypdiss.cli

        self.cli = hypdiss.cli
        self.workload = workload
        self.seed = seed
        self.outdir = os.path.join(workdir, "out")
        argv, model_doc = workloads.inputs(workload, seed)
        if model_doc is not None:
            path = os.path.join(workdir, "model.json")
            with open(path, "w") as f:
                json.dump(model_doc, f)
            argv = [path if a == "{model}" else a for a in argv]
        self.argv = argv
        with open(os.path.join(HERE, "fingerprint.json")) as f:
            self.fingerprints = json.load(f)
        self.attempted = 0
        self.failed = 0
        self.correct = 0
        self.problems = []
        self.observed = None
        self.cpu_s = []

    def op(self, call=None):
        """One operation; returns its wall seconds (None if it failed)."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        argv = self.argv + ["--output-dir", self.outdir]
        run = call or (lambda fn: fn())
        self.attempted += 1
        sink = io.StringIO()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = run(lambda: self.cli.main(argv))
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - t0
        self.cpu_s.append(time.process_time() - c0)
        if rc != 0:
            self.failed += 1
        problems = workloads.check(self.workload, self.outdir, rc, self.seed,
                                   self.fingerprints)
        if problems:
            self.problems.append(problems)
            print(f"operation {self.attempted} incorrect: {problems}", file=sys.stderr)
        else:
            self.correct += 1
            if self.observed is None:
                self.observed = workloads.observe(self.workload, self.outdir)
        return elapsed if rc == 0 else None


def reference_kernel():
    """Wall seconds of fixed work that does not touch hypdiss.

    Small eigenproblems and a Python loop, the mix the workloads spend their
    time in.  Timed between operations, its median tracks the speed of a
    shared host, which drifts by tens of percent over minutes.
    """
    t0 = time.perf_counter()
    for _ in range(REF_REPEATS):
        w = np.linalg.eig(REF_MATRIX)[0]
        [float(v.real) for v in w]
    return time.perf_counter() - t0


def sample_reference(refs, budget_s):
    """Append reference-kernel times to refs for about budget_s (at least one)."""
    t_end = time.perf_counter() + budget_s
    refs.append(reference_kernel())
    while time.perf_counter() < t_end:
        refs.append(reference_kernel())


def metric(value, unit):
    return {"value": value, "unit": unit}


def more_time(t_last, t_end):
    """Whether another step as long as the last one ends before t_end."""
    now = time.perf_counter()
    return now + (now - t_last) <= t_end


def end_to_end(runner, args, record):
    repeats = 1 if args.quick else SETUP_REPEATS
    setups = [setup_probe(args.workload, runner.argv) for _ in range(repeats)]
    if not args.quick:
        runner.op()  # warm-up: lazy imports, FFT plans, phase caches
    times, refs = [], []
    sample_reference(refs, REF_SHARE)
    t_end = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        t = runner.op()
        sample_reference(refs, REF_SHARE * (time.perf_counter() - t0))
        if t is not None:
            times.append(t)
        if args.quick or not more_time(t0, t_end):
            break
    record.update(setup_s=setups, op_s=times, ref_s=refs)
    if not times:
        return {}
    record["op_s_p50"] = statistics.median(times)
    return {
        "op_ref_p50": metric(record["op_s_p50"] / statistics.median(refs), "ref"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "correct_ratio": metric(runner.correct / runner.attempted, "ratio"),
    }


def per_layer(runner, args, record):
    tracer = tracing.Tracer()
    if not args.quick:
        runner.op()
    plain, traced, summaries, first = [], [], [], None
    t_end = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        t = runner.op()
        tracer.install()
        try:
            tt = runner.op(tracer.run)
        finally:
            tracer.uninstall()
        if t is not None and tt is not None:
            plain.append(t)
            traced.append(tracer.last.seconds)
            summaries.append(tracer.last.summary())
            first = first or tracer.last
        if args.quick or not more_time(t0, t_end):
            break
    record.update(op_s=plain, traced_op_s=traced, layers=summaries,
                  spans=first.spans_table() if first else None)
    if not summaries:
        return {}
    counts_repeat = all(exact_counts(s) == exact_counts(summaries[0]) for s in summaries)
    record["counts_repeat"] = counts_repeat
    if not counts_repeat:
        print("warning: exact counts differ between traced operations", file=sys.stderr)
    return layer_metrics(summaries, plain, traced)


def exact_counts(summary):
    return {nm: sp["calls"] for nm, sp in summary["spans"].items()}, summary["counts"]


COUNT_NAMES = ("linear_spectral.modes", "linear_spectral.defective_modes",
               "model.evaluator.calls", "conditions.uniform_grid_points")


def layer_metrics(summaries, plain, traced):
    """Per-layer metrics: exact counts from the first traced operation,
    times as medians over the traced operations."""
    first = summaries[0]
    med = statistics.median
    out = {}
    for nm in tracing.SPAN_NAMES:
        out[f"{nm}.calls"] = metric(first["spans"][nm]["calls"], "count")
        out[f"{nm}.s"] = metric(med(s["spans"][nm]["s"] for s in summaries), "s")
        out[f"{nm}.self_s"] = metric(med(s["spans"][nm]["self_s"] for s in summaries), "s")
    for nm in COUNT_NAMES:
        out[nm] = metric(first["counts"].get(nm, 0), "count")
    out["paradiff.smooth_symbol.field_bytes_computed"] = metric(
        first["counts"].get("paradiff.smooth_symbol.field_bytes_computed", 0), "bytes")
    out["simulator.transforms_per_step"] = metric(first["transforms_per_step"], "ratio")
    out["conditions.lyapunov_solves_per_point"] = metric(
        first["lyapunov_solves_per_point"], "ratio")
    out["trace.untraced_op_s"] = metric(med(plain), "s")
    out["trace.traced_op_s"] = metric(med(traced), "s")
    out["trace.overhead_ratio"] = metric(med(traced) / med(plain) - 1.0, "ratio")
    out["trace.span_coverage"] = metric(
        med(s["root_s"] / t for s, t in zip(summaries, traced)), "ratio")
    return out


def write_record(args, record):
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(record, f)
    os.replace(path + ".tmp", path)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypdiss", "cli.py")):
        print(f"error: no hypdiss sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    prov = provenance()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "quick": args.quick, "argv": runner.argv,
                  "provenance": prov}
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, args, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = runner.correct == runner.attempted and bool(metrics)
    record.update(op_cpu_s=runner.cpu_s, attempted=runner.attempted, failed=runner.failed,
                  correct=correct, problems=runner.problems, observed=runner.observed,
                  metrics=metrics)
    write_record(args, record)
    print(json.dumps({"provenance": prov, "op_s_p50": record.get("op_s_p50")}))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
