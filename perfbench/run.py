"""toepspec benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  The job list of the workload is generated
from the seed and run whole, pass after pass, until ``--seconds`` have gone
by.  Every job's results are checked against an independent reference.

The last line of standard output is the result: end-to-end metrics with
``--trace 0``, per-layer metrics from the traced run with ``--trace 1``.
The line before it records the environment and the run's details.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 4          # extra fresh-process set-ups; setup_s is the median
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "oracle", "point-queries"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s)")
    return p.parse_args(argv)


def load_library():
    """Import toepspec from this checkout's src/, refusing any other copy."""
    if not os.path.isdir(os.path.join(SRC, "toepspec")):
        raise BenchError(f"no toepspec sources under {SRC}")
    sys.path.insert(0, SRC)
    import toepspec
    where = os.path.dirname(os.path.abspath(toepspec.__file__))
    if os.path.dirname(where) != SRC:
        raise BenchError(f"imported toepspec from {where}, not from {SRC}")
    return toepspec


# -- environment record ------------------------------------------------------------------


def _openblas():
    """(version string, thread count) of the OpenBLAS numpy loaded, if any."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), int(get_threads())
    return None, None


def _commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "toepspec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment():
    import numpy as np

    blas_config, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "TOEPLITZ_THREADS": os.environ.get("TOEPLITZ_THREADS"),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# -- running jobs ------------------------------------------------------------------------


def execute(wl, jobs, seconds, tracer):
    """Run whole passes of the job list until ``seconds`` have gone by.

    Returns per-job records (kind, seconds, status, detail), the counts of
    the informational flags checks return, the pass count and the wall
    time.  Only the library calls are timed; the reference check of each
    job runs after it, with tracing off.
    """
    from workloads import Failed, Mismatch

    records = []
    flag_counts = {}   # check flag -> [times true, times seen]
    passes = 0
    start = time.perf_counter()
    job_id = 0
    while True:
        for job in jobs:
            job_id += 1
            status, detail = "ok", ""
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.run(job)
                else:
                    tracer.active = True
                    try:
                        out = tracer.job(job_id, lambda: wl.run(job))
                    finally:
                        tracer.active = False
            except Exception as exc:  # a failed job is counted, the run goes on
                out = None
                status, detail = "raised", f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            flags = None
            if status == "ok":
                try:
                    flags = wl.check(job, out)
                except Failed as exc:
                    status, detail = "failed", str(exc)
                except Mismatch as exc:
                    status, detail = "mismatch", str(exc)
            del out
            records.append((job.kind, dt, status, detail))
            for name, value in (flags or {}).items():
                counts = flag_counts.setdefault(name, [0, 0])
                counts[0] += bool(value)
                counts[1] += 1
        passes += 1
        if time.perf_counter() - start >= seconds:
            return records, flag_counts, passes, time.perf_counter() - start


def metric(value, unit):
    return {"value": value, "unit": unit}


def percentile(values, q):
    """Nearest-rank percentile and the number of samples above it."""
    xs = sorted(values)
    k = max(1, math.ceil(q * len(xs)))
    return xs[k - 1], len(xs) - k


def setup_probe(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def summarize_kinds(records):
    kinds = {}
    for kind, dt, status, _ in records:
        k = kinds.setdefault(kind, {"jobs": 0, "failed": 0, "times": []})
        k["jobs"] += 1
        k["failed"] += status != "ok"
        k["times"].append(dt)
    return {kind: {"jobs": k["jobs"], "failed": k["failed"],
                   "p50_ms": 1e3 * statistics.median(k["times"])}
            for kind, k in sorted(kinds.items())}


def layer_metrics(tracer, passes, wall):
    """Per-layer metrics of a traced run, per pass of the job list, and the
    figures that show the self times account for the wall time."""
    import tracing as tr

    per_pass = 1.0 / passes
    calls = {name: 0 for name, _, _ in tr.TRACED}
    self_s = {name: 0.0 for name, _, _ in tr.TRACED}
    bench_in_jobs = 0.0
    overlap = 0.0
    job_time = 0.0
    lambda_nodes = 0
    names = {sid: name for sid, _, _, name, _, _ in tracer.spans}
    for sid, parent, _job, name, t0, t1 in tracer.spans:
        if name == "spectral.spectral_frame" and names.get(parent) == "spectral.weak_measure":
            lambda_nodes += 1
        if name == tr.JOB_SPAN:
            job_time += t1 - t0
    for sid, (name, own, ovl) in tr.self_times(tracer.spans).items():
        overlap += ovl
        if name == tr.JOB_SPAN:
            bench_in_jobs += own
        else:
            calls[name] += 1
            self_s[name] += own
    bench_self = bench_in_jobs + (wall - job_time)
    accounted = sum(self_s.values()) + bench_self - overlap
    requests = calls["hardy.log_rule"] + calls["hardy.plain_rule"]
    span_count = len(tracer.spans)
    cost = tracer.span_cost()

    out = {}
    for name, _, _ in tr.TRACED:
        out[f"{name}.calls"] = metric(calls[name] * per_pass, "count")
        out[f"{name}.self_s"] = metric(self_s[name] * per_pass, "s")
    out["hardy.rule_builds"] = metric(tracer.rule_builds * per_pass, "count")
    out["hardy.rule_builds_max_depth"] = metric(tracer.rule_builds_max_depth * per_pass, "count")
    out["hardy.rule_hit_ratio"] = metric(
        1.0 - tracer.rule_builds / requests if requests else 0.0, "fraction")
    out["spectral.weak_measure.lambda_nodes"] = metric(lambda_nodes * per_pass, "count")
    out["bench.self_s"] = metric(bench_self * per_pass, "s")
    out["trace.overhead_frac"] = metric(span_count * cost / wall, "fraction")
    detail = {
        "wall_s_per_pass": wall * per_pass,
        "thread_overlap_s_per_pass": overlap * per_pass,
        "accounted_frac": accounted / wall,
        "spans_per_pass": span_count * per_pass,
        "span_cost_us": cost * 1e6,
    }
    return out, detail


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not args.seconds > 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2
    try:
        ts = load_library()
    except (BenchError, ImportError) as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2

    import numpy as np

    import tracing as tr
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    jobs = wl.make_jobs(np.random.default_rng(args.seed))
    wl.warmup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install(ts)
    try:
        records, flag_counts, passes, wall = execute(wl, jobs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    attempted = len(records)
    failed = sum(1 for _, _, status, _ in records if status != "ok")
    correct = not any(status == "mismatch" for _, _, status, _ in records)
    times = [dt for _, dt, _, _ in records]
    p90, beyond = percentile(times, 0.9)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "jobs_per_pass": len(jobs), "wall_s": wall,
        "job_p90_samples": len(times), "job_p90_beyond": beyond,
        "n_grid_over_cache_frac": sum(map(workloads.over_rule_cache, jobs)) / len(jobs),
        "kinds": summarize_kinds(records),
        "check_flags_true_of_seen": flag_counts,
        "failures": [{"kind": k, "status": s, "detail": d}
                     for k, _, s, d in records if s != "ok"][:20],
        "environment": environment(),
    }

    if args.trace:
        metrics, detail["trace"] = layer_metrics(tracer, passes, wall)
    else:
        try:
            setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            sys.stderr.write(f"benchmark cannot run: {exc}\n")
            return 2
        detail["setup_samples_s"] = setups
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "jobs_per_s": metric((attempted - failed) / sum(times), "1/s"),
            "job_p50_ms": metric(1e3 * statistics.median(times), "ms"),
            "job_p90_ms": metric(1e3 * p90, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": metric(1.0 - failed / attempted, "fraction"),
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
