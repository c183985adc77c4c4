"""Run the declared benchmark on two revisions in alternating pairs and
record the result as a trajectory file.

    python3 tools/bench_pairs.py --parent e63650d --change HEAD \\
        --workloads sweep oracle point-queries --seeds 8001-8010 --label pr8

Both revisions are exported with ``git archive`` into a temporary directory
(under ``--workdir`` when given, removed afterwards), so each side runs its
committed files, the benchmark included, from a fresh directory.
For every workload and seed, the command of ``BENCHMARK.json`` runs once on
each side; the side that goes first alternates from pair to pair.  The file
``BENCH_<label>.json`` holds, per workload and end-to-end metric, each side's
runs with their median and quartiles, how many pairs each side won
(ties count for neither), and a verdict against the metric's bound (see
``verdict``); the verdicts are also printed to stderr.  Per job kind, each
side's median over its runs of the kind's p50 time is kept under ``kinds``,
and the kinds that moved by more than the ``job_p50_ms`` bound (see
``kind_moves``) are printed: a workload's one p50 can hide a kind that
slowed down.  Each run's ``setup_s`` is the median of its set-up samples
(``setup_samples_s`` in the detail line); each side's samples are also
pooled over its runs, and their median and quartiles are kept and printed
beside the ``setup_s`` verdict (see ``pool_setup``).  Each workload also
runs once per side with ``--trace 1`` on the first seed; both sides'
per-layer metrics are kept under ``trace``, and the layers that moved (see
``trace_moves``) are printed.  The file also holds each side's line count
of ``src/toepspec/*.py``, so a change's size sits next to its benchmark
evidence.  Nothing under the benchmark's own directories is
read or written beyond running its command.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """Seeds as '8001-8010' or '8001,8003,8007'."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def export(rev: str, workdir: str, name: str) -> tuple[str, str]:
    """Check out ``rev`` of this repository into workdir/name; returns the
    directory and the full commit id."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", rev], check=True,
                            capture_output=True, text=True).stdout.strip()
    dest = os.path.join(workdir, name)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return dest, commit


def source_lines(checkout: str) -> int:
    """Newline count of the package modules ``src/toepspec/*.py`` in a
    checkout, the total ``wc -l`` prints."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "toepspec", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_once(checkout: str, command: list[str], workload: str, seed: int,
             seconds: float, trace: bool = False) -> dict:
    """One benchmark run, traced or not; the parsed result line."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return parse_run(proc.stdout)


def parse_run(stdout: str) -> dict:
    """The result line of one run, with each job kind's p50 time in ms, from
    the run's detail line, under ``kinds``, and the detail line's set-up
    samples in s under ``setup_samples_s`` (none in a traced run)."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    result = lines[-1]
    detail = next(line["detail"] for line in lines if "detail" in line)
    result["kinds"] = {kind: k["p50_ms"] for kind, k in detail["kinds"].items()}
    result["setup_samples_s"] = detail.get("setup_samples_s", [])
    return result


def pool_setup(pairs: list[tuple[dict, dict]]) -> dict:
    """Each side's set-up samples pooled over its runs, as a ``spread``."""
    return {side: spread([x for pair in pairs for x in pair[i]["setup_samples_s"]])
            for i, side in enumerate(("parent", "change"))}


def kind_medians(runs: list[dict]) -> dict:
    """Per job kind, the median over the runs of the kind's p50 time."""
    kinds = sorted({kind for run in runs for kind in run["kinds"]})
    return {kind: statistics.median(run["kinds"][kind] for run in runs if kind in run["kinds"])
            for kind in kinds}


def kind_moves(parent: dict, change: dict, bound: float) -> list[str]:
    """The job kinds whose median p50 moved by more than ``bound`` of the
    parent's, one line each; a kind only one side ran is listed too."""
    lines = []
    for kind in sorted(set(parent) | set(change)):
        p, c = parent.get(kind), change.get(kind)
        if p is None or c is None:
            lines.append(f"{kind}: {p} -> {c}")
        elif abs(c - p) > bound * p:
            lines.append(f"{kind}: p50 {p:.4g} -> {c:.4g} ms ({c / p - 1.0:+.0%})")
    return lines


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def verdict(sign: float, bound: float, p: dict, c: dict, change_won: int) -> str:
    """One of four words for a metric from the two sides' ``spread``, with
    ``sign`` +1 when higher is better and ``bound`` a fraction of the
    parent's median:

    - ``regressed``: the change's median is worse by more than the bound;
    - ``unresolved``: the parent's interquartile range is wider than the
      bound, and not every change run beats every parent run;
    - ``gain``: the change won at least 9 in 10 pairs, and the medians
      differ by more than the parent's interquartile range;
    - ``same``: none of these.
    """
    scale = abs(p["median"]) or 1.0
    better = sign * (c["median"] - p["median"])
    iqr = p["q3"] - p["q1"]
    if -better > bound * scale:
        return "regressed"
    beats_all = min(sign * x for x in c["runs"]) > max(sign * x for x in p["runs"])
    if iqr > bound * scale and not beats_all:
        return "unresolved"
    if change_won >= 0.9 * len(p["runs"]) and better > iqr:
        return "gain"
    return "same"


def verdict_text(name: str, m: dict) -> str:
    """A metric's verdict from ``summarize``; an ``unresolved`` one with why:
    the parent's interquartile range as a share of its median, beside the
    metric's bound, and the pairs each side won.  Where the metric keeps
    ``pooled`` samples (``setup_s``), each side's median, quartiles and
    sample count follow."""
    text = f"{name} {m['verdict']}"
    if m["verdict"] == "unresolved":
        p = m["parent"]
        share = (p["q3"] - p["q1"]) / (abs(p["median"]) or 1.0)
        text += (f" (parent IQR {share:.1%} of its median, bound {m['bound']:.0%}; "
                 f"pairs won: change {m['change_won']}, parent {m['parent_won']})")
    if "pooled" in m:
        text += " [pooled samples: " + ", ".join(
            f"{side} {s['median']:.4g} ({s['q1']:.4g}-{s['q3']:.4g}, n={len(s['runs'])})"
            for side, s in m["pooled"].items()) + "]"
    return text


# a self time counts as moved beyond this many seconds per pass
TRACE_SELF_S = 0.05


def trace_moves(parent: dict, change: dict) -> list[str]:
    """The per-layer metrics of two traced runs that moved, one line each:
    every count that changed, and every time in seconds that moved by more
    than ``TRACE_SELF_S``.  A metric only one side has is listed too."""
    lines = []
    for name in list(parent) + [n for n in change if n not in parent]:
        p, c = parent.get(name), change.get(name)
        unit = (p or c)["unit"]
        if unit not in ("count", "s"):
            continue
        if p is None or c is None:
            lines.append(f"{name}: {p and p['value']} -> {c and c['value']}")
            continue
        gap = abs(c["value"] - p["value"])
        if gap > (TRACE_SELF_S if unit == "s" else 1e-9 * max(1.0, abs(p["value"]))):
            lines.append(f"{name}: {p['value']:.6g} -> {c['value']:.6g}")
    return lines


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> dict:
    """Per metric: each side's median and quartiles, the pairs won, and the
    verdict."""
    out = {}
    for spec in metrics:
        name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        diffs = [sign * (c - p) for p, c in zip(parent, change)]
        won = sum(d > 0 for d in diffs)
        p, c = spread(parent), spread(change)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": p, "change": c,
            "change_won": won,
            "parent_won": sum(d < 0 for d in diffs),
            "verdict": verdict(sign, spec["bound"], p, c, won),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--change", default="HEAD", help="git revision of the change side")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds,
                   help="one seed per pair, as 8001-8010 or 8001,8003")
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--workdir", help="where the two temporary checkouts go (default: the "
                                     "system's temporary directory)")
    p.add_argument("--out", help="output path (default: BENCH_<label>.json at the repo root)")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two pairs")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_", dir=args.workdir) as workdir:
        sides = {name: export(rev, workdir, name)
                 for name, rev in (("parent", args.parent), ("change", args.change))}
        record = run_pairs(bench, sides, args)
    out = args.out or os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


def run_pairs(bench: dict, sides: dict, args) -> dict:
    """Every workload and seed on both checkouts; the trajectory record."""
    command, seconds = bench["command"], bench["run_seconds"]
    record = {
        "label": args.label, "command": command, "run_seconds": seconds,
        "parent": sides["parent"][1], "change": sides["change"][1],
        "seeds": args.seeds,
        "source_lines": {side: source_lines(sides[side][0]) for side in ("parent", "change")},
        "workloads": {},
    }
    for workload in args.workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            result = {side: run_once(sides[side][0], command, workload, seed, seconds)
                      for side in order}
            pairs.append((result["parent"], result["change"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} jobs_per_s {result[side]['metrics']['jobs_per_s']['value']:.4g}"
                for side in order), file=sys.stderr)
        metrics = summarize(bench["end_to_end"], pairs)
        if "setup_s" in metrics:
            metrics["setup_s"]["pooled"] = pool_setup(pairs)
        kinds = {"parent": kind_medians([p for p, _ in pairs]),
                 "change": kind_medians([c for _, c in pairs])}
        p50_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "job_p50_ms")
        kinds["moved"] = kind_moves(kinds["parent"], kinds["change"], p50_bound)
        traced = {side: run_once(sides[side][0], command, workload, args.seeds[0], seconds,
                                 trace=True)["metrics"] for side in ("parent", "change")}
        moves = trace_moves(traced["parent"], traced["change"])
        record["workloads"][workload] = {
            "pairs": len(pairs),
            "failed": {"parent": [r["failed"] for r, _ in pairs],
                       "change": [r["failed"] for _, r in pairs]},
            "metrics": metrics,
            "kinds": kinds,
            "trace": {"seed": args.seeds[0], **traced, "moved": moves},
        }
        print(f"{workload} verdicts: " + ", ".join(
            verdict_text(name, m) for name, m in metrics.items()), file=sys.stderr)
        print(f"{workload} job kinds whose median p50 moved by more than {p50_bound:.0%}, "
              "parent -> change:", file=sys.stderr)
        for line in kinds["moved"] or ["(none)"]:
            print(f"  {line}", file=sys.stderr)
        print(f"{workload} trace, seed {args.seeds[0]}, parent -> change:", file=sys.stderr)
        for line in moves or ["(no layer moved)"]:
            print(f"  {line}", file=sys.stderr)
    return record


if __name__ == "__main__":
    sys.exit(main())
