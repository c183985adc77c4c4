import argparse
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _pairs(parent, change, name):
    return [({"metrics": {name: {"value": p}}}, {"metrics": {name: {"value": c}}})
            for p, c in zip(parent, change)]


TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
WIDE = [0.6, 1.4, 0.8, 1.2, 0.7, 1.3, 1.0, 0.9, 1.1, 1.0]


@pytest.mark.parametrize("parent, change, want", [
    (TIGHT, [1.5 * x for x in TIGHT], "gain"),
    (TIGHT, [0.7 * x for x in TIGHT], "regressed"),
    (TIGHT, [x + 0.005 for x in TIGHT], "same"),
    # a modest gain on every pair is still too small against the parent's IQR
    (TIGHT, [x + 0.01 for x in TIGHT], "same"),
    (WIDE, [x + 0.1 for x in WIDE], "unresolved"),
    # every change run above every parent run resolves even a wide parent
    (WIDE, [x + 1.0 for x in WIDE], "gain"),
    (WIDE, [0.5 * x for x in WIDE], "regressed"),
])
def test_verdict_higher_is_better(parent, change, want):
    out = bench_pairs.summarize(METRICS[:1], _pairs(parent, change, "jobs_per_s"))
    assert out["jobs_per_s"]["verdict"] == want


@pytest.mark.parametrize("factor, want", [(0.6, "gain"), (1.3, "regressed"), (1.1, "same")])
def test_verdict_lower_is_better(factor, want):
    parent = [100.0 * x for x in TIGHT]
    change = [factor * x for x in parent]
    out = bench_pairs.summarize(METRICS[1:], _pairs(parent, change, "job_p50_ms"))
    entry = out["job_p50_ms"]
    assert entry["verdict"] == want
    assert entry["parent"]["runs"] == parent and entry["change"]["runs"] == change


def test_gain_needs_nine_pairs_in_ten():
    parent = list(TIGHT)
    change = [1.5 * x for x in TIGHT]
    change[0], change[1] = 0.5, 0.5      # the change loses two pairs
    out = bench_pairs.summarize(METRICS[:1], _pairs(parent, change, "jobs_per_s"))
    assert out["jobs_per_s"]["change_won"] == 8
    assert out["jobs_per_s"]["verdict"] == "same"


def test_unresolved_verdict_says_why():
    out = bench_pairs.summarize(METRICS[:1], _pairs(WIDE, [x + 0.1 for x in WIDE], "jobs_per_s"))
    m = out["jobs_per_s"]
    assert m["verdict"] == "unresolved"
    # the parent's quartiles are 0.825 and 1.175 about a median of 1.0
    assert bench_pairs.verdict_text("jobs_per_s", m) == (
        "jobs_per_s unresolved (parent IQR 35.0% of its median, bound 25%; "
        "pairs won: change 10, parent 0)")
    out = bench_pairs.summarize(METRICS[:1], _pairs(TIGHT, [1.5 * x for x in TIGHT], "jobs_per_s"))
    assert bench_pairs.verdict_text("jobs_per_s", out["jobs_per_s"]) == "jobs_per_s gain"


def test_source_lines_counts_the_package_modules(tmp_path):
    pkg = tmp_path / "src" / "toepspec"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n\n")
    (pkg / "b.py").write_text("z = 3")            # no final newline, as wc -l counts
    (pkg / "notes.txt").write_text("1\n2\n")
    (pkg / "sub").mkdir()
    (pkg / "sub" / "c.py").write_text("w = 4\n")
    (tmp_path / "tools.py").write_text("v = 5\n")
    assert bench_pairs.source_lines(str(tmp_path)) == 3
    assert bench_pairs.source_lines(str(tmp_path / "missing")) == 0
    args = argparse.Namespace(label="t", seeds=[1, 2], workloads=[])
    sides = {"parent": (str(tmp_path), "p"), "change": (str(tmp_path / "missing"), "c")}
    record = bench_pairs.run_pairs({"command": ["true"], "run_seconds": 1}, sides, args)
    assert record["source_lines"] == {"parent": 3, "change": 0}


def _layers(**values):
    return {name.replace("__", "."): {"value": v, "unit": "s" if name.endswith("_s") else "count"}
            for name, v in values.items()}


def test_trace_moves_lists_changed_counts_and_moved_self_times():
    parent = _layers(hardy__log_rule__calls=4536.0, hardy__log_rule__self_s=1.41,
                     hardy__xi__calls=88.0, hardy__xi__self_s=0.30,
                     hardy__xi_grid__self_s=2.66, hardy__rule_builds=1904.0)
    change = _layers(hardy__log_rule__calls=48.0, hardy__log_rule__self_s=0.02,
                     hardy__xi__calls=88.0, hardy__xi__self_s=0.34,
                     hardy__xi_grid__self_s=0.61, hardy__rule_builds=48.0)
    parent["hardy.rule_hit_ratio"] = {"value": 0.70, "unit": "fraction"}
    change["hardy.rule_hit_ratio"] = {"value": 0.0, "unit": "fraction"}
    assert bench_pairs.trace_moves(parent, change) == [
        "hardy.log_rule.calls: 4536 -> 48",
        "hardy.log_rule.self_s: 1.41 -> 0.02",
        "hardy.xi_grid.self_s: 2.66 -> 0.61",
        "hardy.rule_builds: 1904 -> 48",
    ]
    assert bench_pairs.trace_moves(parent, parent) == []


def test_trace_moves_names_a_layer_only_one_side_has():
    parent = _layers(hardy__plain_rule__calls=1904.0, hardy__xi__calls=1.0)
    change = _layers(hardy__xi__calls=1.0000000000000002, hardy__roots__calls=7.0)
    assert bench_pairs.trace_moves(parent, change) == [
        "hardy.plain_rule.calls: 1904.0 -> None",
        "hardy.roots.calls: None -> 7.0",
    ]


def test_parse_run_reads_the_kinds_of_the_detail_line():
    detail = {"detail": {"workload": "point-queries", "kinds": {
        "xi/regular": {"jobs": 84, "failed": 0, "p50_ms": 2.5},
        "levelset/singular": {"jobs": 84, "failed": 1, "p50_ms": 1.25}}}}
    result = {"correct": True, "attempted": 168, "failed": 1,
              "metrics": {"jobs_per_s": {"value": 300.0, "unit": "1/s"}}}
    out = bench_pairs.parse_run(json.dumps(detail) + "\n" + json.dumps(result) + "\n")
    assert out["metrics"] == result["metrics"]
    assert out["kinds"] == {"xi/regular": 2.5, "levelset/singular": 1.25}


def test_setup_samples_are_pooled_beside_the_verdict():
    def run(samples):
        detail = {"detail": {"kinds": {}, "setup_samples_s": samples}}
        result = {"metrics": {"setup_s": {"value": sorted(samples)[2], "unit": "s"}}}
        return bench_pairs.parse_run(json.dumps(detail) + "\n" + json.dumps(result) + "\n")

    traced = bench_pairs.parse_run(json.dumps({"detail": {"kinds": {}}}) + "\n{}\n")
    assert traced["setup_samples_s"] == []
    pairs = [(run([0.20, 0.21, 0.22, 0.35, 0.36]), run([0.24, 0.25, 0.26, 0.27, 0.28])),
             (run([0.23, 0.24, 0.40, 0.20, 0.22]), run([0.29, 0.30, 0.31, 0.25, 0.26]))]
    assert pairs[0][0]["setup_samples_s"] == [0.20, 0.21, 0.22, 0.35, 0.36]
    pooled = bench_pairs.pool_setup(pairs)
    assert pooled["parent"]["runs"] == [0.20, 0.21, 0.22, 0.35, 0.36, 0.23, 0.24, 0.40, 0.20, 0.22]
    # ten samples a side: the quartiles fall at ranks 3.25 and 7.75 of the sorted samples
    assert pooled["parent"]["median"] == pytest.approx(0.225)
    assert pooled["parent"]["q1"] == pytest.approx(0.2125)
    assert pooled["parent"]["q3"] == pytest.approx(0.3225)
    assert pooled["change"]["median"] == pytest.approx(0.265)
    m = bench_pairs.summarize([{"name": "setup_s", "unit": "s", "better": "lower",
                                "bound": 0.25}], pairs)["setup_s"]
    m["pooled"] = pooled
    assert bench_pairs.verdict_text("setup_s", m) == (
        f"setup_s {m['verdict']} [pooled samples: parent 0.225 (0.2125-0.3225, n=10), "
        "change 0.265 (0.2525-0.2875, n=10)]")


def test_kind_moves_names_the_kinds_past_the_bound():
    parent = [{"kinds": {"xi/regular": p, "eigenfun/singular": 10.0, "old": 1.0}}
              for p in (2.0, 2.2, 1.9, 2.1, 2.0)]
    change = [{"kinds": {"xi/regular": c, "eigenfun/singular": 12.0, "new": 1.0}}
              for c in (2.7, 2.6, 2.8, 2.4, 2.6)]
    medians = bench_pairs.kind_medians(parent), bench_pairs.kind_medians(change)
    assert medians[0] == {"eigenfun/singular": 10.0, "old": 1.0, "xi/regular": 2.0}
    assert medians[1]["xi/regular"] == 2.6
    # +30% moves past a 0.25 bound, +20% does not
    assert bench_pairs.kind_moves(*medians, 0.25) == [
        "new: None -> 1.0",
        "old: 1.0 -> None",
        "xi/regular: p50 2 -> 2.6 ms (+30%)",
    ]
    assert bench_pairs.kind_moves(medians[0], medians[0], 0.25) == []
