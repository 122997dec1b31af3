"""The pair driver's summary, seeds and claim test, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


LOWER = {"wall_ref_s": "lower", "peak_rss_mb": "lower", "setup_s": "lower"}


def result(wall, rss=20.0, setup=0.1, correct=True, failed=0):
    values = {"wall_ref_s": wall, "peak_rss_mb": rss, "setup_s": setup}
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_summary_gives_medians_quartiles_wins_and_runs():
    walls = [(1.0, 0.7), (1.2, 0.8), (0.9, 0.95), (1.1, 0.6), (1.05, 0.75)]
    runs = [[result(p), result(c, rss=20.5)] for p, c in walls]
    entry = pairs.summarize(runs, LOWER)
    wall = entry["wall_ref_s"]
    assert wall["runs"] == [list(w) for w in walls]
    assert wall["parent"] == {"median": 1.05, "q1": 1.0, "q3": 1.1}
    assert wall["change"] == {"median": 0.75, "q1": 0.7, "q3": 0.8}
    assert wall["change_better_pairs"] == 4
    assert entry["peak_rss_mb"]["change_better_pairs"] == 0
    higher = pairs.summarize(runs, {"wall_ref_s": "higher"})["wall_ref_s"]
    assert higher["change_better_pairs"] == 1 and higher["runs"] == wall["runs"]
    assert entry["correct"] and entry["failed_ops"] == {"parent": 0, "change": 0}
    assert set(entry) == {"wall_ref_s", "peak_rss_mb", "setup_s", "correct", "failed_ops"}
    assert json.loads(json.dumps(entry)) == entry


def test_summary_reports_wrong_and_failed_operations():
    runs = [[result(1.0), result(0.9, correct=False, failed=2)],
            [result(1.0, failed=1), result(0.9)]]
    entry = pairs.summarize(runs, LOWER)
    assert not entry["correct"]
    assert entry["failed_ops"] == {"parent": 1, "change": 2}


def test_claim_needs_nine_wins_in_ten_and_a_margin_past_the_spread():
    def entry(parent, change):
        runs = [[result(p), result(c)] for p, c in zip(parent, change)]
        return pairs.summarize(runs, LOWER)["wall_ref_s"]
    parent = [1.0 + 0.01 * k for k in range(10)]
    assert pairs.claim_holds(entry(parent, [p - 0.2 for p in parent]), "lower")
    # eight wins in ten is not enough, whatever the margin
    assert not pairs.claim_holds(entry(parent, [p - 0.2 for p in parent[:8]] + [2.0, 2.0]),
                              "lower")
    # ten wins inside the parent's interquartile range are not enough either
    assert not pairs.claim_holds(entry(parent, [p - 0.001 for p in parent]), "lower")


def test_seeds_are_fresh_and_alternate_the_order(tmp_path):
    nested = {"seeds": [1, 2], "second_set": {"seeds": [421]}}
    (tmp_path / "BENCH_1.json").write_text(json.dumps(nested))
    (tmp_path / "BENCH_2.json").write_text(json.dumps({"seeds": [803]}))
    used = pairs.used_seeds(tmp_path)
    assert used == {1, 2, 421, 803}
    seeds = pairs.fresh_seeds(used, 10)
    assert seeds == list(range(901, 911)) and not used & set(seeds)
    assert pairs.fresh_seeds(set(), 3) == [101, 102, 103]
    assert [pairs.run_order(s) for s in seeds[:2]] == [(0, 1), (1, 0)]
