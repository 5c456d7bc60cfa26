"""``tools/bench_pairs.py`` writes the before/after record of
``BENCH_14.json`` and ``BENCH_15.json``: the order of a pair's runs and the
summary arithmetic on made-up results, and one real pair of the benchmark's
smoke-test shape, this checkout against itself."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

SHARED = json.loads((ROOT / "BENCH_15.json").read_text(encoding="utf-8"))
SHARED_ENTRY = SHARED["workloads"]["trs_full_b4"]


def _assert_schema(record: dict, names: list[str]) -> None:
    """The record of ``BENCH_15.json`` plus the ``RAW`` figures: their
    quartiles on each side and their values closing each run's row."""
    assert record.keys() == SHARED.keys()
    assert list(record["workloads"]) == names
    assert record["units"].keys() == SHARED["units"].keys()
    for entry in record["workloads"].values():
        assert entry.keys() == SHARED_ENTRY.keys()
        for side in ("parent", "change"):
            assert entry[side].keys() == SHARED_ENTRY[side].keys() | set(bench_pairs.RAW)
            for metric in bench_pairs.METRICS + bench_pairs.RAW:
                q1, median, q3 = entry[side][metric].values()
                assert list(entry[side][metric]) == ["q1", "median", "q3"]
                assert q1 <= median <= q3
        assert entry["change_wins"].keys() == SHARED_ENTRY["change_wins"].keys()
        assert entry["median_change_pct"].keys() == SHARED_ENTRY["median_change_pct"].keys()
        assert entry["run_fields"] == SHARED_ENTRY["run_fields"] + bench_pairs.RAW
        assert len(entry["runs"]) == 2 * entry["pairs"] == 2 * len(entry["seeds"])


def test_pairs_alternate_and_summarize(monkeypatch, tmp_path):
    calls = []

    def fake(checkout, workload, seed, seconds, tiny):
        calls.append((checkout, workload, seed))
        change = checkout == bench_pairs.ROOT
        values = {
            "setup_s": 1.0, "wall_s": 2.0 if change else 2.5, "samples_per_s": 100.0 + seed,
            "test_spearman": 0.5, "peak_rss_mb": 10.0 + (seed if change else 0),
        }
        return {
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {m: {"value": v, "unit": "u"} for m, v in values.items()},
            "raw": {"raw_wall_s": 1.5 + seed, "call_unit_s": 0.01},
        }

    monkeypatch.setattr(bench_pairs, "bench_once", fake)
    out = tmp_path / "record.json"
    parent = tmp_path / "parent"
    assert bench_pairs.main(["--baseline", str(parent), "--workloads", "eval_bulk", "trs_full_b4",
                             "--pairs", "3", "--seconds", "1", "-o", str(out)]) == 0
    order = [(parent, 1), (bench_pairs.ROOT, 1), (bench_pairs.ROOT, 2), (parent, 2),
             (parent, 3), (bench_pairs.ROOT, 3)]
    assert [(c, s) for c, w, s in calls] == order * 2
    assert [w for _, w, _ in calls] == ["eval_bulk"] * 6 + ["trs_full_b4"] * 6
    record = json.loads(out.read_text(encoding="utf-8"))
    _assert_schema(record, ["eval_bulk", "trs_full_b4"])
    entry = record["workloads"]["eval_bulk"]
    assert entry["seeds"] == [1, 2, 3]
    assert [row[:2] for row in entry["runs"]] == [
        [1, "parent"], [1, "change"], [2, "change"], [2, "parent"], [3, "parent"], [3, "change"],
    ]
    assert entry["change"]["wall_s"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert entry["change"]["peak_rss_mb"] == {"q1": 11.5, "median": 12.0, "q3": 12.5}
    assert entry["parent"]["raw_wall_s"] == {"q1": 3.0, "median": 3.5, "q3": 4.0}
    assert entry["runs"][0][-2:] == [2.5, 0.01]
    assert entry["parent"]["attempted_ops"] == 9 and entry["parent"]["failed_ops"] == 0
    # a tie is no win; peak_rss_mb is lower-is-better
    assert entry["change_wins"] == {"setup_s": 0, "wall_s": 3, "samples_per_s": 0,
                                    "peak_rss_mb": 0}
    assert entry["median_change_pct"] == {"setup_s": 0.0, "wall_s": -20.0, "samples_per_s": 0.0,
                                          "peak_rss_mb": 20.0}
    assert entry["test_spearman_bit_equal_every_pair"] is True


def test_one_tiny_pair_against_this_checkout(tmp_path):
    out = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", "--baseline", str(ROOT), "--workloads",
         "eval_bulk", "--pairs", "1", "--seconds", "0", "--tiny", "-o", str(out)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    _assert_schema(record, ["eval_bulk"])
    entry = record["workloads"]["eval_bulk"]
    assert entry["test_spearman_bit_equal_every_pair"] is True
    for side in ("parent", "change"):
        assert entry[side]["failed_ops"] == 0
        # every sample of the smoke-test bulk file, in each of at least two calls
        assert entry[side]["attempted_ops"] >= 2 * workloads.TINY.bulk_samples
