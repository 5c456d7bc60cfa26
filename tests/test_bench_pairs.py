"""``tools/bench_pairs.py`` writes the before/after record of
``BENCH_14.json`` and ``BENCH_15.json`` with each run's plain-call figures:
the order of a pair's runs, the summary arithmetic and the exit status on
made-up results, and one real pair of the benchmark's smoke-test shape, this
checkout against itself."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

SHARED = json.loads((ROOT / "BENCH_15.json").read_text(encoding="utf-8"))
SHARED_ENTRY = SHARED["workloads"]["trs_full_b4"]


# the plain figures that get win counts and a median change
PLAIN_COMPARED = [m for m in bench_pairs.PLAIN if m != "plain_spearman"]


def _assert_schema(record: dict, names: list[str]) -> None:
    """The record of ``BENCH_15.json`` plus the ``RAW`` and ``PLAIN``
    figures: their quartiles on each side, their values closing each run's
    row, and the plain calls' failed operations, wins, median changes and
    Spearman check."""
    assert record.keys() == SHARED.keys()
    assert list(record["workloads"]) == names
    assert record["units"].keys() == SHARED["units"].keys()
    for entry in record["workloads"].values():
        assert entry.keys() == SHARED_ENTRY.keys() | {"plain_spearman_bit_equal_every_pair"}
        for side in ("parent", "change"):
            assert entry[side].keys() == (SHARED_ENTRY[side].keys() | {"plain_failed_ops"}
                                          | set(bench_pairs.RAW + bench_pairs.PLAIN))
            for metric in bench_pairs.FIELDS:
                q1, median, q3 = entry[side][metric].values()
                assert list(entry[side][metric]) == ["q1", "median", "q3"]
                assert q1 <= median <= q3
        assert list(entry["change_wins"]) == list(SHARED_ENTRY["change_wins"]) + PLAIN_COMPARED
        assert entry["median_change_pct"].keys() == entry["change_wins"].keys()
        assert entry["run_fields"] == (SHARED_ENTRY["run_fields"] + bench_pairs.RAW
                                       + bench_pairs.PLAIN)
        assert len(entry["runs"]) == 2 * entry["pairs"] == 2 * len(entry["seeds"])


def _fake_result(change: bool, seed: int, plain_rho: float = 0.5) -> dict:
    """A result object as ``bench_once`` returns it, its figures set by side
    and seed."""
    values = {
        "setup_s": 1.0, "wall_s": 2.0 if change else 2.5, "samples_per_s": 100.0 + seed,
        "test_spearman": 0.5, "peak_rss_mb": 10.0 + (seed if change else 0),
    }
    return {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {m: {"value": v, "unit": "u"} for m, v in values.items()},
        "raw": {"raw_wall_s": 1.5 + seed, "call_unit_s": 0.01},
        "plain": {
            "plain_wall_s": 1.0 if change else 1.25, "plain_cpu_s": 0.5 + seed,
            "plain_child_cpu_s": 0.75 if change else 0.5, "plain_minflt": 1000 * seed,
            "plain_peak_rss_mb": 100.0 - (seed if change else 0), "plain_spearman": plain_rho,
            "failed": 0,
        },
    }


def test_pairs_alternate_and_summarize(monkeypatch, tmp_path):
    calls = []

    def fake(checkout, workload, seed, seconds, tiny):
        calls.append((checkout, workload, seed))
        return _fake_result(checkout == bench_pairs.ROOT, seed)

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
    assert entry["parent"]["plain_minflt"] == {"q1": 1500.0, "median": 2000.0, "q3": 2500.0}
    assert entry["change"]["plain_peak_rss_mb"] == {"q1": 97.5, "median": 98.0, "q3": 98.5}
    assert entry["change"]["plain_spearman"] == {"q1": 0.5, "median": 0.5, "q3": 0.5}
    # each row: seed, side, the metrics, the RAW figures, then the PLAIN ones
    assert entry["runs"][0][7:] == [2.5, 0.01, 1.25, 1.5, 0.5, 1000, 100.0, 0.5]
    assert entry["runs"][1][-6:] == [1.0, 1.5, 0.75, 1000, 99.0, 0.5]
    assert entry["parent"]["attempted_ops"] == 9 and entry["parent"]["failed_ops"] == 0
    assert entry["change"]["plain_failed_ops"] == 0
    # a tie is no win; peak_rss_mb and every plain figure are lower-is-better
    assert entry["change_wins"] == {"setup_s": 0, "wall_s": 3, "samples_per_s": 0,
                                    "peak_rss_mb": 0, "plain_wall_s": 3, "plain_cpu_s": 0,
                                    "plain_child_cpu_s": 0, "plain_minflt": 0,
                                    "plain_peak_rss_mb": 3}
    assert entry["median_change_pct"] == {"setup_s": 0.0, "wall_s": -20.0, "samples_per_s": 0.0,
                                          "peak_rss_mb": 20.0, "plain_wall_s": -20.0,
                                          "plain_cpu_s": 0.0, "plain_child_cpu_s": 50.0,
                                          "plain_minflt": 0.0, "plain_peak_rss_mb": -2.0}
    assert entry["test_spearman_bit_equal_every_pair"] is True
    assert entry["plain_spearman_bit_equal_every_pair"] is True


@pytest.mark.parametrize("defect", ["plain Spearman differs", "plain call failed"])
def test_a_plain_defect_exits_1(monkeypatch, tmp_path, defect):
    def fake(checkout, workload, seed, seconds, tiny):
        change = checkout == bench_pairs.ROOT
        if defect == "plain Spearman differs":
            return _fake_result(change, seed, math.nextafter(0.5, 1.0) if change and seed == 2 else 0.5)
        result = _fake_result(change, seed)
        result["plain"]["failed"] = int(change and seed == 2)
        return result

    monkeypatch.setattr(bench_pairs, "bench_once", fake)
    out = tmp_path / "record.json"
    assert bench_pairs.main(["--baseline", str(tmp_path / "parent"), "--workloads", "eval_bulk",
                             "--pairs", "2", "--seconds", "1", "-o", str(out)]) == 1
    entry = json.loads(out.read_text(encoding="utf-8"))["workloads"]["eval_bulk"]
    assert entry["test_spearman_bit_equal_every_pair"] is True
    assert entry["plain_spearman_bit_equal_every_pair"] is (defect == "plain call failed")
    assert entry["change"]["plain_failed_ops"] == int(defect == "plain call failed")
    assert entry["change"]["failed_ops"] == 0


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
    assert entry["plain_spearman_bit_equal_every_pair"] is True
    fields = entry["run_fields"]
    for row in entry["runs"]:
        # the plain call scores the same file with the same checkpoint
        assert row[fields.index("plain_spearman")] == row[fields.index("test_spearman")]
        assert row[fields.index("plain_wall_s")] > 0.0
    for side in ("parent", "change"):
        assert entry[side]["failed_ops"] == entry[side]["plain_failed_ops"] == 0
        # every sample of the smoke-test bulk file, in each of at least two calls
        assert entry[side]["attempted_ops"] >= 2 * workloads.TINY.bulk_samples
