"""Confidence-memory protocol tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trscore.errors import ContractError, FusionUnavailableError
from trscore.memory import (
    REFERENCE,
    TEACHER,
    ConfidenceMemory,
    MemoryEntry,
    fuse_pseudo_label,
)


class TestMaybeWrite:
    def test_first_insert_written(self):
        mem = ConfidenceMemory(TEACHER)
        assert mem.maybe_write("a", 80.0, 0.9, epoch=0) is True
        assert mem.read("a").score == 80.0

    def test_lower_sigma_replaces(self):
        mem = ConfidenceMemory(TEACHER)
        mem.maybe_write("a", 80.0, 0.8, 0)
        assert mem.maybe_write("a", 81.0, 0.5, 1) is True
        entry = mem.read("a")
        assert (entry.score, entry.sigma, entry.epoch_written) == (81.0, 0.5, 1)

    def test_tie_keeps_existing(self):
        mem = ConfidenceMemory(TEACHER)
        mem.maybe_write("a", 80.0, 0.8, 0)
        assert mem.maybe_write("a", 99.0, 0.8, 1) is False
        assert mem.read("a").score == 80.0

    def test_higher_sigma_kept(self):
        mem = ConfidenceMemory(TEACHER)
        mem.maybe_write("a", 80.0, 0.5, 0)
        assert mem.maybe_write("a", 70.0, 0.9, 1) is False

    def test_nonpositive_sigma_rejected(self):
        mem = ConfidenceMemory(TEACHER)
        with pytest.raises(ContractError):
            mem.maybe_write("a", 80.0, 0.0, 0)
        with pytest.raises(ContractError):
            mem.maybe_write("a", 80.0, -1.0, 0)

    def test_nan_sigma_rejected(self):
        # NaN fails every comparison; accepted, it would be replaced by every
        # later write and save a memory file that cannot be loaded
        mem = ConfidenceMemory(TEACHER)
        with pytest.raises(ContractError):
            mem.maybe_write("a", 80.0, float("nan"), 0)
        assert "a" not in mem

    def test_repeated_pair_idempotent(self):
        mem = ConfidenceMemory(TEACHER)
        mem.maybe_write("a", 80.0, 0.5, 0)
        before = mem.read("a")
        assert mem.maybe_write("a", 80.0, 0.5, 1) is False
        assert mem.read("a") == before


class TestRead:
    def test_read_back(self):
        mem = ConfidenceMemory(TEACHER)
        mem.maybe_write("v", 80.0, 0.5, 3)
        entry = mem.read("v")
        assert (entry.score, entry.sigma) == (80.0, 0.5)

    def test_unknown_absent(self):
        assert ConfidenceMemory(TEACHER).read("nope") is None

    def test_two_writes_keep_lower_sigma(self):
        mem = ConfidenceMemory(TEACHER)
        mem.maybe_write("v", 70.0, 0.9, 0)
        mem.maybe_write("v", 75.0, 0.4, 1)
        assert mem.read("v").sigma == 0.4


class TestFusion:
    def test_midpoint(self):
        assert fuse_pseudo_label(MemoryEntry(80.0, 0.5, 0), MemoryEntry(84.0, 0.9, 0)) == 82.0

    def test_idempotent_on_equal_scores(self):
        assert fuse_pseudo_label(MemoryEntry(7.5, 0.5, 0), MemoryEntry(7.5, 0.1, 0)) == 7.5

    def test_fractional_midpoint(self):
        assert fuse_pseudo_label(MemoryEntry(70.5, 1.0, 0), MemoryEntry(69.5, 1.0, 0)) == 70.0

    def test_symmetric(self):
        a, b = MemoryEntry(1.25, 0.3, 0), MemoryEntry(-4.5, 0.7, 1)
        assert fuse_pseudo_label(a, b) == fuse_pseudo_label(b, a)

    def test_absent_entry_signals_unavailable(self):
        with pytest.raises(FusionUnavailableError):
            fuse_pseudo_label(None, MemoryEntry(1.0, 1.0, 0))
        with pytest.raises(FusionUnavailableError):
            fuse_pseudo_label(MemoryEntry(1.0, 1.0, 0), None)


class TestReplayOracle:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 200))
    def test_stored_sigma_is_running_minimum(self, seed, ops):
        gen = np.random.default_rng(seed)
        mem = ConfidenceMemory(TEACHER)
        history: dict[str, list[tuple[float, float]]] = {}
        for k in range(ops):
            sample_id = f"s{gen.integers(0, 10)}"
            score = float(gen.normal())
            sigma = float(gen.uniform(0.01, 2.0))
            mem.maybe_write(sample_id, score, sigma, epoch=k)
            history.setdefault(sample_id, []).append((score, sigma))
        for sample_id, writes in history.items():
            # replay: keep the first strictly-lowest sigma and its score
            best_score, best_sigma = writes[0]
            for score, sigma in writes[1:]:
                if sigma < best_sigma:
                    best_score, best_sigma = score, sigma
            entry = mem.read(sample_id)
            assert entry.sigma == best_sigma
            assert entry.score == best_score

    def test_entries_never_deleted(self):
        mem = ConfidenceMemory(REFERENCE)
        for i in range(50):
            mem.maybe_write(f"s{i}", float(i), 1.0, 0)
        for i in range(50):
            mem.maybe_write(f"s{i}", 0.0, 2.0, 1)  # all kept
        assert len(mem) == 50


class TestSerialization:
    def test_tsv_round_trip_exact(self, tmp_path):
        gen = np.random.default_rng(7)
        mem = ConfidenceMemory(TEACHER)
        for i in range(100):
            mem.maybe_write(f"id-{i}", float(gen.normal() * 1e3), float(gen.uniform(1e-8, 5)), i)
        path = tmp_path / "memory_t.tsv"
        mem.save_tsv(path)
        loaded = ConfidenceMemory.load_tsv(path, TEACHER)
        assert loaded.entries == mem.entries

    def test_tsv_line_format(self, tmp_path):
        mem = ConfidenceMemory(TEACHER)
        mem.maybe_write("v1", 80.0, 0.5, 3)
        path = tmp_path / "m.tsv"
        mem.save_tsv(path)
        assert path.read_text(encoding="utf-8") == "v1\t80\t0.5\t3\n"

    def test_invalid_kind_rejected(self):
        with pytest.raises(ContractError):
            ConfidenceMemory("banana")
