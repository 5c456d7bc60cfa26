"""Malformed checkpoint files: ``params_*.bin``, ``memory_*.tsv`` and ``state.json``.

Every defect must surface as a typed error (``ParseError`` with a byte
offset, or ``ConfigurationError`` naming the key and the file), never as a
raw ``struct.error``, ``ValueError`` or ``KeyError``. So must a ``state.json``
that contradicts the other files of its checkpoint.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trscore.autodiff import ParameterSet
from trscore.errors import ConfigurationError, ParseError
from trscore.memory import TEACHER, ConfidenceMemory
from trscore.networks import NetworkArch
from trscore.training import (
    TrainConfig,
    init_state,
    initialize_student,
    load_checkpoint,
    load_parameter_set,
    save_checkpoint,
    save_parameter_set,
)


def _valid_blob(tmp_path) -> bytes:
    ps = ParameterSet()
    ps.new("w", np.arange(6.0).reshape(2, 3))
    ps.new("bé", np.array([-1.5]))
    ps.new("s", np.array(2.0))
    path = tmp_path / "valid.bin"
    save_parameter_set(ps, path)
    return path.read_bytes()


def _load_blob(tmp_path, blob: bytes):
    path = tmp_path / "probe.bin"
    path.write_bytes(blob)
    return load_parameter_set(path)


class TestParameterFile:
    def test_round_trip_keeps_layout_and_values(self, tmp_path):
        loaded = _load_blob(tmp_path, _valid_blob(tmp_path))
        assert loaded.names() == ["w", "bé", "s"]
        assert loaded["s"].array.shape == ()
        np.testing.assert_array_equal(loaded.data, [0, 1, 2, 3, 4, 5, -1.5, 2.0])
        loaded.data[0] = 7.0  # the arena is writable and owned
        assert loaded["w"].array[0, 0] == 7.0

    def test_every_truncation_raises_parse_error(self, tmp_path):
        blob = _valid_blob(tmp_path)
        for cut in range(len(blob)):
            with pytest.raises(ParseError) as err:
                _load_blob(tmp_path, blob[:cut])
            assert 0 <= err.value.offset <= cut

    def test_named_defects(self, tmp_path):
        blob = _valid_blob(tmp_path)
        cases = {
            "version": (struct.pack("<I", 2) + blob[4:], 0),
            "trailing": (blob + b"\x00", len(blob)),
            "bad utf-8": (blob[:10] + b"\xff" + blob[11:], 10),
            "duplicate": (blob[:10] + b"s" + blob[11:], 30),  # at the later "s"
        }
        for label, (bad, offset) in cases.items():
            with pytest.raises(ParseError) as err:
                _load_blob(tmp_path, bad)
            assert err.value.offset == offset, label

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_appended_bytes_raise_parse_error(self, tmp_path_factory, extra):
        tmp_path = tmp_path_factory.mktemp("append")
        blob = _valid_blob(tmp_path)
        with pytest.raises(ParseError) as err:
            _load_blob(tmp_path, blob + extra)
        assert err.value.offset == len(blob)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_byte_mutations_raise_only_parse_error(self, tmp_path_factory, data):
        tmp_path = tmp_path_factory.mktemp("mutate")
        blob = bytearray(_valid_blob(tmp_path))
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        try:
            _load_blob(tmp_path, bytes(blob))
        except ParseError:
            pass


def _checkpoint(tmp_path):
    config = TrainConfig(burn_in_epochs=1, max_epochs=2)
    directory = tmp_path / "ckpt"
    save_checkpoint(directory, init_state(config, NetworkArch(4, 8)), config)
    return directory


def _rewrite_state(directory, edit):
    path = directory / "state.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


class TestStateJson:
    @pytest.mark.parametrize(
        "key, edit",
        [
            ("epoch", lambda p: p.pop("epoch")),
            ("epoch", lambda p: p.update(epoch="3")),
            ("stage", lambda p: p.update(stage=1)),
            ("stage", lambda p: p.update(stage="warmup")),
            ("config", lambda p: p.update(config=[])),
            ("config", lambda p: p["config"].update(seed="abc")),
            ("arch", lambda p: p.pop("arch")),
            ("arch", lambda p: p["arch"].pop("t")),
            ("arch", lambda p: p["arch"].update(t=10.7)),
            ("arch", lambda p: p["arch"].update(mixer_layers=True)),
            ("arch", lambda p: p["arch"].update(d_k=-1)),
        ],
    )
    def test_missing_or_mistyped_key_names_key_and_file(self, tmp_path, key, edit):
        directory = _checkpoint(tmp_path)
        _rewrite_state(directory, edit)
        with pytest.raises(ConfigurationError) as err:
            load_checkpoint(directory)
        assert key.split(".")[0] in str(err.value)
        assert "state.json" in str(err.value)

    @pytest.mark.parametrize(
        "blob, error, message",
        [
            (b"[1, 2]", ConfigurationError, "JSON object"),
            (None, ConfigurationError, "'epoch' must be >= 0"),
            (b'{"epoch": "\xff"}', ParseError, "not UTF-8"),
        ],
    )
    def test_malformed_document_rejected(self, tmp_path, blob, error, message):
        directory = _checkpoint(tmp_path)
        if blob is None:
            _rewrite_state(directory, lambda p: p.update(epoch=-1))
        else:
            (directory / "state.json").write_bytes(blob)
        with pytest.raises(error, match=message) as err:
            load_checkpoint(directory)
        assert "state.json" in str(err.value)

    def test_malformed_json_raises_parse_error_at_offset(self, tmp_path):
        directory = _checkpoint(tmp_path)
        (directory / "state.json").write_text('{"epoch": 1,, }')
        with pytest.raises(ParseError) as err:
            load_checkpoint(directory)
        assert err.value.offset == 12

    def test_parameter_layout_must_match_arch(self, tmp_path):
        directory = _checkpoint(tmp_path)
        other = init_state(TrainConfig(burn_in_epochs=1, max_epochs=2), NetworkArch(5, 8))
        save_parameter_set(other.theta_t.params, directory / "params_t.bin")
        with pytest.raises(ConfigurationError, match="params_t.bin"):
            load_checkpoint(directory)


def _staged_checkpoint(tmp_path, stage: str):
    config = TrainConfig(burn_in_epochs=1, max_epochs=2, seed=4)
    state = init_state(config, NetworkArch(4, 8))
    if stage == "trs":
        state.epoch = config.burn_in_epochs
        initialize_student(state, config)
    directory = tmp_path / stage
    save_checkpoint(directory, state, config)
    return directory


class TestContradictoryStateJson:
    @pytest.mark.parametrize("stage", ["burn_in", "trs"])
    def test_consistent_checkpoint_loads_its_stage(self, tmp_path, stage):
        state, config = load_checkpoint(_staged_checkpoint(tmp_path, stage))
        assert state.stage == stage
        assert (state.theta_s is not None) == (stage == "trs")
        assert config.seed == 4
        assert state.opt_trained.params is state.trained.params

    def test_trs_stage_without_student(self, tmp_path):
        directory = _staged_checkpoint(tmp_path, "trs")
        (directory / "params_s.bin").unlink()
        with pytest.raises(ConfigurationError, match="state.json.*params_s.bin missing"):
            load_checkpoint(directory)

    def test_burn_in_stage_with_student(self, tmp_path):
        directory = _staged_checkpoint(tmp_path, "burn_in")
        (directory / "params_s.bin").write_bytes((directory / "params_t.bin").read_bytes())
        with pytest.raises(ConfigurationError, match="state.json.*params_s.bin present"):
            load_checkpoint(directory)

    def test_older_state_json_with_rng_state_loads(self, tmp_path):
        # checkpoints used to repeat the seed and the epoch under "rng_state";
        # the key is ignored, the config's seed is the run's seed
        directory = _staged_checkpoint(tmp_path, "trs")
        _rewrite_state(
            directory, lambda p: p.update(rng_state={"seed": 4, "next_epoch": p["epoch"]})
        )
        state, config = load_checkpoint(directory)
        assert state.stage == "trs" and state.epoch == 1 and config.seed == 4


# ids that are legal in AQAF and hold a tab, a carriage return or a
# character that str.splitlines treats as a line break
_AWKWARD_IDS = ["a\tb", "tab\t\t", "c\rd", "end\r", "e\x85f", "g\u2028h", "i\x0bj", "", "plain"]


def _load_tsv(tmp_path, blob: bytes):
    path = tmp_path / "memory_t.tsv"
    path.write_bytes(blob)
    return ConfidenceMemory.load_tsv(path, TEACHER)


class TestMemoryFile:
    def test_awkward_ids_round_trip(self, tmp_path):
        mem = ConfidenceMemory(TEACHER)
        for i, sample_id in enumerate(_AWKWARD_IDS):
            mem.maybe_write(sample_id, i - 3.25, 0.5 + i, i)
        path = tmp_path / "memory_t.tsv"
        mem.save_tsv(path)
        assert ConfidenceMemory.load_tsv(path, TEACHER).entries == mem.entries

    def test_newline_in_id_rejected_on_save(self, tmp_path):
        mem = ConfidenceMemory(TEACHER)
        mem.maybe_write("two\nlines", 1.0, 0.5, 0)
        with pytest.raises(ConfigurationError, match="two\\\\nlines"):
            mem.save_tsv(tmp_path / "memory_t.tsv")

    @pytest.mark.parametrize(
        "blob, offset",
        [
            (b"ok\t1\t0.5\t3\nclip1\t0.5\n", 11),  # too few fields
            (b"clip\tx\t0.5\t3\n", 0),  # bad float
            (b"clip\t1.0\t0.5\t3.5\n", 0),  # bad int
            (b"clip\t1.0\tnan\t3\n", 0),
            (b"clip\t1.0\t-0.5\t3\n", 0),
            (b"clip\t1.0\t0\t3\n", 0),
            (b"clip\tinf\t0.5\t3\n", 0),
            (b"clip\t1.0\t0.5\t-1\n", 0),
            (b"a\t1\t1\t1\na\t2\t0.5\t1\n", 8),  # duplicate id
            (b"a\t1\t1\t1\n\nb\t1\t1\t1\n", 8),  # empty line
            (b"a\t1\t1\t1\n\xff\t1\t1\t1\n", 8),  # not UTF-8
        ],
    )
    def test_malformed_line_raises_parse_error_at_line(self, tmp_path, blob, offset):
        with pytest.raises(ParseError, match="memory_t.tsv") as err:
            _load_tsv(tmp_path, blob)
        assert err.value.offset == offset

    def test_malformed_memory_fails_checkpoint_load(self, tmp_path):
        directory = _staged_checkpoint(tmp_path, "trs")
        (directory / "memory_t.tsv").write_bytes(b"clip1\t0.5\n")
        with pytest.raises(ParseError, match="memory_t.tsv"):
            load_checkpoint(directory)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_byte_mutations_load_or_raise_parse_error(self, tmp_path_factory, data):
        tmp_path = tmp_path_factory.mktemp("tsv")
        mem = ConfidenceMemory(TEACHER)
        for i, sample_id in enumerate(_AWKWARD_IDS):
            mem.maybe_write(sample_id, i * 1.5, 0.25 + i, i)
        mem.save_tsv(tmp_path / "memory_t.tsv")
        blob = bytearray((tmp_path / "memory_t.tsv").read_bytes())
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        try:
            loaded = _load_tsv(tmp_path, bytes(blob))
        except ParseError:
            return
        for entry in loaded.entries.values():
            assert entry.sigma > 0.0 and entry.epoch_written >= 0
