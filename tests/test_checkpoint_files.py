"""Malformed checkpoint files: ``params_*.bin`` and ``state.json``.

Every defect must surface as a typed error (``ParseError`` with a byte
offset, or ``ConfigurationError`` naming the key and the file), never as a
raw ``struct.error``, ``ValueError`` or ``KeyError``.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trscore.autodiff import ParameterSet
from trscore.errors import ConfigurationError, ParseError
from trscore.networks import NetworkArch
from trscore.training import (
    TrainConfig,
    init_state,
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
            ("rng_state", lambda p: p.pop("rng_state")),
            ("rng_state.seed", lambda p: p["rng_state"].pop("seed")),
            ("config", lambda p: p.update(config=[])),
            ("config", lambda p: p["config"].update(seed="abc")),
            ("arch", lambda p: p.pop("arch")),
            ("arch", lambda p: p["arch"].pop("t")),
        ],
    )
    def test_missing_or_mistyped_key_names_key_and_file(self, tmp_path, key, edit):
        directory = _checkpoint(tmp_path)
        _rewrite_state(directory, edit)
        with pytest.raises(ConfigurationError) as err:
            load_checkpoint(directory)
        assert key.split(".")[0] in str(err.value)
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

