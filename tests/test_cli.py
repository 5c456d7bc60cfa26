"""Command-line surface tests (fast, tiny runs)."""

import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from trscore import evaluation
from trscore.cli import main, parse_config_file
from trscore.data import Dataset, load_features, save_features
from trscore.errors import ConfigurationError


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def tiny_data(tmp_path):
    train = tmp_path / "train.aqaf"
    test = tmp_path / "test.aqaf"
    assert run_cli(
        ["synth", "--n", 40, "--t", 4, "--d", 8, "--label-frac", 0.3,
         "--noise-std", 0.2, "--seed", 3, "-o", train]
    ) == 0
    assert run_cli(
        ["synth", "--n", 20, "--t", 4, "--d", 8, "--label-frac", 1.0,
         "--noise-std", 0.2, "--seed", 3, "--split", "test", "-o", test]
    ) == 0
    return train, test


class TestSynth:
    def test_writes_loadable_file(self, tmp_path):
        out = tmp_path / "d.aqaf"
        assert run_cli(["synth", "--n", 10, "--t", 3, "--d", 4, "-o", out]) == 0
        from trscore.data import load_features

        ds = load_features(out)
        assert len(ds.samples) == 10

    def test_failed_write_leaves_the_existing_file(self, tmp_path, capsys):
        out = tmp_path / "d.aqaf"
        out.write_bytes(b"an earlier file")
        code = run_cli(
            ["synth", "--n", 10, "--t", 3, "--d", 4, "--split", "é" * 32768, "-o", out]
        )
        assert code == 2
        assert "too long" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier file"
        assert os.listdir(tmp_path) == ["d.aqaf"]

    def test_bad_spec_exits_nonzero(self, tmp_path, capsys):
        code = run_cli(
            ["synth", "--n", 3, "--label-frac", 0.01, "-o", tmp_path / "x.aqaf"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrainEval:
    def test_end_to_end(self, tiny_data, tmp_path, capsys):
        train_file, test_file = tiny_data
        out_dir = tmp_path / "run"
        code = run_cli(
            ["train", "--data", train_file, "--val", test_file, "--out-dir", out_dir,
             "--epochs", 6, "--burn-in", 2, "--lr", 1e-3, "--seed", 1]
        )
        assert code == 0
        metrics = (out_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,l_reg_s,l_reg_r,l_unsup,beta,total,val_spearman"
        assert len(metrics) == 7  # header + one row per epoch

        pred_csv = tmp_path / "pred.csv"
        code = run_cli(
            ["eval", "--data", test_file, "--checkpoint", out_dir / "checkpoint",
             "-o", pred_csv]
        )
        assert code == 0
        assert "spearman:" in capsys.readouterr().out
        assert len(pred_csv.read_text().splitlines()) == 21

    def test_epochs_not_above_burn_in_rejected(self, tiny_data, tmp_path, capsys):
        train_file, _ = tiny_data
        code = run_cli(
            ["train", "--data", train_file, "--out-dir", tmp_path / "r",
             "--epochs", 2, "--burn-in", 2]
        )
        assert code == 2
        assert "burn_in" in capsys.readouterr().err

    def test_missing_data_path(self, tmp_path, capsys):
        code = run_cli(["train", "--data", tmp_path / "none.aqaf", "--out-dir", tmp_path / "r"])
        assert code == 2

    def test_unknown_flag_exits_two(self, tiny_data, tmp_path):
        train_file, _ = tiny_data
        with pytest.raises(SystemExit) as err:
            run_cli(["train", "--data", train_file, "--out-dir", tmp_path / "r", "--bogus", 1])
        assert err.value.code == 2

    def test_eval_requires_student(self, tiny_data, tmp_path, capsys):
        train_file, test_file = tiny_data
        out_dir = tmp_path / "burnin_only"
        # a checkpoint saved before any training has no student: simulate by
        # saving the initial state directly
        from trscore.data import load_features
        from trscore.networks import NetworkArch
        from trscore.training import TrainConfig, init_state, save_checkpoint

        config = TrainConfig(burn_in_epochs=1, max_epochs=2)
        state = init_state(config, NetworkArch(4, 8))
        save_checkpoint(out_dir, state, config)
        code = run_cli(["eval", "--data", test_file, "--checkpoint", out_dir])
        assert code == 2
        assert "student" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("state.json", "'epoch'"),
            ("params_s.bin", "byte offset"),
            ("params_t.bin", "byte offset"),
        ],
    )
    def test_eval_malformed_checkpoint_exits_2(self, tiny_data, tmp_path, capsys, defect, message):
        import json

        train_file, test_file = tiny_data
        out_dir = tmp_path / "run"
        assert run_cli(
            ["train", "--data", train_file, "--out-dir", out_dir,
             "--epochs", 3, "--burn-in", 2, "--seed", 1]
        ) == 0
        target = out_dir / "checkpoint" / defect
        if defect == "state.json":
            payload = json.loads(target.read_text())
            del payload["epoch"]
            target.write_text(json.dumps(payload))
        else:
            target.write_bytes(target.read_bytes()[:-3])
        capsys.readouterr()
        code = run_cli(["eval", "--data", test_file, "--checkpoint", out_dir / "checkpoint"])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and defect in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("no student", "params_s.bin missing"),
            ("student in burn-in", "params_s.bin present"),
            ("short memory line", "memory_t.tsv"),
        ],
    )
    def test_eval_inconsistent_checkpoint_exits_2(
        self, tiny_data, tmp_path, capsys, defect, message
    ):
        import json

        train_file, test_file = tiny_data
        out_dir = tmp_path / "run"
        assert run_cli(
            ["train", "--data", train_file, "--out-dir", out_dir,
             "--epochs", 3, "--burn-in", 2, "--seed", 1]
        ) == 0
        checkpoint = out_dir / "checkpoint"
        state_path = checkpoint / "state.json"
        payload = json.loads(state_path.read_text())
        if defect == "no student":
            (checkpoint / "params_s.bin").unlink()
        elif defect == "student in burn-in":
            payload["stage"] = "burn_in"
        else:
            (checkpoint / "memory_t.tsv").write_text("clip1\t0.5\n")
        state_path.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run_cli(["eval", "--data", test_file, "--checkpoint", checkpoint])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "memory_t.tsv" in err or "state.json" in err
        assert "Traceback" not in err

    def test_eval_test_file_with_unlabeled_samples_exits_2(self, tiny_data, tmp_path, capsys):
        train_file, _ = tiny_data
        out_dir = tmp_path / "run"
        assert run_cli(
            ["train", "--data", train_file, "--out-dir", out_dir,
             "--epochs", 3, "--burn-in", 2, "--seed", 1]
        ) == 0
        capsys.readouterr()
        code = run_cli(["eval", "--data", train_file, "--checkpoint", out_dir / "checkpoint"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unlabeled samples" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_exits_2(self, tiny_data, tmp_path, capsys):
        # a learning rate of 1e300 overflows the first updated parameters
        train_file, _ = tiny_data
        code = run_cli(
            ["train", "--data", train_file, "--out-dir", tmp_path / "run",
             "--epochs", 3, "--burn-in", 2, "--lr", 1e300, "--seed", 1]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "epoch 0, batch 1: non-finite l_reg_s" in err
        assert "Traceback" not in err

    def test_subprocess_determinism(self, tiny_data, tmp_path):
        # two separate processes must produce byte-identical metrics
        train_file, _ = tiny_data
        outputs = []
        for tag in ("p1", "p2"):
            out_dir = tmp_path / tag
            result = subprocess.run(
                [sys.executable, "-m", "trscore.cli", "train",
                 "--data", str(train_file), "--out-dir", str(out_dir),
                 "--epochs", "5", "--burn-in", "2", "--seed", "7"],
                capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append((out_dir / "metrics.csv").read_bytes())
        assert outputs[0] == outputs[1]


def _train_checkpoint(tmp_path, t, d):
    data = tmp_path / f"train{t}x{d}.aqaf"
    assert run_cli(["synth", "--n", 40, "--t", t, "--d", d, "--label-frac", 0.3,
                    "--seed", 3, "-o", data]) == 0
    out_dir = tmp_path / f"run{t}x{d}"
    assert run_cli(["train", "--data", data, "--out-dir", out_dir,
                    "--epochs", 3, "--burn-in", 2, "--seed", 1]) == 0
    return out_dir / "checkpoint"


def _labeled_file(path, n, t, d):
    assert run_cli(["synth", "--n", n, "--t", t, "--d", d, "--label-frac", 1.0,
                    "--seed", 3, "--split", "bulk", "-o", path]) == 0
    return path


class TestEvalStream:
    """``trscore eval`` scores its file chunk by chunk as it parses it."""

    @pytest.mark.parametrize("defect, message", [
        ("truncated", "truncated while reading features of 'bulk-00299'"),
        ("non-finite", "features of 'bulk-00299' are not all finite"),
        ("unlabeled", "contains unlabeled samples"),
    ])
    def test_bad_last_sample_exits_2_without_predictions(
        self, tmp_path, capsys, monkeypatch, defect, message
    ):
        checkpoint = _train_checkpoint(tmp_path, 4, 8)
        path = _labeled_file(tmp_path / "bulk.aqaf", 300, 4, 8)
        blob = bytearray(path.read_bytes())
        features_offset = len(blob) - 8 * 4 * 8  # of the last sample
        if defect == "truncated":
            path.write_bytes(bytes(blob[:-5]))
        elif defect == "non-finite":
            struct.pack_into("<d", blob, len(blob) - 8, float("nan"))
            path.write_bytes(bytes(blob))
        else:
            samples = load_features(path).samples
            samples[-1].score = None
            ids = {s.sample_id for s in samples}
            save_features(Dataset(samples, ids - {"bulk-00299"}, {"bulk-00299"}, (-9, 9)), path)
        forwards = []
        scored = evaluation.teacher_forward
        monkeypatch.setattr(
            evaluation, "teacher_forward", lambda *a: forwards.append(1) or scored(*a)
        )
        capsys.readouterr()
        predictions = tmp_path / "pred.csv"
        code = run_cli(["eval", "--data", path, "--checkpoint", checkpoint, "-o", predictions])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        if defect != "unlabeled":
            assert f"byte offset {features_offset}" in err
        assert forwards  # the first chunk was scored before the fault was reached
        assert not predictions.exists()

    def test_peak_memory_does_not_grow_with_the_file(self, tmp_path):
        # numpy reports its buffers to tracemalloc; 1,500 more samples of
        # 10 x 64 add 7.7 MB of features, which the peak must not hold
        checkpoint = _train_checkpoint(tmp_path, 10, 64)

        def traced_eval(n):
            path = _labeled_file(tmp_path / f"bulk{n}.aqaf", n, 10, 64)
            argv = ["eval", "--data", path, "--checkpoint", checkpoint,
                    "-o", tmp_path / "pred.csv"]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert run_cli(argv) == 0
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        traced_eval(50)  # lazy set-up happens outside the measured calls
        growth = traced_eval(2000) - traced_eval(500)
        assert growth <= 0.25 * 1500 * 10 * 64 * 8


class TestConfigFile:
    def test_every_config_key_has_one_flag(self):
        from trscore.cli import _CONFIG_FLAGS
        from trscore.training import _FLAT_KINDS

        assert set(_CONFIG_FLAGS) == set(_FLAT_KINDS)
        flags = [flag for flag, _ in _CONFIG_FLAGS.values()]
        assert len(set(flags)) == len(flags)

    def test_parse_and_precedence(self, tiny_data, tmp_path):
        train_file, _ = tiny_data
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            "# comment\n"
            "max_epochs=4\n"
            "burn_in_epochs=2\n"
            "learning_rate = 5e-4\n"
            "reference_network=false\n"
            "seed=9\n"
        )
        parsed = parse_config_file(config_file)
        assert parsed["max_epochs"] == 4
        assert parsed["reference_network"] is False

        out_dir = tmp_path / "cfg_run"
        code = run_cli(
            ["train", "--data", train_file, "--out-dir", out_dir,
             "--config", config_file, "--epochs", 5]  # flag overrides file
        )
        assert code == 0
        rows = (out_dir / "metrics.csv").read_text().splitlines()
        assert len(rows) == 6  # header + 5 epochs (flag wins over file's 4)

    def test_unknown_key_rejected(self, tmp_path):
        config_file = tmp_path / "bad.cfg"
        config_file.write_text("warp_drive=1\n")
        with pytest.raises(ConfigurationError):
            from trscore.training import TrainConfig

            TrainConfig.from_dict(parse_config_file(config_file))

    @pytest.mark.parametrize(
        "line", ["seed=abc", "max_epochs=1.5", "teacher_memory=maybe", "learning_rate=nan"]
    )
    def test_bad_value_exits_2_naming_line_and_key(self, tiny_data, tmp_path, capsys, line):
        train_file, _ = tiny_data
        config_file = tmp_path / "bad.cfg"
        config_file.write_text("# comment\n" + line + "\n")
        key = line.split("=")[0]
        with pytest.raises(ConfigurationError, match=f"bad.cfg:2: {key}"):
            parse_config_file(config_file)
        code = run_cli(
            ["train", "--data", train_file, "--out-dir", tmp_path / "out",
             "--config", config_file]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad.cfg:2: {key}" in err and "Traceback" not in err

    def test_malformed_line(self, tmp_path):
        config_file = tmp_path / "bad.cfg"
        config_file.write_text("just words\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(config_file)


class TestAblate:
    def test_grid_rows_in_order(self, tiny_data, tmp_path, capsys):
        train_file, test_file = tiny_data
        table = tmp_path / "table.csv"
        code = run_cli(
            ["ablate", "--data", train_file, "--test", test_file,
             "--epochs", 4, "--burn-in", 2, "--seed", 2, "-o", table]
        )
        assert code == 0
        out = capsys.readouterr().out
        order = ["base", "base+tm", "base+rn", "base+rn+tm", "full"]
        positions = [out.index("\n" + name + " ") for name in order]
        assert positions == sorted(positions)
        lines = table.read_text().splitlines()
        assert len(lines) == 6
        assert [line.split(",")[0] for line in lines[1:]] == order
