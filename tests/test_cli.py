"""Command-line surface tests (fast, tiny runs)."""

import os
import platform
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from test_data import full_disk_open
from trscore import cli, data, evaluation, workers
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

    def test_failed_write_leaves_the_existing_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "d.aqaf"
        out.write_bytes(b"an earlier file")
        # the disk fills in the second record; a record takes 2 + 11 id bytes,
        # 1 or 9 score bytes, 8 dimension bytes and 3 x 4 x 8 feature bytes
        monkeypatch.setattr(data, "open", full_disk_open(12 + 126), raising=False)
        code = run_cli(["synth", "--n", 10, "--t", 3, "--d", 4, "-o", out])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "No space left" in err[0]
        assert out.read_bytes() == b"an earlier file"
        assert os.listdir(tmp_path) == ["d.aqaf"]

    def test_bad_spec_exits_nonzero(self, tmp_path, capsys):
        code = run_cli(
            ["synth", "--n", 3, "--label-frac", 0.01, "-o", tmp_path / "x.aqaf"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_exits_2_without_a_file(self, tmp_path, capsys, noise):
        out = tmp_path / "x.aqaf"
        assert run_cli(["synth", "--n", 10, "--noise-std", noise, "-o", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "noise_std" in err[0]
        assert os.listdir(tmp_path) == []

    def test_summary_line(self, tmp_path, capsys):
        out = tmp_path / "d.aqaf"
        assert run_cli(["synth", "--n", 10, "--t", 3, "--d", 4, "-o", out]) == 0
        assert capsys.readouterr().out == f"wrote {out}: 1 labeled + 9 unlabeled samples of 3 x 4\n"


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

    def test_final_total_loss_is_the_last_rows_total(self, tiny_data, tmp_path, capsys):
        train_file, _ = tiny_data
        out_dir = tmp_path / "run"
        capsys.readouterr()
        assert run_cli(["train", "--data", train_file, "--out-dir", out_dir,
                        "--epochs", 4, "--burn-in", 2, "--lr", 1e-3, "--seed", 1]) == 0
        out = capsys.readouterr().out
        rows = [line.split(",") for line in (out_dir / "metrics.csv").read_text().splitlines()]
        totals = [float(row[rows[0].index("total")]) for row in rows[1:]]
        assert f"trained 4 epochs; final total loss {totals[-1]:.6f}\n" in out
        assert f"{totals[-1]:.6f}" != f"{totals[-2]:.6f}"  # the line tells them apart

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

    def test_negative_beta_peak_exits_2(self, tiny_data, tmp_path, capsys):
        train_file, _ = tiny_data
        code = run_cli(
            ["train", "--data", train_file, "--out-dir", tmp_path / "r",
             "--epochs", 3, "--burn-in", 2, "--beta-peak", -1]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "beta_peak" in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_newline_in_an_id_exits_2_before_training(self, tmp_path, monkeypatch, capsys):
        # AQAF can hold the id, a memory file cannot: the parser rejects it
        def never(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "train", never)
        encoded = "clip\n2".encode()
        data = tmp_path / "newline.aqaf"
        data.write_bytes(b"".join([
            struct.pack("<4sII", b"AQAF", 1, 1), struct.pack("<H", len(encoded)), encoded,
            struct.pack("<Bd", 1, 0.5), struct.pack("<II", 2, 3), np.zeros(6).tobytes(),
        ]))
        capsys.readouterr()
        code = run_cli(["train", "--data", data, "--out-dir", tmp_path / "r"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "sample 'clip\\n2': id contains a newline" in err[0]
        assert "byte offset 12" in err[0]
        assert not (tmp_path / "r").exists()

    def test_any_package_error_exits_2(self, tiny_data, tmp_path, monkeypatch, capsys):
        from trscore import cli
        from trscore.errors import DomainError

        def domain_fault(*args, **kwargs):
            raise DomainError("log of a negative number")

        monkeypatch.setattr(cli, "train", domain_fault)
        train_file, _ = tiny_data
        code = run_cli(["train", "--data", train_file, "--out-dir", tmp_path / "r"])
        assert code == 2
        assert capsys.readouterr().err == "error: log of a negative number\n"

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


def test_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats more than doubles the time of importing the package
    code = "import sys, trscore, trscore.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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

    @pytest.mark.parametrize("n", [300, 1100])
    @pytest.mark.parametrize("defect, message", [
        ("truncated", "truncated while reading features of 'bulk-{last}'"),
        ("non-finite", "features of 'bulk-{last}' are not all finite"),
        ("unlabeled", "contains unlabeled samples"),
    ])
    def test_bad_last_sample_exits_2_without_predictions(
        self, tmp_path, capsys, monkeypatch, defect, message, n
    ):
        checkpoint = _train_checkpoint(tmp_path, 4, 8)
        path = _labeled_file(tmp_path / "bulk.aqaf", n, 4, 8)
        blob = bytearray(path.read_bytes())
        features_offset = len(blob) - 8 * 4 * 8  # of the last sample
        if defect == "truncated":
            path.write_bytes(bytes(blob[:-5]))
        elif defect == "non-finite":
            struct.pack_into("<d", blob, len(blob) - 8, float("nan"))
            path.write_bytes(bytes(blob))
        else:
            samples = load_features(path).samples
            samples[-1] = replace(samples[-1], score=None)
            save_features(Dataset(samples), path)
        # chunks scored in this process, and replies of the forked scorer
        scored = []
        forward, reply = evaluation.teacher_forward, workers._Worker.reply
        monkeypatch.setattr(evaluation, "teacher_forward",
                            lambda *a: scored.append("here") or forward(*a))
        monkeypatch.setattr(workers._Worker, "reply",
                            lambda self: scored.append("scorer") or reply(self))
        capsys.readouterr()
        predictions = tmp_path / "pred.csv"
        code = run_cli(["eval", "--data", path, "--checkpoint", checkpoint, "-o", predictions])
        assert code == 2
        err = capsys.readouterr().err
        assert message.format(last=f"{n - 1:05d}") in err and "Traceback" not in err
        if defect != "unlabeled":
            assert f"byte offset {features_offset}" in err
        # every chunk before the faulty last one was scored before the fault
        # was raised, the first ones by the forked scorer in the longer file
        assert len(scored) == (n - 1) // 256
        assert ("scorer" in scored) == (n >= 1024)
        assert not predictions.exists()

    def test_peak_memory_does_not_grow_with_the_file(self, tmp_path):
        # numpy reports its buffers to tracemalloc; 5,500 more samples of
        # 10 x 64 add 28 MB of features, which the peak must not hold. The
        # forked scorer's slots are a shared mapping, which tracemalloc does
        # not see; how many chunks this process scores itself while the slots
        # are busy moves the peak by a few MB, well inside the bound
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
        growth = traced_eval(6000) - traced_eval(500)
        assert growth <= 0.25 * 5500 * 10 * 64 * 8


class TestHeapThresholds:
    """``main`` pins glibc's mmap and trim thresholds before any subcommand."""

    def _synth(self, tmp_path):
        return run_cli(["synth", "--n", 10, "--t", 2, "--d", 3, "--label-frac", 0.5,
                        "-o", tmp_path / "d.aqaf"])

    def test_main_pins_both_thresholds(self, tmp_path, monkeypatch):
        calls = []
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        assert self._synth(tmp_path) == 0
        # M_MMAP_THRESHOLD 32 MiB, then M_TRIM_THRESHOLD 64 MiB: either alone
        # switches glibc's dynamic thresholds off, the other left at 128 KiB
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize("why", ["no symbol", "no library"])
    def test_a_silent_no_op_without_mallopt(self, why, tmp_path, monkeypatch, capsys):
        def lookup(name):
            if why == "no library":
                raise OSError("no C library here")
            return SimpleNamespace()

        monkeypatch.setattr(cli.ctypes, "CDLL", lookup)
        assert cli._pin_heap_thresholds() is None
        assert capsys.readouterr() == ("", "")
        assert self._synth(tmp_path) == 0

    @staticmethod
    def _second_eval_faults(tmp_path, n) -> int:
        """Minor faults of the second of two ``trscore eval`` runs of ``n``
        samples in one fresh interpreter."""
        checkpoint = _train_checkpoint(tmp_path, 10, 64)
        path = _labeled_file(tmp_path / "bulk.aqaf", n, 10, 64)
        argv = ["eval", "--data", str(path), "--checkpoint", str(checkpoint),
                "-o", str(tmp_path / "pred.csv")]
        script = (
            "import contextlib, io, resource, sys\n"
            "from trscore import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    first = cli.main(sys.argv[1:])\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    second = cli.main(sys.argv[1:])\n"
            "print(first, second, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        done = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        first, second, faults = map(int, done.stdout.split())
        assert (first, second) == (0, 0)
        return faults

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator only")
    def test_a_second_eval_faults_in_almost_no_pages(self, tmp_path):
        # without the pinned thresholds, glibc hands each row block's freed
        # forward temporaries back to the kernel and a 600-sample eval takes
        # about 3 k minor faults however often it runs in one process
        assert self._second_eval_faults(tmp_path, 600) < 1000

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator only")
    def test_a_second_forked_eval_faults_in_a_bounded_number_of_pages(self, tmp_path):
        # 4,000 samples fork a scorer, whose fork makes each page this process
        # writes next a copy-on-write fault, and whose slots are mapped anew:
        # pinned, the second eval faults about 5.4-9.5 k pages at any size
        # from 1,536 samples to 8,000; unpinned, 8-10 k here, 14-18 k at 8,000
        assert self._second_eval_faults(tmp_path, 4000) < 14000


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

    @pytest.mark.parametrize(
        "blob, line",
        [(b"\xffalpha=0.5\n", 1), (b"alpha=0.5\n\xff\xfe=1\n", 2), (b"# c\r\n\nseed=1\xc3\n", 3)],
    )
    def test_bytes_not_utf8_exit_2_naming_their_line(self, tiny_data, tmp_path, capsys, blob, line):
        train_file, test_file = tiny_data
        config_file = tmp_path / "bad.cfg"
        config_file.write_bytes(blob)
        with pytest.raises(ConfigurationError, match=f"bad.cfg:{line}: not UTF-8"):
            parse_config_file(config_file)
        for command in (["train", "--out-dir", tmp_path / "out"], ["ablate", "--test", test_file]):
            assert run_cli(command + ["--data", train_file, "--config", config_file]) == 2
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and f"bad.cfg:{line}: not UTF-8" in err
            assert "Traceback" not in err

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

    def test_one_evaluation_per_config(self, tiny_data, tmp_path, monkeypatch):
        # the grid trains without a validation set: only the final test-set
        # evaluation of each configuration runs
        from trscore import cli, evaluation

        calls = []

        def counted(student, samples):
            calls.append(len(samples))
            return real(student, samples)

        real = evaluation.evaluate
        monkeypatch.setattr(evaluation, "evaluate", counted)
        monkeypatch.setattr(cli, "evaluate", counted)
        train_file, test_file = tiny_data
        code = run_cli(
            ["ablate", "--data", train_file, "--test", test_file,
             "--epochs", 4, "--burn-in", 2, "--seed", 2]
        )
        assert code == 0
        assert len(calls) == len(cli.ABLATION_GRID)
