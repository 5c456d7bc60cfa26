"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The semi-supervised experiment (criterion 6) is the slow one; the full suite
is sized for an ordinary desktop CPU.
"""

import contextlib
import struct
import time

import numpy as np
import pytest

from trscore import autodiff as ad
from trscore.autodiff import ParameterSet, Tensor
from trscore.data import (
    AQAF_MAGIC,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_features,
    save_features,
)
from trscore.errors import ParseError
from trscore.evaluation import evaluate, spearman
from trscore.memory import ConfidenceMemory, MemoryEntry, fuse_pseudo_label
from trscore.networks import (
    FeatureSequence,
    NetworkArch,
    ScorePrediction,
    init_reference_params,
    init_teacher_params,
    mixer_forward,
    regression_head,
    teacher_forward,
    _attention_block,
)
from trscore.objectives import beta_at, gaussian_nll
from trscore.training import (
    ComponentToggles,
    TrainConfig,
    ema_update,
    train,
    train_supervised,
    write_metrics_csv,
)

import unfused


@contextlib.contextmanager
def verdict(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {summary}")
        raise
    print(f"[criterion {number}] PASS: {summary}")


def _param_grad_errors(container, forward_scalar):
    """grad_check against every parameter of a network via tensor swapping."""
    errors = []
    for name, p in container.params.items():
        def f(w, _name=name, _saved=p):
            container.params[_name] = w
            try:
                return forward_scalar()
            finally:
                container.params[_name] = _saved

        errors.append(ad.grad_check(f, p))
    return errors


def _loss_from_raw(raw: Tensor, target) -> Tensor:
    """Gaussian NLL as a function of raw (mu, log sigma) head outputs."""
    pred = ScorePrediction(
        unfused.select_index(raw, 0), unfused.exp(unfused.select_index(raw, 1))
    )
    return unfused.mean(gaussian_nll(target, pred))


class TestCriterion1GradientFidelity:
    def test_gradient_fidelity(self):
        start = time.perf_counter()
        worst: dict[str, float] = {}

        for instance in range(5):
            gen = np.random.default_rng(1000 + instance)

            # mixer layer
            arch = NetworkArch(t=3, d=6, mixer_layers=1)
            params = init_teacher_params(arch, gen)
            probe = Tensor(gen.normal(size=(3, 6)))
            weights = Tensor(gen.normal(size=(3, 6)))
            x0 = Tensor(gen.normal(size=(3, 6)))

            def mixer_scalar():
                return ad.sum(ad.mul(mixer_forward(params, probe), weights))

            errs = _param_grad_errors(params, mixer_scalar)
            errs.append(
                ad.grad_check(
                    lambda t: ad.sum(ad.mul(mixer_forward(params, t), weights)), x0
                )
            )
            worst["mixer layer"] = max(worst.get("mixer layer", 0.0), *errs)

            # cross-attention block
            ref = init_reference_params(arch, gen)
            exemplar = Tensor(gen.normal(size=(3, 6)))
            q0 = Tensor(gen.normal(size=(3, 6)))

            def block_scalar():
                out, _ = _attention_block(ref, 0, probe, exemplar)
                return ad.sum(ad.mul(out, weights))

            errs = _param_grad_errors(ref, block_scalar)
            errs.append(
                ad.grad_check(
                    lambda t: ad.sum(ad.mul(_attention_block(ref, 0, t, exemplar)[0], weights)),
                    q0,
                )
            )
            worst["cross-attention block"] = max(
                worst.get("cross-attention block", 0.0), *errs
            )

            # regression head (with the direct-regression loss behind it)
            targets = gen.normal(size=2)
            enc0 = Tensor(gen.normal(size=(2, 3, 6)))

            def head_scalar():
                return unfused.mean(gaussian_nll(targets, regression_head(params, probe_enc)))

            probe_enc = enc0

            def head_input(t):
                return unfused.mean(gaussian_nll(targets, regression_head(params, t)))

            head_errs = [ad.grad_check(head_input, enc0)]
            for name in ("head.weight", "head.bias"):
                p = params.params[name]

                def f(w, _name=name, _saved=p):
                    params.params[_name] = w
                    try:
                        return head_input(enc0)
                    finally:
                        params.params[_name] = _saved

                head_errs.append(ad.grad_check(f, p))
            worst["regression head"] = max(worst.get("regression head", 0.0), *head_errs)

            # losses against raw (mu, log sigma) outputs
            raw0 = Tensor(gen.normal(size=(4, 2)) * 0.5)
            s = gen.normal(size=4)
            s_l = gen.normal(size=4)
            worst["direct supervised term"] = max(
                worst.get("direct supervised term", 0.0),
                ad.grad_check(lambda r: _loss_from_raw(r, s), raw0),
            )
            worst["relative supervised term"] = max(
                worst.get("relative supervised term", 0.0),
                ad.grad_check(lambda r: _loss_from_raw(r, np.abs(s - s_l)), raw0),
            )
            s_bar = gen.normal(size=4)
            worst["unsupervised term"] = max(
                worst.get("unsupervised term", 0.0),
                ad.grad_check(lambda r: _loss_from_raw(r, s_bar), raw0),
            )

        # full teacher forward + supervised loss on a random 2 x 4 x 8 input
        gen = np.random.default_rng(77)
        arch = NetworkArch(t=4, d=8)
        params = init_teacher_params(arch, gen)
        targets = gen.normal(size=2)
        err = ad.grad_check(
            lambda t: unfused.mean(gaussian_nll(targets, teacher_forward(params, t))),
            Tensor(gen.normal(size=(2, 4, 8))),
        )
        worst["teacher end-to-end"] = err

        elapsed = time.perf_counter() - start
        with verdict(1, f"max grad error {max(worst.values()):.2e} in {elapsed:.1f}s"):
            for component, value in worst.items():
                assert value < 1e-4, f"{component}: {value}"
            assert elapsed < 60.0


class TestCriterion2EquationUnitSuite:
    def test_equation_examples(self):
        start = time.perf_counter()
        atol = 1e-9

        def pred(mu, sigma):
            return ScorePrediction(Tensor(mu), Tensor(sigma))

        with verdict(2, "equation unit suite matched to 1e-9"):
            # gaussian_nll
            assert abs(gaussian_nll(4.0, pred(4.0, 1.0)).item() - 0.0) < atol
            assert abs(gaussian_nll(3.0, pred(4.0, 1.0)).item() - 0.5) < atol
            assert abs(gaussian_nll(4.0, pred(4.0, 2.0)).item() - np.log(2.0)) < atol
            # beta_at
            assert abs(beta_at(200) - 0.2) < atol
            assert abs(beta_at(0) - 0.2 * np.exp(-5.0)) < atol
            assert abs(beta_at(100) - 0.2 * np.exp(-1.25)) < atol
            # ema_update
            a = ParameterSet([("w", (1,))], np.array([2.0]))
            b = ParameterSet([("w", (1,))], np.array([1.0]))
            same = ParameterSet([("w", (1,))], np.array([2.0]))
            assert abs(ema_update(a, same, 0.9)["w"].array[0] - 2.0) < atol
            assert abs(ema_update(a, b, 0.99)["w"].array[0] - 1.99) < atol
            current = a
            for _ in range(10):
                current = ema_update(current, b, 0.5)
            assert abs(current["w"].array[0] - (1.0 + 0.5**10 * 1.0)) < atol
            # fuse_pseudo_label
            assert abs(fuse_pseudo_label(MemoryEntry(80, 1, 0), MemoryEntry(84, 1, 0)) - 82.0) < atol
            assert abs(fuse_pseudo_label(MemoryEntry(7.5, 1, 0), MemoryEntry(7.5, 1, 0)) - 7.5) < atol
            assert abs(fuse_pseudo_label(MemoryEntry(70.5, 1, 0), MemoryEntry(69.5, 1, 0)) - 70.0) < atol
            # spearman
            x = [3.0, 1.0, 4.0, 1.5, 9.0]
            assert abs(spearman(x, x) - 1.0) < atol
            assert abs(spearman(x, [-v for v in x]) + 1.0) < atol
            assert abs(spearman([1, 2, 3], [1, 3, 2]) - 0.5) < atol
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0


class TestCriterion3EmaClosedForm:
    def test_fifty_updates_match_closed_form(self):
        gen = np.random.default_rng(3)
        layout = [("w1", (4, 5)), ("b1", (5,)), ("w2", (5, 2))]
        t_values, s_values = [], []
        for _, shape in layout:
            t_values.append(gen.normal(size=shape).reshape(-1))
            s_values.append(gen.normal(size=shape).reshape(-1))
        theta_t = ParameterSet(layout, np.concatenate(t_values))
        theta_s = ParameterSet(layout, np.concatenate(s_values))
        alpha, k = 0.99, 50
        current = theta_t
        for _ in range(k):
            current = ema_update(current, theta_s, alpha)
        with verdict(3, "50 EMA updates match the closed form to 1e-10"):
            for name, p in theta_t.items():
                expected = theta_s[name].array + alpha**k * (p.array - theta_s[name].array)
                np.testing.assert_allclose(current[name].array, expected, atol=1e-10)


class TestCriterion4MemoryProtocol:
    def test_randomized_writes_match_replay_oracle(self):
        gen = np.random.default_rng(44)
        mem = ConfidenceMemory()
        oracle: dict[str, tuple[float, float]] = {}
        with verdict(4, "10^4 randomized writes agree with the replay oracle"):
            for op in range(10_000):
                sample_id = f"v{gen.integers(0, 100)}"
                score = float(gen.normal() * 50.0)
                sigma = float(gen.uniform(1e-6, 3.0))
                wrote = mem.maybe_write(sample_id, score, sigma, epoch=op)
                best = oracle.get(sample_id)
                should_write = best is None or sigma < best[1]
                assert wrote == should_write
                if should_write:
                    oracle[sample_id] = (score, sigma)
            assert len(mem) == len(oracle)
            for sample_id, (score, sigma) in oracle.items():
                entry = mem.read(sample_id)
                assert entry.score == score and entry.sigma == sigma


class TestCriterion5Degeneration:
    def test_disabled_pipeline_matches_standalone_supervised(self):
        ds = generate_synthetic(
            SyntheticSpec(num_samples=60, t=4, d=8, label_fraction=0.5, noise_std=0.5, seed=11)
        )
        config = TrainConfig(
            burn_in_epochs=8,
            max_epochs=20,
            learning_rate=1e-3,
            seed=11,
            batch_size=16,
            beta_peak=0.0,
            component_toggles=ComponentToggles(False, False, False),
        )
        _, _, trs_metrics = train(config, ds.labeled_samples, ds.unlabeled_samples)
        _, sup_metrics = train_supervised(config, ds.labeled_samples)
        with verdict(5, "disabled pipeline tracks the supervised trainer to 1e-9 over 20 epochs"):
            assert len(trs_metrics) == len(sup_metrics) == 20
            for trs_row, sup_row in zip(trs_metrics, sup_metrics):
                assert abs(trs_row.l_reg_s - sup_row.l_reg_s) < 1e-9
                assert abs(trs_row.total - sup_row.l_reg_s) < 1e-9


EXPERIMENT_SEEDS = (0, 1, 2, 3, 4)


def _experiment_config(seed: int, toggles: ComponentToggles) -> TrainConfig:
    return TrainConfig(
        alpha=0.99,
        burn_in_epochs=30,
        max_epochs=150,
        learning_rate=3e-3,
        seed=seed,
        batch_size=4,
        component_toggles=toggles,
        augment_noise_std=0.4,
        beta_peak=0.2,
    )


class TestCriterion6SemiSupervisedGain:
    def test_gain_and_component_ordering(self):
        start = time.perf_counter()
        results = {"supervised": [], "base": [], "base+rn": [], "full": []}
        for seed in EXPERIMENT_SEEDS:
            train_ds = generate_synthetic(
                SyntheticSpec(num_samples=400, t=10, d=64, label_fraction=0.1,
                              noise_std=1.0, seed=seed),
                split="train",
            )
            test_ds = generate_synthetic(
                SyntheticSpec(num_samples=200, t=10, d=64, label_fraction=1.0,
                              noise_std=1.0, seed=seed),
                split="test",
            )
            sup_net, _ = train_supervised(
                _experiment_config(seed, ComponentToggles()), train_ds.labeled_samples
            )
            rho, _ = evaluate(sup_net, test_ds.samples)
            results["supervised"].append(rho)
            for name, toggles in (
                ("base", ComponentToggles(False, False, False)),
                ("base+rn", ComponentToggles(True, False, False)),
                ("full", ComponentToggles(True, True, True)),
            ):
                _, student, _ = train(
                    _experiment_config(seed, toggles),
                    train_ds.labeled_samples,
                    train_ds.unlabeled_samples,
                )
                rho, _ = evaluate(student, test_ds.samples)
                results[name].append(rho)

        means = {name: float(np.mean(values)) for name, values in results.items()}
        elapsed = time.perf_counter() - start
        for name, values in results.items():
            print(f"  {name}: per-seed {np.round(values, 3)} mean {means[name]:.3f}")
        summary = (
            f"gain {means['full'] - means['supervised']:+.3f}, ordering "
            f"{means['base']:.3f} <= {means['base+rn']:.3f} <= {means['full']:.3f}, "
            f"{elapsed:.0f}s"
        )
        with verdict(6, summary):
            assert means["full"] >= means["supervised"] + 0.05
            assert means["base"] <= means["base+rn"] <= means["full"]
            assert elapsed < 600.0


class TestCriterion7Determinism:
    def test_bit_identical_metrics_csv(self, tmp_path):
        ds = generate_synthetic(
            SyntheticSpec(num_samples=120, t=6, d=16, label_fraction=0.25,
                          noise_std=1.0, seed=21)
        )
        config = TrainConfig(
            burn_in_epochs=4, max_epochs=12, learning_rate=1e-3, seed=21, batch_size=8
        )
        blobs = []
        for tag in ("first", "second"):
            _, _, metrics = train(config, ds.labeled_samples, ds.unlabeled_samples)
            path = tmp_path / f"{tag}.csv"
            write_metrics_csv(metrics, path)
            blobs.append(path.read_bytes())
        with verdict(7, "two identical runs produced bit-identical metrics CSVs"):
            assert blobs[0] == blobs[1]


class TestCriterion8FormatRoundTrip:
    def _random_dataset(self, seed: int) -> Dataset:
        gen = np.random.default_rng(seed)
        t = int(gen.integers(1, 6))
        d = int(gen.integers(1, 8))
        n = int(gen.integers(1, 25))
        samples = []
        for i in range(n):
            sample_id = f"clipé{seed}-{i}" if i % 4 == 0 else f"clip{seed}-{i}"
            score = float(gen.normal() * 10) if gen.random() < 0.6 else None
            samples.append(
                FeatureSequence(gen.normal(size=(t, d)), sample_id, score)
            )
        return Dataset(samples)

    def test_round_trip_and_corruption(self, tmp_path):
        with verdict(8, "100 random datasets round-trip; corrupted files rejected"):
            for seed in range(100):
                ds = self._random_dataset(seed)
                path = tmp_path / f"rt{seed}.aqaf"
                save_features(ds, path)
                loaded = load_features(path)
                assert [s.sample_id for s in loaded.samples] == [
                    s.sample_id for s in ds.samples
                ]
                for a, b in zip(loaded.samples, ds.samples):
                    assert a.score == b.score
                    np.testing.assert_array_equal(a.features, b.features)
                assert [s.sample_id for s in loaded.labeled_samples] == [
                    s.sample_id for s in ds.labeled_samples
                ]

            reference = tmp_path / "rt0.aqaf"
            blob = reference.read_bytes()

            bad_magic = tmp_path / "magic.aqaf"
            bad_magic.write_bytes(b"XXXX" + blob[4:])
            with pytest.raises(ParseError) as err:
                load_features(bad_magic)
            assert err.value.offset == 0

            bad_version = tmp_path / "version.aqaf"
            bad_version.write_bytes(blob[:4] + struct.pack("<I", 9) + blob[8:])
            with pytest.raises(ParseError) as err:
                load_features(bad_version)
            assert err.value.offset == 4

            truncated = tmp_path / "short.aqaf"
            truncated.write_bytes(blob[:-3])
            with pytest.raises(ParseError):
                load_features(truncated)

            mixed = tmp_path / "dims.aqaf"
            chunks = [struct.pack("<4sII", AQAF_MAGIC, 1, 2)]
            for sample_id, t in (("a", 2), ("b", 3)):
                raw = sample_id.encode()
                chunks += [
                    struct.pack("<H", len(raw)), raw, struct.pack("<B", 0),
                    struct.pack("<II", t, 2), np.zeros(t * 2).astype("<f8").tobytes(),
                ]
            mixed.write_bytes(b"".join(chunks))
            with pytest.raises(ParseError):
                load_features(mixed)
