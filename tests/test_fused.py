"""Fused tape nodes and the flat parameter arena against unfused oracles.

The Mixer sublayers, the cross-attention block, the regression head and the
Gaussian NLL are each one fused tape node, and Adam and the EMA update work
on each parameter set's flat arena. The oracles below are the unfused
compositions of the operations in ``unfused`` and the per-array update loops
that they replace, kept verbatim. Every comparison is exact
(``np.array_equal``, or equal bytes where the sign of a zero matters): the
fused paths evaluate the same numpy expressions in the same order.
"""

import math

import numpy as np
import pytest

from trscore import autodiff as ad
from trscore.autodiff import ParameterSet, Tensor
from trscore.errors import ContractError
from trscore.networks import (
    LOG_SIGMA_BOUND,
    Network,
    NetworkArch,
    ScorePrediction,
    init_reference_params,
    init_teacher_params,
    mixer_forward,
    reference_forward,
    regression_head,
    teacher_forward,
    _attention_block,
)
from trscore.objectives import gaussian_nll
from trscore.training import Adam, ema_update

import unfused


# -- oracles: the unfused compositions ----------------------------------------


def oracle_mixer_forward(params, x):
    ps = params.params
    for i in range(params.arch.mixer_layers):
        normed = unfused.layer_norm(
            x, ps[f"mixer.{i}.norm_token.scale"],
            ps[f"mixer.{i}.norm_token.shift"],
        )
        tok = unfused.transpose_last_two(normed)
        tok = unfused.matmul(tok, ps[f"mixer.{i}.token_in"])
        tok = unfused.gelu(tok)
        tok = unfused.matmul(tok, ps[f"mixer.{i}.token_out"])
        x = ad.add(x, unfused.transpose_last_two(tok))

        normed = unfused.layer_norm(
            x, ps[f"mixer.{i}.norm_channel.scale"],
            ps[f"mixer.{i}.norm_channel.shift"],
        )
        ch = unfused.matmul(normed, ps[f"mixer.{i}.channel_in"])
        ch = unfused.gelu(ch)
        ch = unfused.matmul(ch, ps[f"mixer.{i}.channel_out"])
        x = ad.add(x, ch)
    return x


def oracle_attention_block(params, i, x, exemplar):
    ps = params.params
    scale = ps[f"attn.{i}.norm_in.scale"]
    shift = ps[f"attn.{i}.norm_in.shift"]
    q_in = unfused.layer_norm(x, scale, shift)
    kv_in = unfused.layer_norm(exemplar, scale, shift)
    q = unfused.matmul(q_in, ps[f"attn.{i}.w_query"])
    k = unfused.matmul(kv_in, ps[f"attn.{i}.w_key"])
    v = unfused.matmul(kv_in, ps[f"attn.{i}.w_value"])
    logits = ad.mul(
        unfused.matmul(q, unfused.transpose_last_two(k)),
        Tensor(1.0 / math.sqrt(params.arch.d_k)),
    )
    weights = unfused.softmax_last_dim(logits)
    attended = unfused.matmul(unfused.matmul(weights, v), ps[f"attn.{i}.w_out"])
    x = ad.add(x, attended)

    normed = unfused.layer_norm(
        x, ps[f"attn.{i}.norm_mlp.scale"],
        ps[f"attn.{i}.norm_mlp.shift"],
    )
    h = unfused.matmul(normed, ps[f"attn.{i}.mlp_in"])
    h = unfused.gelu(h)
    h = unfused.matmul(h, ps[f"attn.{i}.mlp_out"])
    return ad.add(x, h), weights


def oracle_regression_head(params, encoded):
    ps = params.params
    single = encoded.ndim == 2
    pooled = unfused.mean(encoded, axis=-2)
    if single:
        pooled = unfused.reshape(pooled, (1, pooled.shape[-1]))
    raw = ad.add(unfused.matmul(pooled, ps["head.weight"]), ps["head.bias"])
    mu = unfused.select_index(raw, 0)
    log_sigma = unfused.clip(unfused.select_index(raw, 1), -LOG_SIGMA_BOUND, LOG_SIGMA_BOUND)
    sigma = unfused.exp(log_sigma)
    if single:
        mu = unfused.reshape(mu, ())
        sigma = unfused.reshape(sigma, ())
    return ScorePrediction(mu, sigma)


def oracle_gaussian_nll(target, pred):
    target = target if isinstance(target, Tensor) else Tensor(np.asarray(target, dtype=np.float64))
    residual = unfused.sub(target, pred.mu)
    squared = ad.mul(residual, residual)
    var2 = ad.mul(ad.mul(pred.sigma, pred.sigma), Tensor(2.0))
    return ad.add(unfused.log(pred.sigma), unfused.div(squared, var2))


# -- oracles: the per-array update loops --------------------------------------


class OracleAdam:
    """The per-array Adam loop that the flat arena replaced, verbatim."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step = 0
        self._m = {name: np.zeros(p.numel) for name, p in params.items()}
        self._v = {name: np.zeros(p.numel) for name, p in params.items()}

    def step(self) -> None:
        self._step += 1
        correct1 = 1.0 - self.beta1 ** self._step
        correct2 = 1.0 - self.beta2 ** self._step
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = self.learning_rate * (m / correct1) / (
                np.sqrt(v / correct2) + self.epsilon
            )
            flat = p.array.reshape(-1) - update
            p.array[...] = flat.reshape(p.array.shape)
        self.params.version += 1


def oracle_ema_update(theta_t, theta_s, alpha):
    blended = [
        (alpha * p.array + (1.0 - alpha) * theta_s[name].array).reshape(-1)
        for name, p in theta_t.items()
    ]
    layout = [(name, p.shape) for name, p in theta_t.items()]
    return ParameterSet(layout, np.concatenate(blended))


# -- helpers ------------------------------------------------------------------

ARCH_T, ARCH_D = 5, 8
BATCHES = (None, 1, 2, 3, 4, 5)  # None: a single T x D input


def _input(gen, batch):
    shape = (ARCH_T, ARCH_D) if batch is None else (batch, ARCH_T, ARCH_D)
    return gen.normal(size=shape)


def _same_bits(a, b) -> bool:
    """Equal shapes and bytes: unlike ``np.array_equal``, tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_grads(fused_params, oracle_params):
    """Equal gradients; every parameter but an unused head got one."""
    for name, p in fused_params.items():
        q = oracle_params[name]
        if name.startswith("head.") and q.grad is None:
            assert p.grad is None, name
            continue
        assert p.grad is not None and q.grad is not None, name
        assert np.array_equal(p.grad, q.grad), name


def _run_both(fused_fn, oracle_fn, fused_net, oracle_net, arrays, weights):
    """Forward both sides on fresh leaves, backprop sum(out * weights)."""
    outs = []
    for fn, net in ((fused_fn, fused_net), (oracle_fn, oracle_net)):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = fn(net, *leaves)
        ad.sum(ad.mul(out, Tensor(weights))).backward()
        outs.append((out, leaves))
    return outs


# -- fused nodes --------------------------------------------------------------


class TestFusedMixer:
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_bit_identical_to_unfused(self, layers, batch):
        gen = np.random.default_rng(100 * layers + (batch or 0))
        net = init_teacher_params(NetworkArch(t=ARCH_T, d=ARCH_D, mixer_layers=layers), gen)
        oracle_net = net.copy()
        x = _input(gen, batch)
        weights = gen.normal(size=x.shape)
        (out, (x_f,)), (ref, (x_o,)) = _run_both(
            mixer_forward, oracle_mixer_forward, net, oracle_net, [x], weights
        )
        assert np.array_equal(out.array, ref.array)
        assert np.array_equal(x_f.grad, x_o.grad)
        _assert_same_grads(net.params, oracle_net.params)

    def test_one_node_per_sublayer(self):
        net = init_teacher_params(NetworkArch(t=ARCH_T, d=ARCH_D, mixer_layers=2),
                                  np.random.default_rng(0))
        out = mixer_forward(net, Tensor(np.ones((2, ARCH_T, ARCH_D)), requires_grad=True))
        assert len(out._parents) == 5  # input + four parameters
        assert len(out._parents[0]._parents) == 5


class TestFusedAttention:
    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_bit_identical_to_unfused(self, blocks, batch):
        gen = np.random.default_rng(200 * blocks + (batch or 0))
        net = init_reference_params(NetworkArch(t=ARCH_T, d=ARCH_D, attn_blocks=blocks), gen)
        oracle_net = net.copy()
        x, ex = _input(gen, batch), _input(gen, batch)
        weights = gen.normal(size=x.shape)
        maps = {}

        def chain(block):
            def run(params, query, exemplar):
                maps[block] = []
                for i in range(params.arch.attn_blocks):
                    query, w = block(params, i, query, exemplar)
                    maps[block].append(w.array)
                return query
            return run

        (out, leaves_f), (ref, leaves_o) = _run_both(
            chain(_attention_block), chain(oracle_attention_block),
            net, oracle_net, [x, ex], weights,
        )
        assert np.array_equal(out.array, ref.array)
        for w_f, w_o in zip(maps[_attention_block], maps[oracle_attention_block]):
            assert np.array_equal(w_f, w_o)
        for leaf_f, leaf_o in zip(leaves_f, leaves_o):  # query and exemplar
            assert np.array_equal(leaf_f.grad, leaf_o.grad)
        _assert_same_grads(net.params, oracle_net.params)

    def test_constant_inputs_get_no_gradient(self):
        net = init_reference_params(NetworkArch(t=ARCH_T, d=ARCH_D), np.random.default_rng(1))
        x, ex = Tensor(np.ones((ARCH_T, ARCH_D))), Tensor(np.zeros((ARCH_T, ARCH_D)))
        out, weights = _attention_block(net, 0, x, ex)
        ad.sum(out).backward()
        assert x.grad is None and ex.grad is None and not weights.requires_grad
        assert all(p.grad is not None for name, p in net.params.items()
                   if name.startswith("attn."))


class TestFusedHead:
    # log-sigma bias: inside the bound, exactly on either bound, and beyond it
    @pytest.mark.parametrize("log_sigma", [None, LOG_SIGMA_BOUND, -LOG_SIGMA_BOUND, 25.0])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_bit_identical_to_unfused(self, batch, log_sigma):
        gen = np.random.default_rng(400 + (batch or 0))
        net = init_teacher_params(NetworkArch(t=ARCH_T, d=ARCH_D), gen)
        if log_sigma is not None:
            # a zero log-sigma column makes log sigma equal to the bias exactly
            weight = net.params["head.weight"].array.copy()
            weight[:, 1] = 0.0
            net.params["head.weight"].array[...] = weight
            net.params["head.bias"].array[...] = [0.3, log_sigma]
        oracle_net = net.copy()
        encoded = _input(gen, batch)
        shape = () if batch is None else (batch,)
        # signed weights, zeros among them, reach both columns
        w_mu, w_sigma = gen.normal(size=shape), gen.normal(size=shape)
        w_sigma = np.where(gen.random(size=shape) < 0.3, 0.0, w_sigma)
        sides = []
        for head, params in ((regression_head, net), (oracle_regression_head, oracle_net)):
            leaf = Tensor(encoded, requires_grad=True)
            pred = head(params, leaf)
            loss = ad.add(
                ad.sum(ad.mul(pred.mu, Tensor(w_mu))),
                ad.sum(ad.mul(pred.sigma, Tensor(w_sigma))),
            )
            loss.backward()
            sides.append((pred, leaf.grad, params.params))
        (pred, leaf_grad, params), (ref, ref_grad, ref_params) = sides
        assert _same_bits(pred.mu.array, ref.mu.array)
        assert _same_bits(pred.sigma.array, ref.sigma.array)
        assert _same_bits(leaf_grad, ref_grad)
        for name in ("head.weight", "head.bias"):
            assert _same_bits(params[name].grad, ref_params[name].grad), name

    def test_three_tape_nodes(self):
        net = init_teacher_params(NetworkArch(t=ARCH_T, d=ARCH_D), np.random.default_rng(2))
        leaf = Tensor(np.ones((3, ARCH_T, ARCH_D)), requires_grad=True)
        pred = regression_head(net, leaf)
        leaves = {id(leaf), id(net.params["head.weight"]),
                  id(net.params["head.bias"])}
        nodes, stack = set(), [pred.mu, pred.sigma]
        while stack:
            node = stack.pop()
            if id(node) not in leaves and id(node) not in nodes:
                nodes.add(id(node))
                stack.extend(node._parents)
        assert len(nodes) == 3  # the fused head and its two columns
        assert pred.mu.requires_grad and pred.sigma.requires_grad

    @pytest.mark.parametrize("batch_size", [1, 3, 4, 5])
    @pytest.mark.parametrize("n", [40, 41])
    def test_epoch_encoder_pass_matches_per_batch_passes(self, n, batch_size):
        """What the once-per-epoch teacher pass relies on: the encoder over a
        stacked n-sample batch gives each sample the bits that a pass over its
        own batch gives, and the head on those rows gives that batch's
        ``teacher_forward``. (The head itself is run per batch: a 2-D matrix
        product's rounding may depend on its row count.)"""
        gen = np.random.default_rng(500 + n + batch_size)
        arch = NetworkArch(t=10, d=64)
        net = init_teacher_params(arch, gen)
        x = gen.normal(size=(n, arch.t, arch.d))
        with ad.no_grad():
            encoded = mixer_forward(net, Tensor(x)).array
            for lo in range(0, n, batch_size):
                hi = min(lo + batch_size, n)
                alone = mixer_forward(net, Tensor(x[lo:hi])).array
                assert np.array_equal(encoded[lo:hi], alone)
                pred = teacher_forward(net, Tensor(x[lo:hi]))
                sliced = regression_head(net, Tensor(encoded[lo:hi]))
                assert np.array_equal(pred.mu.array, sliced.mu.array)
                assert np.array_equal(pred.sigma.array, sliced.sigma.array)


class TestFusedNll:
    @pytest.mark.parametrize("batch", BATCHES)
    def test_bit_identical_to_unfused(self, batch):
        gen = np.random.default_rng(300 + (batch or 0))
        for _ in range(200):
            shape = () if batch is None else (batch,)
            mu0 = gen.normal(size=shape) * 3.0
            sigma0 = np.exp(gen.normal(size=shape))
            target = gen.normal(size=shape) * 3.0
            g_out = gen.normal(size=shape)
            sides = []
            for nll in (gaussian_nll, oracle_gaussian_nll):
                mu = Tensor(mu0, requires_grad=True)
                sigma = Tensor(sigma0, requires_grad=True)
                out = nll(target, ScorePrediction(mu, sigma))
                ad.sum(ad.mul(out, Tensor(g_out))).backward()
                sides.append((out.array, mu.grad, sigma.grad))
            for fused, oracle in zip(*sides):
                assert np.array_equal(fused, oracle)

    def test_broadcast_target_and_tensor_target(self):
        gen = np.random.default_rng(9)
        mu0, sigma0 = gen.normal(size=()), np.exp(gen.normal(size=()))
        target0 = gen.normal(size=4)
        sides = []
        for nll in (gaussian_nll, oracle_gaussian_nll):
            mu = Tensor(mu0, requires_grad=True)
            sigma = Tensor(sigma0, requires_grad=True)
            target = Tensor(target0, requires_grad=True)
            out = nll(target, ScorePrediction(mu, sigma))
            ad.sum(out).backward()
            sides.append((out.array, mu.grad, sigma.grad, target.grad))
        for fused, oracle in zip(*sides):
            assert np.array_equal(fused, oracle)

    def test_teacher_loss_end_to_end(self):
        gen = np.random.default_rng(17)
        net = init_teacher_params(NetworkArch(t=ARCH_T, d=ARCH_D), gen)
        oracle_net = net.copy()
        x, targets = gen.normal(size=(4, ARCH_T, ARCH_D)), gen.normal(size=4)
        losses = []
        for forward, nll, params in (
            (teacher_forward, gaussian_nll, net),
            (lambda p, t: oracle_regression_head(p, oracle_mixer_forward(p, t)),
             oracle_gaussian_nll, oracle_net),
        ):
            loss = ad.sum(nll(targets, forward(params, Tensor(x))))
            loss.backward()
            losses.append(loss.item())
        assert losses[0] == losses[1]
        _assert_same_grads(net.params, oracle_net.params)


# -- the arena ----------------------------------------------------------------


class TestArena:
    def test_parameters_are_views_of_one_vector(self):
        ps = ParameterSet(
            [("w", (2, 3)), ("b", (2,))], np.array([0, 1, 2, 3, 4, 5, 7, 8], dtype=float)
        )
        w, b = ps["w"], ps["b"]
        np.testing.assert_array_equal(w.array, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(ps.data, [0, 1, 2, 3, 4, 5, 7, 8])
        assert ps.layout == [("w", (2, 3)), ("b", (2,))]
        w.array[...] = 0.0
        np.testing.assert_array_equal(ps.data, [0, 0, 0, 0, 0, 0, 7, 8])
        ps.data[-1] = 9.0
        assert b.array[-1] == 9.0

    def test_copy_and_layout(self):
        ps = ParameterSet([("w", (2, 2)), ("s", ())], np.array([1.0, 1, 1, 1, 3]))
        dup = ps.copy()
        assert dup.layout == ps.layout and dup["s"].array.shape == ()
        dup.data[:] = 0.0
        assert ps.data.sum() == 7.0
        with pytest.raises(ContractError):
            ParameterSet([("a", (2,))], np.zeros(3))
        with pytest.raises(ContractError):
            ParameterSet([("a", (1,)), ("a", (1,))], np.zeros(2))
        with pytest.raises(ContractError, match="empty"):
            ParameterSet([("a", (1,)), ("", (1,))], np.zeros(2))

    def test_names_map_to_views_in_layout_order(self):
        ps = ParameterSet([("w", (2, 2)), ("b", (1,))], np.zeros(5))
        ps["w"].array[1, 0] = 3.0
        ps["b"].array[0] = 4.0
        np.testing.assert_array_equal(ps.data, [0, 0, 3, 0, 4])
        assert [id(t) for t in ps] == [id(ps["w"]), id(ps["b"])]
        assert [(name, id(t)) for name, t in ps.items()] == [
            ("w", id(ps["w"])), ("b", id(ps["b"]))
        ]

    def test_unknown_name_raises(self):
        ps = ParameterSet([("w", (1,))], np.zeros(1))
        with pytest.raises(ContractError, match="'v'"):
            ps["v"]
        with pytest.raises(ContractError, match="'v'"):
            ps["v"] = Tensor([1.0])
        assert [name for name, _ in ps.items()] == ["w"]

    @pytest.mark.parametrize(
        "init, forward",
        [
            (init_teacher_params, teacher_forward),
            (init_reference_params, lambda net, x: reference_forward(net, x, x)),
        ],
        ids=["teacher", "reference"],
    )
    def test_fused_nodes_read_swapped_in_tensors(self, init, forward):
        net = init(NetworkArch(t=ARCH_T, d=ARCH_D), np.random.default_rng(3))
        halved = Network(net.arch, ParameterSet(net.params.layout, net.params.data * 0.5))
        x = Tensor(np.random.default_rng(4).normal(size=(2, ARCH_T, ARCH_D)))
        forward(net, x)  # a first call, before the swap
        probes = {
            name: Tensor(p.array * 0.5, requires_grad=True) for name, p in net.params.items()
        }
        for name, probe in probes.items():
            net.params[name] = probe
        assert [id(t) for t in net.params] == [id(p) for p in probes.values()]
        pred = forward(net, x)
        assert _same_bits(pred.mu.array, forward(halved, x).mu.array)
        ad.sum(pred.mu).backward()
        assert all(probe.grad is not None for probe in probes.values())


def _loss_step(net, x, targets):
    net.params.zero_grad()
    ad.sum(gaussian_nll(targets, teacher_forward(net, Tensor(x)))).backward()


class TestArenaAdam:
    def test_fifty_steps_match_per_array_loop(self):
        gen = np.random.default_rng(5)
        net = init_teacher_params(NetworkArch(t=ARCH_T, d=ARCH_D), gen)
        oracle_net = net.copy()
        opt = Adam(net.params, 3e-3)
        oracle = OracleAdam(oracle_net.params, 3e-3)
        for step in range(50):
            x, targets = gen.normal(size=(4, ARCH_T, ARCH_D)), gen.normal(size=4)
            _loss_step(net, x, targets)
            _loss_step(oracle_net, x, targets)
            opt.step()
            oracle.step()
            assert np.array_equal(net.params.data, oracle_net.params.data), step
        assert net.params.version == 50
        assert net.params.version == oracle_net.params.version

    def test_partial_gradient_moves_nothing(self):
        ps = ParameterSet([("a", (2,)), ("b", (1,))], np.array([1.0, 2.0, 3.0]))
        a = ps["a"]
        opt = Adam(ps, 0.1)
        ad.sum(ad.mul(a, a)).backward()  # "b" gets no gradient
        before = ps.data.copy()
        with pytest.raises(ContractError, match="'b'"):
            opt.step()
        assert np.array_equal(ps.data, before)
        assert ps.version == 0

    def test_no_gradient_at_all_moves_nothing(self):
        gen = np.random.default_rng(8)
        net = init_teacher_params(NetworkArch(t=ARCH_T, d=ARCH_D), gen)
        oracle_net = net.copy()
        opt = Adam(net.params, 3e-3)
        before = net.params.data.copy()
        opt.step()  # nothing was differentiated
        assert net.params.version == 0 and np.array_equal(net.params.data, before)
        assert not opt._m.any() and not opt._v.any()
        # so the next real step is a first step, bias correction included
        x, targets = gen.normal(size=(4, ARCH_T, ARCH_D)), gen.normal(size=4)
        _loss_step(net, x, targets)
        _loss_step(oracle_net, x, targets)
        opt.step()
        OracleAdam(oracle_net.params, 3e-3).step()
        assert np.array_equal(net.params.data, oracle_net.params.data)
        assert net.params.version == 1


class TestArenaEma:
    def test_matches_per_array_loop(self):
        gen = np.random.default_rng(6)
        arch = NetworkArch(t=ARCH_T, d=ARCH_D)
        teacher = init_teacher_params(arch, gen).params
        student = init_teacher_params(arch, gen).params
        current, oracle = teacher, teacher
        for _ in range(20):
            current = ema_update(current, student, 0.99)
            oracle = oracle_ema_update(oracle, student, 0.99)
            assert np.array_equal(current.data, oracle.data)
            assert current.layout == oracle.layout
            assert current is not teacher and current.data is not teacher.data
