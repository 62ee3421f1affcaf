"""Tests for the numpy NN substrate (autograd, layers, optim, losses)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Adam,
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
    ReLU,
    Sequential,
    Tensor,
    concatenate,
    lambdarank_loss,
    mse_loss,
    no_grad,
    pairwise_rank_accuracy,
)
from repro.errors import CostModelError
from repro.nn.autograd import attention, layer_norm, linear
from repro.nn.losses import lambdarank_lambdas
from repro.rng import make_rng


def numeric_grad(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn(x)
        flat[i] = orig - eps
        minus = fn(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (plus - minus) / (2 * eps)
    return grad


def sq(t: Tensor) -> Tensor:
    return t * t


def check_op(build, shape, seed=0, tol=1e-5):
    rng = make_rng(seed)
    x_data = rng.normal(size=shape)
    x = Tensor(x_data.copy(), requires_grad=True)
    loss = build(x)
    loss.backward()
    analytic = x.grad
    num = numeric_grad(lambda d: float(build(Tensor(d)).data), x_data)
    scale = np.abs(num).max() + 1e-9
    assert np.abs(analytic - num).max() / scale < tol


def check_kernel(fn, arrays, frozen=(), tol=1e-6):
    """Central differences against ``backward`` for every unfrozen input.

    ``fn`` maps one Tensor per entry of ``arrays`` (None entries are
    passed through, e.g. an absent bias) to a Tensor; the loss is its
    weighted sum, so every output element carries a distinct gradient.
    Inputs named in ``frozen`` do not require grad and must get none.
    """
    weights = None

    def loss_of(values):
        nonlocal weights
        out = fn(*values)
        if weights is None:
            weights = make_rng(99).normal(size=out.shape)
        return (out * Tensor(weights)).sum()

    tensors = [
        None if a is None else Tensor(a.copy(), requires_grad=i not in frozen)
        for i, a in enumerate(arrays)
    ]
    loss_of(tensors).backward()
    for i, a in enumerate(arrays):
        if a is None:
            continue
        if i in frozen:
            assert tensors[i].grad is None
            continue

        def at(d, i=i):
            values = [None if b is None else Tensor(b) for b in arrays]
            values[i] = Tensor(d)
            return float(loss_of(values).data)

        num = numeric_grad(at, a.copy())
        scale = np.abs(num).max() + 1e-9
        assert tensors[i].grad.shape == a.shape
        assert np.abs(tensors[i].grad - num).max() / scale < tol, f"input {i}"


class TestAutogradGradients:
    def test_add_mul(self):
        check_op(lambda x: ((x + 2.0) * (x * 3.0)).sum(), (3, 4))

    def test_matmul(self):
        w = Tensor(make_rng(1).normal(size=(4, 5)))
        check_op(lambda x: sq(x @ w).sum(), (3, 4))

    def test_batched_matmul_broadcast(self):
        w = Tensor(make_rng(2).normal(size=(6, 7)))
        check_op(lambda x: sq(x @ w).sum(), (2, 5, 6))

    def test_relu(self):
        check_op(lambda x: sq(x.relu()).sum(), (4, 4))

    def test_reshape(self):
        check_op(lambda x: sq(x.reshape(2, 6) * 3.0).sum(), (3, 4))

    def test_mean_keepdims(self):
        check_op(
            lambda x: sq(x - x.mean(axis=-1, keepdims=True)).sum(),
            (3, 4),
            tol=1e-4,
        )

    def test_mean_is_one_node(self):
        x = Tensor(make_rng(0).normal(size=(2, 3, 4)), requires_grad=True)
        pooled = x.mean(axis=1)
        assert pooled._parents == (x,)
        assert np.allclose(pooled.data, x.data.mean(axis=1))
        check_op(lambda t: sq(t.mean(axis=1)).sum(), (2, 3, 4))
        check_op(lambda t: sq(t).mean(), (3, 4))

    def test_concatenate(self):
        check_op(lambda x: sq(concatenate([x, x * 2.0], axis=-1)).sum(), (2, 3))

    def test_shared_inputs_accumulate_independently(self):
        """A node feeding two consumers must not share its gradient array
        with a sibling (pass-through gradients are copied on adoption)."""

        def build(x):
            a, b = x * 2.0, x * 3.0
            return ((a + b) + sq(b) + x.reshape(12).reshape(3, 4)).sum()

        check_op(build, (3, 4))
        check_op(lambda x: (x + x).sum(), (3, 4))

    def test_layernorm(self):
        ln = LayerNorm(4)
        check_op(lambda x: sq(ln(x)).sum(), (3, 4), tol=1e-4)

    def test_attention(self):
        attn = MultiHeadSelfAttention(8, heads=2)
        check_op(lambda x: sq(attn(x)).sum(), (2, 5, 8), tol=1e-4)

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert y._backward is None
        assert not y.requires_grad


class TestFusedKernels:
    """Each hot layer is one graph node with a hand-written backward."""

    @pytest.mark.parametrize("lead", [(5,), (3, 4)], ids=["2d", "3d"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
    @pytest.mark.parametrize("frozen", [(), (0,)], ids=["grad-x", "const-x"])
    def test_linear(self, lead, bias, frozen):
        rng = make_rng(0)
        arrays = [
            rng.normal(size=(*lead, 6)),
            rng.normal(size=(6, 3)),
            rng.normal(size=3) if bias else None,
        ]
        check_kernel(linear, arrays, frozen)

    def test_linear_matches_composed_ops(self):
        rng = make_rng(1)
        x, w, b = rng.normal(size=(2, 4, 6)), rng.normal(size=(6, 3)), rng.normal(size=3)
        out = linear(Tensor(x), Tensor(w, True), Tensor(b, True))
        assert np.allclose(out.data, x @ w + b, rtol=0, atol=1e-14)
        assert len(out._parents) == 3

    @pytest.mark.parametrize("shape", [(5, 8), (3, 4, 8)], ids=["2d", "3d"])
    @pytest.mark.parametrize("frozen", [(), (0,)], ids=["grad-x", "const-x"])
    def test_layer_norm(self, shape, frozen):
        rng = make_rng(2)
        arrays = [rng.normal(size=shape), rng.normal(size=8), rng.normal(size=8)]
        check_kernel(lambda x, g, b: layer_norm(x, g, b, 1e-5), arrays, frozen)

    def test_layer_norm_statistics(self):
        x = make_rng(3).normal(size=(4, 6, 8)) * 3.0 + 2.0
        out = layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)), 1e-5).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)

    @pytest.mark.parametrize("frozen", [(), (0,), (1, 2)], ids=["all", "const-q", "const-kv"])
    def test_attention(self, frozen):
        rng = make_rng(4)
        arrays = [rng.normal(size=(2, 5, 8)) for _ in range(3)]
        check_kernel(lambda q, k, v: attention(q, k, v, 2), arrays, frozen)

    def test_attention_matches_per_head_softmax(self):
        rng = make_rng(5)
        q, k, v = (rng.normal(size=(2, 5, 8)) for _ in range(3))
        out = attention(Tensor(q), Tensor(k), Tensor(v), 2).data
        for n in range(2):
            for h in range(2):
                cols = slice(4 * h, 4 * h + 4)
                logits = q[n, :, cols] @ k[n, :, cols].T / 2.0  # sqrt(head_dim)
                weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
                weights /= weights.sum(axis=-1, keepdims=True)
                assert np.allclose(out[n, :, cols], weights @ v[n, :, cols], atol=1e-13)

    def test_no_grad_builds_no_graph(self):
        rng = make_rng(6)
        x = Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        g = Tensor(np.ones(8), requires_grad=True)
        with no_grad():
            outs = [
                linear(x, w, g),
                layer_norm(x, g, g, 1e-5),
                attention(x, x, x, 2),
                x.mean(axis=1),
            ]
        for out in outs:
            assert not out.requires_grad
            assert out._backward is None and out._parents == ()

    def test_layers_are_single_nodes(self):
        x = Tensor(make_rng(7).normal(size=(2, 5, 8)))
        lin, ln, attn = Linear(8, 8), LayerNorm(8), MultiHeadSelfAttention(8, heads=2)
        assert lin(x)._parents == (x, lin.weight, lin.bias)
        assert ln(x)._parents == (x, ln.gamma, ln.beta)
        # q/k/v projections -> attention -> output projection
        merged = attn(x)._parents[0]
        assert [p._parents[0] for p in merged._parents] == [x, x, x]


class TestModule:
    def test_named_parameters_stable(self):
        net = Sequential(Linear(4, 8, seed=0), ReLU(), Linear(8, 1, seed=1))
        names = [n for n, _ in net.named_parameters()]
        assert names == [n for n, _ in net.named_parameters()]
        assert len(names) == 4  # 2 weights + 2 biases

    def test_get_set_roundtrip(self):
        a = Sequential(Linear(4, 8, seed=0), ReLU(), Linear(8, 1, seed=1))
        b = Sequential(Linear(4, 8, seed=7), ReLU(), Linear(8, 1, seed=9))
        b.set_params(a.get_params())
        x = Tensor(make_rng(0).normal(size=(5, 4)))
        assert np.allclose(a(x).data, b(x).data)

    def test_set_params_rejects_bad_names(self):
        from repro.errors import CostModelError

        net = Sequential(Linear(4, 8))
        with pytest.raises(CostModelError):
            net.set_params({"bogus": np.zeros(3)})


class TestTraining:
    def test_adam_fits_linear_function(self):
        rng = make_rng(0)
        net = Sequential(Linear(4, 16, seed=1), ReLU(), Linear(16, 1, seed=2))
        opt = Adam(net.parameters(), lr=1e-2)
        x = rng.normal(size=(256, 4))
        y = x.sum(axis=1, keepdims=True)
        for _ in range(150):
            opt.zero_grad()
            loss = mse_loss(net(Tensor(x)), y)
            loss.backward()
            opt.step()
        assert loss.item() < 0.05

    def test_grad_clip_limits_norm(self):
        # eps = 1 makes the first Adam step g / (|g| + 1) instead of sign(g),
        # so the size of the (clipped) gradient shows in the update
        clipped = Tensor(np.zeros(4), requires_grad=True)
        free = Tensor(np.zeros(4), requires_grad=True)
        for p, clip in ((clipped, 1.0), (free, 0.0)):
            opt = Adam([p], lr=1.0, eps=1.0, grad_clip=clip)
            p.grad = np.full(4, 100.0)
            opt.step()
        assert np.allclose(clipped.data, -0.5 / 1.5)  # |g| = 1 -> 0.5 each
        assert np.allclose(free.data, -100.0 / 101.0)

    @pytest.mark.parametrize("grad_scale", [0.01, 10.0], ids=["clip-idle", "clip-active"])
    def test_flat_adam_equals_per_tensor_formula(self, grad_scale):
        rng = make_rng(8)
        shapes = [(4, 3), (3,), (2, 3, 2), (1,)]
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        lr, b1, b2, eps, decay, clip = 3e-3, 0.9, 0.999, 1e-8, 0.01, 1.0
        ref = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        opt = Adam(params, lr=lr, weight_decay=decay, grad_clip=clip)
        clipped_steps = 0
        for t in range(1, 6):
            grads = [rng.normal(size=s) * grad_scale for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
            norm = sum(float((g**2).sum()) for g in grads) ** 0.5
            if norm > clip:
                clipped_steps += 1
                grads = [g * (clip / (norm + 1e-12)) for g in grads]
            for i, g in enumerate(grads):
                ref[i] *= 1.0 - lr * decay
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                m_hat, v_hat = m[i] / (1 - b1**t), v[i] / (1 - b2**t)
                ref[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for p, want in zip(params, ref):
                assert np.allclose(p.data, want, rtol=1e-12, atol=1e-15)
        assert clipped_steps == (5 if grad_scale > 1 else 0)

    def test_parameters_are_views_of_one_buffer(self):
        net = Sequential(Linear(4, 8, seed=1), ReLU(), Linear(8, 1, seed=2))
        before = net.get_params()
        x = Tensor(make_rng(0).normal(size=(6, 4)))
        opt = Adam(net.parameters(), lr=1e-2)
        assert all(np.array_equal(v, before[k]) for k, v in net.get_params().items())
        net(x).sum().backward()
        opt.step()
        after = net.get_params()
        assert all(not np.array_equal(after[k], before[k]) for k in before)
        # snapshots are copies: a further step must not reach them
        frozen = {k: v.copy() for k, v in after.items()}
        opt.zero_grad()
        net(x).sum().backward()
        opt.step()
        assert all(np.array_equal(after[k], frozen[k]) for k in after)

    def test_step_rejects_a_parameter_without_gradient(self):
        """No model under src/ can leave a parameter out of the graph, so a
        missing gradient is a bug, not a case to update around."""
        a, b = Tensor(np.ones(3), True), Tensor(np.ones(2), True)
        opt = Adam([a, b])
        a.grad = np.ones(3)
        with pytest.raises(CostModelError, match="no gradient"):
            opt.step()
        assert np.array_equal(a.data, np.ones(3))

    def test_step_rejects_a_rebound_parameter(self):
        net = Sequential(Linear(3, 2))
        opt = Adam(net.parameters())
        net.set_params(net.get_params())  # rebinds .data away from the buffer
        net(Tensor(np.ones((2, 3)))).sum().backward()
        with pytest.raises(CostModelError, match="rebound"):
            opt.step()


class TestLambdaRank:
    def test_lambda_signs(self):
        scores = np.zeros(5)
        labels = np.linspace(0, 1, 5)
        lam = lambdarank_lambdas(scores, labels)
        assert lam[-1] < 0 < lam[0]  # push best up (negative grad), worst down

    def test_lambdas_sum_to_zero(self):
        rng = make_rng(0)
        lam = lambdarank_lambdas(rng.normal(size=10), rng.random(10))
        assert abs(lam.sum()) < 1e-9

    def test_training_sorts_a_group(self):
        rng = make_rng(3)
        scores = Tensor(rng.normal(size=30), requires_grad=True)
        labels = np.linspace(0, 1, 30)
        groups = [np.arange(30)]
        opt = Adam([scores], lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            loss = lambdarank_loss(scores, labels, groups)
            loss.backward()
            opt.step()
        acc = pairwise_rank_accuracy(scores.data, labels, groups)
        assert acc > 0.9

    def test_single_element_group_is_noop(self):
        scores = Tensor(np.array([1.0]), requires_grad=True)
        loss = lambdarank_loss(scores, np.array([1.0]), [np.array([0])])
        loss.backward()
        assert np.allclose(scores.grad, 0.0)

    def test_rank_accuracy_bounds(self):
        labels = np.array([0.1, 0.5, 0.9])
        groups = [np.arange(3)]
        assert pairwise_rank_accuracy(labels, labels, groups) == 1.0
        assert pairwise_rank_accuracy(-labels, labels, groups) == 0.0
