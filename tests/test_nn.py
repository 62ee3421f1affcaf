"""Tests for the numpy NN substrate (autograd, layers, optim, losses)."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.costmodel.pacm import _PaCMNet
from repro.costmodel.tlp import _TLPNet
from repro.features.dataflow import DATAFLOW_BLOCKS, DATAFLOW_DIM
from repro.features.primitives import PRIMITIVE_DIM
from repro.features.statement import STATEMENT_DIM
from repro.nn import (
    Adam,
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
    ReLU,
    Sequential,
    Tensor,
    lambdarank_loss,
    no_grad,
    pairwise_rank_accuracy,
)
from repro.errors import CostModelError
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


def _assert_close(analytic, num, what, tol):
    assert analytic is not None, what
    assert analytic.shape == num.shape, what
    # relative to the largest entry, but at least 1: some gradients are
    # exactly zero (a key bias moves every logit of a row equally), and
    # there the difference quotient is all rounding noise
    scale = max(np.abs(num).max(), 1.0)
    assert np.abs(analytic - num).max() / scale < tol, what


def check_layer(layer, x, const=False, tol=1e-6):
    """Central differences against ``layer.backward`` for x and every parameter.

    The loss is a fixed weighted sum of the output, so every output
    element carries a distinct gradient.  With ``const`` the layer must
    hand back no input gradient.
    """
    out = layer.forward(x, const)
    weights = make_rng(99).normal(size=out.shape)
    gx = layer.backward(weights)

    def loss(_):
        with no_grad():
            return float((layer.forward(x, const) * weights).sum())

    for name, p in layer.named_parameters():
        _assert_close(p.grad, numeric_grad(loss, p.data), name, tol)
    if const:
        assert gx is None
    else:
        _assert_close(gx, numeric_grad(loss, x), "x", tol)


def modules(m: Module):
    """``m`` and every module below it."""
    yield m
    for value in vars(m).values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, Module):
                yield from modules(item)


class TestAutogradGradients:
    def test_matmul(self):
        lin = Linear(4, 5, seed=1, bias=False)
        check_op(lambda x: sq(lin(x)).sum(), (3, 4))

    def test_batched_matmul_broadcast(self):
        lin = Linear(6, 7, seed=2, bias=False)
        check_op(lambda x: sq(lin(x)).sum(), (2, 5, 6))

    def test_relu(self):
        check_op(lambda x: sq(ReLU()(x)).sum(), (4, 4))

    def test_reshape(self):
        check_op(lambda x: sq(x.reshape(2, 6) * 3.0).sum(), (3, 4))

    def test_shared_inputs_accumulate_independently(self):
        """A node feeding two consumers must not share its gradient array
        with a sibling (pass-through gradients are copied on adoption)."""

        check_op(lambda x: (sq(x.reshape(12).reshape(3, 4)) * x).sum(), (3, 4))
        check_op(lambda x: (x * x.sum(axis=1, keepdims=True)).sum(), (3, 4))

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

    def test_a_node_does_not_reference_itself(self):
        """The graph of a finished step is freed by reference counting."""
        net = Sequential(Linear(4, 8, seed=0), ReLU(), Linear(8, 1, seed=1))
        gc.disable()
        try:
            gc.collect()
            out = net(Tensor(make_rng(0).normal(size=(5, 4))))
            loss = (out.reshape(5) * Tensor(np.ones(5))).sum()
            probe = weakref.ref(out.data)
            loss.backward()
            del out, loss
            assert probe() is None
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFusedKernels:
    """Each layer's hand-written backward against central differences."""

    @pytest.mark.parametrize("lead", [(5,), (3, 4)], ids=["2d", "3d"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
    @pytest.mark.parametrize("frozen", [(), (0,)], ids=["grad-x", "const-x"])
    def test_linear(self, lead, bias, frozen):
        x = make_rng(0).normal(size=(*lead, 6))
        check_layer(Linear(6, 3, seed=1, bias=bias), x, const=bool(frozen))

    def test_linear_matches_composed_ops(self):
        rng = make_rng(1)
        lin = Linear(6, 3, seed=2)
        lin.bias.data = rng.normal(size=3)
        x = rng.normal(size=(2, 4, 6))
        out = lin(Tensor(x))
        assert np.allclose(out.data, x @ lin.weight.data + lin.bias.data, rtol=0, atol=1e-14)
        assert out._parents[0].data is x

    @pytest.mark.parametrize("shape", [(5, 8), (3, 4, 8)], ids=["2d", "3d"])
    @pytest.mark.parametrize("frozen", [(), (0,)], ids=["grad-x", "const-x"])
    def test_layer_norm(self, shape, frozen):
        rng = make_rng(2)
        ln = LayerNorm(8)
        ln.gamma.data, ln.beta.data = rng.normal(size=8), rng.normal(size=8)
        check_layer(ln, rng.normal(size=shape), const=bool(frozen))

    def test_layer_norm_statistics(self):
        x = make_rng(3).normal(size=(4, 6, 8)) * 3.0 + 2.0
        out = LayerNorm(8).forward(x)
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)

    @pytest.mark.parametrize("const", [False, True], ids=["all", "const-x"])
    def test_attention(self, const):
        x = make_rng(4).normal(size=(2, 5, 8))
        check_layer(MultiHeadSelfAttention(8, heads=2, seed=3), x, const=const)

    def test_attention_adds_the_residual_gradient(self):
        """``residual`` joins the input gradient (its order is pinned by the
        exact training golden) and is not written to."""
        x = make_rng(4).normal(size=(2, 5, 8))
        g = make_rng(5).normal(size=(2, 5, 8))
        attn = MultiHeadSelfAttention(8, heads=2, seed=3)
        attn.forward(x)
        alone = attn.backward(g)
        attn.forward(x)
        skip = make_rng(6).normal(size=(2, 5, 8))
        with_skip = attn.backward(g, residual=skip)
        assert np.allclose(with_skip, skip + alone, rtol=0, atol=1e-12)
        assert not np.shares_memory(with_skip, skip)

    def test_relu_and_sequential(self):
        rng = make_rng(6)
        check_layer(ReLU(), rng.normal(size=(4, 5)))
        net = Sequential(Linear(5, 7, seed=1), ReLU(), Linear(7, 2, seed=2))
        for const in (False, True):
            check_layer(net, rng.normal(size=(4, 5)), const=const)

    def test_attention_matches_per_head_softmax(self):
        rng = make_rng(5)
        x = rng.normal(size=(2, 5, 8))
        attn = MultiHeadSelfAttention(8, heads=2)
        for proj in (attn.wq, attn.wk, attn.wv, attn.wo):  # identity projections
            proj.weight.data = np.eye(8)
        out = attn.forward(x)
        for n in range(2):
            for h in range(2):
                cols = slice(4 * h, 4 * h + 4)
                logits = x[n, :, cols] @ x[n, :, cols].T / 2.0  # sqrt(head_dim)
                weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
                weights /= weights.sum(axis=-1, keepdims=True)
                assert np.allclose(out[n, :, cols], weights @ x[n, :, cols], atol=1e-13)

    def test_no_grad_builds_no_graph(self):
        rng = make_rng(6)
        x = Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
        layers = [Linear(8, 8), LayerNorm(8), MultiHeadSelfAttention(8, heads=2)]
        with no_grad():
            outs = [layer(x) for layer in layers]
        for out in outs:
            assert not out.requires_grad
            assert out._backward is None and out._parents == ()
        # ... and leaves no activation on any module
        assert all(m._saved is None for layer in layers for m in modules(layer))

    def test_layers_are_single_nodes(self):
        x = Tensor(make_rng(7).normal(size=(2, 5, 8)))
        net = Sequential(Linear(8, 8), ReLU(), LayerNorm(8), MultiHeadSelfAttention(8, heads=2))
        for module in (*net.layers, net):
            out = module(x)
            assert out._parents == (x,) and out.requires_grad
        # a constant input gets no gradient; the parameters all do
        (out * Tensor(np.ones(out.shape))).sum().backward()
        assert x.grad is None
        assert all(p.grad is not None for p in net.parameters())
        assert all(m._saved is None for m in modules(net))

    def test_backward_needs_a_forward_under_grad(self):
        lin = Linear(3, 2)
        with no_grad():
            lin.forward(np.ones((2, 3)))
        with pytest.raises(CostModelError, match="without a forward"):
            lin.backward(np.ones((2, 2)))


HYBRID_DIM = STATEMENT_DIM + DATAFLOW_BLOCKS * DATAFLOW_DIM


def _pacm_net(use_statement, use_dataflow):
    return _PaCMNet(
        d_model=8, stmt_dim=8, use_statement=use_statement, use_dataflow=use_dataflow, seed=1
    )


class TestNetBackward:
    """The cost models' nets: the concat split, the residual and the mean pool."""

    @pytest.mark.parametrize(
        "branches", [(True, True), (False, True), (True, False)], ids=["full", "no-sf", "no-df"]
    )
    def test_pacm(self, branches):
        x = make_rng(0).normal(size=(3, HYBRID_DIM))
        # the rows are features: constant whatever the caller says
        check_layer(_pacm_net(*branches), x, const=True, tol=1e-5)
        net = _pacm_net(*branches)
        net.forward(x, const=False)
        assert net.backward(np.ones((3, 1))) is None

    @pytest.mark.parametrize("const", [False, True], ids=["grad-x", "const-x"])
    def test_tlp(self, const):
        x = make_rng(1).normal(size=(2, 4, PRIMITIVE_DIM))
        check_layer(_TLPNet(d_model=8, seed=2), x, const=const, tol=1e-5)

    @pytest.mark.parametrize("const", [False, True], ids=["grad-x", "const-x"])
    def test_mlp(self, const):
        net = Sequential(
            Linear(STATEMENT_DIM, 8, seed=0), ReLU(), Linear(8, 8, seed=1), ReLU(),
            Linear(8, 1, seed=2),
        )
        check_layer(net, make_rng(2).normal(size=(4, STATEMENT_DIM)), const=const, tol=1e-5)

    @pytest.mark.parametrize(
        "net",
        [_pacm_net(True, True), _pacm_net(False, True), _pacm_net(True, False), _TLPNet(8)],
        ids=["pacm", "pacm-no-sf", "pacm-no-df", "tlp"],
    )
    def test_no_grad_keeps_no_activation(self, net):
        row = (4, PRIMITIVE_DIM) if isinstance(net, _TLPNet) else (HYBRID_DIM,)
        x = Tensor(make_rng(3).normal(size=(2, *row)))
        with no_grad():
            net(x)
        assert all(m._saved is None for m in modules(net))


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
            pred = net(Tensor(x))
            pred.backward(2.0 * (pred.data - y) / len(x))  # d mean squared error
            opt.step()
        assert np.mean((pred.data - y) ** 2) < 0.05

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
