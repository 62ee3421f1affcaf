"""Neural-network layers with hand-written, layer-wise backward passes.

Every layer works on plain ndarrays:

* ``forward(x, const=False)`` returns the output and, while grad is
  enabled, keeps what its backward needs.  ``const`` says ``x`` is data
  that needs no gradient.
* ``backward(g)`` takes dL/d(output), writes its parameters' ``.grad``,
  drops what forward kept, and returns dL/dx -- or None when ``x`` was
  constant, which skips that product entirely.

Containers (:class:`Sequential`, :class:`MultiHeadSelfAttention`, the
cost models' nets) call their children's ``forward`` / ``backward``
directly, so a whole network is one graph node: :meth:`Module.__call__`
is the only place a :class:`~repro.nn.autograd.Tensor` graph is built.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CostModelError
from repro.nn.autograd import Tensor, _grad_enabled
from repro.rng import make_rng


class Module:
    """Base class: parameter registration, get/set dictionaries, the graph node.

    Parameters are discovered by walking instance attributes (Tensors
    with ``requires_grad``, child Modules, and lists of Modules), so the
    MoA adapter can snapshot / load any cost model uniformly.
    """

    #: what the last forward kept for backward (None when nothing is held)
    _saved: tuple | None = None

    def parameters(self) -> list[Tensor]:
        """All trainable tensors in traversal order."""
        return [tensor for _, tensor in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        """(name, tensor) pairs, names stable across identical architectures."""
        found: list[tuple[str, Tensor]] = []
        for name, value in sorted(vars(self).items()):
            path = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                found.append((path, value))
            elif isinstance(value, Module):
                found += value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        found += item.named_parameters(prefix=f"{path}.{i}.")
        return found

    def get_params(self) -> dict[str, np.ndarray]:
        """Copy of all parameters as a flat dict (MoA protocol)."""
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        """Load parameters produced by :meth:`get_params`.

        Validates every name and shape before touching any tensor, so a
        mismatched dict (e.g. an incompatible checkpoint) never leaves
        the module half-loaded.
        """
        own = dict(self.named_parameters())
        if set(own) != set(params):
            raise CostModelError(
                f"parameter names mismatch: {sorted(set(own) ^ set(params))}"
            )
        for name, tensor in own.items():
            if tensor.data.shape != params[name].shape:
                raise CostModelError(
                    f"shape mismatch for {name}: "
                    f"{tensor.data.shape} vs {params[name].shape}"
                )
            # weights must be floating point: an integer array of the
            # right shape (possible only via a corrupt checkpoint)
            # would pass here and crash the optimizer mid-run instead
            if not np.issubdtype(np.asarray(params[name]).dtype, np.floating):
                raise CostModelError(
                    f"non-float parameter array for {name}: "
                    f"{np.asarray(params[name]).dtype}"
                )
        for name, tensor in own.items():
            tensor.data = params[name].copy()

    def __call__(self, x: Tensor) -> Tensor:
        """The network as one graph node over its layer-wise backward.

        The layers hold the activations of their latest forward, so a
        graph may call a module once before its backward runs.
        """
        out = self.forward(x.data, not x.requires_grad)

        def backward(g):
            gx = self.backward(g)
            if gx is not None:
                x._accumulate(gx, True)

        return Tensor._make(out, (x,), backward, True)

    def forward(self, x: np.ndarray, const: bool = False) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, g: np.ndarray) -> np.ndarray | None:  # pragma: no cover
        raise NotImplementedError

    def _keep(self, *saved) -> None:
        """Hold ``saved`` for :meth:`backward`, only while grad is enabled."""
        if _grad_enabled():
            self._saved = saved

    def _take(self) -> tuple:
        saved, self._saved = self._saved, None
        if saved is None:
            raise CostModelError(
                f"{type(self).__name__}.backward without a forward under grad"
            )
        return saved


class Linear(Module):
    """Affine layer ``y = x @ W + b`` (He-initialised)."""

    def __init__(self, in_dim: int, out_dim: int, seed: int = 0, bias: bool = True):
        rng = make_rng(seed)
        scale = math.sqrt(2.0 / in_dim)
        self.weight = Tensor(rng.normal(0.0, scale, size=(in_dim, out_dim)), True)
        self.bias = Tensor(np.zeros(out_dim), True) if bias else None

    def forward(self, x: np.ndarray, const: bool = False) -> np.ndarray:
        """``x @ weight + bias`` over the last axis of ``x``.

        The forward product and the input gradient keep ``x``'s leading
        axes (numpy runs ``(N, T, F) @ (F, D)`` as N small GEMMs); only
        the weight gradient, which has to reduce over every leading axis
        anyway, is a single GEMM.  The shapes pin output bits: collapsed
        into one 2-D GEMM the input gradient differs by ~7e-15, which
        would move every frozen golden, and on one BLAS thread (how the
        cost models call this, see :mod:`repro.blas`) a collapsed
        512-row forward is slower, not faster.
        """
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        self._keep(x, const)
        return out

    def backward(self, g: np.ndarray) -> np.ndarray | None:
        x, const = self._take()
        g_rows = g.reshape(-1, g.shape[-1])
        self.weight.grad = x.reshape(-1, x.shape[-1]).T @ g_rows
        if self.bias is not None:
            self.bias.grad = g_rows.sum(axis=0)
        return None if const else g @ self.weight.data.T


class ReLU(Module):
    def forward(self, x: np.ndarray, const: bool = False) -> np.ndarray:
        mask = x > 0
        self._keep(mask, const)
        return x * mask

    def backward(self, g: np.ndarray) -> np.ndarray | None:
        mask, const = self._take()
        return None if const else g * mask


class Sequential(Module):
    def __init__(self, *layers: Module):
        self.layers = list(layers)

    def forward(self, x: np.ndarray, const: bool = False) -> np.ndarray:
        # only the first layer sees the input; every later one sees the
        # output of a layer before it
        for layer in self.layers:
            x = layer.forward(x, const)
            const = False
        return x

    def backward(self, g: np.ndarray) -> np.ndarray | None:
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), True)
        self.beta = Tensor(np.zeros(dim), True)
        self._eps = eps

    def forward(self, x: np.ndarray, const: bool = False) -> np.ndarray:
        """Normalize the last axis to zero mean / unit variance, then scale and shift."""
        normalized = x - x.mean(axis=-1, keepdims=True)  # centered, for now
        rstd = ((normalized * normalized).mean(axis=-1, keepdims=True) + self._eps) ** -0.5
        normalized *= rstd
        self._keep(normalized, rstd, const)
        out = normalized * self.gamma.data
        out += self.beta.data
        return out

    def backward(self, g: np.ndarray) -> np.ndarray | None:
        normalized, rstd, const = self._take()
        lead = tuple(range(g.ndim - 1))
        self.gamma.grad = (g * normalized).sum(axis=lead)
        self.beta.grad = g.sum(axis=lead)
        if const:
            return None
        gn = g * self.gamma.data
        gn -= gn.mean(axis=-1, keepdims=True)
        gn -= normalized * (gn * normalized).mean(axis=-1, keepdims=True)
        gn *= rstd
        return gn


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(N, T, D) -> (N, heads, T, D / heads)."""
    n, t, d = a.shape
    return a.reshape(n, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(N, heads, T, D / heads) -> (N, T, D)."""
    n, heads, t, head_dim = a.shape
    return a.transpose(0, 2, 1, 3).reshape(n, t, heads * head_dim)


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)`` as a running ``np.maximum`` over columns.

    A max is exact in any order, so this is the same value; over the
    short attention rows (PaCM's 10 dataflow blocks, TLP's 12 tokens) it
    is a few whole-array calls instead of a reduction that loops per row.
    """
    out = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(out, a[..., j : j + 1], out=out)
    return out


class MultiHeadSelfAttention(Module):
    """Multi-head self-attention over (N, T, D) sequences.

    Splits the last axis into ``heads`` heads, attends within each, and
    merges the heads back: ``wo(softmax(q k^T / sqrt(D / heads)) v)``
    with ``q, k, v`` the ``wq`` / ``wk`` / ``wv`` projections of ``x``.
    """

    def __init__(self, dim: int, heads: int = 2, seed: int = 0):
        if dim % heads != 0:
            raise CostModelError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.wq = Linear(dim, dim, seed=seed)
        self.wk = Linear(dim, dim, seed=seed + 1)
        self.wv = Linear(dim, dim, seed=seed + 2)
        self.wo = Linear(dim, dim, seed=seed + 3)

    def forward(self, x: np.ndarray, const: bool = False) -> np.ndarray:
        heads = self.heads
        qh = _split_heads(self.wq.forward(x, const), heads)
        kh = _split_heads(self.wk.forward(x, const), heads)
        vh = _split_heads(self.wv.forward(x, const), heads)
        attn = qh @ kh.transpose(0, 1, 3, 2)
        attn *= 1.0 / math.sqrt(qh.shape[-1])
        attn -= _row_max(attn)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        self._keep(qh, kh, vh, attn)
        return self.wo.forward(_merge_heads(attn @ vh))

    def backward(
        self, g: np.ndarray, residual: np.ndarray | None = None
    ) -> np.ndarray | None:
        """dL/dx; ``residual`` is the gradient ``x`` already has from a skip path.

        The skip gradient comes first, then the q, k and v projections'
        in that order, one in-place add each: summing the projections
        first, or in another order, rounds differently.
        """
        qh, kh, vh, attn = self._take()
        g = _split_heads(self.wo.backward(g), self.heads)
        gv = _merge_heads(attn.transpose(0, 1, 3, 2) @ g)
        gs = g @ vh.transpose(0, 1, 3, 2)  # d loss / d attn
        gs -= (gs * attn).sum(axis=-1, keepdims=True)
        gs *= attn
        gs *= 1.0 / math.sqrt(qh.shape[-1])  # d loss / d (q k^T)
        gq = _merge_heads(gs @ kh)
        gk = _merge_heads(gs.transpose(0, 1, 3, 2) @ qh)
        dq, dk, dv = self.wq.backward(gq), self.wk.backward(gk), self.wv.backward(gv)
        if dq is None:
            return None
        dx = dq if residual is None else residual + dq
        dx += dk
        dx += dv
        return dx
