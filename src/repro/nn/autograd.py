"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small engine: define-by-run graphs of :class:`Tensor`
nodes, each storing the numpy payload, an optional gradient, and a
closure that accumulates gradients into its parents.  Supports the op
set the cost models need: element-wise algebra, reductions, shape ops,
and one fused node each for the three hot layers (:func:`linear`,
:func:`layer_norm`, :func:`attention`).  The cost models train on
minibatches of a few dozen rows, where a step's time is per-node
closure and numpy dispatch overhead rather than FLOPs, so a layer that
is one node with a hand-written backward is what makes training cheap.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterable

import numpy as np

# Thread-local so concurrent tuning workers (repro.service) can run
# no_grad inference while another worker is mid-training.
_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_STATE, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (fast inference)."""
    previous = _grad_enabled()
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A node in the autograd graph wrapping a float64 numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _grad_enabled()
        self._backward: Callable[[], None] | None = None
        self._parents: tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"], backward) -> "Tensor":
        parents = tuple(parents)
        out = Tensor(data)
        if _grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned`` says the caller computed ``grad`` freshly and keeps no
        other reference, so the first contribution is adopted without a
        copy.  Pass-through gradients (views of a child's ``grad``) must
        leave it False: a later in-place accumulation would otherwise
        write into the child's array too.
        """
        if self.grad is None:
            self.grad = grad if owned else grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape), True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape), True)

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other.data

        def backward():
            g = out.grad
            if self.requires_grad:
                ga = g @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.shape), True)
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.shape), True)

        out = Tensor._make(out_data, (self, other), backward)
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * mask, True)

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return self._reduce(axis, keepdims, 1.0)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self._reduce(axis, keepdims, 1.0 / count)

    def _reduce(self, axis, keepdims: bool, scale: float) -> "Tensor":
        """``scale * sum`` over ``axis`` as one node (scale 1/n is the mean)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims) * scale

        def backward():
            if self.requires_grad:
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.shape) * scale, True)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.shape))

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # backprop driver
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this node."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data) if grad is None else np.asarray(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()


# ----------------------------------------------------------------------
# fused layer kernels: one graph node per layer, hand-written backward
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` over the last axis of ``x`` as one node.

    The forward product and the input gradient keep ``x``'s leading axes
    (numpy runs ``(N, T, F) @ (F, D)`` as N small GEMMs); only the weight
    gradient, which has to reduce over every leading axis anyway, is a
    single GEMM.  The shapes pin output bits: collapsed into one 2-D
    GEMM the input gradient differs by ~7e-15, which would move every
    frozen golden, and on one BLAS thread (how the cost models call
    this, see :mod:`repro.blas`) a collapsed 512-row forward is slower,
    not faster.
    """
    out_data = x.data @ weight.data
    if bias is not None:
        out_data += bias.data

    def backward():
        g = out.grad
        g_rows = g.reshape(-1, g.shape[-1])
        if weight.requires_grad:
            x_rows = x.data.reshape(-1, x.data.shape[-1])
            weight._accumulate(x_rows.T @ g_rows, True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_rows.sum(axis=0), True)
        if x.requires_grad:
            x._accumulate(g @ weight.data.T, True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = Tensor._make(out_data, parents, backward)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    rstd = ((centered * centered).mean(axis=-1, keepdims=True) + eps) ** -0.5
    normalized = centered * rstd
    out_data = normalized * gamma.data + beta.data

    def backward():
        g = out.grad
        lead = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            gamma._accumulate((g * normalized).sum(axis=lead), True)
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=lead), True)
        if x.requires_grad:
            gn = g * gamma.data
            gn -= gn.mean(axis=-1, keepdims=True)
            gn -= normalized * (gn * normalized).mean(axis=-1, keepdims=True)
            gn *= rstd
            x._accumulate(gn, True)

    out = Tensor._make(out_data, (x, gamma, beta), backward)
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled-dot-product attention over (N, T, D) projections.

    Splits the last axis into ``heads`` heads, attends within each, and
    merges the heads back: ``softmax(q k^T / sqrt(D / heads)) v``.
    """
    n, t, d = q.data.shape
    head_dim = d // heads
    scale = 1.0 / math.sqrt(head_dim)

    def split(a: np.ndarray) -> np.ndarray:  # (N, T, D) -> (N, h, T, hd)
        return a.reshape(n, t, heads, head_dim).transpose(0, 2, 1, 3)

    def merge(a: np.ndarray) -> np.ndarray:  # (N, h, T, hd) -> (N, T, D)
        return a.transpose(0, 2, 1, 3).reshape(n, t, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    attn = qh @ kh.transpose(0, 1, 3, 2)
    attn *= scale
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    out_data = merge(attn @ vh)

    def backward():
        g = split(out.grad)
        if v.requires_grad:
            v._accumulate(merge(attn.transpose(0, 1, 3, 2) @ g), True)
        if q.requires_grad or k.requires_grad:
            gs = g @ vh.transpose(0, 1, 3, 2)  # d loss / d attn
            gs -= (gs * attn).sum(axis=-1, keepdims=True)
            gs *= attn
            gs *= scale  # d loss / d (q k^T)
            if q.requires_grad:
                q._accumulate(merge(gs @ kh), True)
            if k.requires_grad:
                k._accumulate(merge(gs.transpose(0, 1, 3, 2) @ qh), True)

    out = Tensor._make(out_data, (q, k, v), backward)
    return out


def concatenate(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis (differentiable)."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward():
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                index = [slice(None)] * out.ndim
                index[axis] = slice(offset, offset + size)
                t._accumulate(out.grad[tuple(index)])
            offset += size

    out = Tensor._make(data, tensors, backward)
    return out
