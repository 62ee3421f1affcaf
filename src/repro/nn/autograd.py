"""The graph boundary: a few :class:`Tensor` nodes around whole networks.

The cost models train on minibatches of a few dozen rows, where a
step's time is graph bookkeeping and numpy dispatch rather than FLOPs.
So the graph is kept to what a training step needs: a network call
(:meth:`repro.nn.layers.Module.__call__`) is *one* node whose backward
is the network's own layer-wise backward over plain ndarrays, and the
loss adds a reshape, a product and a sum.  A step's graph is
net -> reshape -> mul -> sum.

A node's backward receives its gradient as an argument and closes over
its parents only, never over its own node, so a finished step leaves no
reference cycle behind: its activations are freed when the loss goes
out of scope, not at the next garbage collection.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable

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
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
        needs_grad: bool,
    ) -> "Tensor":
        """A result node; it joins the graph if ``needs_grad`` and grad is enabled.

        ``backward(g)`` gets the node's gradient and accumulates into
        ``parents``; it must not reference the node it belongs to.
        """
        out = Tensor(data)
        if needs_grad and _grad_enabled():
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
    # the ops a loss needs
    # ------------------------------------------------------------------
    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape), True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape), True)

        return Tensor._make(
            self.data * other.data,
            (self, other),
            backward,
            self.requires_grad or other.requires_grad,
        )

    __rmul__ = __mul__

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward, self.requires_grad
        )

    def reshape(self, *shape: int) -> "Tensor":
        def backward(g):
            self._accumulate(g.reshape(self.shape))

        return Tensor._make(self.data.reshape(*shape), (self,), backward, self.requires_grad)

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
                node._backward(node.grad)
