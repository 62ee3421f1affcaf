"""Neural-network layers built on the autograd engine."""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CostModelError
from repro.nn.autograd import Tensor, attention, layer_norm, linear
from repro.rng import make_rng


class Module:
    """Base class: parameter registration, get/set dictionaries.

    Parameters are discovered by walking instance attributes (Tensors
    with ``requires_grad``, child Modules, and lists of Modules), so the
    MoA adapter can snapshot / load any cost model uniformly.
    """

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

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x @ W + b`` (He-initialised)."""

    def __init__(self, in_dim: int, out_dim: int, seed: int = 0, bias: bool = True):
        rng = make_rng(seed)
        scale = math.sqrt(2.0 / in_dim)
        self.weight = Tensor(rng.normal(0.0, scale, size=(in_dim, out_dim)), True)
        self.bias = Tensor(np.zeros(out_dim), True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    def __init__(self, *layers: Module):
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), True)
        self.beta = Tensor(np.zeros(dim), True)
        self._eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self._eps)


class MultiHeadSelfAttention(Module):
    """Multi-head self-attention over (N, T, D) sequences."""

    def __init__(self, dim: int, heads: int = 2, seed: int = 0):
        if dim % heads != 0:
            raise CostModelError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.wq = Linear(dim, dim, seed=seed)
        self.wk = Linear(dim, dim, seed=seed + 1)
        self.wv = Linear(dim, dim, seed=seed + 2)
        self.wo = Linear(dim, dim, seed=seed + 3)

    def forward(self, x: Tensor) -> Tensor:
        return self.wo(attention(self.wq(x), self.wk(x), self.wv(x), self.heads))
