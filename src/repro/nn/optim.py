"""Optimizers for the numpy NN substrate."""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CostModelError
from repro.nn.autograd import Tensor


class Adam:
    """Adam with decoupled weight decay and global-norm gradient clipping.

    All parameters live in one contiguous buffer: construction copies
    them into it and rebinds every tensor's ``data`` to a view of its
    slice, so a step is a dozen array operations over the whole model
    instead of a dozen per parameter tensor.  Rebinding a tensor's
    ``data`` afterwards (``Module.set_params``) detaches it; build a new
    optimizer, as ``NNCostModel.fit`` does on every call.
    """

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 3e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_clip: float = 0.0,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self._flat = np.concatenate([p.data.reshape(-1) for p in self.params])
        offset = 0
        for p in self.params:
            end = offset + p.data.size
            p.data = self._flat[offset:end].reshape(p.data.shape)
            offset = end
        self._grad = np.empty_like(self._flat)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._scratch = np.empty_like(self._flat)
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply one update; every parameter must have a gradient."""
        flat, g, m, v, tmp = self._flat, self._grad, self._m, self._v, self._scratch
        grads = []
        for p in self.params:
            if p.grad is None:
                raise CostModelError("Adam.step: a parameter received no gradient")
            if p.data.base is not flat:
                raise CostModelError(
                    "Adam.step: a parameter was rebound after the optimizer was built"
                )
            grads.append(p.grad.reshape(-1))
        np.concatenate(grads, out=g)
        if self.grad_clip > 0:
            # not ``g @ g``: ddot sums in another order, and this norm
            # scales every clipped update, so the form pins trained bits
            norm = math.sqrt(np.square(g, out=tmp).sum())
            if norm > self.grad_clip:
                g *= self.grad_clip / (norm + 1e-12)
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        if self.weight_decay:
            flat *= 1.0 - self.lr * self.weight_decay
        m *= b1
        m += np.multiply(g, 1 - b1, out=tmp)
        v *= b2
        np.multiply(g, 1 - b2, out=tmp)
        tmp *= g
        v += tmp
        # lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, 1 - b2**self._t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, tmp, out=tmp)
        tmp *= self.lr / (1 - b1**self._t)
        flat -= tmp
