"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for the small training loops in this package: scalar
losses built from matmul/add/relu/exp/log/sqrt/sum chains over float64
arrays, with broadcasting handled on the backward pass.  Not a general
framework; every op the package needs is defined here and nothing more.
A graph is single-use: backward runs once, and each op's closure receives
its output's gradient and never refers to its output node, so a graph holds
no cycle and refcounting frees it.  Gradients are never written in place.
Under ``with no_grad():`` every op returns a leaf of the same value, so a
forward-only pass runs the training code and records no graph; with the
fused logsumexp_rows and diagonal, an InfoNCE over B pairs then holds at
most two (B, B) arrays.
"""

from __future__ import annotations

import contextlib

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Within the block, ops build no graph; the previous state returns on
    exit, by an exception too, so blocks nest."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Node in the computation graph: a float64 array plus a backward closure."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- helpers -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def detach(self) -> "Tensor":
        """A leaf with the same value; gradients do not flow past it."""
        return Tensor(self.value)

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.value.shape)
        self.grad = grad if self.grad is None else self.grad + grad

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = wrap(other)

        def backward(grad):
            self._accumulate(grad)
            other._accumulate(grad)

        return _node(self.value + other.value, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-wrap(other))

    def __rsub__(self, other) -> "Tensor":
        return wrap(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = wrap(other)

        def backward(grad):
            self._accumulate(other.value * grad)
            other._accumulate(self.value * grad)

        return _node(self.value * other.value, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return self * wrap(other) ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return wrap(other) * self**-1.0

    def __pow__(self, exponent: float) -> "Tensor":
        def backward(grad):
            self._accumulate(exponent * self.value ** (exponent - 1.0) * grad)

        return _node(self.value**exponent, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = wrap(other)

        def backward(grad):
            self._accumulate(grad @ other.value.T)
            other._accumulate(self.value.T @ grad)

        return _node(self.value @ other.value, (self, other), backward)

    # -- elementwise nonlinearities ------------------------------------------

    def relu(self) -> "Tensor":
        def backward(grad):
            self._accumulate((self.value > 0.0) * grad)

        return _node(np.maximum(self.value, 0.0), (self,), backward)

    def exp(self) -> "Tensor":
        value = np.exp(self.value)

        def backward(grad):
            self._accumulate(value * grad)

        return _node(value, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad):
            self._accumulate(grad / self.value)

        return _node(np.log(self.value), (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    # -- reductions / indexing ------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad):
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.value.shape))

        return _node(self.value.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.value.size if axis is None else self.value.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def gather_rows(self, indices) -> "Tensor":
        """Select rows by integer index; gradients scatter-add back."""
        indices = np.asarray(indices, dtype=np.intp)

        def backward(grad):
            rows = np.zeros_like(self.value)
            np.add.at(rows, indices, grad)
            self._accumulate(rows)

        return _node(self.value[indices], (self,), backward)

    def diagonal(self) -> "Tensor":
        """The main diagonal of a 2-D tensor; gradients land on it."""

        def backward(grad):
            full = np.zeros_like(self.value)
            np.fill_diagonal(full, grad)
            self._accumulate(full)

        return _node(self.value.diagonal().copy(), (self,), backward)

    def transpose(self) -> "Tensor":
        def backward(grad):
            self._accumulate(grad.T)

        return _node(self.value.T, (self,), backward)

    # -- driver ---------------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar output through the whole graph."""
        if self.value.ndim != 0 and self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _node(value, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's output: a graph node, or a plain leaf under no_grad."""
    out = Tensor(value)
    if _grad_enabled:
        out._parents = parents
        out._backward = backward
    return out


def wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def logsumexp_rows(x: Tensor) -> Tensor:
    """Row-wise log-sum-exp of a 2-D tensor, max-shifted for stability.

    One op, with the operands of (x - shift).exp().sum(1).log() + shift in
    the same order, so values and gradients are that chain's bits; the
    shifted copy is exped in place and kept for the backward.
    """
    shift = x.value.max(axis=1, keepdims=True)
    e = x.value - shift
    np.exp(e, out=e)
    s = e.sum(axis=1)

    def backward(grad):
        x._accumulate(e * (grad / s)[:, None])

    return _node(np.log(s) + shift[:, 0], (x,), backward)


class AdamW:
    """Decoupled-weight-decay Adam over a list of parameter tensors."""

    def __init__(self, params, lr: float, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self._t += 1
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad**2
            m_hat = m / (1.0 - self.beta1**self._t)
            v_hat = v / (1.0 - self.beta2**self._t)
            p.value -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                  + self.weight_decay * p.value)


def cosine_warmup_lr(epoch: int, base_lr: float, warmup_epochs: int, total_epochs: int) -> float:
    """Linear warmup followed by a cosine decay to zero."""
    if warmup_epochs > 0 and epoch < warmup_epochs:
        return base_lr * (epoch + 1) / warmup_epochs
    span = max(total_epochs - warmup_epochs, 1)
    progress = min(max(epoch - warmup_epochs, 0) / span, 1.0)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))
