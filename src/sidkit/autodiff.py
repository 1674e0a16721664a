"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for the small training loops in this package: scalar
losses built from matmul/add/relu/exp/log/sqrt/sum chains over float64
arrays, with broadcasting handled on the backward pass.  Not a general
framework; every op the package needs is defined here and nothing more.
A graph is single-use: backward runs once, and each op's closure receives
its output's gradient and never refers to its output node, so a graph holds
no cycle and refcounting frees it.  Gradients are never written in place.
"""

from __future__ import annotations

import numpy as np


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

    def __init__(self, value, _parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = _parents
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
        out = Tensor(self.value + other.value, (self, other))

        def backward(grad):
            self._accumulate(grad)
            other._accumulate(grad)

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-wrap(other))

    def __rsub__(self, other) -> "Tensor":
        return wrap(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = wrap(other)
        out = Tensor(self.value * other.value, (self, other))

        def backward(grad):
            self._accumulate(other.value * grad)
            other._accumulate(self.value * grad)

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return self * wrap(other) ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return wrap(other) * self**-1.0

    def __pow__(self, exponent: float) -> "Tensor":
        out = Tensor(self.value**exponent, (self,))

        def backward(grad):
            self._accumulate(exponent * self.value ** (exponent - 1.0) * grad)

        out._backward = backward
        return out

    def __matmul__(self, other) -> "Tensor":
        other = wrap(other)
        out = Tensor(self.value @ other.value, (self, other))

        def backward(grad):
            self._accumulate(grad @ other.value.T)
            other._accumulate(self.value.T @ grad)

        out._backward = backward
        return out

    # -- elementwise nonlinearities ------------------------------------------

    def relu(self) -> "Tensor":
        out = Tensor(np.maximum(self.value, 0.0), (self,))

        def backward(grad):
            self._accumulate((self.value > 0.0) * grad)

        out._backward = backward
        return out

    def exp(self) -> "Tensor":
        value = np.exp(self.value)
        out = Tensor(value, (self,))

        def backward(grad):
            self._accumulate(value * grad)

        out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.value), (self,))

        def backward(grad):
            self._accumulate(grad / self.value)

        out._backward = backward
        return out

    def sqrt(self) -> "Tensor":
        return self**0.5

    # -- reductions / indexing ------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.value.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(grad):
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.value.shape))

        out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.value.size if axis is None else self.value.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def gather_rows(self, indices) -> "Tensor":
        """Select rows by integer index; gradients scatter-add back."""
        indices = np.asarray(indices, dtype=np.intp)
        out = Tensor(self.value[indices], (self,))

        def backward(grad):
            rows = np.zeros_like(self.value)
            np.add.at(rows, indices, grad)
            self._accumulate(rows)

        out._backward = backward
        return out

    def transpose(self) -> "Tensor":
        out = Tensor(self.value.T, (self,))

        def backward(grad):
            self._accumulate(grad.T)

        out._backward = backward
        return out

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


def wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def logsumexp_rows(x: Tensor) -> Tensor:
    """Row-wise log-sum-exp of a 2-D tensor, max-shifted for stability."""
    shift = Tensor(x.value.max(axis=1, keepdims=True))
    return (x - shift).exp().sum(axis=1).log() + Tensor(shift.value[:, 0])


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
