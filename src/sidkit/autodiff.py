"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for the small training loops in this package: scalar
losses built from matmul/add/relu/pow/sum chains and a fused logsumexp over
float64 arrays, with broadcasting handled on the backward pass.  Not a
general framework.  No training loop calls ``__rsub__``, ``/``, ``exp``,
``log`` or ``sqrt``; the tests check their gradients and the benchmark's
layer trace times them.

A Tensor the caller makes with ``Tensor(...)`` needs a gradient, and so
does an op's output with such a parent.  Every other Tensor is a constant:
a ``wrap()``ped array or number, a ``detach()`` copy, or an op over
constants only.  A constant has no parents and never gets a gradient, so a
forward over constants records no graph and holds each array only while the
next op reads it; with the fused logsumexp_rows and diagonal, an InfoNCE
over B constant pairs holds at most two (B, B) arrays.  An op gives
``_node`` one share function per operand, which maps the output's gradient
to that operand's share of it; ``_node`` keeps the pairs whose operand
needs a gradient, and ``Tensor.backward`` is the one place that calls them
and accumulates.  A share function refers to its operands, never to the
output node, so a graph holds no cycle and refcounting frees it.

A graph is single-use, and backward frees it as it goes: once a node has
handed each operand its share, it drops its gradient and its pairs, and with
them the activations those shares hold.  Only the Tensors the caller made
with ``Tensor(...)`` keep a gradient; every op output is left with its value
and no parents.  A second ``backward()`` on the same output therefore finds
no graph: the output's gradient becomes one, and no other gradient changes.
Gradients are never written in place.
"""

from __future__ import annotations

from collections.abc import Callable

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
    """Node in the computation graph: a float64 array, and the (operand,
    share function) pairs of the op that made it, if any needs a gradient."""

    __slots__ = ("value", "grad", "_parents", "_needs_grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents: tuple[tuple[Tensor, Callable[[np.ndarray], np.ndarray]], ...] = ()
        self._needs_grad = True

    # -- helpers -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def detach(self) -> "Tensor":
        """A constant with the same value; gradients do not flow past it."""
        return _node(self.value)

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.value.shape)
        self.grad = grad if self.grad is None else self.grad + grad

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = wrap(other)
        return _node(self.value + other.value, (self, _same), (other, _same))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-wrap(other))

    def __rsub__(self, other) -> "Tensor":
        return wrap(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = wrap(other)
        return _node(self.value * other.value,
                     (self, lambda grad: other.value * grad),
                     (other, lambda grad: self.value * grad))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return self * wrap(other) ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return wrap(other) * self**-1.0

    def __pow__(self, exponent: float) -> "Tensor":
        return _node(self.value**exponent,
                     (self, lambda grad: exponent * self.value ** (exponent - 1.0) * grad))

    def __matmul__(self, other) -> "Tensor":
        other = wrap(other)
        return _node(self.value @ other.value,
                     (self, lambda grad: grad @ other.value.T),
                     (other, lambda grad: self.value.T @ grad))

    # -- elementwise nonlinearities ------------------------------------------

    def relu(self) -> "Tensor":
        return _node(np.maximum(self.value, 0.0), (self, lambda grad: (self.value > 0.0) * grad))

    def exp(self) -> "Tensor":
        value = np.exp(self.value)
        return _node(value, (self, lambda grad: value * grad))

    def log(self) -> "Tensor":
        return _node(np.log(self.value), (self, lambda grad: grad / self.value))

    def sqrt(self) -> "Tensor":
        return self**0.5

    # -- reductions / indexing ------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def share(grad):
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            return np.broadcast_to(grad, self.value.shape)

        return _node(self.value.sum(axis=axis, keepdims=keepdims), (self, share))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.value.size if axis is None else self.value.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def gather_rows(self, indices) -> "Tensor":
        """Select rows by integer index; gradients scatter-add back."""
        indices = np.asarray(indices, dtype=np.intp)

        def share(grad):
            rows = np.zeros_like(self.value)
            np.add.at(rows, indices, grad)
            return rows

        return _node(self.value[indices], (self, share))

    def diagonal(self) -> "Tensor":
        """The main diagonal of a 2-D tensor; gradients land on it."""

        def share(grad):
            full = np.zeros_like(self.value)
            np.fill_diagonal(full, grad)
            return full

        return _node(self.value.diagonal().copy(), (self, share))

    def transpose(self) -> "Tensor":
        return _node(self.value.T, (self, lambda grad: grad.T))

    # -- driver ---------------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar output through the whole graph: each
        node, after every node it feeds, hands each operand its share and
        then lets go of its gradient and pairs (see the module docstring)."""
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
            for parent, _ in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.value)
        while topo:
            node = topo.pop()
            for parent, share in node._parents:
                parent._accumulate(share(node.grad))
            if node._parents:
                node.grad, node._parents = None, ()


def _same(grad: np.ndarray) -> np.ndarray:
    return grad


def _node(value, *pairs) -> Tensor:
    """An op's output, given one (operand, share function) pair per operand:
    it keeps the pairs whose operand needs a gradient, and is a constant when
    none does."""
    out = Tensor(value)
    out._parents = tuple(pair for pair in pairs if pair[0]._needs_grad)
    out._needs_grad = bool(out._parents)
    return out


def wrap(x) -> Tensor:
    """x itself if it is a Tensor, else a constant of its value."""
    return x if isinstance(x, Tensor) else _node(x)


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
    return _node(np.log(s) + shift[:, 0], (x, lambda grad: e * (grad / s)[:, None]))


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
ADAM_WEIGHT_DECAY = 0.0


class AdamW:
    """Decoupled-weight-decay Adam over a list of parameter tensors, with
    moment decays ADAM_BETAS, denominator term ADAM_EPS and weight decay
    ADAM_WEIGHT_DECAY."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._scratch = [(np.empty_like(p.value), np.empty_like(p.value)) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """p -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p), each
        operation in that formula's order, written into two scratch buffers
        per parameter instead of fresh arrays: the same bits."""
        self._t += 1
        beta1, beta2 = ADAM_BETAS
        for p, m, v, (a, b) in zip(self.params, self._m, self._v, self._scratch):
            if p.grad is None:
                continue
            m *= beta1
            m += np.multiply(p.grad, 1.0 - beta1, out=a)
            v *= beta2
            np.square(p.grad, out=a)
            a *= 1.0 - beta2
            v += a
            np.divide(m, 1.0 - beta1**self._t, out=a)  # m_hat
            np.divide(v, 1.0 - beta2**self._t, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            a += np.multiply(p.value, ADAM_WEIGHT_DECAY, out=b)
            a *= self.lr
            p.value -= a


def cosine_warmup_lr(epoch: int, base_lr: float, warmup_epochs: int, total_epochs: int) -> float:
    """Linear warmup followed by a cosine decay to zero."""
    if warmup_epochs > 0 and epoch < warmup_epochs:
        return base_lr * (epoch + 1) / warmup_epochs
    span = max(total_epochs - warmup_epochs, 1)
    progress = min(max(epoch - warmup_epochs, 0) / span, 1.0)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))
