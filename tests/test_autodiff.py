"""Reverse-mode gradients checked against central finite differences."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidkit import autodiff
from sidkit.autodiff import AdamW, Tensor, cosine_warmup_lr, logsumexp_rows, wrap


def finite_difference(f, arrays, h=1e-6):
    """Central-difference gradient of scalar f w.r.t. each array, elementwise."""
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=np.float64)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = a[idx]
            a[idx] = orig + h
            up = f(*arrays)
            a[idx] = orig - h
            down = f(*arrays)
            a[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def check_grads(build, arrays, h=1e-6, rtol=1e-5, atol=1e-7):
    """build(*tensors) -> scalar Tensor; compare backward() to the FD oracle."""
    tensors = [Tensor(a.copy()) for a in arrays]
    out = build(*tensors)
    out.backward()

    def scalar(*vals):
        return build(*[Tensor(v) for v in vals]).item()

    expected = finite_difference(scalar, [t.value for t in tensors], h=h)
    for t, e in zip(tensors, expected):
        np.testing.assert_allclose(t.grad, e, rtol=rtol, atol=atol)


class TestElementwiseOps:
    def test_add_mul_chain(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        check_grads(lambda x, y: ((x + y) * (x - y * 2.0)).sum(), [a, b])

    def test_broadcasting_bias(self):
        """(3,4) + (4,) broadcasts forward; the bias grad sums over rows."""
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal(4)
        check_grads(lambda x, y: ((x + y) ** 2.0).sum(), [a, b])

    def test_division_and_power(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.5, 2.0, (3, 3))
        b = rng.uniform(0.5, 2.0, (3, 3))
        check_grads(lambda x, y: (x / y + y**-0.5).sum(), [a, b])

    def test_relu_kink_avoided(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        a[np.abs(a) < 1e-3] = 0.5  # keep FD away from the nondifferentiable point
        check_grads(lambda x: (x.relu() * 3.0).sum(), [a])

    def test_exp_log_sqrt(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.5, 3.0, (4,))
        check_grads(lambda x: (x.exp().log() + x.sqrt()).sum(), [a])


class TestMatmulAndReductions:
    def test_matmul(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        check_grads(lambda x, y: (x @ y).sum(), [a, b])

    def test_mean_and_axis_sum(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 4))
        check_grads(lambda x: (x.sum(axis=1, keepdims=True) * x).mean(), [a])

    def test_transpose(self):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
        check_grads(lambda x, y: ((x.transpose() @ y) ** 2.0).sum(), [a, b])

    def test_gather_rows_scatter_adds(self):
        """Repeated indices accumulate gradient onto the same source row."""
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 3))
        idx = np.array([0, 2, 2, 1, 0, 0])
        check_grads(lambda x: (x.gather_rows(idx) ** 2.0).sum(), [a])

    def test_detach_blocks_gradient(self):
        a = Tensor(np.array([1.0, 2.0]))
        out = (a * a.detach()).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, a.value)  # only the live factor contributes

    def test_logsumexp_matches_direct(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 7)) * 10
        got = logsumexp_rows(Tensor(x)).value
        want = np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1)) + x.max(axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_logsumexp_gradient(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4))
        check_grads(lambda t: logsumexp_rows(t).sum(), [x])

    def test_logsumexp_fused_bit_equals_the_chain(self):
        """The fused op returns the bits, value and gradient, of the op chain
        it replaced, on rows from 1e-3 to 1e3 in scale."""
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 9)) * np.logspace(-3, 3, 6)[:, None]
        weights = rng.standard_normal(6)

        def chain(t):
            shift = Tensor(t.value.max(axis=1, keepdims=True))
            return (t - shift).exp().sum(axis=1).log() + Tensor(shift.value[:, 0])

        grads = []
        for lse in (logsumexp_rows, chain):
            t = Tensor(x.copy())
            out = lse(t)
            (out * weights).sum().backward()
            grads.append((out.value.tobytes(), t.grad.tobytes()))
        assert grads[0] == grads[1]

    def test_diagonal_gradient(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 4))
        check_grads(lambda x: (x.diagonal() ** 2.0).sum() + (x * 0.5).sum(), [a])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2))).backward()

    def test_diamond_graph_accumulates_once_per_path(self):
        """y = x*x reused twice: grad must be 4x, not 2x."""
        x = Tensor(np.array([3.0]))
        y = x * x
        out = (y + y).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_self_sum_doubles_the_gradient(self):
        x = Tensor(np.array([1.5, -2.0]))
        (x + x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    @pytest.mark.parametrize("add_first", [True, False])
    def test_shared_first_gradient_is_never_written_in_place(self, add_first):
        """a + b hands both leaves the same gradient array; a further path
        into a, before or after that, must leave b.grad as it was."""
        a, b = Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0]))
        paths = [(a + b).sum(), (a * 3.0).sum()]
        (paths[0] + paths[1] if add_first else paths[1] + paths[0]).backward()
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        np.testing.assert_array_equal(a.grad, [4.0, 4.0])


def composite(a, b, make=Tensor):
    """A scalar through every op of the engine, on operands `make` makes."""
    x, y = make(a), make(b)
    h = (x @ y).relu() + (x.transpose().gather_rows([0, 2]) ** 2.0).sum()
    h = logsumexp_rows(h / (1.0 - x.detach().mean())) * x.exp().log().sqrt().sum()
    return h.mean() + (x @ y).diagonal().sum()


class TestGraphLifetime:
    def test_no_op_leaves_a_cycle(self):
        """A graph through every op, backpropagated or not, is freed by
        refcount: the cyclic collector, switched off meanwhile, finds nothing."""
        rng = np.random.default_rng(11)
        a, b = rng.uniform(0.5, 2.0, (3, 4)), rng.uniform(0.5, 2.0, (4, 3))

        gc.collect()
        gc.disable()
        try:
            out = composite(a, b)
            out.backward()
            del out
            assert gc.collect() == 0
            out = composite(a, b)
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()


def graph_nodes(out):
    """Every node of out's graph, each once, before backward frees it."""
    nodes, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(parent for parent, _ in node._parents)
    return list(nodes.values())


def keeping_backward(out):
    """Backward as it was before it freed the graph: the same walk and the
    same accumulation order, with every gradient and pair kept."""
    topo, seen, stack = [], set(), [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent, _ in node._parents if id(parent) not in seen)
    out.grad = np.ones_like(out.value)
    for node in reversed(topo):
        for parent, share in node._parents:
            parent._accumulate(share(node.grad))


class TestBackwardFreesTheGraph:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_only_leaves_keep_a_gradient_and_theirs_keep_their_bits(self, seed):
        """After backward no op output holds a gradient or a pair, and the
        two leaves' gradients are the bits of a backward that keeps it all."""
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.5, 2.0, (3, 4)), rng.uniform(0.5, 2.0, (4, 3))
        x, y = Tensor(a), Tensor(b)
        out = composite(x, y, make=lambda t: t)
        nodes = graph_nodes(out)
        inner = [node for node in nodes if node._parents]
        assert len(inner) > 10 and {id(x), id(y)} <= {id(node) for node in nodes}
        out.backward()
        assert all(node.grad is None and node._parents == () for node in inner)

        x_ref, y_ref = Tensor(a), Tensor(b)
        keeping_backward(composite(x_ref, y_ref, make=lambda t: t))
        assert x.grad.tobytes() == x_ref.grad.tobytes()
        assert y.grad.tobytes() == y_ref.grad.tobytes()

    def test_a_second_backward_finds_no_graph(self):
        """The used-up output is left without parents, so backward again
        gives it a gradient of one and leaves the leaves' gradients alone."""
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        out = (x * x).sum()
        out.backward()
        first = x.grad.copy()
        out.backward()
        np.testing.assert_array_equal(x.grad, first)
        assert out._parents == () and out.grad == 1.0

    def test_activations_are_freed_during_the_backward(self):
        """Once backward has passed a node, the activations its shares held
        are let go: the matmul output that relu's share reads dies with the
        graph, while the output the caller kept still holds its value."""
        w = Tensor(np.ones((3, 3)))
        h = wrap(np.ones((2, 3))) @ w
        probe = weakref.ref(h.value)
        out = (h.relu() * 2.0).sum()
        del h
        assert probe() is not None
        out.backward()
        assert probe() is None and out.item() == 36.0
        np.testing.assert_array_equal(w.grad, np.full((3, 3), 4.0))


class TestConstants:
    def test_ops_return_leaves(self):
        a = wrap(np.array([[1.0, 2.0], [3.0, 4.0]]))
        outs = [a + 1.0, a * a, a**2.0, a @ a, a.relu(), a.exp(), a.log(), a.sum(axis=0),
                a.gather_rows([1]), a.transpose(), a.diagonal(), logsumexp_rows(a),
                a - a, a / 2.0, a.mean(), 2.0 - a, 1.0 / a, Tensor(a.value).detach()]
        for out in outs:
            assert out._parents == ()
        assert (Tensor(a.value) + a)._parents  # a Tensor the caller made records

    def test_constants_and_detached_copies_take_no_gradient(self):
        """Only x, which the caller made, gets a gradient; its share from
        each product is the other factor."""
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        c, d = wrap(np.array([0.5, 4.0, -1.5])), x.detach()
        (x * c + d * x - 2.0).sum().backward()
        assert c.grad is None and d.grad is None
        np.testing.assert_array_equal(x.grad, c.value + d.value)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_values_do_not_depend_on_recording(self, seed, scale):
        """The composite has the same bits on caller-made Tensors, which
        record a graph, and on constants, which do not."""
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.5, 2.0, (3, 4)), rng.uniform(0.5, 2.0, (4, 3)) * scale
        graph = composite(a, b)
        value = composite(a, b, make=wrap)
        assert graph._parents and not value._parents
        assert value.value.tobytes() == graph.value.tobytes()


class TestAdamW:
    def test_single_step_matches_hand_computation(self):
        """One step with beta=(0.9, 0.999): m_hat = g, v_hat = g^2, so the
        update is lr * g / (|g| + eps) regardless of gradient scale."""
        p = Tensor(np.array([1.0, -2.0]))
        opt = AdamW([p], lr=0.1)
        p.grad = np.array([0.5, -4.0])
        opt.step()
        g = np.array([0.5, -4.0])
        want = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.value, want, rtol=1e-9)

    def test_weight_decay_is_decoupled(self, monkeypatch):
        monkeypatch.setattr(autodiff, "ADAM_WEIGHT_DECAY", 0.01)
        p = Tensor(np.array([10.0]))
        opt = AdamW([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        # decay subtracts lr * wd * p on top of the adam update
        adam_only = 10.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(p.value, adam_only - 0.1 * 0.01 * 10.0, rtol=1e-9)

    def test_zero_grad_resets(self):
        p = Tensor(np.array([1.0]))
        opt = AdamW([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None

    def test_step_is_deterministic(self):
        def run():
            p = Tensor(np.array([1.0, 2.0, 3.0]))
            opt = AdamW([p], lr=0.05)
            for i in range(5):
                p.grad = np.sin(np.arange(3.0) + i)
                opt.step()
            return p.value.copy()

        np.testing.assert_array_equal(run(), run())

    def test_parameter_without_gradient_is_skipped(self):
        """A parameter the loss does not use gets no gradient: step leaves it
        as it is and moves the used one as an optimizer of that one alone."""
        start = np.array([[0.3, -1.2], [2.0, 0.7]])
        used, unused, alone = Tensor(start.copy()), Tensor(start.copy()), Tensor(start.copy())
        pair, single = AdamW([unused, used], lr=0.1), AdamW([alone], lr=0.1)
        for opt, p in ((pair, used), (single, alone)):
            for _ in range(3):
                opt.zero_grad()
                (p * p).sum().backward()
                opt.step()
        assert unused.grad is None
        assert unused.value.tobytes() == start.tobytes()
        assert used.value.tobytes() == alone.value.tobytes()
        assert used.value.tobytes() != start.tobytes()


class TestCosineWarmup:
    def test_linear_warmup_then_cosine(self):
        lrs = [cosine_warmup_lr(e, 1.0, warmup_epochs=4, total_epochs=12) for e in range(12)]
        np.testing.assert_allclose(lrs[:4], [0.25, 0.5, 0.75, 1.0])
        assert all(b <= a + 1e-12 for a, b in zip(lrs[3:], lrs[4:]))  # decays after warmup
        assert lrs[-1] > 0.0
        np.testing.assert_allclose(
            cosine_warmup_lr(12, 1.0, warmup_epochs=4, total_epochs=12), 0.0, atol=1e-12
        )

    def test_no_warmup(self):
        assert cosine_warmup_lr(0, 2.0, warmup_epochs=0, total_epochs=10) == 2.0
