"""The array tape of the library (TestArray*) and the scalar tape the
tests keep as their gradient oracle (the other classes), each against
finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_tape as tp
from lexifuse import tape as at
from lexifuse.errors import NumericError, UsageError
from scalar_tape import Tape


def tape_value_and_grad(build, xs):
    """Evaluate build(tape, leaves) and return (value, d/dleaf list)."""
    t = Tape()
    leaves = [t.leaf(x) for x in xs]
    root = build(t, leaves)
    adj = t.backward(root)
    return root.value, [adj[leaf.idx] for leaf in leaves]


def fd_grad(f, xs, h=1e-6):
    out = []
    for i in range(len(xs)):
        up = list(xs)
        dn = list(xs)
        up[i] += h
        dn[i] -= h
        out.append((f(up) - f(dn)) / (2.0 * h))
    return out


def assert_grad_matches_fd(build, f, xs, rel=1e-5, abs_tol=1e-7, h=1e-6):
    _, g = tape_value_and_grad(build, xs)
    fd = fd_grad(f, xs, h=h)
    np.testing.assert_allclose(g, fd, rtol=rel, atol=abs_tol)


finite_floats = st.floats(min_value=-3.0, max_value=3.0)


class TestBasicOps:
    def test_product_rule(self):
        val, g = tape_value_and_grad(lambda t, xs: xs[0] * xs[1], [2.0, 3.0])
        assert val == 6.0
        assert g == [3.0, 2.0]

    def test_sigmoid_at_zero(self):
        val, g = tape_value_and_grad(lambda t, xs: tp.sigmoid(xs[0]), [0.0])
        assert val == pytest.approx(0.5)
        assert g[0] == pytest.approx(0.25)

    def test_constant_arithmetic(self):
        def build(t, xs):
            x = xs[0]
            return 2.0 * x + 1.0 - (3.0 - x) + x / 2.0 + 4.0 / (x + 3.0)

        def f(xs):
            x = xs[0]
            return 2.0 * x + 1.0 - (3.0 - x) + x / 2.0 + 4.0 / (x + 3.0)

        assert_grad_matches_fd(build, f, [1.3])

    @given(st.lists(finite_floats, min_size=2, max_size=5))
    def test_polynomial_mix(self, xs):
        def build(t, vs):
            acc = vs[0] * vs[0]
            for v in vs[1:]:
                acc = acc * 0.5 + v * acc - v
            return acc

        def f(vals):
            acc = vals[0] * vals[0]
            for v in vals[1:]:
                acc = acc * 0.5 + v * acc - v
            return acc

        assert_grad_matches_fd(build, f, xs, rel=1e-4, abs_tol=1e-5)

    def test_pow_and_neg(self):
        def build(t, xs):
            x = xs[0]
            return (-x) * (-x) + x * x * x

        def f(xs):
            return xs[0] ** 2 + xs[0] ** 3

        assert_grad_matches_fd(build, f, [1.7])

    @given(st.floats(min_value=-2.0, max_value=2.0))
    def test_unary_chain(self, x):
        def build(t, xs):
            return tp.sigmoid(tp.tanh(xs[0]) * 0.5) + tp.softplus(xs[0])

        def f(vals):
            x = vals[0]
            sig = 1.0 / (1.0 + math.exp(-0.5 * math.tanh(x)))
            return sig + math.log1p(math.exp(-abs(x))) + max(x, 0.0)

        assert_grad_matches_fd(build, f, [x])

    @given(st.floats(min_value=0.1, max_value=5.0))
    def test_log_matches(self, x):
        def build(t, xs):
            return tp.log(xs[0] * xs[0] + 1.0)

        def f(vals):
            return math.log(vals[0] ** 2 + 1.0)

        assert_grad_matches_fd(build, f, [x])

    def test_log_nonpositive_raises(self):
        t = Tape()
        x = t.leaf(-1.0)
        with pytest.raises(NumericError):
            tp.log(x)

    def test_softplus_extreme_inputs_finite(self):
        t = Tape()
        assert tp.softplus(t.leaf(800.0)).value == pytest.approx(800.0)
        assert tp.softplus(t.leaf(-800.0)).value == pytest.approx(0.0, abs=1e-300)


class TestSpecialNodes:
    def test_clamp_passthrough_and_saturation(self):
        val, g = tape_value_and_grad(lambda t, xs: tp.clamp(xs[0], 0.0, 1.0), [0.4])
        assert (val, g[0]) == (0.4, 1.0)
        val, g = tape_value_and_grad(lambda t, xs: tp.clamp(xs[0], 0.0, 1.0), [1.7])
        assert (val, g[0]) == (1.0, 0.0)
        val, g = tape_value_and_grad(lambda t, xs: tp.clamp(xs[0], 0.0, 1.0), [-0.2])
        assert (val, g[0]) == (0.0, 0.0)


class TestFusedOps:
    @given(st.lists(finite_floats, min_size=1, max_size=6))
    def test_vsum_equals_chained_add(self, xs):
        def build(t, vs):
            return tp.vsum(vs)

        val, g = tape_value_and_grad(build, xs)
        assert val == pytest.approx(sum(xs))
        assert g == [1.0] * len(xs)

    @given(
        st.lists(finite_floats, min_size=1, max_size=5),
        st.data(),
    )
    def test_weighted_sum(self, xs, data):
        coeffs = data.draw(
            st.lists(finite_floats, min_size=len(xs), max_size=len(xs))
        )

        def build(t, vs):
            return tp.weighted_sum(vs, coeffs, const=0.7)

        def f(vals):
            return 0.7 + sum(c * v for c, v in zip(coeffs, vals))

        assert_grad_matches_fd(build, f, xs)

    def test_softmax3_values_sum_to_one(self):
        t = Tape()
        a, b, c = t.leaf(0.3), t.leaf(-1.2), t.leaf(2.0)
        pa, pb, pc = tp.softmax3(a, b, c)
        assert pa.value + pb.value + pc.value == pytest.approx(1.0, abs=1e-12)
        ref = np.exp([0.3, -1.2, 2.0])
        ref /= ref.sum()
        np.testing.assert_allclose([pa.value, pb.value, pc.value], ref, rtol=1e-12)

    @given(finite_floats, finite_floats, finite_floats)
    @settings(max_examples=50)
    def test_softmax3_jacobian_vs_fd(self, a, b, c):
        # differentiate each output component separately
        for k in range(3):
            def build(t, xs, k=k):
                return tp.softmax3(xs[0], xs[1], xs[2])[k]

            def f(vals, k=k):
                e = np.exp(np.array(vals) - max(vals))
                return float(e[k] / e.sum())

            assert_grad_matches_fd(build, f, [a, b, c], rel=1e-4, abs_tol=1e-6)

    @given(st.lists(finite_floats, min_size=1, max_size=9))
    def test_logsumexp_vs_fd(self, xs):
        def build(t, vs):
            return tp.logsumexp(vs)

        def f(vals):
            m = max(vals)
            return m + math.log(sum(math.exp(v - m) for v in vals))

        assert_grad_matches_fd(build, f, xs, rel=1e-4, abs_tol=1e-6)

    def test_linear_layer_constant_inputs(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        x = rng.normal(size=3)

        def build(t, vs):
            rows = [vs[i * 3:(i + 1) * 3] for i in range(4)]
            outs = tp.linear_layer(rows, list(x), vs[12:16])
            return tp.vsum([o * o for o in outs])

        def f(vals):
            Wf = np.array(vals[:12]).reshape(4, 3)
            bf = np.array(vals[12:16])
            return float(((Wf @ x + bf) ** 2).sum())

        xs = list(W.ravel()) + list(b)
        assert_grad_matches_fd(build, f, xs, rel=1e-4, abs_tol=1e-6)

    def test_linear_layer_var_inputs(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        z = rng.normal(size=3)

        def build(t, vs):
            rows = [vs[0:3], vs[3:6]]
            biases = vs[6:8]
            zs = vs[8:11]
            outs = tp.linear_layer(rows, zs, biases)
            return outs[0] * outs[1]

        def f(vals):
            Wf = np.array(vals[0:6]).reshape(2, 3)
            bf = np.array(vals[6:8])
            zf = np.array(vals[8:11])
            o = Wf @ zf + bf
            return float(o[0] * o[1])

        xs = list(W.ravel()) + list(b) + list(z)
        assert_grad_matches_fd(build, f, xs, rel=1e-4, abs_tol=1e-6)


class TestTapeStructure:
    def test_topological_by_construction(self):
        t = Tape()
        x = t.leaf(1.0)
        y = tp.tanh(x)
        z = y * x
        for i, ps in enumerate(t.parents):
            assert all(p < i for p in ps)
        assert z.idx == len(t) - 1

    def test_backward_skips_nodes_after_root(self):
        t = Tape()
        x = t.leaf(2.0)
        y = x * x
        _ = tp.tanh(y)  # appended after the root below
        adj = t.backward(y)
        assert adj[x.idx] == 4.0

    def test_grad_rejects_foreign_root(self):
        t1, t2 = Tape(), Tape()
        x = t1.leaf(1.0)
        with pytest.raises(UsageError):
            t2.backward(x)
        with pytest.raises(UsageError):
            t1.backward(3.0)  # not a Var

    def test_mixing_tapes_raises(self):
        t1, t2 = Tape(), Tape()
        a, b = t1.leaf(1.0), t2.leaf(2.0)
        with pytest.raises(UsageError):
            _ = a + b

    def test_fanout_accumulates(self):
        # y = x*x + x used twice: dy/dx = 2x + 1
        t = Tape()
        x = t.leaf(3.0)
        y = x * x + x
        adj = t.backward(y)
        assert adj[x.idx] == pytest.approx(7.0)

    def test_empty_fused_ops_rejected(self):
        with pytest.raises(UsageError):
            tp.vsum([])
        with pytest.raises(UsageError):
            tp.logsumexp([])
        t = Tape()
        with pytest.raises(UsageError):
            tp.weighted_sum([t.leaf(1.0)], [1.0, 2.0])


def array_fd(f, x, h=1e-6):
    """Central differences of the scalar f at every element of the array x."""
    out = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (f(up) - f(dn)) / (2.0 * h)
    return out


def weighted(node, c):
    """sum(c * node) as a scalar node, c an array of node's shape."""
    return node.tape.push((c * node.value).sum(), (node,), lambda g: (g * c,))


def check_vjp(op, xs, h=1e-6, rtol=1e-6, atol=1e-8):
    """op(*leaves) -> node: its VJP against central differences of a random
    weighted readout, for every input array."""
    tape = at.Tape()
    leaves = [tape.leaf(x) for x in xs]
    out = op(*leaves)
    c = np.random.default_rng(0).normal(size=out.value.shape)
    adj = tape.backward(weighted(out, c))
    for k, x in enumerate(xs):
        def f(v, k=k):
            t = at.Tape()
            args = [t.leaf(v if j == k else y) for j, y in enumerate(xs)]
            return float((c * op(*args).value).sum())

        np.testing.assert_allclose(adj[leaves[k].idx], array_fd(f, np.array(xs[k], dtype=float), h),
                                   rtol=rtol, atol=atol)


class TestArrayOps:
    def test_affine_node_input(self):
        gen = np.random.default_rng(1)
        check_vjp(at.affine, [gen.normal(size=(5, 3)), gen.normal(size=(4, 3)), gen.normal(size=4)])

    def test_affine_constant_input(self):
        gen = np.random.default_rng(2)
        x = gen.normal(size=(5, 3))
        check_vjp(lambda w, b: at.affine(x, w, b), [gen.normal(size=(4, 3)), gen.normal(size=4)])
        with pytest.raises(UsageError):
            t = at.Tape()
            at.affine(np.zeros((5, 2)), t.leaf(np.zeros((4, 3))), t.leaf(np.zeros(4)))

    def test_tanh_and_pointwise(self):
        check_vjp(at.tanh, [np.random.default_rng(3).normal(size=(4, 3))])

    def test_softmax_rows(self):
        x = np.random.default_rng(4).normal(size=(6, 3)) * 3.0
        check_vjp(at.softmax, [x])
        s = at.softmax(at.Tape().leaf(x)).value
        np.testing.assert_allclose(s.sum(axis=1), 1.0, rtol=1e-15)

    def test_take_repeats_and_order(self):
        rows = np.array([2, 0, 2, 3])
        check_vjp(lambda x: at.take(x, rows), [np.random.default_rng(5).normal(size=(4, 3))])

    def test_scatter_rows(self):
        r1, r2 = np.array([0, 2, 3]), np.array([3, 1])
        gen = np.random.default_rng(6)
        check_vjp(lambda a, b: at.scatter_rows(5, [(r1, a), (r2, b)], base=1.0),
                  [gen.normal(size=(3, 3)), gen.normal(size=(2, 3))])
        t = at.Tape()
        out = at.scatter_rows(5, [(r1, t.leaf(np.ones((3, 3)))), (r2, t.leaf(np.ones((2, 3))))], base=1.0)
        np.testing.assert_array_equal(out.value[:, 0], [2.0, 2.0, 2.0, 3.0, 1.0])
        with pytest.raises(UsageError):
            at.scatter_rows(5, [], base=1.0)

    def test_rowwise(self):
        x = np.random.default_rng(7).normal(size=(4, 3))
        check_vjp(lambda n: at.rowwise(n, (n.value ** 2).sum(axis=1), 2.0 * n.value), [x])


class TestArrayTapeStructure:
    def test_topological_and_node_count(self):
        t = at.Tape()
        x = t.leaf(np.ones((2, 3)))
        y = at.tanh(x)
        z = at.softmax(y)
        assert len(t) == 3 and z.idx == 2
        for i, ps in enumerate(t.parents):
            assert all(p < i for p in ps)

    def test_leaf_copies_its_value(self):
        a = np.ones(3)
        t = at.Tape()
        x = t.leaf(a)
        a[0] = 5.0
        assert x.value[0] == 1.0

    def test_backward_skips_nodes_after_root_and_unrelated_leaves(self):
        t = at.Tape()
        x = t.leaf(np.array([2.0, 3.0]))
        other = t.leaf(np.array([1.0]))
        y = weighted(x, np.array([1.0, 2.0]))
        _ = at.tanh(x)  # appended after the root
        adj = t.backward(y)
        np.testing.assert_array_equal(adj[x.idx], [1.0, 2.0])
        assert adj[other.idx] is None

    def test_fanout_accumulates(self):
        t = at.Tape()
        x = t.leaf(np.array([[0.3, -0.2, 0.1]]))
        y = at.scatter_rows(1, [(np.array([0]), at.tanh(x)), (np.array([0]), x)], base=0.0)
        adj = t.backward(weighted(y, np.ones((1, 3))))
        np.testing.assert_allclose(adj[x.idx], 2.0 - np.tanh(x.value) ** 2, rtol=1e-15)

    def test_rejects_foreign_root_non_scalar_root_and_mixed_tapes(self):
        t1, t2 = at.Tape(), at.Tape()
        x = t1.leaf(np.ones(3))
        with pytest.raises(UsageError):
            t2.backward(weighted(x, np.ones(3)))
        with pytest.raises(UsageError):
            t1.backward(x)  # three elements, not a scalar
        with pytest.raises(UsageError):
            t1.backward(3.0)
        with pytest.raises(UsageError):
            at.affine(x.value[None, :], t2.leaf(np.ones((1, 3))), x)
