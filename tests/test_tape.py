"""The library's layers and the tape that replays their chain rules
(TestArray*), and the scalar tape the tests keep as their gradient oracle
(the other classes), each against finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_tape as tp
from lexifuse import tape as at
from lexifuse.distributions import dirichlet_sample_vars
from lexifuse.errors import NumericError, UsageError
from lexifuse.lexica import binary, pair_continuous, rater_histogram, signed_continuous
from lexifuse.model import Head, decode_vars, decoder_width, elbo_batch, encode_vars
from lexifuse.rng import RngStream, stream_for
from lexifuse.training import TrainConfig, init_model
from reference import elbo_noise, observations_of
from row_lexica import PolarityLabel
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


def check_vjp(op, xs, h=1e-6, rtol=1e-6, atol=1e-8):
    """op(*arrays) -> (output, VJP), the VJP returning one adjoint per array
    (a tuple, or the one adjoint of a single array): its adjoints against
    central differences of a random weighted readout, for every input array."""
    xs = [np.array(x, dtype=float) for x in xs]
    out, vjp = op(*xs)
    c = np.random.default_rng(0).normal(size=out.shape)
    adj = vjp(c)
    adj = adj if len(xs) > 1 else (adj,)
    for k, x in enumerate(xs):
        def f(v, k=k):
            return float((c * op(*[v if j == k else y for j, y in enumerate(xs)])[0]).sum())

        np.testing.assert_allclose(adj[k], array_fd(f, x, h), rtol=rtol, atol=atol)


def head_shapes(n_in, n_out, hidden=4):
    """A head's (w1, b1, w2, b2) shapes."""
    return [(hidden, n_in), (hidden,), (n_out, hidden), (n_out,)]


def bound(flat, shapes):
    """A head whose arrays are views of flat, in order."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return Head._make(flat[end - math.prod(shape):end].reshape(shape) for shape, end in zip(shapes, ends))


def flat_head(gen, shapes):
    return gen.normal(size=sum(math.prod(shape) for shape in shapes))


DECODER_SCALES = {"binary": binary(), "signed": signed_continuous(), "pair": pair_continuous(),
                  "rater": rater_histogram(4, 5)}


class TestArrayOps:
    def test_encode_vars_constant_input(self):
        gen = np.random.default_rng(2)
        x = gen.normal(size=(5, 2))
        shapes = head_shapes(2, 3)
        check_vjp(lambda head: encode_vars(x, bound(head, shapes)), [flat_head(gen, shapes)])
        with pytest.raises(UsageError, match="encode_vars: rows of width 2"):
            encode_vars(np.zeros((5, 3)), bound(flat_head(gen, shapes), shapes))

    def test_encode_vars_softmax_rows(self):
        gen = np.random.default_rng(4)
        x = gen.normal(size=(6, 2)) * 3.0
        shapes = head_shapes(2, 3)
        check_vjp(lambda head: encode_vars(x, bound(head, shapes)), [flat_head(gen, shapes)])
        omega, _ = encode_vars(x, bound(flat_head(gen, shapes), shapes))
        np.testing.assert_allclose(omega.sum(axis=1), 1.0, rtol=1e-15)

    @pytest.mark.parametrize("family", sorted(DECODER_SCALES))
    def test_decode_vars_node_input(self, family):
        scale = DECODER_SCALES[family]
        gen = np.random.default_rng(3)
        shapes = head_shapes(3, decoder_width(scale))
        rows = np.arange(5)
        check_vjp(lambda z, head: decode_vars(z, rows, bound(head, shapes), scale),
                  [gen.normal(size=(5, 3)), flat_head(gen, shapes)])
        with pytest.raises(UsageError, match="decode_vars: rows of width 3"):
            decode_vars(np.zeros((5, 2)), rows, bound(flat_head(gen, shapes), shapes), scale)

    def test_decode_vars_rows_repeats_and_order(self):
        # row 1 is not read, so its adjoint is zero; row 2 is read twice
        rows = np.array([2, 0, 2, 3])
        scale = DECODER_SCALES["signed"]
        gen = np.random.default_rng(5)
        shapes = head_shapes(3, decoder_width(scale))
        check_vjp(lambda z, head: decode_vars(z, rows, bound(head, shapes), scale),
                  [gen.normal(size=(4, 3)), flat_head(gen, shapes)])
        rho, vjp = decode_vars(gen.normal(size=(4, 3)), rows, bound(flat_head(gen, shapes), shapes), scale)
        np.testing.assert_array_equal(rho[0], rho[2])
        assert not vjp(np.ones((4, 2)))[0][1].any()

    def test_dirichlet_sample_vars(self):
        gen = np.random.default_rng(4)
        beta = 1.0 + 4.0 * gen.random((5, 3))
        us = gen.random((5, 3))
        check_vjp(lambda b: dirichlet_sample_vars(b, us), [beta])
        z, _ = dirichlet_sample_vars(beta, us)
        np.testing.assert_allclose(z.sum(axis=1), 1.0, rtol=1e-15)


def recorded(calls, name, out):
    """A VJP that records (name, its adjoint) in calls and returns out."""
    def vjp(g):
        calls.append((name, np.array(g)))
        return out

    return vjp


class TestArrayTapeStructure:
    def test_topological_and_node_count(self):
        # a batch records its layers in forward order: the encoders and each
        # sample's decoders in sorted view order, the samples in order
        scales = {"bin": binary(), "pair": pair_continuous(), "rater": rater_histogram(10, 9),
                  "sig": signed_continuous()}
        state = init_model(scales, TrainConfig(hidden_dim=4), stream_for(0, "init"))
        labels = {"bin": PolarityLabel(scales["bin"], 1), "pair": PolarityLabel(scales["pair"], (0.75, 0.125)),
                  "rater": PolarityLabel(scales["rater"], (4, 5, 3, 4, 6, 4, 4, 2, 4, 4)),
                  "sig": PolarityLabel(scales["sig"], 0.65)}
        obs = observations_of({"w": labels, "v": {"sig": labels["sig"]}}, {"w": (2.0, 1.0, 1.0), "v": (1.0, 1.0, 1.0)})
        tape = elbo_batch(state, obs, np.array([elbo_noise(RngStream(1), 2), elbo_noise(RngStream(2), 2)])).tape
        vids = sorted(scales)
        assert len(tape) == 4 + 3 + 2 * (1 + 2 * 4) == 25
        assert [key for key, _, _ in tape.encoders] == [("enc", vid) for vid in vids]
        assert len(tape.samples) == 2
        for _, views in tape.samples:
            assert [key for key, _, _ in views] == [("dec", vid) for vid in vids]
        assert list(tape.sizes) == list(state.heads())
        # each encoder covers its view's rows of the batch, in ascending order
        rows = {key[1]: r.tolist() for key, r, _ in tape.encoders}
        assert rows == {"bin": [1], "pair": [1], "rater": [1], "sig": [0, 1]}

    def test_unused_head_gets_zeros(self):
        # a batch that no word of the "pair" view is in leaves its two heads'
        # slices of the gradient zero, and every other head's nonzero
        scales = {"bin": binary(), "pair": pair_continuous(), "sig": signed_continuous()}
        state = init_model(scales, TrainConfig(hidden_dim=4), stream_for(0, "init"))
        obs = observations_of({"w": {"bin": PolarityLabel(scales["bin"], 1), "sig": PolarityLabel(scales["sig"], 0.5)}},
                              {"w": (2.0, 1.0, 1.0)})
        elbo = elbo_batch(state, obs, np.array([elbo_noise(RngStream(3), 1)]))
        grad = elbo.tape.backward()
        assert grad.shape == state.params.shape
        start = 0
        for key, head in state.heads().items():
            size = sum(a.size for a in head)
            assert grad[start : start + size].any() == (key[1] != "pair"), key
            start += size

    def test_fanout_accumulates(self):
        # two samples of two views: z's adjoint adds up over a sample's views,
        # beta's over the samples and then the KL's, a decoder head's over the
        # samples, and each VJP runs once, in reverse forward order
        calls = []
        sizes = {("enc", "a"): 2, ("dec", "a"): 1, ("enc", "b"): 2, ("dec", "b"): 1}
        tape = at.Tape(sizes)
        rows = {"a": np.array([0, 1]), "b": np.array([1])}
        tape.encoders += [(("enc", "a"), rows["a"], recorded(calls, "enc a", np.array([1.0, 2.0]))),
                          (("enc", "b"), rows["b"], recorded(calls, "enc b", np.array([3.0, 4.0])))]
        tape.kl = np.full((2, 3), 0.5)
        for s in range(2):
            decoded = [(("dec", v), recorded(calls, f"dec {v}{s}", (np.full((2, 3), 1.0 + i), np.array([10.0 ** s]))),
                        np.full((len(rows[v]), 1), 2.0)) for i, v in enumerate("ab")]
            tape.samples.append((recorded(calls, f"draw {s}", np.full((2, 3), 100.0 * (s + 1))), decoded))
        assert len(tape) == 2 + 3 + 2 * (1 + 2 * 2)
        grad = tape.backward()
        assert [name for name, _ in calls] == ["dec b1", "dec a1", "draw 1", "dec b0", "dec a0", "draw 0",
                                               "enc b", "enc a"]
        adjoints = dict(calls)
        for v, s in (("a", 0), ("a", 1), ("b", 0), ("b", 1)):  # 1 / n_mc times the emission's Jacobian
            np.testing.assert_array_equal(adjoints[f"dec {v}{s}"], np.full((len(rows[v]), 1), 1.0))
        for s in range(2):  # the two views' z adjoints, 2 + 1
            np.testing.assert_array_equal(adjoints[f"draw {s}"], np.full((2, 3), 3.0))
        np.testing.assert_array_equal(adjoints["enc a"], np.full((2, 3), 299.5))  # 200 + 100 - 0.5
        np.testing.assert_array_equal(adjoints["enc b"], np.full((1, 3), 299.5))
        np.testing.assert_array_equal(grad, [1.0, 2.0, 11.0, 3.0, 4.0, 11.0])
