import math

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lexifuse.distributions import (
    dirichlet_kl,
    dirichlet_kl_var,
    dirichlet_sample_vars,
)
from lexifuse.errors import ConfigError, DomainError
from lexifuse.rng import RngStream
from lexifuse.special import gamma_quantile
from reference import (
    dirichlet_kl_jacobian,
    dirichlet_kl_per_component,
    linear_objective,
    product01,
    reparam_grad_elbo,
    reparam_grad_samples,
    sample_dirichlet,
    sample_gamma,
    sum_of_squares,
)

pos_param = st.floats(min_value=0.3, max_value=20.0)


class TestSampleGamma:
    def test_moments(self):
        rng = RngStream(7)
        shape = 4.2
        n = 100_000
        xs = np.array([sample_gamma(shape, rng) for _ in range(n)])
        # Gamma(k): mean k, var k, fourth central moment 3k^2 + 6k
        se_mean = math.sqrt(shape / n)
        assert abs(xs.mean() - shape) < 3 * se_mean
        se_var = math.sqrt((2 * shape**2 + 6 * shape) / n)
        assert abs(xs.var() - shape) < 3 * se_var

    def test_small_shape_boost(self):
        rng = RngStream(8)
        n = 100_000
        shape = 0.4
        xs = np.array([sample_gamma(shape, rng) for _ in range(n)])
        assert (xs > 0).all()
        assert abs(xs.mean() - shape) < 3 * math.sqrt(shape / n)

    def test_reproducible(self):
        a = [sample_gamma(2.0, RngStream(3)) for _ in range(10)]
        b = [sample_gamma(2.0, RngStream(3)) for _ in range(10)]
        assert a == b

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_gamma(0.0, RngStream(0))
        with pytest.raises(DomainError):
            sample_gamma(-1.0, RngStream(0))


class TestSampleDirichlet:
    def test_symmetric_mean(self):
        rng = RngStream(11)
        zs = np.array([sample_dirichlet((1.0, 1.0, 1.0), rng) for _ in range(100_000)])
        np.testing.assert_allclose(zs.mean(axis=0), [1 / 3] * 3, atol=0.005)

    def test_asymmetric_mean(self):
        rng = RngStream(12)
        zs = np.array([sample_dirichlet((10.0, 1.0, 1.0), rng) for _ in range(100_000)])
        np.testing.assert_allclose(zs.mean(axis=0), [10 / 12, 1 / 12, 1 / 12], atol=0.01)

    @given(pos_param, pos_param, pos_param, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50)
    def test_on_simplex(self, a, b, c, seed):
        z = sample_dirichlet((a, b, c), RngStream(seed))
        assert all(zk > 0 for zk in z)
        assert abs(sum(z) - 1.0) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_dirichlet((1.0, 0.0, 1.0), RngStream(0))


class TestDirichletKl:
    def test_zero_at_equal(self):
        assert dirichlet_kl((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
        assert dirichlet_kl((4.0, 1.0, 1.0), (4.0, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    @given(
        st.lists(pos_param, min_size=3, max_size=3),
        st.lists(pos_param, min_size=3, max_size=3),
    )
    def test_nonnegative(self, beta, alpha):
        assert dirichlet_kl(beta, alpha) >= -1e-12

    def test_mc_oracle(self):
        rng = RngStream(21)
        n = 100_000
        for beta, alpha in [((2.0, 1.0, 1.0), (1.0, 1.0, 1.0)), ((3.0, 2.5, 1.2), (1.0, 4.0, 1.0))]:
            z = np.array([sample_dirichlet(beta, rng) for _ in range(n)]).T
            diffs = scipy.stats.dirichlet.logpdf(z, beta) - scipy.stats.dirichlet.logpdf(z, alpha)
            se = diffs.std() / math.sqrt(n)
            assert abs(diffs.mean() - dirichlet_kl(beta, alpha)) < 3 * se

    def test_domain(self):
        with pytest.raises(DomainError):
            dirichlet_kl((1.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            dirichlet_kl((1.0, 0.0, 1.0), (1.0, 1.0, 1.0))


def kl_cases() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(beta, alpha) batches: 256 random rows as training sees them, then
    components exactly 1.0, a flat prior, components below 1 and one row."""
    rng = np.random.default_rng(5)
    batch = 1.0 + rng.gamma(0.7, 3.0, size=(256, 3))
    prior = 1.0 + rng.gamma(0.3, 2.0, size=(256, 3))
    ones = batch.copy()
    ones[::2, 0] = 1.0
    ones[::3] = 1.0
    small = rng.uniform(0.01, 2.0, size=(64, 3))
    return {"random": (batch, prior), "ones": (ones, prior), "flat": (batch, np.ones_like(batch)),
            "small": (small, small[::-1].copy()), "one_row": (batch[:1], prior[:1])}


class TestDirichletKlAgainstPerComponent:
    """One stacked call per special function gives the per-component
    formula's values and Jacobian bit for bit."""

    @pytest.mark.parametrize("case", sorted(kl_cases()))
    def test_batches_bitwise(self, case):
        beta, alpha = kl_cases()[case]
        want = dirichlet_kl_per_component(beta, alpha)
        assert dirichlet_kl(beta, alpha).tobytes() == want.tobytes()
        kl, jac = dirichlet_kl_var(beta, alpha)
        assert kl.tobytes() == want.tobytes()
        assert jac.tobytes() == dirichlet_kl_jacobian(beta, alpha).tobytes()

    def test_one_dimensional_bitwise(self):
        for beta, alpha in [((4 / 3, 4 / 3, 4 / 3), (1.0, 1.0, 1.0)), ((1.0, 1.0, 1.0), (2.5, 1.0, 1.0)),
                            ((3.0, 2.5, 1.2), (1.0, 4.0, 1.0)), ((0.3, 7.0, 1.0), (0.2, 0.9, 12.0))]:
            got, want = dirichlet_kl(beta, alpha), dirichlet_kl_per_component(beta, alpha)
            assert np.shape(got) == () and float(got).hex() == float(want).hex()

    def test_broadcast_prior_bitwise(self):
        beta, alpha = kl_cases()["random"][0], np.array([1.0, 2.0, 1.5])
        assert dirichlet_kl(beta, alpha).tobytes() == dirichlet_kl_per_component(beta, alpha).tobytes()


class TestDirichletKlVar:
    @given(
        st.lists(st.floats(min_value=1.01, max_value=8.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=1.0, max_value=5.0), min_size=3, max_size=3),
    )
    @settings(max_examples=100)
    def test_value_and_gradient(self, beta, alpha):
        kl, jac = dirichlet_kl_var(np.array([beta]), np.array([alpha]))
        assert kl[0] == pytest.approx(dirichlet_kl(beta, alpha), rel=1e-12)
        adj = jac[0]
        h = 1e-6
        for k in range(3):
            up = list(beta)
            dn = list(beta)
            up[k] += h
            dn[k] -= h
            fd = (dirichlet_kl(up, alpha) - dirichlet_kl(dn, alpha)) / (2 * h)
            assert adj[k] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_rows_independent(self):
        beta = np.array([[2.0, 1.5, 1.2], [1.0, 1.0, 4.0], [3.0, 2.0, 1.0]])
        alpha = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
        kl, jac = dirichlet_kl_var(beta, alpha)
        for i in range(3):
            one, one_jac = dirichlet_kl_var(beta[i : i + 1], alpha[i : i + 1])
            assert kl[i] == one[0]
            np.testing.assert_array_equal(jac[i], one_jac[0])


class TestGammaSampleVar:
    @given(
        st.floats(min_value=1.0, max_value=15.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100)
    def test_value_and_implicit_gradient(self, shape, u):
        y, dy = gamma_quantile(shape, u)
        h = 1e-5 * max(shape, 1.0)
        if shape - h < 1.0:  # no quantile below shape 1: a forward difference
            fd = (gamma_quantile(shape + h, u)[0] - y) / h
        else:
            fd = (gamma_quantile(shape + h, u)[0] - gamma_quantile(shape - h, u)[0]) / (2 * h)
        assert dy == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_quantile(2.0, 0.0)


class TestDirichletSampleVars:
    @given(
        st.lists(st.floats(min_value=1.0, max_value=10.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=3, max_size=3),
    )
    @settings(max_examples=100)
    def test_matches_float_twin(self, beta, us):
        # the float computation: Gamma quantiles normalized onto the simplex
        zs = dirichlet_sample_vars(np.array([beta]), np.array([us]))[0][0]
        ys = [float(gamma_quantile(b, u)[0]) for b, u in zip(beta, us)]
        want = [y / sum(ys) for y in ys]
        np.testing.assert_allclose(zs, want, rtol=1e-12)
        assert abs(zs.sum() - 1.0) < 1e-9

    def test_gradient_vs_float_twin_fd(self):
        beta = [2.0, 1.3, 4.0]
        us = np.array([[0.3, 0.7, 0.52]])
        _, vjp = dirichlet_sample_vars(np.array([beta]), us)
        # differentiate z_0 w.r.t. each beta_k
        adj = vjp(np.array([[1.0, 0.0, 0.0]]))[0]

        def z0_value(b):
            return dirichlet_sample_vars(np.array([b]), us)[0][0, 0]

        h = 1e-6
        for k in range(3):
            up = list(beta)
            dn = list(beta)
            up[k] += h
            dn[k] -= h
            fd = (z0_value(up) - z0_value(dn)) / (2 * h)
            assert adj[k] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    @pytest.mark.parametrize("shape", [0.02, 0.5, 1.0 - 1e-12])
    def test_shape_below_one_refused(self, shape):
        beta = np.array([[2.0, 1.3, 4.0], [1.0, shape, 3.0]])
        us = np.array([[0.3, 0.7, 0.52], [0.5, 0.5, 0.5]])
        with pytest.raises(DomainError, match="requires shape >= 1"):
            dirichlet_sample_vars(beta, us)
        with pytest.raises(DomainError, match="requires shape >= 1"):
            gamma_quantile(shape, 0.5)


def score_function_samples(objective_f, beta, n, rng):
    """REINFORCE estimator samples: f(z) * grad_beta log Dir(z; beta)."""
    beta = list(beta)
    bsum = sum(beta)
    base = np.array([float(sps.digamma(bsum) - sps.digamma(b)) for b in beta])
    out = np.empty((n, len(beta)))
    for i in range(n):
        z = sample_dirichlet(beta, rng)
        score = base + np.log(z)
        out[i] = objective_f(z) * score
    return out


class TestReparamGradElbo:
    def test_constant_objective_exactly_zero(self):
        g = reparam_grad_elbo(
            lambda z: (np.full(len(z), 5.0), np.zeros_like(z)), (2.0, 2.0, 2.0), 16, RngStream(5)
        )
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_linear_objective_matches_analytic(self):
        # E[z_1] = b1/(b1+b2+b3); closed-form gradient available
        beta = (2.0, 2.0, 2.0)
        n = 20_000
        samples = reparam_grad_samples(linear_objective([1.0, 0.0, 0.0]), beta, n, RngStream(6))
        bsum = sum(beta)
        truth = np.array(
            [(bsum - beta[0]) / bsum**2, -beta[0] / bsum**2, -beta[0] / bsum**2]
        )
        se = samples.std(axis=0) / math.sqrt(n)
        err = np.abs(samples.mean(axis=0) - truth)
        assert (err < 3 * se + 1e-12).all()

    def test_agrees_with_score_function(self):
        beta = (3.0, 2.0, 4.0)

        def obj_float(z):
            return sum(zk * zk for zk in z)

        n_path, n_score = 20_000, 200_000
        path = reparam_grad_samples(sum_of_squares, beta, n_path, RngStream(7))
        score = score_function_samples(obj_float, beta, n_score, RngStream(8))
        se = np.sqrt(
            path.var(axis=0) / n_path + score.var(axis=0) / n_score
        )
        err = np.abs(path.mean(axis=0) - score.mean(axis=0))
        assert (err < 3 * se).all()

    def test_bad_sample_count(self):
        with pytest.raises(ConfigError):
            reparam_grad_elbo(linear_objective([1.0, 0.0, 0.0]), (1.0, 1.0, 1.0), 0, RngStream(0))

    def test_reproducible(self):
        g1 = reparam_grad_elbo(product01, (2.0, 3.0, 1.5), 32, RngStream(9))
        g2 = reparam_grad_elbo(product01, (2.0, 3.0, 1.5), 32, RngStream(9))
        np.testing.assert_array_equal(g1, g2)
