import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from lexifuse import special
from lexifuse.errors import DomainError, NumericError
from lexifuse.special import (
    digamma,
    gamma_quantile,
    gammainc_p,
    gammainc_p_da,
    lgamma,
    normal_quantile,
    trigamma,
)


class TestLgamma:
    def test_known_values(self):
        assert lgamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert lgamma(2.0) == pytest.approx(0.0, abs=1e-14)
        assert lgamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)
        assert lgamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-13)

    @given(st.floats(min_value=1e-3, max_value=1e4))
    def test_matches_stdlib(self, x):
        assert lgamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            lgamma(0.0)
        with pytest.raises(DomainError):
            lgamma(-1.5)


class TestDigamma:
    def test_known_values(self):
        # psi(1) = -euler_gamma; psi(2) = 1 - euler_gamma
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, rel=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - 0.5772156649015329, rel=1e-12)
        assert digamma(0.5) == pytest.approx(-0.5772156649015329 - 2.0 * math.log(2.0), rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e4))
    def test_matches_scipy(self, x):
        assert digamma(x) == pytest.approx(float(sps.digamma(x)), rel=1e-10, abs=1e-10)

    @given(st.floats(min_value=0.1, max_value=50.0))
    def test_is_derivative_of_lgamma(self, x):
        h = 1e-5 * max(x, 1.0)
        fd = (math.lgamma(x + h) - math.lgamma(x - h)) / (2.0 * h)
        assert digamma(x) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)


class TestTrigamma:
    def test_known_values(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
        assert trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e4))
    def test_matches_scipy(self, x):
        assert trigamma(x) == pytest.approx(float(sps.polygamma(1, x)), rel=1e-10, abs=1e-10)

    @given(st.floats(min_value=0.1, max_value=50.0))
    def test_is_derivative_of_digamma(self, x):
        h = 1e-5 * max(x, 1.0)
        fd = (float(sps.digamma(x + h)) - float(sps.digamma(x - h))) / (2.0 * h)
        assert trigamma(x) == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestGammaincP:
    def test_known_values(self):
        # P(1, x) = 1 - exp(-x)
        assert gammainc_p(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert gammainc_p(1.0, 0.0) == 0.0

    @given(
        st.floats(min_value=1e-2, max_value=100.0),
        st.floats(min_value=0.0, max_value=200.0),
    )
    def test_matches_scipy(self, a, x):
        assert gammainc_p(a, x) == pytest.approx(float(sps.gammainc(a, x)), rel=1e-10, abs=1e-12)

    @given(st.floats(min_value=1e-2, max_value=100.0), st.floats(min_value=1e-4, max_value=200.0))
    def test_in_unit_interval(self, a, x):
        p = gammainc_p(a, x)
        assert 0.0 <= p <= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            gammainc_p(0.0, 1.0)
        with pytest.raises(DomainError):
            gammainc_p(1.0, -0.1)


class TestGammaincPDa:
    @given(
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=1e-3, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_value_matches_p(self, a, x):
        p, _ = gammainc_p_da(a, x)
        assert p == pytest.approx(gammainc_p(a, x), rel=1e-12, abs=1e-14)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=1e-2, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_derivative_matches_finite_difference(self, a, x):
        _, da = gammainc_p_da(a, x)
        h = 1e-6 * max(a, 1.0)
        fd = (float(sps.gammainc(a + h, x)) - float(sps.gammainc(a - h, x))) / (2.0 * h)
        assert da == pytest.approx(fd, rel=2e-4, abs=1e-9)

    @pytest.mark.parametrize("a", [1.0, 2.0, 3.0, 7.0])
    def test_derivative_at_integer_shape_in_continued_fraction(self, a):
        # x >= a + 1 takes the continued fraction, whose value terms end at i = a
        x = a + 1.5
        _, da = gammainc_p_da(a, x)
        h = 1e-6 * a
        fd = (float(sps.gammainc(a + h, x)) - float(sps.gammainc(a - h, x))) / (2.0 * h)
        assert da == pytest.approx(fd, rel=1e-6)

    def test_zero_x(self):
        p, da = gammainc_p_da(2.0, 0.0)
        assert p == 0.0 and da == 0.0

    def test_upper_and_given_special_values(self):
        # upper gives Q with P's derivative, bit for bit as gammainc_p gives
        # Q; lgamma(a) and digamma(a) passed in change nothing
        a = np.array([1.0, 2.5, 2.5, 7.0, 7.0, 2.0])
        x = np.array([0.5, 1.0, 30.0, 3.0, 40.0, 0.0])
        upper = np.array([False, True, True, False, True, True])
        p, da = gammainc_p_da(a, x)
        q, dq = gammainc_p_da(a, x, upper, lgamma_a=lgamma(a), digamma_a=digamma(a))
        np.testing.assert_array_equal(q, gammainc_p(a, x, upper))
        np.testing.assert_array_equal(dq, da)
        np.testing.assert_array_equal(p[~upper], q[~upper])
        assert q[2] < 1e-9 and q[4] < 1e-9  # far upper tail, where P rounds to 1


class TestRefusedAtCap:
    # An element still iterating when its budget runs out is refused, never
    # returned unconverged: at a = x = 1e5 the series needs thousands of
    # terms against its 400 (its 400-term partial sum gives P = 0.3977,
    # against 0.5004).
    @pytest.mark.parametrize("call", [
        lambda: gammainc_p(1e5, 1e5),
        lambda: gammainc_p(1e5, 1e5, upper=True),
        lambda: gammainc_p_da(1e5, 1e5),
        lambda: gamma_quantile(1e4, 0.5),
    ], ids=["p", "q", "p-da", "quantile"])
    def test_large_shape_raises(self, call):
        with pytest.raises(NumericError, match="failed to converge"):
            call()

    @pytest.mark.parametrize("call", [gammainc_p, gammainc_p_da])
    def test_continued_fraction_live_at_cap_raises(self, monkeypatch, call):
        # one block of 8 steps: (2, 30) converges within it, (50, 52) does not
        monkeypatch.setattr(special, "_ITMAX", 8)
        assert np.isfinite(call(2.0, 30.0, upper=True)).all()
        with pytest.raises(NumericError, match=r"continued fraction failed to converge \(a=50.0, x=52.0, 1 elements\)"):
            call([2.0, 50.0], [30.0, 52.0], upper=True)


class TestNormalQuantile:
    def test_symmetry_and_center(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-6)
        assert normal_quantile(0.25) == pytest.approx(-normal_quantile(0.75), rel=1e-9)

    @given(st.floats(min_value=1e-8, max_value=1.0 - 1e-8))
    def test_roundtrip_through_cdf(self, u):
        z = normal_quantile(u)
        cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        assert cdf == pytest.approx(u, rel=1e-6, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            normal_quantile(0.0)
        with pytest.raises(DomainError):
            normal_quantile(1.0)


class TestGammaQuantile:
    @given(
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=300)
    def test_roundtrip(self, shape, u):
        x, dy_da = gamma_quantile(shape, u)
        assert x > 0.0
        assert gammainc_p(shape, x) == pytest.approx(u, rel=1e-9, abs=1e-11)
        # dP/da carried from the last iterate is dP/da at the quantile
        pdf = np.exp((shape - 1.0) * np.log(x) - x - lgamma(shape))
        assert -dy_da * pdf == pytest.approx(gammainc_p_da(shape, x)[1], rel=1e-12, abs=1e-300)

    @given(
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=200)
    def test_matches_scipy(self, shape, u):
        assert gamma_quantile(shape, u)[0] == pytest.approx(
            float(sps.gammaincinv(shape, u)), rel=1e-9, abs=1e-12
        )

    def test_monotone_in_u(self):
        xs = [gamma_quantile(2.5, u)[0] for u in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(xs, xs[1:]))

    @pytest.mark.parametrize("shape", [0.02, 0.5, 1.0 - 1e-12])
    def test_shape_below_one_refused(self, shape):
        # Dirichlet posteriors 1 + sum omega have no shape below 1
        with pytest.raises(DomainError, match="requires shape >= 1"):
            gamma_quantile(shape, 0.5)
        with pytest.raises(DomainError, match="requires shape >= 1"):
            gamma_quantile([2.0, shape, 1.0], 0.5)

    def test_no_convergence_raises(self, monkeypatch):
        # a CDF stuck at 1 never brackets u, so no element settles in the 200 rounds
        monkeypatch.setattr(special, "gammainc_p", lambda a, x, upper, **kw: 1.0 - 1.0 * upper)
        monkeypatch.setattr(special, "gammainc_p_da", lambda a, x, upper=False, **kw: (1.0 - 1.0 * upper, 0.0 * x))
        with pytest.raises(NumericError, match=r"failed to converge \(shape=2.0, u=0.3, 1 elements\)"):
            gamma_quantile([2.0, 1.0], 0.3)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_quantile(-1.0, 0.5)
        with pytest.raises(DomainError):
            gamma_quantile(1.0, 1.5)


def scipy_quantile(shape, u):
    # from Q above the median, as the library does, so the upper tail keeps
    # its digits (1 - u is exact there)
    return sps.gammainccinv(shape, 1.0 - u) if u > 0.5 else sps.gammaincinv(shape, u)


class TestGammaDrawsTrainingRange:
    # Training shapes are 1 plus one softmax component per covering view, so
    # [1, 9] for up to 8 views (exactly 1 when the component underflows);
    # uniforms lie in [1e-12, 1 - 1e-12].
    @given(
        st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=9.0)),
        st.floats(min_value=1e-12, max_value=1.0 - 1e-12),
    )
    @settings(max_examples=300)
    def test_matches_scipy(self, shape, u):
        y, dy = gamma_quantile(shape, u)
        assert y == pytest.approx(scipy_quantile(shape, u), rel=1e-12, abs=0.0)
        h = 1e-5 * shape
        fd = (scipy_quantile(shape + h, u) - scipy_quantile(shape - h, u)) / (2.0 * h)
        assert dy == pytest.approx(fd, rel=1e-6, abs=0.0)
