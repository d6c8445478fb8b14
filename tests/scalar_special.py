"""The scalar special functions the library used before it vectorized them,
kept as the tests' oracle: log-gamma, digamma, trigamma, the regularized
incomplete gamma P(a, x) (and Q = 1 - P) with its derivative in the shape,
and its inverse in x, one float at a time.

The quantile differs from the old library version in two places, both of
which the vectorized library shares: above the median its Newton residual
is taken on Q, because P = 1 - Q rounds to 1 in the upper tail (at
u = 1 - 1e-12 the old answer sat 2e-7 to 2e-6 off the true quantile); and
a Newton step below 1e-12 relative is taken even when rounding puts it on
the edge of the bracket, where the old loop fell back to bisection and
stopped up to 1e-12 short.
"""

from __future__ import annotations

import math

from lexifuse.errors import DomainError, NumericError

# Lanczos approximation, g = 7, 9 coefficients (double precision).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_EULER_GAMMA = 0.5772156649015328606

_EPS = 1e-15
_ITMAX = 400
_FPMIN = 1e-300


def lgamma(x: float) -> float:
    """log Gamma(x) for x > 0, accurate to well beyond 10 significant digits."""
    if not x > 0.0:
        raise DomainError(f"lgamma requires x > 0, got {x!r}")
    if x < 0.5:
        # Recurrence Gamma(x) = Gamma(x + 1) / x keeps the Lanczos core away
        # from its least accurate region.
        return lgamma(x + 1.0) - math.log(x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t + math.log(acc)


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    val = 0.0
    while x < 10.0:
        val -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # Asymptotic series: ln x - 1/(2x) - sum B_{2n} / (2n x^{2n}).
    val += (
        math.log(x)
        - 0.5 * inv
        - inv2
        * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0)))))
    )
    return val


def trigamma(x: float) -> float:
    """psi'(x) for x > 0 (needed as the local derivative of digamma)."""
    if not x > 0.0:
        raise DomainError(f"trigamma requires x > 0, got {x!r}")
    val = 0.0
    while x < 10.0:
        val += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    val += inv * (1.0 + 0.5 * inv + inv2 * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0))))
    return val


def _gser(a: float, x: float) -> float:
    """Series for P(a, x), convergent for x < a + 1."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - lgamma(a))


def _gcf(a: float, x: float) -> float:
    """Modified Lentz continued fraction for Q(a, x), for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - lgamma(a)) * h


def gammainc_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    if not a > 0.0:
        raise DomainError(f"gammainc_p requires a > 0, got {a!r}")
    if x < 0.0:
        raise DomainError(f"gammainc_p requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gser(a, x)
    return 1.0 - _gcf(a, x)


def gammainc_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if x < a + 1.0:
        return 1.0 - gammainc_p(a, x)
    return _gcf(a, x)


def _gser_da(a: float, x: float) -> tuple[float, float]:
    """(P, dP/da) via the series recurrence on value/derivative pairs."""
    term = 1.0 / a
    dterm = -1.0 / (a * a)
    total = term
    dtotal = dterm
    ap = a
    for _ in range(_ITMAX):
        ap += 1.0
        r = x / ap
        dterm = dterm * r - term * r / ap
        term *= r
        total += term
        dtotal += dterm
        if abs(term) < abs(total) * _EPS:
            break
    f = math.exp(-x + a * math.log(x) - lgamma(a))
    df = f * (math.log(x) - digamma(a))
    return total * f, dtotal * f + total * df


def _gcf_da(a: float, x: float) -> tuple[float, float]:
    """(Q, dQ/da) via the Lentz recurrence on value/derivative pairs."""
    b = x + 1.0 - a
    db = -1.0
    c = 1.0 / _FPMIN
    dc = 0.0
    d = 1.0 / b
    dd = -db * d * d
    h = d
    dh = dd
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        dan = float(i)
        b += 2.0
        # d <- 1 / (an * d + b)
        t = an * d + b
        dt = dan * d + an * dd + db
        if abs(t) < _FPMIN:
            t, dt = _FPMIN, 0.0
        d = 1.0 / t
        dd = -dt * d * d
        # c <- b + an / c
        if abs(c) < _FPMIN:
            c, dc = _FPMIN, 0.0
        t = b + an / c
        dt = db + (dan * c - an * dc) / (c * c)
        c, dc = t, dt
        delta = d * c
        ddelta = dd * c + d * dc
        dh = dh * delta + h * ddelta
        h *= delta
        # At integer a the term an vanishes at i = a, which makes delta exactly
        # 1 from then on while dQ/da still changes, so both must settle.
        if abs(delta - 1.0) < _EPS and abs(h * ddelta) <= _EPS * abs(dh):
            break
    f = math.exp(-x + a * math.log(x) - lgamma(a))
    df = f * (math.log(x) - digamma(a))
    return f * h, df * h + f * dh


def gammainc_p_da(a: float, x: float) -> tuple[float, float]:
    """(P(a, x), dP/da) for a > 0, x >= 0."""
    if not a > 0.0:
        raise DomainError(f"gammainc_p_da requires a > 0, got {a!r}")
    if x < 0.0:
        raise DomainError(f"gammainc_p_da requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0, 0.0
    if x < a + 1.0:
        return _gser_da(a, x)
    q, dq = _gcf_da(a, x)
    return 1.0 - q, -dq


# Acklam's rational approximation to the standard normal quantile; used only
# as a Newton starting point, so its ~1e-9 relative error is irrelevant.
_NQ_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_NQ_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
_NQ_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_NQ_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)


def normal_quantile(u: float) -> float:
    """Inverse standard normal CDF for u in (0, 1)."""
    if not 0.0 < u < 1.0:
        raise DomainError(f"normal_quantile requires u in (0, 1), got {u!r}")
    p_low = 0.02425
    if u < p_low:
        q = math.sqrt(-2.0 * math.log(u))
        return (((((_NQ_C[0] * q + _NQ_C[1]) * q + _NQ_C[2]) * q + _NQ_C[3]) * q + _NQ_C[4]) * q + _NQ_C[5]) / \
            ((((_NQ_D[0] * q + _NQ_D[1]) * q + _NQ_D[2]) * q + _NQ_D[3]) * q + 1.0)
    if u > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - u))
        return -(((((_NQ_C[0] * q + _NQ_C[1]) * q + _NQ_C[2]) * q + _NQ_C[3]) * q + _NQ_C[4]) * q + _NQ_C[5]) / \
            ((((_NQ_D[0] * q + _NQ_D[1]) * q + _NQ_D[2]) * q + _NQ_D[3]) * q + 1.0)
    q = u - 0.5
    r = q * q
    return (((((_NQ_A[0] * r + _NQ_A[1]) * r + _NQ_A[2]) * r + _NQ_A[3]) * r + _NQ_A[4]) * r + _NQ_A[5]) * q / \
        (((((_NQ_B[0] * r + _NQ_B[1]) * r + _NQ_B[2]) * r + _NQ_B[3]) * r + _NQ_B[4]) * r + 1.0)


def gamma_log_pdf(x: float, shape: float) -> float:
    """log density of Gamma(shape, rate=1) at x > 0."""
    return (shape - 1.0) * math.log(x) - x - lgamma(shape)


def gamma_quantile(shape: float, u: float) -> float:
    """Inverse of P(shape, .) at u: the x with P(shape, x) = u.

    Bracketed Newton iteration; the Wilson-Hilferty transform provides the
    starting point.  Converges to ~1e-13 in P for the shapes this package
    uses (anything in (0, 1e4)).
    """
    if not shape > 0.0:
        raise DomainError(f"gamma_quantile requires shape > 0, got {shape!r}")
    if not 0.0 < u < 1.0:
        raise DomainError(f"gamma_quantile requires u in (0, 1), got {u!r}")

    if shape > 1.0:
        z = normal_quantile(u)
        t = 1.0 - 1.0 / (9.0 * shape) + z / (3.0 * math.sqrt(shape))
        x = shape * t * t * t if t > 0.0 else shape * math.exp(z / math.sqrt(shape))
    else:
        # Small-shape inversion of the leading series term, P(a, x) ~ (x^a / Gamma(a+1));
        # without this the quantile can sit hundreds of orders of magnitude below
        # any Wilson-Hilferty start.
        t = 1.0 - shape * (0.253 + shape * 0.12)
        if u < t:
            x = math.exp(math.log(u / t) / shape)
        else:
            x = 1.0 - math.log(1.0 - (u - t) / (1.0 - t))
    if x <= 0.0 or not math.isfinite(x):
        x = shape * u  # crude but positive

    lo, hi = 0.0, math.inf
    for _ in range(200):
        # P(x) - u, from Q above the median
        err = (1.0 - u) - gammainc_q(shape, x) if u > 0.5 else gammainc_p(shape, x) - u
        if err > 0.0:
            hi = x
        else:
            lo = x
        pdf = math.exp(gamma_log_pdf(x, shape))
        if err == 0.0:
            break
        if pdf > 0.0 and math.isfinite(pdf):
            x_new = x - err / pdf
        else:
            x_new = math.nan
        tiny = abs(x_new - x) <= 1e-12 * x
        if not (lo < x_new < hi or tiny) or not math.isfinite(x_new):
            # Newton left the bracket; take a geometric step so brackets
            # spanning many orders of magnitude still close quickly.
            if not math.isfinite(hi):
                x_new = max(2.0 * x, 1.0)
            elif lo == 0.0:
                x_new = 0.5 * hi
            else:
                x_new = math.sqrt(lo * hi)
        # The step is applied before breaking, so the residual after a
        # relative step of 1e-12 is quadratically smaller (below roundoff).
        if abs(x_new - x) <= 1e-12 * x:
            x = x_new
            break
        if math.isfinite(hi) and hi - lo <= 1e-12 * hi:
            x = x_new
            break
        x = x_new
    else:
        raise NumericError(f"gamma_quantile failed to converge (shape={shape}, u={u})")
    return x
