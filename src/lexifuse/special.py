"""Special functions on float64 arrays: log-gamma, digamma, trigamma, the
regularized incomplete gamma functions P(a, x) and Q(a, x) = 1 - P(a, x)
with the shape derivative of P, and the Gamma quantile.

Every function works elementwise on arrays (scalars become 0-d results).
Iterative ones keep only the elements still converging: each element
follows the same recurrence, and stops at the same step, as it would alone.
The shape-derivative of P is what makes pathwise (implicit
reparameterization) gradients of Gamma/Dirichlet draws possible: for
y = P^{-1}(a, u) at fixed u,

    dy/da = - (dP/da)(a, y) / pdf(y; a).

dP/da is computed by running the series / continued-fraction recurrences on
(value, derivative) pairs, which is exact to roundoff rather than a finite
difference.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError

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
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

_EPS = 1e-15
_ITMAX = 400
_FPMIN = 1e-300


def _check(name: str, what: str, x: np.ndarray, ok: np.ndarray) -> None:
    if not np.all(ok):
        raise DomainError(f"{name} requires {what}, got {x[~ok].ravel()[:3].tolist()}")


def _positive(name: str, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    _check(name, "x > 0", x, x > 0.0)
    return x


def lgamma(x):
    """log Gamma(x) for x > 0, accurate to well beyond 10 significant digits."""
    x = _positive("lgamma", x)
    # Below 0.5, Gamma(x) = Gamma(x + 1) / x keeps the Lanczos core away from
    # its least accurate region.
    small = x < 0.5
    z = np.where(small, x + 1.0, x) - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc = acc + _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    out = _HALF_LOG_2PI + (z + 0.5) * np.log(t) - t + np.log(acc)
    return np.where(small, out - np.log(x), out)


def _shift_to_ten(x: np.ndarray, step) -> tuple[np.ndarray, np.ndarray]:
    """(x shifted up by whole steps until >= 10, sum of step(x) over the shifts)."""
    x = x.copy()
    acc = np.zeros_like(x)
    low = x < 10.0
    while low.any():
        acc[low] += step(x[low])
        x[low] += 1.0
        low = x < 10.0
    return x, acc


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    x, acc = _shift_to_ten(_positive("digamma", x), lambda v: -1.0 / v)
    inv = 1.0 / x
    inv2 = inv * inv
    # Asymptotic series: ln x - 1/(2x) - sum B_{2n} / (2n x^{2n}).
    return acc + (
        np.log(x)
        - 0.5 * inv
        - inv2
        * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0)))))
    )


def trigamma(x):
    """psi'(x) for x > 0 (the derivative of digamma)."""
    x, acc = _shift_to_ten(_positive("trigamma", x), lambda v: 1.0 / (v * v))
    inv = 1.0 / x
    inv2 = inv * inv
    return acc + inv * (1.0 + 0.5 * inv + inv2 * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0))))


def _prefactor(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x^a e^{-x} / Gamma(a)."""
    return np.exp(-x + a * np.log(x) - lgamma(a))


def _iterate(step, state: list[np.ndarray]) -> list[np.ndarray]:
    """Run step(*state) -> (state, converged) on the live elements until each
    has converged (or _ITMAX rounds pass); returns the final state."""
    out = [s.copy() for s in state]
    live = np.arange(state[0].size)
    for _ in range(_ITMAX):
        if not live.size:
            return out
        state, done = step(*state)
        if done.any():
            for o, s in zip(out, state):
                o[live[done]] = s[done]
            keep = ~done
            live = live[keep]
            state = [s[keep] for s in state]
    for o, s in zip(out, state):
        o[live] = s
    return out


def _gser(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Series for P(a, x), convergent for x < a + 1."""

    def step(a, x, ap, term, total):
        ap = ap + 1.0
        term = term * (x / ap)
        total = total + term
        return (a, x, ap, term, total), np.abs(term) < np.abs(total) * _EPS

    term = 1.0 / a
    total = _iterate(step, [a, x, a, term, term])[4]
    return total * _prefactor(a, x)


def _gcf(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Modified Lentz continued fraction for Q(a, x), for x >= a + 1."""

    def step(a, i, b, c, d, h):
        i = i + 1.0
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < _FPMIN, _FPMIN, d)
        c = b + an / c
        c = np.where(np.abs(c) < _FPMIN, _FPMIN, c)
        d = 1.0 / d
        delta = d * c
        return (a, i, b, c, d, h * delta), np.abs(delta - 1.0) < _EPS

    b = x + 1.0 - a
    d = 1.0 / b
    h = _iterate(step, [a, np.zeros_like(a), b, np.full_like(a, 1.0 / _FPMIN), d, d])[5]
    return _prefactor(a, x) * h


def _shape_and_x(name: str, a, x) -> tuple[np.ndarray, np.ndarray]:
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    _check(name, "a > 0", a, a > 0.0)
    _check(name, "x >= 0", x, x >= 0.0)
    return a, x


def gammainc_p(a, x, upper=False):
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0; where
    `upper` is true, the upper one Q(a, x) = 1 - P(a, x) instead.

    The series gives P and the continued fraction gives Q; each is only
    subtracted from 1 where the other is asked for, so Q keeps its relative
    accuracy in the upper tail, where P rounds to 1.
    """
    a, x = _shape_and_x("gammainc_p", a, x)
    upper = np.broadcast_to(upper, a.shape)
    lower = np.zeros(a.shape)
    pos = x > 0.0
    ser = pos & (x < a + 1.0)
    cf = pos & ~ser
    lower[ser] = _gser(a[ser], x[ser])
    tail = np.ones(a.shape)
    tail[cf] = _gcf(a[cf], x[cf])
    lower[cf] = 1.0 - tail[cf]
    tail[ser] = 1.0 - lower[ser]
    return np.where(upper, tail, lower)


def _gser_da(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, dP/da) via the series recurrence on value/derivative pairs."""

    def step(a, x, ap, term, dterm, total, dtotal):
        ap = ap + 1.0
        r = x / ap
        dterm = dterm * r - term * r / ap
        term = term * r
        total = total + term
        dtotal = dtotal + dterm
        return (a, x, ap, term, dterm, total, dtotal), np.abs(term) < np.abs(total) * _EPS

    term = 1.0 / a
    dterm = -1.0 / (a * a)
    *_, total, dtotal = _iterate(step, [a, x, a, term, dterm, term, dterm])
    f = _prefactor(a, x)
    df = f * (np.log(x) - digamma(a))
    return total * f, dtotal * f + total * df


def _gcf_da(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, dQ/da) via the Lentz recurrence on value/derivative pairs."""

    def step(a, i, b, c, dc, d, dd, h, dh):
        i = i + 1.0
        an = -i * (i - a)
        dan = i
        b = b + 2.0
        # d <- 1 / (an * d + b); db = -1 throughout
        t = an * d + b
        dt = dan * d + an * dd - 1.0
        tiny = np.abs(t) < _FPMIN
        t = np.where(tiny, _FPMIN, t)
        dt = np.where(tiny, 0.0, dt)
        d = 1.0 / t
        dd = -dt * d * d
        # c <- b + an / c
        tiny = np.abs(c) < _FPMIN
        c = np.where(tiny, _FPMIN, c)
        dc = np.where(tiny, 0.0, dc)
        t = b + an / c
        with np.errstate(over="ignore"):  # c starts at 1 / _FPMIN; c * c is then inf
            dt = -1.0 + (dan * c - an * dc) / (c * c)
        c, dc = t, dt
        delta = d * c
        ddelta = dd * c + d * dc
        dh = dh * delta + h * ddelta
        h = h * delta
        # At integer a the term an vanishes at i = a, which makes delta exactly
        # 1 from then on while dQ/da still changes, so both must settle.
        done = (np.abs(delta - 1.0) < _EPS) & (np.abs(h * ddelta) <= _EPS * np.abs(dh))
        return (a, i, b, c, dc, d, dd, h, dh), done

    b = x + 1.0 - a
    d = 1.0 / b
    dd = d * d  # -db * d * d with db = -1
    zero = np.zeros_like(a)
    *_, h, dh = _iterate(step, [a, zero, b, np.full_like(a, 1.0 / _FPMIN), zero, d, dd, d, dd])
    f = _prefactor(a, x)
    df = f * (np.log(x) - digamma(a))
    return f * h, df * h + f * dh


def gammainc_p_da(a, x) -> tuple[np.ndarray, np.ndarray]:
    """(P(a, x), dP/da) for a > 0, x >= 0."""
    a, x = _shape_and_x("gammainc_p_da", a, x)
    p = np.zeros(a.shape)
    dp = np.zeros(a.shape)
    pos = x > 0.0
    ser = pos & (x < a + 1.0)
    cf = pos & ~ser
    p[ser], dp[ser] = _gser_da(a[ser], x[ser])
    q, dq = _gcf_da(a[cf], x[cf])
    p[cf], dp[cf] = 1.0 - q, -dq
    return p, dp


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


def _unit_open(name: str, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    _check(name, "u in (0, 1)", u, (u > 0.0) & (u < 1.0))
    return u


def normal_quantile(u):
    """Inverse standard normal CDF for u in (0, 1)."""
    u = _unit_open("normal_quantile", u)
    p_low = 0.02425

    def tail(q):
        return (((((_NQ_C[0] * q + _NQ_C[1]) * q + _NQ_C[2]) * q + _NQ_C[3]) * q + _NQ_C[4]) * q + _NQ_C[5]) / \
            ((((_NQ_D[0] * q + _NQ_D[1]) * q + _NQ_D[2]) * q + _NQ_D[3]) * q + 1.0)

    q = u - 0.5
    r = q * q
    out = (((((_NQ_A[0] * r + _NQ_A[1]) * r + _NQ_A[2]) * r + _NQ_A[3]) * r + _NQ_A[4]) * r + _NQ_A[5]) * q / \
        (((((_NQ_B[0] * r + _NQ_B[1]) * r + _NQ_B[2]) * r + _NQ_B[3]) * r + _NQ_B[4]) * r + 1.0)
    low = u < p_low
    high = u > 1.0 - p_low
    out = np.where(low, tail(np.sqrt(-2.0 * np.log(np.where(low, u, 0.5)))), out)
    return np.where(high, -tail(np.sqrt(-2.0 * np.log(1.0 - np.where(high, u, 0.5)))), out)


def gamma_log_pdf(x, shape):
    """log density of Gamma(shape, rate=1) at x > 0."""
    return (shape - 1.0) * np.log(x) - x - lgamma(shape)


def gamma_quantile(shape, u):
    """Inverse of P(shape, .) at u: the x with P(shape, x) = u, elementwise.

    Bracketed Newton iteration from a Wilson-Hilferty start (a series start
    for shapes up to 1).  Above the median the residual is taken on Q, so
    that upper-tail quantiles are as accurate as lower-tail ones.  Each
    round evaluates gammainc_p once, on the elements still iterating; an
    element stops after a relative step of 1e-12, which is applied (the
    residual is then quadratically smaller, below roundoff).  Converges for
    the shapes this package uses (anything in (0, 1e4)).
    """
    shape, u = np.broadcast_arrays(np.asarray(shape, dtype=float), _unit_open("gamma_quantile", u))
    _check("gamma_quantile", "shape > 0", shape, shape > 0.0)
    a = shape.ravel()
    u = u.ravel()

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = normal_quantile(u)
        t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * np.sqrt(a))
        wilson = np.where(t > 0.0, a * t * t * t, a * np.exp(z / np.sqrt(a)))
        # Small-shape inversion of the leading series term, P(a, x) ~ (x^a / Gamma(a+1));
        # without this the quantile can sit hundreds of orders of magnitude below
        # any Wilson-Hilferty start.
        t = 1.0 - a * (0.253 + a * 0.12)
        series = np.where(u < t, np.exp(np.log(u / t) / a), 1.0 - np.log(1.0 - (u - t) / (1.0 - t)))
    x = np.where(a > 1.0, wilson, series)
    x = np.where((x > 0.0) & np.isfinite(x), x, a * u)

    upper = u > 0.5
    target = np.where(upper, 1.0 - u, u)
    out = np.empty_like(x)
    live = np.arange(a.size)
    lo = np.zeros_like(x)
    hi = np.full_like(x, np.inf)
    for _ in range(200):
        if not live.size:
            return out.reshape(shape.shape)
        f = gammainc_p(a, x, upper)
        err = np.where(upper, target - f, f - target)  # P(x) - u either way
        above = err > 0.0
        hi = np.where(above, x, hi)
        lo = np.where(above, lo, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            pdf = np.exp(gamma_log_pdf(x, a))
            newton = x - err / pdf
        x_new = np.where((pdf > 0.0) & np.isfinite(pdf), newton, np.nan)
        # Newton left the bracket: a geometric step, so brackets spanning
        # many orders of magnitude still close quickly.  A step below 1e-12
        # relative is kept even where rounding puts it on the bracket's edge.
        tiny = np.abs(x_new - x) <= 1e-12 * x
        left = ~((lo < x_new) & (x_new < hi) | tiny) | ~np.isfinite(x_new)
        with np.errstate(invalid="ignore"):
            geometric = np.where(
                ~np.isfinite(hi), np.maximum(2.0 * x, 1.0), np.where(lo == 0.0, 0.5 * hi, np.sqrt(lo * hi))
            )
        x_new = np.where(left, geometric, x_new)
        exact = err == 0.0
        with np.errstate(invalid="ignore"):
            # the step is applied before stopping, so the residual after a
            # relative step of 1e-12 is quadratically smaller (below roundoff)
            settled = (np.abs(x_new - x) <= 1e-12 * x) | (np.isfinite(hi) & (hi - lo <= 1e-12 * hi))
        x = np.where(exact, x, x_new)
        done = exact | settled
        if done.any():
            out[live[done]] = x[done]
            keep = ~done
            live = live[keep]
            a, u, x, upper, target, lo, hi = (v[keep] for v in (a, u, x, upper, target, lo, hi))
    raise NumericError(
        f"gamma_quantile failed to converge (shape={a[0]}, u={u[0]}, {live.size} elements)"
    )
