"""Special functions on float64 arrays: log-gamma, digamma, trigamma, the
regularized incomplete gamma functions P(a, x) and Q(a, x) = 1 - P(a, x)
with the shape derivative of P, and the Gamma quantile at shapes >= 1.

Every function works elementwise on arrays (scalars become 0-d results),
and each element goes through the same arithmetic whatever else shares the
call.  The incomplete gamma runs its recurrences in blocks, over all live
elements at once: the series (x < a + 1) takes 16 terms per block, as
term_0 * cumprod(x / (a + j)) in one numpy call, and the continued fraction
(x >= a + 1) 8 steps of its three-term recurrence on stacked rows.
One driver, _iterate, runs these blocks and the quantile's Halley rounds
(one round per block).  It checks convergence, and drops converged elements,
once per block, so an element stops at the end of the first block in which
its own test passes: it may take a few more terms than a term-by-term loop
would, never fewer, and which block that is depends on its (a, x) alone.
Sums over a block's terms are taken in a fixed order for the same reason.
An element still iterating at the cap (400 steps, 200 Halley rounds) is a
NumericError naming the solver and that element, never a returned value.

The shape-derivative of P is what makes pathwise (implicit
reparameterization) gradients of Gamma/Dirichlet draws possible: for
y = P^{-1}(a, u) at fixed u,

    dy/da = - (dP/da)(a, y) / pdf(y; a).

dP/da is computed by running the series / continued-fraction recurrences on
(value, derivative) pairs, which is exact to roundoff rather than a finite
difference.  The quantile inverts P by Halley's method, which converges
cubically because the pdf's slope comes free with the pdf (see
gamma_quantile); at a = 1 it is the closed form -log(1 - u).  Its rounds
after the first evaluate (P, dP/da) together; dP/da at the quantile is
carried from the last iterate, so the quantile comes with dy/da and a draw
needs no pass of its own for the derivative.
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


def _prefactor(a: np.ndarray, x: np.ndarray, lgamma_a: np.ndarray) -> np.ndarray:
    """x^a e^{-x} / Gamma(a), given lgamma(a)."""
    return np.exp(-x + a * np.log(x) - lgamma_a)


def _iterate(block, state: np.ndarray, blocks: int, n_out: int, name: str, **inputs) -> np.ndarray:
    """Run block(j, state) -> converged for blocks j < `blocks` on the live
    columns of `state` (one per element, updated in place) until each has
    converged at the end of a block; returns the last n_out rows of the
    final state.  A column live after the last block is a NumericError
    naming `name` and that element's `inputs` (arrays, one entry per column)."""
    out = np.empty((n_out, state.shape[1]))
    live = np.arange(state.shape[1])
    for j in range(blocks):
        if not live.size:
            break
        done = block(j, state)
        if done.any():
            out[:, live[done]] = state[-n_out:, done]
            keep = ~done
            live = live[keep]
            state = state[:, keep]
    if live.size:
        first = ", ".join(f"{k}={v[live[0]]}" for k, v in inputs.items())
        raise NumericError(f"{name} failed to converge ({first}, {live.size} elements)")
    return out


# Series terms per block: term_k = term_0 * prod_{j <= k} x / (a + j), one
# row per term.
_SER_STEPS = 16
_SER_J = np.arange(1.0, _SER_STEPS + 1.0)[:, None]
_SER = "incomplete gamma series"


def _rowsum(t: np.ndarray) -> np.ndarray:
    """Sum over the rows of t (a power of two of them) in halves, an order
    that does not depend on how many columns share the call (numpy's own sum
    over rows does)."""
    while len(t) > 1:
        half = len(t) // 2
        t = t[:half] + t[half:]
    return t[0]


def _ser_block(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The next block of series terms and their denominators a + j; advances
    the state's rows (x, a + j, term, ...) past it."""
    x, ap, term = state[:3]
    den = ap + _SER_J
    r = x / den
    r[0] *= term
    terms = np.cumprod(r, axis=0)
    state[1] = den[-1]
    state[2] = terms[-1]
    return terms, den


def _gser(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Series for P(a, x) / prefactor, convergent for x < a + 1."""

    def block(j, state):  # rows x, a + j, term, total
        state[3] += _rowsum(_ser_block(state)[0])
        return state[2] < state[3] * _EPS

    term = 1.0 / a
    return _iterate(block, np.stack([x, a, term, term]), _ITMAX // _SER_STEPS, 1, _SER, a=a, x=x)[0]


def _gser_da(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, dP/da) / prefactor by the series, with
    d log term_k / da = -1/a - sum_{j <= k} 1 / (a + j)."""

    def block(j, state):  # rows x, a + j, term, d log term / da, total, d total / da
        terms, den = _ser_block(state)
        dlogs = state[3] - np.cumsum(1.0 / den, axis=0)
        state[3] = dlogs[-1]
        state[4] += _rowsum(terms)
        state[5] += _rowsum(terms * dlogs)
        return state[2] < state[4] * _EPS

    term = 1.0 / a
    return _iterate(block, np.stack([x, a, term, -term, term, -term * term]), _ITMAX // _SER_STEPS, 2, _SER, a=a, x=x)


# Continued-fraction steps per block.  Q(a, x) / prefactor is
# 1 / (b_0 + a_1 / (b_1 + a_2 / (b_2 + ...))) with b_n = x + 1 - a + 2n and
# a_n = n (a - n), or r / (b_0 r + a_1 r^2 / (b_1 r + ...)) with every level
# scaled by r = 1 / x.  The convergents A_n / B_n of the scaled fraction
# follow the three-term (Wallis) recurrence A_n = b_n r A_{n-1} + a_n r^2 A_{n-2},
# likewise B_n; they grow by a bounded factor per step for any x, every B_n
# is positive for x >= a + 1, and rescaling by B once per block keeps them
# finite.  The last step changes A / B by D_n / (B_n B_{n-1}) with
# D_n = -a_n r^2 D_{n-1}: carried along, it shows convergence without
# cancellation.
_CF_STEPS = 8
_CF_N = np.arange(1.0, _CF_STEPS + 1.0)[:, None]
_CF = "incomplete gamma continued fraction"


def _cf_terms(j: int, a: np.ndarray, b0r: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, ...]:
    """(n r^2, a_n r^2, b_n r) for the steps of block j, one row per step;
    n r^2 and -r are the shape derivatives of the other two."""
    n = _CF_N + j * _CF_STEPS
    nr2 = n * (r * r)
    return nr2, nr2 * (a - n), b0r + (2.0 * n) * r


def _gcf(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for Q(a, x) / prefactor, for x >= a + 1."""

    def block(j, state):  # rows a, b_0 r, r, D, then (A, B) at steps n - 1 and n
        _, an, bn = _cf_terms(j, *state[:3])
        d, prev, cur = state[3], state[4:6], state[6:]
        for ak, bk in zip(an, bn):
            d = ak * d
            prev, cur = cur, bk * cur + ak * prev
        s = 1.0 / cur[1]
        state[3] = d * (s * s)
        state[4:6] = prev * s
        state[6:] = cur * s
        return np.abs(state[3] / state[5]) < _EPS * state[6]  # B_n = 1 now

    r = 1.0 / x
    b0r = (x + 1.0 - a) * r
    d = 1.0 / b0r
    # (A, B) at steps 0 and 1 are (0, 1) and (1, b_0 r), and D_1 = 1; over b_0 r
    state = np.stack([a, b0r, r, d * d, np.zeros_like(d), d, d, np.ones_like(d)])
    return _iterate(block, state, _ITMAX // _CF_STEPS, 2, _CF, a=a, x=x)[0] * r  # A, with B = 1


def _gcf_da(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, dQ/da) / prefactor by the continued fraction, carrying the shape
    derivatives of A, B and D through the recurrence.  At integer a the term
    a_n vanishes at n = a, after which the value is exact while its
    derivative still changes, so both must settle."""

    def block(j, state):  # rows a, b_0 r, r, D, dD, then (A, B, dA, dB) at steps n - 1 and n
        dan, an, bn = _cf_terms(j, *state[:3])
        r, d, dd, prev, cur = state[2], state[3], state[4], state[5:9], state[9:]
        for dak, ak, bk in zip(dan, an, bn):
            d, dd = ak * d, dak * d + ak * dd
            new = bk * cur + ak * prev
            new[2:] += dak * prev[:2] - r * cur[:2]
            prev, cur = cur, new
        s = 1.0 / cur[1]
        state[3] = d * (s * s)
        state[4] = dd * (s * s)
        state[5:9] = prev * s
        state[9:] = cur * s
        # B_n = 1 now: h = A, dh = dA - A dB, and the last step's changes
        (d, dd), (_, bp, _, dbp), (av, _, dav, dbv) = state[3:5], state[5:9], state[9:]
        step = d / bp
        dstep = dd / bp - step * (dbv + dbp / bp)
        return (np.abs(step) < _EPS * av) & (np.abs(dstep) <= _EPS * np.abs(dav - av * dbv))

    r = 1.0 / x
    b0r = (x + 1.0 - a) * r
    d = 1.0 / b0r
    zero = np.zeros_like(d)
    # steps 0 and 1 as in _gcf, with dB_1 = d(b_0 r)/da = -r; over b_0 r
    state = np.stack([a, b0r, r, d * d, zero, zero, d, zero, zero, d, np.ones_like(d), zero, -r * d])
    av, dav, dbv = _iterate(block, state, _ITMAX // _CF_STEPS, 4, _CF, a=a, x=x)[[0, 2, 3]]
    return av * r, (dav - av * dbv) * r


def _shape_and_x(name: str, a, x) -> tuple[np.ndarray, np.ndarray]:
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    _check(name, "a > 0", a, a > 0.0)
    _check(name, "x >= 0", x, x >= 0.0)
    return a, x


def gammainc_p(a, x, upper=False, *, lgamma_a=None):
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0; where
    `upper` is true, the upper one Q(a, x) = 1 - P(a, x) instead.

    The series gives P and the continued fraction gives Q; each is only
    subtracted from 1 where the other is asked for, so Q keeps its relative
    accuracy in the upper tail, where P rounds to 1.  A caller that already
    holds lgamma(a) passes it as lgamma_a, and the prefactor reuses it.
    """
    a, x = _shape_and_x("gammainc_p", a, x)
    upper = np.broadcast_to(upper, a.shape)
    lower = np.zeros(a.shape)
    tail = np.ones(a.shape)
    pos = x > 0.0
    ser = pos & (x < a + 1.0)
    cf = pos & ~ser
    lgamma_a = lgamma(a) if lgamma_a is None else np.broadcast_to(lgamma_a, a.shape)
    f = _prefactor(a[pos], x[pos], lgamma_a[pos])
    lower[ser] = _gser(a[ser], x[ser]) * f[ser[pos]]
    tail[cf] = _gcf(a[cf], x[cf]) * f[cf[pos]]
    lower[cf] = 1.0 - tail[cf]
    tail[ser] = 1.0 - lower[ser]
    return np.where(upper, tail, lower)


def gammainc_p_da(a, x, upper=False, *, lgamma_a=None, digamma_a=None) -> tuple[np.ndarray, np.ndarray]:
    """(P(a, x), dP/da) for a > 0, x >= 0; where `upper` is true, Q(a, x) in
    place of P(a, x), with the same dP/da = -dQ/da.  P and Q keep their
    relative accuracy as in gammainc_p.  A caller that already holds lgamma(a)
    or digamma(a) passes it, and the prefactor and its shape derivative reuse
    it."""
    a, x = _shape_and_x("gammainc_p_da", a, x)
    upper = np.broadcast_to(upper, a.shape)
    lower = np.zeros(a.shape)
    tail = np.ones(a.shape)
    dp = np.zeros(a.shape)
    pos = x > 0.0
    ser = pos & (x < a + 1.0)
    cf = pos & ~ser
    ap, xp = a[pos], x[pos]
    f = _prefactor(ap, xp, lgamma(ap) if lgamma_a is None else np.broadcast_to(lgamma_a, a.shape)[pos])
    df = f * (np.log(xp) - (digamma(ap) if digamma_a is None else np.broadcast_to(digamma_a, a.shape)[pos]))
    fs, dfs, (s, ds) = f[ser[pos]], df[ser[pos]], _gser_da(a[ser], x[ser])
    lower[ser], dp[ser] = fs * s, dfs * s + fs * ds
    fc, dfc, (q, dq) = f[cf[pos]], df[cf[pos]], _gcf_da(a[cf], x[cf])
    tail[cf], dp[cf] = fc * q, -(dfc * q + fc * dq)
    lower[cf] = 1.0 - tail[cf]
    tail[ser] = 1.0 - lower[ser]
    return np.where(upper, tail, lower), dp


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


def gamma_quantile(shape, u) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of P(shape, .) at u and its implicit derivative in the shape,
    elementwise: the y with P(shape, y) = u, and dy/da = -(dP/da) / pdf(y),
    with dP/da taken at (shape, y) and pdf(y) from the lgamma(shape) the
    iteration already holds.

    At shape 1 the quantile is -log(1 - u) in closed form, and dP/da comes
    from one gammainc_p_da call on those elements.  Elsewhere it is the
    bracketed Halley iteration x <- x - r / (1 - r ((a - 1) / x - 1) / 2),
    r = (P(a, x) - u) / pdf(x), whose curvature term is free because
    d pdf / dx = pdf ((a - 1) / x - 1).  It starts from Wilson-Hilferty,
    corrected in both tails by two fixed-point steps on the leading term of
    P or Q.  Above the median the residual is taken on Q, so that upper-tail
    quantiles are as accurate as lower-tail ones.  A step that leaves the
    bracket becomes a geometric one.  Each round is one _iterate block and
    evaluates the incomplete gamma once, on the elements still iterating:
    round 1 gammainc_p, later rounds gammainc_p_da, so no element stops in
    round 1.  An element stops
    after an applied relative step of at most 1e-6, after which the
    residual is cubically smaller (about 1e-18), or once its bracket is
    narrower than 1e-12 relative.  dP/da at the last iterate x is carried to
    the result y = x + s by its Taylor terms in x to second order,

        d/dx (dP/da) = pdf(x) (ln x - psi(a)),
        d2/dx2 (dP/da) = pdf(x) [((a - 1) / x - 1)(ln x - psi(a)) + 1 / x],

    whose remainder is third order in s.  Over the training range (shape in
    [1, 9], u in [1e-12, 1 - 1e-12]) nearly every element stops after round
    2, and a few after round 3.  Training draws at the Dirichlet shapes
    1 + sum omega, so a shape below 1 is a DomainError, and an element that
    has not stopped after 200 rounds is a NumericError.  Once every element
    has stopped, the density at y is evaluated once, for all elements.
    """
    shape, u = np.broadcast_arrays(np.asarray(shape, dtype=float), _unit_open("gamma_quantile", u))
    _check("gamma_quantile", "shape >= 1", shape, shape >= 1.0)
    a = shape.ravel()
    u = u.ravel()
    out = -np.log1p(-u)  # P(1, x) = 1 - e^(-x)
    dp_da = np.zeros_like(out)
    log_gamma = lgamma(a)  # the pdf is x^(a-1) e^(-x) / Gamma(a)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = normal_quantile(u)
        t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * np.sqrt(a))
        x = np.where(t > 0.0, a * t * t * t, a * np.exp(z / np.sqrt(a)))  # Wilson-Hilferty
        # In the tails Wilson-Hilferty can be off by more than the quantile
        # itself; there two fixed-point steps invert the leading behaviour
        #   P(a, x) = x^a e^(-x) S(x) / Gamma(a + 1),  S(x) = 1 + x / (a + 1) + ...
        #   Q(a, x) = x^(a-1) e^(-x) T(x) / Gamma(a),  T(x) = 1 + (a - 1) / x + ...
        lead = np.exp((np.log(u) + log_gamma + np.log(a)) / a)
        low, high = lead, x
        for _ in range(2):
            low = lead * np.exp((low - np.log1p(low / (a + 1.0) * (1.0 + low / (a + 2.0)))) / a)
            high = (a - 1.0) * np.log(high) - np.log1p(-u) - log_gamma + np.log1p(
                (a - 1.0) / high * (1.0 + (a - 2.0) / high))
        x = np.where(lead < 0.2 * (a + 1.0), low, np.where(x > 2.0 * a, high, x))
    x = np.where((x > 0.0) & np.isfinite(x), x, a * u)

    ones = a == 1.0
    if ones.any():
        dp_da[ones] = gammainc_p_da(a[ones], out[ones])[1]

    def halley(k, state):  # round k + 1; rows a, u, upper, lo, hi, lgamma(a), psi(a), x, dP/da
        a, u, upper, lo, hi, log_norm, psi, x = state[:8]
        upper = upper > 0.0
        if k == 0:
            f, dp = gammainc_p(a, x, upper, lgamma_a=log_norm), 0.0
        else:
            f, dp = gammainc_p_da(a, x, upper, lgamma_a=log_norm, digamma_a=psi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            err = np.where(upper, 1.0 - u - f, f - u)  # P(x) - u either way
            above = err > 0.0
            hi = np.where(above, x, hi)
            lo = np.where(above, lo, x)
            pdf = np.exp((a - 1.0) * np.log(x) - x - log_norm)
            newton = err / pdf
            # Halley: d pdf / dx = pdf ((a - 1) / x - 1)
            x_new = x - newton / (1.0 - 0.5 * newton * ((a - 1.0) / x - 1.0))
            # A step out of the bracket (or a non-finite one) becomes a
            # geometric step, so brackets spanning many orders of magnitude
            # still close quickly.  A step below 1e-12 relative is kept even
            # where rounding puts it on the bracket's edge.
            tiny = np.abs(x_new - x) <= 1e-12 * x
            left = ~((lo < x_new) & (x_new < hi) | tiny) | ~np.isfinite(x_new)
            geometric = np.where(
                ~np.isfinite(hi), np.maximum(2.0 * x, 1.0), np.where(lo == 0.0, 0.5 * hi, np.sqrt(lo * hi))
            )
            x_new = np.where(err == 0.0, x, np.where(left, geometric, x_new))
            step = x_new - x
            # the step is applied before stopping, so the residual after a
            # relative step of 1e-6 is cubically smaller; round 1 gives no
            # dP/da, so nothing stops there
            done = (k > 0) & ((np.abs(step) <= 1e-6 * x) | (np.isfinite(hi) & (hi - lo <= 1e-12 * hi)))
            lx = np.log(x) - psi
            bend = pdf * (((a - 1.0) / x - 1.0) * lx + 1.0 / x)
            state[8] = dp + step * (pdf * lx + 0.5 * step * bend)
        state[3], state[4], state[7] = lo, hi, x_new
        return done

    a, u, x, log_norm = a[~ones], u[~ones], x[~ones], log_gamma[~ones]
    zero = np.zeros_like(x)
    state = np.stack([a, u, u > 0.5, zero, np.full_like(x, np.inf), log_norm, digamma(a), x, zero])
    out[~ones], dp_da[~ones] = _iterate(halley, state, 200, 2, "gamma_quantile", shape=a, u=u)
    y = out.reshape(shape.shape)
    log_pdf = (shape - 1.0) * np.log(y) - y - log_gamma.reshape(shape.shape)
    return y, -dp_da.reshape(shape.shape) / np.exp(log_pdf)
