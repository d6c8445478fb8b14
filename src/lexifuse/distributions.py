"""Dirichlet primitives of the training objective: the closed-form KL and
draws that are differentiable in the concentration.

A draw inverts the Gamma CDF at a fixed uniform, because the derivative of
that inverse w.r.t. the shape is exactly the implicit-reparameterization
partial

    dy/d(shape) = - (dP/d shape)(shape, y) / pdf(y; shape),

so holding the uniforms fixed makes the ELBO a deterministic, differentiable
function of the variational parameters.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ConfigError, DomainError
from .special import (
    digamma,
    gamma_log_pdf,
    gamma_quantile,
    gammainc_p_da,
    lgamma,
    trigamma,
)
from .tape import Var, clamp, vsum

# Simplex draws are nudged off the boundary before use; at these magnitudes
# renormalization changes nothing detectable at float64 scale.
_SIMPLEX_EPS = 1e-8


def dirichlet_kl(beta: Sequence[float], alpha: Sequence[float]) -> float:
    """KL(Dir(beta) || Dir(alpha)) in closed form."""
    if len(beta) != len(alpha):
        raise DomainError("dirichlet_kl: dimension mismatch")
    for v in (*beta, *alpha):
        if not v > 0.0:
            raise DomainError("dirichlet_kl requires positive parameters")
    bsum = sum(beta)
    asum = sum(alpha)
    dg_bsum = digamma(bsum)
    acc = lgamma(bsum) - lgamma(asum)
    for b, a in zip(beta, alpha):
        acc += lgamma(a) - lgamma(b) + (b - a) * (digamma(b) - dg_bsum)
    return acc


def dirichlet_kl_var(betas: Sequence[Var], alpha: Sequence[float]) -> Var:
    """KL(Dir(beta) || Dir(alpha)) as one fused tape node over the betas.

    d KL / d beta_k = (beta_k - alpha_k) psi'(beta_k)
                      - psi'(sum beta) * sum_j (beta_j - alpha_j).
    """
    if len(betas) != len(alpha):
        raise DomainError("dirichlet_kl_var: dimension mismatch")
    tape = betas[0].tape
    bvals = [b.value for b in betas]
    val = dirichlet_kl(bvals, alpha)
    bsum = sum(bvals)
    diff_sum = sum(b - a for b, a in zip(bvals, alpha))
    tg_bsum = trigamma(bsum)
    parts = tuple(
        (b - a) * trigamma(b) - tg_bsum * diff_sum for b, a in zip(bvals, alpha)
    )
    return tape._push(val, tuple(b.idx for b in betas), parts)


def gamma_sample_var(shape: Var, u: float) -> Var:
    """Gamma(shape) draw at fixed uniform u, differentiable in the shape.

    The node's value is the quantile y = P^{-1}(shape, u); its partial is the
    implicit derivative of that quantile in the shape.
    """
    if not 0.0 < u < 1.0:
        raise DomainError(f"gamma_sample_var requires u in (0, 1), got {u!r}")
    a = shape.value
    y = gamma_quantile(a, u)
    _, dp_da = gammainc_p_da(a, y)
    pdf = math.exp(gamma_log_pdf(y, a))
    dy_da = -dp_da / pdf
    return shape.tape._push(y, (shape.idx,), (dy_da,))


def dirichlet_sample_vars(betas: Sequence[Var], us: Sequence[float]) -> list[Var]:
    """Dirichlet draw on the tape: normalized per-component Gamma quantiles,
    clamped into [eps, 1 - eps] and renormalized if a component reaches the
    simplex boundary."""
    if len(us) != len(betas):
        raise ConfigError("dirichlet_sample_vars needs one uniform per component")
    ys = [gamma_sample_var(b, u) for b, u in zip(betas, us)]
    total = vsum(ys)
    zs = [y / total for y in ys]
    if any(not _SIMPLEX_EPS <= z.value <= 1.0 - _SIMPLEX_EPS for z in zs):
        zs = [clamp(z, _SIMPLEX_EPS, 1.0 - _SIMPLEX_EPS) for z in zs]
        total = vsum(zs)
        zs = [z / total for z in zs]
    return zs
