"""Dirichlet primitives of the training objective, one row per word: the
closed-form KL and draws that are differentiable in the concentration.

A draw inverts the Gamma CDF at a fixed uniform, because the derivative of
that inverse w.r.t. the shape is exactly the implicit-reparameterization
partial (Figurnov, Mohamed & Mnih, 2018)

    dy/d(shape) = - (dP/d shape)(shape, y) / pdf(y; shape),

so holding the uniforms fixed makes the ELBO a deterministic, differentiable
function of the variational parameters.  special.gamma_quantile hands back
dy/d(shape) with the quantile, from dP/d shape carried from its last Halley
round, so a draw evaluates the incomplete gamma once per round and never
again after.
Shapes 1 + sum omega reach exactly 1.0 when a softmax component underflows;
the quantile and its derivative hold there too.  A draw is the normalized
quantiles as they are, with no clamp off the simplex boundary: nothing
downstream takes log z.
"""

from __future__ import annotations

import numpy as np

from . import tape as tp
from .errors import ConfigError, DomainError
from .special import digamma, gamma_quantile, lgamma, trigamma


def dirichlet_kl(beta, alpha) -> np.ndarray:
    """KL(Dir(beta) || Dir(alpha)) in closed form, one value per row."""
    beta = np.asarray(beta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if beta.shape[-1] != alpha.shape[-1]:
        raise DomainError("dirichlet_kl: dimension mismatch")
    if not (np.all(beta > 0.0) and np.all(alpha > 0.0)):
        raise DomainError("dirichlet_kl requires positive parameters")
    beta, alpha = np.broadcast_arrays(beta, alpha)
    n, bsum = beta.shape[-1], beta.sum(axis=-1)
    b, a = np.moveaxis(beta, -1, 0), np.moveaxis(alpha, -1, 0)  # component k is b[k], a[k]
    # one call per special function, on the sums and the components stacked
    lg = lgamma(np.stack([bsum, alpha.sum(axis=-1), *b, *a]))
    dg = digamma(np.stack([bsum, *b]))
    acc = lg[0] - lg[1]
    for k in range(n):
        acc = acc + (lg[2 + n + k] - lg[2 + k] + (b[k] - a[k]) * (dg[1 + k] - dg[0]))
    return acc


def dirichlet_kl_var(beta: tp.Node, alpha: np.ndarray) -> tp.Node:
    """KL(Dir(beta_i) || Dir(alpha_i)) per row as one tape node.

    d KL / d beta_k = (beta_k - alpha_k) psi'(beta_k)
                      - psi'(sum beta) * sum_j (beta_j - alpha_j).
    """
    b = beta.value
    diff = b - alpha
    tg = trigamma(np.column_stack([b, b.sum(axis=1)]))
    jac = diff * tg[:, :-1] - (tg[:, -1] * diff.sum(axis=1))[:, None]
    return tp.rowwise(beta, dirichlet_kl(b, alpha), jac)


def dirichlet_sample_vars(beta: tp.Node, us: np.ndarray) -> tp.Node:
    """One Dirichlet draw per row of beta at that row's uniforms, on the tape:
    normalized per-component Gamma quantiles."""
    if us.shape != beta.value.shape:
        raise ConfigError("dirichlet_sample_vars needs one uniform per component")
    y, dy = gamma_quantile(beta.value, us)
    ys = tp.pointwise(beta, y, dy)
    total = y.sum(axis=1, keepdims=True)
    z = y / total
    return ys.tape.push(z, (ys,), lambda g: ((g - (g * z).sum(axis=1, keepdims=True)) / total,))
