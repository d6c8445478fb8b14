"""Reference code that only the tests use: a rejection sampler for Gamma and
Dirichlet draws (independent of the quantile route training runs), the
pathwise-gradient harness, a one-word ELBO on a fresh tape, and a fused
lexicon built from pseudocounts.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from lexifuse.distributions import _SIMPLEX_EPS, dirichlet_sample_vars
from lexifuse.errors import ConfigError, DomainError
from lexifuse.model import (
    ModelBinding,
    ModelState,
    WordElbo,
    WordObservation,
    elbo_noise,
    elbo_word_on,
)
from lexifuse.rng import RngStream
from lexifuse.tape import Tape, Var
from lexifuse.unified import UnifiedLexicon


def sample_gamma(shape: float, rng: RngStream) -> float:
    """One draw from Gamma(shape, rate=1) via Marsaglia-Tsang.

    Shapes below 1 use the boost Gamma(shape) = Gamma(shape+1) * U^(1/shape).
    """
    if not shape > 0.0:
        raise DomainError(f"sample_gamma requires shape > 0, got {shape!r}")
    if shape < 1.0:
        x = sample_gamma(shape + 1.0, rng)
        u = rng.uniform()
        return x * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.normal()
        t = 1.0 + c * x
        if t <= 0.0:
            continue
        v = t * t * t
        u = rng.uniform()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if u <= 0.0 or math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def _renormalized_simplex(ys: Sequence[float]) -> list[float]:
    total = sum(ys)
    zs = [y / total for y in ys]
    zs = [min(max(z, _SIMPLEX_EPS), 1.0 - _SIMPLEX_EPS) for z in zs]
    total = sum(zs)
    return [z / total for z in zs]


def sample_dirichlet(alpha: Sequence[float], rng: RngStream) -> list[float]:
    """One Dirichlet draw as normalized independent Gamma(alpha_k) draws."""
    for a in alpha:
        if not a > 0.0:
            raise DomainError(f"sample_dirichlet requires alpha > 0, got {list(alpha)!r}")
    return _renormalized_simplex([sample_gamma(a, rng) for a in alpha])


def elbo_word(obs: WordObservation, state: ModelState, n_mc: int, rng: RngStream) -> WordElbo:
    """Single-word ELBO estimate on a fresh tape (see elbo_word_on)."""
    if n_mc < 1:
        raise ConfigError(f"n_mc must be >= 1, got {n_mc}")
    tape = Tape()
    binding = ModelBinding(tape, state)
    return elbo_word_on(binding, obs, elbo_noise(rng, n_mc))


def reparam_grad_elbo(
    per_sample_objective: Callable[[Sequence[Var]], Var],
    beta: Sequence[float],
    n_samples: int,
    rng: RngStream,
) -> np.ndarray:
    """Pathwise stochastic gradient of E_{Dir(beta)}[objective(z)] w.r.t. beta.

    Each sample builds a fresh tape: beta leaves, a Dirichlet draw through
    the implicit-gradient route, the objective, one backward pass.
    """
    if n_samples < 1:
        raise ConfigError(f"reparam_grad_elbo requires n_samples >= 1, got {n_samples}")
    for b in beta:
        if not b > 0.0:
            raise DomainError("reparam_grad_elbo requires positive beta")
    acc = np.zeros(len(beta))
    for _ in range(n_samples):
        tape = Tape()
        leaves = [tape.leaf(b) for b in beta]
        us = [min(max(rng.uniform(), 1e-12), 1.0 - 1e-12) for _ in beta]
        zs = dirichlet_sample_vars(leaves, us)
        root = per_sample_objective(zs)
        adj = tape.backward(root)
        acc += [adj[leaf.idx] for leaf in leaves]
    return acc / n_samples


def lexicon_from_betas(rows) -> UnifiedLexicon:
    """A fused lexicon from (word, beta, n_views) rows, each mean beta / sum(beta)."""
    beta = np.array([b for _, b, _ in rows], dtype=float).reshape(-1, 3)
    return UnifiedLexicon(
        [w for w, _, _ in rows], beta, beta / beta.sum(axis=1, keepdims=True), [n for _, _, n in rows]
    )
