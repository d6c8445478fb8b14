"""Reference code that only the tests use: a rejection sampler for Gamma and
Dirichlet draws (independent of the quantile route training runs), uniforms
from a stream for hand-built batches, each word's training noise through
numpy's own Philox generator, the Dirichlet KL and its Jacobian with one
special-function call per component, the pathwise-gradient harness and its
objectives, Observations built from labels by word, a one-word ELBO, the
observation records built word by word, the encoder as a plain numpy
forward (independent of its VJP), a fused
lexicon built from pseudocounts, the text-by-text featurizer and the regex
tokenizer.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Callable, Sequence

import numpy as np

from lexifuse.distributions import dirichlet_sample_vars
from lexifuse.errors import ConfigError, DomainError
from lexifuse.evaluation import Featurizer, LabeledCorpus
from lexifuse.lexica import build_vocabulary
from lexifuse.model import (
    BatchElbo,
    Head,
    ModelState,
    Observations,
    WordObservation,
    elbo_batch,
    observations_from_views,
)
from lexifuse.rng import RngStream
from lexifuse.special import digamma, lgamma, trigamma
from lexifuse.unified import UnifiedLexicon
from row_lexica import PolarityLabel, view_of


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
        x = float(rng.numpy().standard_normal())
        t = 1.0 + c * x
        if t <= 0.0:
            continue
        v = t * t * t
        u = rng.uniform()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if u <= 0.0 or math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


# The rejection sampler's draws are nudged off the simplex boundary, so that
# score-function estimators may take log z.
_SIMPLEX_EPS = 1e-8


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


def elbo_noise(rng: RngStream, n_mc: int) -> list[list[float]]:
    """n_mc triples of uniforms, nudged off {0, 1} for quantile stability."""
    return [
        [min(max(rng.uniform(), 1e-12), 1.0 - 1e-12) for _ in range(3)] for _ in range(n_mc)
    ]


def philox_noise(seed: int, word: str, n_mc: int) -> np.ndarray:
    """The word's (n_mc, 3) training uniforms through np.random.Philox, keyed
    by the word's 16-byte BLAKE2b digest: three of each four raw outputs
    per sample, as doubles the way numpy's Generator.random makes them."""
    digest = hashlib.blake2b(f"{seed}\0{word}".encode(), digest_size=16, person=b"lexifuse-noise").digest()
    raw = np.random.Philox(key=int.from_bytes(digest, "little")).random_raw(4 * n_mc)
    return np.clip((raw.reshape(n_mc, 4)[:, :3] >> 11) * 2.0**-53, 1e-12, 1.0 - 1e-12)


def dirichlet_kl_per_component(beta, alpha) -> np.ndarray:
    """dirichlet_kl with lgamma and digamma called once per sum and once per
    component column."""
    beta, alpha = np.asarray(beta, dtype=float), np.asarray(alpha, dtype=float)
    bsum = beta.sum(axis=-1)
    dg_bsum = digamma(bsum)
    acc = lgamma(bsum) - lgamma(alpha.sum(axis=-1))
    for k in range(beta.shape[-1]):
        b, a = beta[..., k], alpha[..., k]
        acc = acc + (lgamma(a) - lgamma(b) + (b - a) * (digamma(b) - dg_bsum))
    return acc


def dirichlet_kl_jacobian(beta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The (n, k) Jacobian dirichlet_kl_var returns, with trigamma
    called on the components and on the row sums apart."""
    diff = beta - alpha
    return diff * trigamma(beta) - (trigamma(beta.sum(axis=1)) * diff.sum(axis=1))[:, None]


def observations_of(labels: dict[str, dict[str, PolarityLabel]], priors: dict[str, Sequence[float]]
                    ) -> Observations:
    """The Observations of labels, word -> {view id: label}, through
    observations_from_views: one view_of view per view id, holding the words
    that have a label of it, and priors[word] passed through its priors
    mapping."""
    by_view: dict[str, dict[str, PolarityLabel]] = {}
    for word, row in labels.items():
        for vid, label in row.items():
            by_view.setdefault(vid, {})[word] = label
    views = [view_of(vid, next(iter(of.values())).family, of) for vid, of in sorted(by_view.items())]
    table = {word: np.array(prior, dtype=float) for word, prior in priors.items()}
    return observations_from_views(views, build_vocabulary(views), table)


def elbo_word(obs: Observations, state: ModelState, n_mc: int, rng: RngStream) -> BatchElbo:
    """Single-word ELBO estimate (see elbo_batch) of the one word of obs
    (observations_of builds it)."""
    if n_mc < 1:
        raise ConfigError(f"n_mc must be >= 1, got {n_mc}")
    return elbo_batch(state, obs, np.array([elbo_noise(rng, n_mc)]))


def observations_per_word(views, vocab, priors: dict[str, np.ndarray]) -> list[WordObservation]:
    """One WordObservation per vocabulary word, in sorted word order, its
    labels its rows of the views' values keyed by view id in sorted order and
    its prior priors[word]: observations_from_views as a loop over words."""
    labels: list[dict[str, np.ndarray]] = [{} for _ in vocab.words]
    for view in sorted(views, key=lambda v: v.id):
        for row, value in zip(vocab.rows[view.id].tolist(), view.values):
            labels[row][view.id] = value
    return [WordObservation(word, by_view, priors[word]) for word, by_view in zip(vocab.words, labels)]


def encode(head: Head, x: np.ndarray) -> np.ndarray:
    """omega = softmax(g(x)) per row of encoder inputs, in plain numpy:
    (n, w1's columns) -> (n, 3)."""
    raw = np.tanh(x @ head.w1.T + head.b1) @ head.w2.T + head.b2
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite row stays nan
        e = np.exp(raw - raw.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# An objective maps draws z (n, k) to (one value per draw, its per-row
# Jacobian (n, k)), as dirichlet_kl_var and emission_ll_var do.
Objective = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def reparam_grad_samples(per_sample_objective: Objective, beta: Sequence[float], n_samples: int,
                         rng: RngStream) -> np.ndarray:
    """Pathwise stochastic gradients of E_{Dir(beta)}[objective(z)] w.r.t.
    beta, one row per draw: (n_samples, len(beta)).

    All draws go through the implicit-gradient route at once, beta tiled
    once per draw, and the draw's VJP takes the objective's Jacobian: the
    gradient of the sum of the per-draw values.  Draw i reads the i-th
    len(beta) uniforms of the stream.
    """
    if n_samples < 1:
        raise ConfigError(f"reparam_grad_elbo requires n_samples >= 1, got {n_samples}")
    for b in beta:
        if not b > 0.0:
            raise DomainError("reparam_grad_elbo requires positive beta")
    us = np.clip(rng.numpy().random((n_samples, len(beta))), 1e-12, 1.0 - 1e-12)
    z, vjp = dirichlet_sample_vars(np.tile(np.asarray(beta, dtype=float), (n_samples, 1)), us)
    return vjp(per_sample_objective(z)[1])


def reparam_grad_elbo(per_sample_objective: Objective, beta: Sequence[float], n_samples: int,
                      rng: RngStream) -> np.ndarray:
    """The mean of reparam_grad_samples over n_samples draws."""
    return reparam_grad_samples(per_sample_objective, beta, n_samples, rng).mean(axis=0)


def linear_objective(coeffs: Sequence[float]) -> Objective:
    """z -> coeffs . z per draw."""
    c = np.asarray(coeffs, dtype=float)
    return lambda z: (z @ c, np.broadcast_to(c, z.shape))


def sum_of_squares(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z -> sum_k z_k^2 per draw."""
    return (z * z).sum(axis=1), 2.0 * z


def product01(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z -> z_0 * z_1 per draw."""
    jac = np.zeros_like(z)
    jac[:, 0], jac[:, 1] = z[:, 1], z[:, 0]
    return z[:, 0] * z[:, 1], jac


def lexicon_from_betas(rows) -> UnifiedLexicon:
    """A fused lexicon from (word, beta, n_views) rows, each mean beta / sum(beta)."""
    beta = np.array([b for _, b, _ in rows], dtype=float).reshape(-1, 3)
    return UnifiedLexicon(
        [w for w, _, _ in rows], beta, beta / beta.sum(axis=1, keepdims=True), [n for _, _, n in rows]
    )


def featurize_text(featurizer: Featurizer, tokens) -> np.ndarray:
    """One text's features token by token: the mean of its covered tokens'
    rows (each token case-folded and looked up), or zeros without one."""
    feats = [featurizer.rows[row] for t in tokens if (row := featurizer.index.get(t.casefold())) is not None]
    if not feats:
        return np.zeros(featurizer.dim)
    return np.mean(feats, axis=0)


def featurize_corpus(featurizer: Featurizer, corpus: LabeledCorpus) -> np.ndarray:
    """Featurizer.featurize_corpus, one text at a time."""
    return np.array([featurize_text(featurizer, text) for text in corpus.texts])


TOKEN_SPLIT = re.compile(r"[\W_]+")


def tokenize(text: str) -> list[str]:
    """evaluation.tokenize as a regex split: case-fold, then split on runs of
    characters that are not word characters or are underscores."""
    return [t for t in TOKEN_SPLIT.split(text.casefold()) if t]
