"""The scalar route the library trained on before its array tape, kept as
the tests' gradient oracle: the per-scalar Dirichlet ops, the per-word ELBO
on the scalar tape (one leaf per parameter), and a minibatch gradient built
from it.  It uses the scalar special functions and tape of this directory.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

import scalar_tape as tp
from lexifuse.errors import ConfigError, DomainError
from lexifuse.lexica import BINARY, PAIR_CONTINUOUS, SIGNED_CONTINUOUS, ScaleFamily
from lexifuse.model import (
    PAIR_VARIANCE,
    VARIANCE_FLOOR,
    Head,
    ModelState,
    WordObservation,
)
from row_lexica import PolarityLabel, label_of
from scalar_special import digamma, gamma_log_pdf, gamma_quantile, gammainc_p_da, lgamma, trigamma
from scalar_tape import Tape, Var, vsum

_LOG_2PI = math.log(2.0 * math.pi)


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
    """Dirichlet draw on the tape: normalized per-component Gamma quantiles."""
    if len(us) != len(betas):
        raise ConfigError("dirichlet_sample_vars needs one uniform per component")
    ys = [gamma_sample_var(b, u) for b, u in zip(betas, us)]
    total = vsum(ys)
    return [y / total for y in ys]


@dataclass(eq=False)
class HeadLeaves:
    """One head's parameters as tape leaves, shaped like the arrays."""

    w1: list[list[Var]]
    b1: list[Var]
    w2: list[list[Var]]
    b2: list[Var]


class ModelBinding:
    """All model parameters pushed onto one tape, in ModelState.params order.

    Leaves occupy a contiguous index range, so a backward pass turns into a
    flat gradient via one slice.  Build a fresh binding per optimization
    step (tapes are append-only and single-use).  `encoded` holds each
    (view id, label)'s omega nodes, so words with identical labels share
    one encoder subgraph on the tape; binary and histogram views repeat
    labels constantly, and omega depends on nothing else.
    """

    def __init__(self, tape: Tape, state: ModelState):
        self.tape = tape
        self.state = state
        self.start = len(tape)
        self.heads: dict[tuple[str, str], HeadLeaves] = {}
        for vid in state.view_ids():
            self.heads[("enc", vid)] = self._push_head(state.encoders[vid])
            self.heads[("dec", vid)] = self._push_head(state.decoders[vid])
        self.count = len(tape) - self.start
        self.encoded: dict[tuple[str, PolarityLabel], tuple[Var, Var, Var]] = {}

    def _push_head(self, head: Head) -> HeadLeaves:
        leaf = self.tape.leaf
        return HeadLeaves(
            w1=[[leaf(v) for v in row] for row in head.w1],
            b1=[leaf(v) for v in head.b1],
            w2=[[leaf(v) for v in row] for row in head.w2],
            b2=[leaf(v) for v in head.b2],
        )

    def gradient(self, adjoints: list[float]) -> np.ndarray:
        """The flat parameter gradient (ModelState.params order) from adjoints."""
        return np.array(adjoints[self.start : self.start + self.count])


def _mlp_forward_vars(leaves: HeadLeaves, xs) -> list[Var]:
    hidden = [tp.tanh(a) for a in tp.linear_layer(leaves.w1, xs, leaves.b1)]
    return tp.linear_layer(leaves.w2, hidden, leaves.b2)


def encoder_input(label: PolarityLabel) -> list[float]:
    """A label as the fixed-length float vector its encoder consumes: rater
    ratings rescaled to [0, 1], other scales unchanged."""
    tag = label.family.tag
    if tag == BINARY:
        return [float(label.value)]
    if tag == SIGNED_CONTINUOUS:
        return [label.value]
    if tag == PAIR_CONTINUOUS:
        return [label.value[0], label.value[1]]
    top = label.family.n_points - 1
    return [r / top for r in label.value]


def encode_vars(label: PolarityLabel, leaves: HeadLeaves) -> tuple[Var, Var, Var]:
    out = _mlp_forward_vars(leaves, encoder_input(label))
    return tp.softmax3(out[0], out[1], out[2])


def decode_vars(zs, leaves: HeadLeaves, scale: ScaleFamily) -> list[Var]:
    """The emission parameters rho of a view with this scale at latent z."""
    raw = _mlp_forward_vars(leaves, zs)
    if scale.tag == BINARY:
        return [tp.sigmoid(raw[0])]
    if scale.tag == SIGNED_CONTINUOUS:
        return [tp.tanh(raw[0]), tp.softplus(raw[1]) + VARIANCE_FLOOR]
    if scale.tag == PAIR_CONTINUOUS:
        return [tp.sigmoid(raw[0]), tp.sigmoid(raw[1])]
    return raw


def emission_ll_var(label: PolarityLabel, rho: list[Var]) -> Var:
    """log P(label | rho) under the emission of the label's own scale."""
    tag = label.family.tag
    if tag == BINARY:
        return tp.log(rho[0]) if label.value == 1 else tp.log(1.0 - rho[0])
    if tag == SIGNED_CONTINUOUS:
        mean, var = rho[0], rho[1]
        d = mean - label.value
        return (tp.log(var) + _LOG_2PI) * -0.5 - d * d / (2.0 * var)
    if tag == PAIR_CONTINUOUS:
        c = -0.5 * (_LOG_2PI + math.log(PAIR_VARIANCE))
        inv2v = 0.5 / PAIR_VARIANCE
        d0 = rho[0] - label.value[0]
        d1 = rho[1] - label.value[1]
        return (d0 * d0 + d1 * d1) * (-inv2v) + 2.0 * c
    counts = Counter(label.value)
    ratings = sorted(counts)
    picked = tp.weighted_sum([rho[r] for r in ratings], [float(counts[r]) for r in ratings])
    return picked - float(len(label.value)) * tp.logsumexp(rho)


@dataclass(eq=False)
class WordElbo:
    """One word's ELBO with its two terms exposed: total = recon - kl."""

    total: Var
    recon: Var
    kl: Var
    beta: tuple[Var, Var, Var]


def elbo_word_on(binding: ModelBinding, obs: WordObservation, noise: list[list[float]]) -> WordElbo:
    """The word's ELBO on an existing binding, with explicit sampling noise.

    noise holds one triple of uniforms per Monte Carlo sample; passing the
    same noise twice makes the objective a deterministic function of the
    parameters (common random numbers), which both the finite-difference
    gradient checks and the frozen-noise training scheme rely on.  Each
    view's decoder and emission follow that view's scale in the binding's
    state, which elbo_batch checks against each view's family.
    """
    scales = binding.state.scales
    vids = sorted(obs.labels)
    for vid in vids:
        if vid not in scales:
            raise ConfigError(f"no encoder for view {vid!r}")
    labels = {vid: label_of(scales[vid], obs.labels[vid]) for vid in vids}

    omegas = []
    for vid in vids:
        key = (vid, labels[vid])
        if key not in binding.encoded:
            binding.encoded[key] = encode_vars(key[1], binding.heads[("enc", vid)])
        omegas.append(binding.encoded[key])
    beta = tuple(
        tp.weighted_sum([om[k] for om in omegas], [1.0] * len(omegas), const=1.0)
        for k in range(3)
    )

    kl = dirichlet_kl_var(beta, tuple(float(a) for a in obs.prior))

    lls: list[Var] = []
    for us in noise:
        zs = dirichlet_sample_vars(beta, us)
        for vid in vids:
            rho = decode_vars(zs, binding.heads[("dec", vid)], scales[vid])
            lls.append(emission_ll_var(labels[vid], rho))
    recon = tp.vsum(lls) / float(len(noise))

    return WordElbo(total=recon - kl, recon=recon, kl=kl, beta=beta)


def batch_gradient(state: ModelState, batch, noise, scale: float):
    """(flat gradient of -scale * sum of word ELBOs, ELBO, recon and KL sums)
    over the WordObservation records of batch, an Observations or a list."""
    tape = Tape()
    binding = ModelBinding(tape, state)
    words = [elbo_word_on(binding, obs, noise[obs.word]) for obs in batch]
    loss = vsum([we.total for we in words]) * (-scale)
    grad = binding.gradient(tape.backward(loss))
    recon = sum(we.recon.value for we in words)
    kl = sum(we.kl.value for we in words)
    return grad, {"elbo_sum": recon - kl, "recon_sum": recon, "kl_sum": kl}
