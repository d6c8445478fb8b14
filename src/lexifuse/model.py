"""Model core: per-lexicon encoder/decoder heads, emission likelihoods,
posterior construction, and the per-word ELBO.

Every lexicon view d gets two small MLPs.  The encoder g maps the word's
label in that view to a point omega_d on the polarity simplex; the word's
variational Dirichlet parameter is beta = 1 + sum_d omega_d, so each view
contributes exactly one pseudocount split across the three classes.  The
decoder f maps a latent polarity draw z back to the parameters rho of that
view's emission distribution over labels.

The view's scale family alone picks the emission:

- Binary: Bernoulli with rho = sigmoid(f(z)), one number;
- SignedContinuous: Gaussian with learned mean tanh(f_0) and variance
  softplus(f_1) + VARIANCE_FLOOR;
- PairContinuous: two independent Gaussians with means sigmoid(f_0),
  sigmoid(f_1) and fixed variance PAIR_VARIANCE;
- RaterHistogram: each rating drawn from one categorical over n_points,
  whose logits are the n_points raw decoder outputs.

Each quantity has one numerical path.  Training builds the ELBO on the tape
(ModelBinding + elbo_word_on).  Export needs only the encoder outputs, so
`posterior_params` runs each view's encoder once, as a batched numpy
forward (`encode`) over all of that view's labels; only export runs it.
The encoder is the one network with both a numpy and a tape forward.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tape as tp
from .distributions import dirichlet_kl_var, dirichlet_sample_vars
from .errors import ConfigError, UsageError, read_input
from .lexica import (
    BINARY,
    COMPONENTS,
    PAIR_CONTINUOUS,
    RATER_HISTOGRAM,
    SIGNED_CONTINUOUS,
    DirichletPrior,
    LexiconView,
    PolarityLabel,
    ScaleFamily,
)
from .rng import RngStream
from .tape import Tape, Var

# Fixed per-component variance of the pair-continuous emission.
PAIR_VARIANCE = 0.01
# Additive floor keeping the learned variance away from zero.
VARIANCE_FLOOR = 0.01

_LOG_2PI = math.log(2.0 * math.pi)


def decoder_width(scale: ScaleFamily) -> int:
    """Raw decoder outputs per view: the emission's parameter count."""
    if scale.tag == BINARY:
        return 1
    if scale.tag == RATER_HISTOGRAM:
        return scale.n_points
    return 2


def encoder_input(label: PolarityLabel) -> list[float]:
    """A label as the fixed-length float vector its encoder consumes.

    Rater histograms feed the raw ratings rescaled to [0, 1]; the other
    scales pass through unchanged.
    """
    tag = label.family.tag
    if tag == BINARY:
        return [float(label.value)]
    if tag == SIGNED_CONTINUOUS:
        return [label.value]
    if tag == PAIR_CONTINUOUS:
        return [label.value[0], label.value[1]]
    top = label.family.n_points - 1
    return [r / top for r in label.value]


@dataclass(eq=False)
class MlpHead:
    """Two affine layers with a tanh between them."""

    input_dim: int
    output_dim: int
    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (output, hidden)
    b2: np.ndarray  # (output,)
    hidden_dim: int = 32

    def __post_init__(self):
        if self.w1.shape != (self.hidden_dim, self.input_dim):
            raise ConfigError(f"w1 shape {self.w1.shape} != {(self.hidden_dim, self.input_dim)}")
        if self.b1.shape != (self.hidden_dim,):
            raise ConfigError(f"b1 shape {self.b1.shape} != {(self.hidden_dim,)}")
        if self.w2.shape != (self.output_dim, self.hidden_dim):
            raise ConfigError(f"w2 shape {self.w2.shape} != {(self.output_dim, self.hidden_dim)}")
        if self.b2.shape != (self.output_dim,):
            raise ConfigError(f"b2 shape {self.b2.shape} != {(self.output_dim,)}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The head applied to each row of x: (n, input) -> (n, output)."""
        return np.tanh(x @ self.w1.T + self.b1) @ self.w2.T + self.b2


@dataclass(frozen=True)
class WordObservation:
    """One word's labels across the views that contain it, plus its prior."""

    word: str
    labels: dict[str, PolarityLabel]
    prior: DirichletPrior

    def __post_init__(self):
        if not self.labels:
            raise ConfigError(f"word {self.word!r} has no observations")


@dataclass(eq=False)
class ModelState:
    """All heads, keyed by view id; scales declare each view's label space."""

    scales: dict[str, ScaleFamily]
    encoders: dict[str, MlpHead]
    decoders: dict[str, MlpHead]

    def __post_init__(self):
        if set(self.scales) != set(self.encoders) or set(self.scales) != set(self.decoders):
            raise ConfigError("scales/encoders/decoders must cover the same view ids")
        for vid, scale in self.scales.items():
            enc, dec = self.encoders[vid], self.decoders[vid]
            want = (scale.width, 3, 3, decoder_width(scale))
            got = (enc.input_dim, enc.output_dim, dec.input_dim, dec.output_dim)
            if got != want:
                raise ConfigError(
                    f"view {vid!r} ({scale.header()}) needs encoder {want[0]} -> 3 and "
                    f"decoder 3 -> {want[3]}, got {got[0]} -> {got[1]} and {got[2]} -> {got[3]}"
                )

    def view_ids(self) -> list[str]:
        return sorted(self.scales)


def _head_arrays(head: MlpHead) -> list[np.ndarray]:
    return [head.w1, head.b1, head.w2, head.b2]


def _state_arrays(state: ModelState) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for vid in state.view_ids():
        out.extend(_head_arrays(state.encoders[vid]))
        out.extend(_head_arrays(state.decoders[vid]))
    return out


def pack_state(state: ModelState) -> np.ndarray:
    """All parameters as one flat vector in canonical (sorted-view) order."""
    return np.concatenate([a.ravel() for a in _state_arrays(state)])


def unpack_state(state: ModelState, vec: np.ndarray) -> None:
    """Write a flat vector back into the state's arrays (canonical order)."""
    arrays = _state_arrays(state)
    total = sum(a.size for a in arrays)
    if vec.shape != (total,):
        raise UsageError(f"parameter vector has {vec.shape}, state needs ({total},)")
    pos = 0
    for a in arrays:
        a[...] = vec[pos : pos + a.size].reshape(a.shape)
        pos += a.size


def encode(head: MlpHead, x: np.ndarray) -> np.ndarray:
    """omega_d = softmax(g(x_d)) per row of encoder inputs: (n, input_dim) -> (n, 3)."""
    if x.ndim != 2 or x.shape[1] != head.input_dim:
        raise ConfigError(f"encoder expects rows of input_dim {head.input_dim}, got shape {x.shape}")
    if head.output_dim != 3:
        raise ConfigError(f"encoder output_dim must be 3, got {head.output_dim}")
    raw = head.forward(x)
    e = np.exp(raw - raw.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def posterior_params(
    views: list[LexiconView], encoders: dict[str, MlpHead]
) -> tuple[list[str], np.ndarray]:
    """The views' words, sorted, and beta = 1 + sum over each word's views of
    omega_d, one row per word; each view's encoder runs once, in sorted
    view-id order."""
    words = sorted(set().union(*(view.entries for view in views)))
    row = {w: i for i, w in enumerate(words)}
    beta = np.ones((len(words), 3))
    for view in sorted(views, key=lambda v: v.id):
        if view.id not in encoders:
            raise ConfigError(f"no encoder for view {view.id!r}")
        labels = view.entries
        x = np.array([encoder_input(label) for label in labels.values()], dtype=float)
        x = x.reshape(len(labels), view.family.width)
        beta[[row[w] for w in labels]] += encode(encoders[view.id], x)
    return words, beta


# ---------------------------------------------------------------------------
# Tape route: the differentiable training objective.


@dataclass(eq=False)
class HeadLeaves:
    """One head's parameters as tape leaves, shaped like the arrays."""

    w1: list[list[Var]]
    b1: list[Var]
    w2: list[list[Var]]
    b2: list[Var]


class ModelBinding:
    """All model parameters pushed onto one tape, in pack_state order.

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

    def _push_head(self, head: MlpHead) -> HeadLeaves:
        leaf = self.tape.leaf
        return HeadLeaves(
            w1=[[leaf(v) for v in row] for row in head.w1],
            b1=[leaf(v) for v in head.b1],
            w2=[[leaf(v) for v in row] for row in head.w2],
            b2=[leaf(v) for v in head.b2],
        )

    def gradient(self, adjoints: list[float]) -> np.ndarray:
        """The flat parameter gradient (pack_state order) from adjoints."""
        return np.array(adjoints[self.start : self.start + self.count])


def _mlp_forward_vars(leaves: HeadLeaves, xs) -> list[Var]:
    hidden = [tp.tanh(a) for a in tp.linear_layer(leaves.w1, xs, leaves.b1)]
    return tp.linear_layer(leaves.w2, hidden, leaves.b2)


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
    state; train() checks once that every label shares it.
    """
    scales = binding.state.scales
    vids = sorted(obs.labels)
    for vid in vids:
        if vid not in scales:
            raise ConfigError(f"no encoder for view {vid!r}")

    omegas = []
    for vid in vids:
        key = (vid, obs.labels[vid])
        if key not in binding.encoded:
            binding.encoded[key] = encode_vars(key[1], binding.heads[("enc", vid)])
        omegas.append(binding.encoded[key])
    beta = tuple(
        tp.weighted_sum([om[k] for om in omegas], [1.0] * len(omegas), const=1.0)
        for k in range(3)
    )

    kl = dirichlet_kl_var(beta, obs.prior.alpha)

    lls: list[Var] = []
    for us in noise:
        zs = dirichlet_sample_vars(beta, us)
        for vid in vids:
            rho = decode_vars(zs, binding.heads[("dec", vid)], scales[vid])
            lls.append(emission_ll_var(obs.labels[vid], rho))
    recon = tp.vsum(lls) / float(len(noise))

    return WordElbo(total=recon - kl, recon=recon, kl=kl, beta=beta)


def elbo_noise(rng: RngStream, n_mc: int) -> list[list[float]]:
    """n_mc triples of uniforms, nudged off {0, 1} for quantile stability."""
    return [
        [min(max(rng.uniform(), 1e-12), 1.0 - 1e-12) for _ in range(3)] for _ in range(n_mc)
    ]


def observations_from_views(views, vocab, priors: dict[str, DirichletPrior]) -> list[WordObservation]:
    """One WordObservation per vocabulary word, in sorted word order."""
    by_id = {v.id: v for v in views}
    out = []
    for word in vocab.sorted_words():
        labels = {vid: by_id[vid].entries[word] for vid in vocab.membership[word]}
        out.append(WordObservation(word=word, labels=labels, prior=priors[word]))
    return out


# ---------------------------------------------------------------------------
# Checkpoint I/O

CHECKPOINT_VERSION = 1


def _head_to_json(head: MlpHead) -> dict:
    return {
        "input_dim": head.input_dim,
        "output_dim": head.output_dim,
        "hidden_dim": head.hidden_dim,
        "w1": head.w1.tolist(),
        "b1": head.b1.tolist(),
        "w2": head.w2.tolist(),
        "b2": head.b2.tolist(),
    }


def _head_from_json(d: dict) -> MlpHead:
    return MlpHead(
        input_dim=d["input_dim"],
        output_dim=d["output_dim"],
        hidden_dim=d["hidden_dim"],
        w1=np.array(d["w1"], dtype=float),
        b1=np.array(d["b1"], dtype=float),
        w2=np.array(d["w2"], dtype=float),
        b2=np.array(d["b2"], dtype=float),
    )


def save_checkpoint(
    path: str | Path, state: ModelState, config_hash: str = "", extra: dict | None = None
) -> None:
    """Write the model as versioned JSON; floats round-trip exactly."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "component_order": list(COMPONENTS),
        "config_hash": config_hash,
        "scales": {
            vid: {k: v for k, v in vars(s).items() if v is not None}
            for vid, s in state.scales.items()
        },
        "encoders": {vid: _head_to_json(h) for vid, h in state.encoders.items()},
        "decoders": {vid: _head_to_json(h) for vid, h in state.decoders.items()},
        "extra": extra or {},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[ModelState, dict]:
    """Read a checkpoint; returns (state, metadata including 'extra').

    A missing path, a non-file, or a file that is not valid JSON, lacks a
    key or holds a non-numeric or misshapen array raises ConfigError; bytes
    that are not UTF-8 raise ParseError.
    """
    path = Path(path)
    text = read_input(path, "checkpoint")
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise ConfigError(f"checkpoint {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"checkpoint {path} is not a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {doc.get('format_version')!r}")
    if doc.get("component_order") != list(COMPONENTS):
        raise ConfigError(f"checkpoint component order {doc.get('component_order')!r} unsupported")
    try:
        state = ModelState(
            scales={vid: ScaleFamily(**s) for vid, s in doc["scales"].items()},
            encoders={vid: _head_from_json(h) for vid, h in doc["encoders"].items()},
            decoders={vid: _head_from_json(h) for vid, h in doc["decoders"].items()},
        )
    except KeyError as e:
        raise ConfigError(f"checkpoint {path} lacks key {e}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"checkpoint {path} is malformed: {e}") from None
    extra = doc.get("extra", {})
    if not isinstance(extra, dict):
        raise ConfigError(f"checkpoint {path}: 'extra' is not a JSON object")
    meta = {
        "config_hash": doc.get("config_hash", ""),
        "extra": extra,
    }
    return state, meta
