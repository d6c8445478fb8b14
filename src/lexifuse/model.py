"""Model core: per-lexicon encoder/decoder heads, emission likelihoods,
posterior construction, and the minibatch ELBO.

Every lexicon view d gets two small MLPs, each a `Head` of four arrays
(w1, b1, w2, b2) whose shapes `ModelState` checks once.  The state is the
one parameter store: every head array is a view of its flat vector
`ModelState.params`, which the optimizer updates in place.  The encoder g maps
the word's label in that view to a point omega_d on the polarity simplex; the
word's variational Dirichlet parameter is beta = 1 + sum_d omega_d, so each
view contributes exactly one pseudocount split across the three classes.
The decoder f maps a latent polarity draw z back to the parameters rho of
that view's emission distribution over labels.

The view's scale family alone picks the emission:

- Binary: Bernoulli with rho = sigmoid(f(z)), one number;
- SignedContinuous: Gaussian with learned mean tanh(f_0) and variance
  softplus(f_1) + VARIANCE_FLOOR;
- PairContinuous: two independent Gaussians with means sigmoid(f_0),
  sigmoid(f_1) and fixed variance PAIR_VARIANCE;
- RaterHistogram: each rating drawn from one categorical over n_points,
  whose logits are the n_points raw decoder outputs.

Each quantity has one numerical path.  Each layer function, looked up
through this module, runs on the state's head arrays and returns its value
with its chain rule: encode_vars over the rows a view covers and decode_vars
reading its view's rows of the draw return a VJP that hands the head its
gradient as one flat vector, dirichlet_sample_vars a VJP, and
dirichlet_kl_var and emission_ll_var a per-row Jacobian.  `elbo_batch`
builds a minibatch's ELBO from them (beta = 1 + the omegas added at each
view's rows) and records each chain rule on a tape.Tape, whose backward
gives the gradient (28 layers for one sample of 8 views).  Export needs
only the encoder outputs, so `posterior_params` runs the same encode_vars,
forward only, over equal blocks of each view's rows of at least
EXPORT_BLOCK_ROWS (export_blocks).  Both read a view's labels from its
value columns (`encoder_input`, `emission_targets`).

Training takes its words only as `Observations`: per view, the LexiconView
and each word's row of its values or -1, and a prior table, so a batch is an
index array and a view's batch labels one gather; `WordObservation` is the
per-word record built from it on demand, an output only.

Each check has one owner: the LexiconView constructor every label's domain,
so training reads only checked labels; `Observations` its shapes and that
each word has a label; `ModelState.check_view`, passed through by `train`,
`elbo_batch`, `export_lexicon` and `posterior_params`, that a view fits its
head (it compares families, as a ModelState ties each head's widths to its
family); `elbo_batch` that each word's beta, recon and kl are finite.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import tape as tp
from .distributions import dirichlet_kl_var, dirichlet_sample_vars
from .errors import ConfigError, NumericError, UsageError, atomic_write, read_input
from .lexica import (
    BINARY,
    COMPONENTS,
    PAIR_CONTINUOUS,
    RATER_HISTOGRAM,
    SIGNED_CONTINUOUS,
    CombinedVocabulary,
    LexiconView,
    ScaleFamily,
)

# Fixed per-component variance of the pair-continuous emission.
PAIR_VARIANCE = 0.01
# Additive floor keeping the learned variance away from zero.
VARIANCE_FLOOR = 0.01
# Fewest rows in one encoder call of export, unless a whole view is shorter.
# BLAS may round a row's products otherwise in a shorter call, so the size is
# part of the output's bits.
EXPORT_BLOCK_ROWS = 4096

_LOG_2PI = math.log(2.0 * math.pi)


def decoder_width(scale: ScaleFamily) -> int:
    """Raw decoder outputs per view: the emission's parameter count."""
    if scale.tag == BINARY:
        return 1
    if scale.tag == RATER_HISTOGRAM:
        return scale.n_points
    return 2


def encoder_input(scale: ScaleFamily, values: np.ndarray) -> np.ndarray:
    """Label rows (n, width) as the rows their encoder consumes.

    Rater histograms feed the raw ratings rescaled to [0, 1]; the other
    scales pass through unchanged.
    """
    if scale.tag == RATER_HISTOGRAM:
        return values / (scale.n_points - 1)
    return values


class Head(NamedTuple):
    """Two affine layers with a tanh between them, as four arrays; the field
    order is their order in ModelState.params."""

    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (output, hidden)
    b2: np.ndarray  # (output,)


@dataclass(frozen=True)
class WordObservation:
    """One word's labels across the views that contain it, each its row of
    the view's values, plus its prior concentration (3,): a record that
    Observations builds on demand."""

    word: str
    labels: dict[str, np.ndarray]
    prior: np.ndarray


class ObservedView(NamedTuple):
    """One view as observations hold it: the LexiconView, whose constructor
    checked its labels, and each observed word's row of its values or -1."""

    lexicon: LexiconView
    rows: np.ndarray


@dataclass(frozen=True, eq=False)
class Observations:
    """Words with their labels and priors, held as arrays: `words`, `priors`
    (n, 3), read-only, and `views`, an ObservedView per view id in sorted
    order; a view that covers none of the words is dropped.  A prior table
    of another shape, a view whose rows are not one integer per word in
    [-1, len(view)) and a word that no view covers are ConfigErrors.

    A read-only sequence: len() counts the words, obs[i] and iteration build
    each word's WordObservation on demand, and obs[slice or index array] is
    the Observations of those words in that order, sharing the views.
    """

    words: list[str]
    priors: np.ndarray
    views: dict[str, ObservedView]

    def __post_init__(self):
        n = len(self.words)
        priors = np.asarray(self.priors, dtype=float).view()
        if priors.shape != (n, 3):
            raise ConfigError(f"{n} words need a prior table of shape ({n}, 3), got {priors.shape}")
        priors.flags.writeable = False
        covered, seen = {}, np.zeros(n, dtype=bool)
        for vid, (lexicon, rows) in sorted(self.views.items()):
            rows, m = np.asarray(rows), len(lexicon.words)
            if rows.shape != (n,) or rows.dtype.kind != "i" or ((rows < -1) | (rows >= m)).any():
                raise ConfigError(f"view {vid!r} needs one row per word, each an integer in [-1, {m})")
            mask = rows >= 0
            if mask.any():
                covered[vid] = ObservedView(lexicon, rows)
                seen |= mask
        if not seen.all():
            raise ConfigError(f"word {self.words[int(np.argmin(seen))]!r} has no observations")
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "views", covered)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, key):
        if isinstance(key, slice) or np.ndim(key):
            idx = np.arange(len(self))[key]
            views = {vid: ObservedView(v.lexicon, v.rows[idx]) for vid, v in self.views.items()}
            return Observations(list(map(self.words.__getitem__, idx.tolist())), self.priors[idx], views)
        i = range(len(self))[key]
        labels = {vid: v.lexicon.values[v.rows[i]] for vid, v in self.views.items() if v.rows[i] >= 0}
        return WordObservation(self.words[i], labels, self.priors[i])


@dataclass(eq=False)
class ModelState:
    """All heads, keyed by view id; scales declare each view's label space,
    which sets each head's input and output widths.  The given head arrays
    are copied into one float64 vector, `params`, in params order (by sorted
    view id, the encoder's w1, b1, w2, b2, then the decoder's); the state's
    heads, in new dicts, are views of it, so a write to either side shows in
    the other."""

    scales: dict[str, ScaleFamily]
    encoders: dict[str, Head]
    decoders: dict[str, Head]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if set(self.scales) != set(self.encoders) or set(self.scales) != set(self.decoders):
            raise ConfigError("scales/encoders/decoders must cover the same view ids")
        for vid, scale in self.scales.items():
            for kind, head, n_in, n_out in (("encoder", self.encoders[vid], scale.width, 3),
                                           ("decoder", self.decoders[vid], 3, decoder_width(scale))):
                h = head.w1.shape[:1]
                got = tuple(a.shape for a in head)
                if got != ((*h, n_in), h, (n_out, *h), (n_out,)):
                    raise ConfigError(
                        f"view {vid!r} ({scale.header()}) needs {kind} shapes (h, {n_in}), (h,), "
                        f"({n_out}, h), ({n_out},) for w1, b1, w2, b2, got {', '.join(map(str, got))}"
                    )
        heads, start = self.heads(), 0
        self.params = np.concatenate([np.ravel(a) for head in heads.values() for a in head], dtype=float)
        self.encoders, self.decoders = {}, {}
        for (kind, vid), head in heads.items():
            arrays = []
            for a in head:
                arrays.append(self.params[start : start + a.size].reshape(a.shape))
                start += a.size
            (self.encoders if kind == "enc" else self.decoders)[vid] = Head(*arrays)

    def __reduce__(self):
        # copy and pickle rebuild the state from its heads, so the copy's
        # heads view the copy's own params
        return ModelState, (self.scales, self.encoders, self.decoders)

    def view_ids(self) -> list[str]:
        return sorted(self.scales)

    def heads(self) -> dict[tuple[str, str], Head]:
        """Every head keyed by ("enc" or "dec", view id), in params order."""
        return {(kind, vid): head for vid in self.view_ids()
                for kind, head in (("enc", self.encoders[vid]), ("dec", self.decoders[vid]))}

    def check_view(self, view_id: str, family: ScaleFamily) -> None:
        """Refuse a view whose family is not the one its head was built for."""
        trained = self.scales.get(view_id)
        if trained != family:
            has = f"a {trained.header()} head" if trained else "no head"
            raise ConfigError(f"view {view_id!r} is {family.header()}, but the model has {has} for it")


# ---------------------------------------------------------------------------
# The layers of export's encoder forward and of the training objective.


def _mlp(layer: str, xv: np.ndarray, head: Head):
    """w2 tanh(w1 x + b1) + b2 over the rows of xv: (the output, and the VJP
    from the output's adjoint to (the adjoint of w1 x + b1, the head's as one
    flat vector)).  Rows not as wide as w1's raise."""
    w1, b1, w2, b2 = head
    if xv.ndim != 2 or xv.shape[1] != w1.shape[1]:
        raise UsageError(f"{layer}: rows of width {w1.shape[1]} expected, got shape {xv.shape}")
    t = np.tanh(xv @ w1.T + b1)

    def vjp(g):
        ga = (g @ w2) * (1.0 - t * t)
        return ga, np.concatenate([(ga.T @ xv).ravel(), ga.sum(axis=0), (g.T @ t).ravel(), g.sum(axis=0)])

    return t @ w2.T + b2, vjp


def encode_vars(x: np.ndarray, head: Head):
    """omega = softmax(g(x)) for each row of encoder inputs (m, 3), and the
    VJP from omega's adjoint to the head's gradient as one flat vector."""
    raw, vjp = _mlp("encode_vars", np.asarray(x, dtype=float), head)
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite row stays nan
        e = np.exp(raw - raw.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    return s, lambda g: vjp(s * (g - (g * s).sum(axis=1, keepdims=True)))[1]


def export_blocks(n: int) -> list[slice]:
    """n rows cut into max(1, n // EXPORT_BLOCK_ROWS) contiguous slices whose
    lengths differ by at most one: each has EXPORT_BLOCK_ROWS to
    2 * EXPORT_BLOCK_ROWS - 1 rows, or all n if n is shorter, so no block is
    a short tail."""
    k = max(1, n // EXPORT_BLOCK_ROWS)
    edges = [i * n // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def posterior_params(views: list[LexiconView], state: ModelState, vocab: CombinedVocabulary) -> np.ndarray:
    """beta = 1 + sum of omega_d over the given views covering each word of
    the vocabulary, one row per vocabulary word (the views' rows are
    vocab.rows), the views added in sorted view-id order.  Each view's
    encoder runs through encode_vars, forward only, over export_blocks of its
    rows, so that a block's activations go before the next block runs.  A
    view that the state has no head of its family for is a ConfigError
    (ModelState.check_view)."""
    beta = np.ones((len(vocab), 3))
    for view in sorted(views, key=lambda v: v.id):
        state.check_view(view.id, view.family)
        rows, head = vocab.rows[view.id], state.encoders[view.id]
        for block in export_blocks(len(view)):
            beta[rows[block]] += encode_vars(encoder_input(view.family, view.values[block]), head)[0]
    return beta


def decode_vars(z: np.ndarray, rows: np.ndarray, head: Head, scale: ScaleFamily):
    """The emission parameters rho of a view with this scale at the given rows
    of z (n, 3), in that order, and the VJP from rho's adjoint to (z's, which
    holds the rows' adjoints added at their rows, the head's gradient as one
    flat vector)."""
    r, vjp = _mlp("decode_vars", z[rows], head)
    if scale.tag in (BINARY, PAIR_CONTINUOUS):
        rho = _sigmoid(r)
        slope = rho * (1.0 - rho)
    elif scale.tag == SIGNED_CONTINUOUS:
        t = np.tanh(r[:, 0])
        # max(v, 0) + log1p(exp(-|v|)) is overflow-safe on both sides
        softplus = np.maximum(r[:, 1], 0.0) + np.log1p(np.exp(-np.abs(r[:, 1])))
        rho = np.column_stack([t, softplus + VARIANCE_FLOOR])
        slope = np.column_stack([1.0 - t * t, _sigmoid(r[:, 1])])
    else:
        rho, slope = r, None
    w1, shape = head.w1, z.shape

    def chain(g):
        ga, grad = vjp(g if slope is None else g * slope)
        gz = np.zeros(shape)
        np.add.at(gz, rows, ga @ w1)
        return gz, grad

    return rho, chain


def _sigmoid(v: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(v))
    return np.where(v >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def emission_targets(scale: ScaleFamily, values: np.ndarray) -> np.ndarray:
    """Label rows (n, width) as the array their emission reads: the value per
    row (a pair per row for pairs), or for rater histograms the count of each
    rating per row."""
    if scale.tag == PAIR_CONTINUOUS:
        return values
    if scale.tag != RATER_HISTOGRAM:
        return values[:, 0]
    n = len(values)
    counts = np.zeros((n, scale.n_points))
    np.add.at(counts, (np.arange(n)[:, None], values.astype(np.intp)), 1.0)
    return counts


def emission_ll_var(scale: ScaleFamily, y: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log P(label | rho) per row under the emission of this scale, for the
    targets y of emission_targets, and its per-row Jacobian w.r.t. rho (the
    rows r); a zero-probability label gives -inf."""
    with np.errstate(divide="ignore"):
        if scale.tag == BINARY:
            p = r[:, 0]
            one = y == 1.0
            q = np.where(one, p, 1.0 - p)
            return np.log(q), (np.where(one, 1.0, -1.0) / q)[:, None]
    if scale.tag == SIGNED_CONTINUOUS:
        mean, var = r[:, 0], r[:, 1]
        d = mean - y
        ll = (np.log(var) + _LOG_2PI) * -0.5 - d * d / (2.0 * var)
        return ll, np.column_stack([-d / var, -0.5 / var + d * d / (2.0 * var * var)])
    if scale.tag == PAIR_CONTINUOUS:
        c = -0.5 * (_LOG_2PI + math.log(PAIR_VARIANCE))
        inv2v = 0.5 / PAIR_VARIANCE
        d = r - y
        ll = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) * (-inv2v) + 2.0 * c
        return ll, d * (-2.0 * inv2v)
    top = r.max(axis=1, keepdims=True)
    e = np.exp(r - top)
    total = e.sum(axis=1, keepdims=True)
    n = y.sum(axis=1)
    ll = (y * r).sum(axis=1) - n * (top[:, 0] + np.log(total[:, 0]))
    return ll, y - n[:, None] * (e / total)


@dataclass(eq=False)
class BatchElbo:
    """A minibatch's ELBO, total = sum over words of recon - kl, and the tape
    whose backward gives its gradient."""

    total: float
    recon: np.ndarray  # (n,) per word
    kl: np.ndarray  # (n,) per word
    tape: tp.Tape


def _refuse_non_finite(batch: Observations, **arrays: np.ndarray) -> None:
    """Raise NumericError for the first word in batch order with a non-finite row."""
    finite = [np.isfinite(a).reshape(len(batch), -1).all(axis=1) for a in arrays.values()]
    bad = ~np.logical_and.reduce(finite)
    if bad.any():
        i = int(np.argmax(bad))
        rows = ", ".join(f"{name}={a[i].tolist()!r}" for name, a in arrays.items())
        obs = batch[i]
        raise NumericError(f"non-finite ELBO for word {obs.word!r} (views {sorted(obs.labels)}): {rows}")


def elbo_batch(state: ModelState, batch: Observations, us: np.ndarray) -> BatchElbo:
    """The batch's ELBO under the state's heads, with explicit sampling noise;
    its tape's backward gives the total's gradient in params order.

    us holds the batch's uniforms, (len(batch), n_mc, 3) with row i for word
    i of the batch and n_mc >= 1; any other shape is a ConfigError.  Passing
    the same us twice makes the objective a deterministic function of the
    parameters (common random numbers), which both the finite-difference
    gradient checks and the frozen-noise training scheme rely on.  Each view
    gathers the label rows of the batch positions it covers, in ascending
    order, runs its encoder once over them, beta = 1 + the omegas added in
    sorted view order, and each sample runs each view's decoder and emission
    once.  A view without a head of its family is refused by
    ModelState.check_view; a word whose beta, recon or kl is not finite
    raises NumericError, naming the first such word in batch order.
    """
    n_mc = np.shape(us)[1] if np.ndim(us) == 3 else 0
    if n_mc < 1 or np.shape(us) != (len(batch), n_mc, 3):
        raise ConfigError(f"a batch of {len(batch)} words needs one uniform per component per sample, shape "
                          f"({len(batch)}, n_mc >= 1, 3); got {np.shape(us)}")
    views = []
    for vid, (lexicon, rows) in batch.views.items():
        if lexicon.family != state.scales.get(vid):
            state.check_view(vid, lexicon.family)
        r = np.flatnonzero(rows >= 0)
        values = lexicon.values[rows[r]]
        x, y = encoder_input(lexicon.family, values), emission_targets(lexicon.family, values)
        views.append((vid, lexicon.family, r, x, y))

    n = len(batch)
    tape = tp.Tape({key: sum(map(np.size, head)) for key, head in state.heads().items()})
    beta = np.ones((n, 3))
    for vid, _, r, x, _ in views:
        omega, vjp = encode_vars(x, state.encoders[vid])
        np.add.at(beta, r, omega)
        tape.encoders.append((("enc", vid), r, vjp))
    _refuse_non_finite(batch, beta=beta)
    kl, tape.kl = dirichlet_kl_var(beta, batch.priors)

    recon = np.zeros(n)
    for s in range(n_mc):
        z, draw = dirichlet_sample_vars(beta, us[:, s])
        decoded = []
        for vid, family, r, _, y in views:
            rho, decode = decode_vars(z, r, state.decoders[vid], family)
            ll, jac = emission_ll_var(family, y, rho)
            np.add.at(recon, r, ll)
            decoded.append((("dec", vid), decode, jac))
        tape.samples.append((draw, decoded))
    recon /= n_mc
    _refuse_non_finite(batch, recon=recon, kl=kl)
    return BatchElbo(float((recon - kl).sum()), recon, kl, tape)


def observations_from_views(views, vocab, priors: dict[str, np.ndarray]) -> Observations:
    """The Observations of every vocabulary word, in sorted word order: its
    words are vocab.words, not a copy, its prior table holds each word's
    priors[word] and each view refers to its LexiconView, with each word's
    row there or -1 (vocab.rows inverted).  list(obs) gives one
    WordObservation per word, its labels keyed by view id in sorted order."""
    n = len(vocab.words)
    table = np.array([priors[word] for word in vocab.words], dtype=float).reshape(n, 3)
    observed = {}
    for view in views:
        rows = np.full(n, -1, dtype=np.intp)
        rows[vocab.rows[view.id]] = np.arange(len(view))
        observed[view.id] = ObservedView(view, rows)
    return Observations(vocab.words, table, observed)


# ---------------------------------------------------------------------------
# Checkpoint I/O

CHECKPOINT_VERSION = 1


def _head_to_json(head: Head) -> dict:
    (hidden_dim, input_dim), output_dim = head.w1.shape, len(head.b2)
    dims = {"input_dim": input_dim, "output_dim": output_dim, "hidden_dim": hidden_dim}
    return dims | {name: a.tolist() for name, a in head._asdict().items()}


def _head_from_json(d: dict, where: str) -> Head:
    arrays = {}
    for name in Head._fields:
        entries = [d[name]]  # extended while walked, so deep nesting needs no recursion
        for v in entries:
            if type(v) is list:
                entries.extend(v)
            elif type(v) not in (int, float):  # a bool is not a number here
                raise ConfigError(f"{where} {name} holds a non-numeric value")
        arrays[name] = np.array(d[name], dtype=float)
        if not np.isfinite(arrays[name]).all():
            raise ConfigError(f"{where} {name} holds a non-finite value")
    head = Head(**arrays)
    stored = (d["hidden_dim"], d["input_dim"], d["output_dim"])
    if stored != head.w1.shape + head.w2.shape[:1]:
        raise ConfigError(f"{where} stores (hidden_dim, input_dim, output_dim) {stored}, but its w1 is "
                          f"{head.w1.shape} and its w2 {head.w2.shape}")
    return head


def _check_meta(path: Path, digest, extra) -> None:
    """Refuse metadata that export could not print into unified.tsv's header."""
    if not isinstance(extra, dict):
        raise ConfigError(f"checkpoint {path}: 'extra' is not a JSON object")
    if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]*", digest)):
        raise ConfigError(f"checkpoint {path}: 'config_hash' is not lowercase hex digits: {digest!r}")
    if "seed" in extra and type(extra["seed"]) is not int:  # a bool is not a seed
        raise ConfigError(f"checkpoint {path}: 'extra.seed' is not a JSON integer: {extra['seed']!r}")


def save_checkpoint(
    path: str | Path, state: ModelState, config_hash: str = "", extra: dict | None = None
) -> None:
    """Write the model as versioned JSON; floats round-trip exactly.  Metadata
    that load_checkpoint refuses raises its ConfigError before any write."""
    _check_meta(path, config_hash, extra or {})
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
    with atomic_write(path) as f:
        f.write(json.dumps(doc, sort_keys=True))


def load_checkpoint(path: str | Path) -> tuple[ModelState, dict]:
    """Read a checkpoint; returns (state, metadata including 'extra').

    A missing path, a non-file, or a file that is not valid JSON (nesting
    too deep to decode included), lacks a key, holds a non-numeric,
    non-finite or misshapen array, stored dims that disagree with the arrays,
    a config hash that is not lowercase hex or an extra seed that is not an
    integer raises ConfigError; bytes that are not UTF-8 raise ParseError.
    """
    path = Path(path)
    text = read_input(path, "checkpoint")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
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
            encoders={vid: _head_from_json(h, f"checkpoint {path}: view {vid!r} encoder")
                      for vid, h in doc["encoders"].items()},
            decoders={vid: _head_from_json(h, f"checkpoint {path}: view {vid!r} decoder")
                      for vid, h in doc["decoders"].items()},
        )
    except KeyError as e:
        raise ConfigError(f"checkpoint {path} lacks key {e}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"checkpoint {path} is malformed: {e}") from None
    digest, extra = doc.get("config_hash", ""), doc.get("extra", {})
    _check_meta(path, digest, extra)
    return state, {"config_hash": digest, "extra": extra}
