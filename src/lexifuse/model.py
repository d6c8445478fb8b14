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

Each quantity has one numerical path, on the array tape.  Training builds a
minibatch's ELBO there (ModelBinding + elbo_batch): each layer function
(encode_vars, decode_vars, emission_ll_var, and the Dirichlet ops
dirichlet_kl_var and dirichlet_sample_vars) is one batched node over the
rows a view covers, looked up through this module.  Export needs only the
encoder outputs, so `posterior_params` runs the same encode_vars once per
view, forward only, on a tape of its own.  Both read a view's labels from
its value columns (`encoder_input`, `emission_targets`).

`ModelState.check_view`, passed through by `train`, `export_lexicon` and
`posterior_params`, is the one test that a view fits its head (it compares
families, as a ModelState ties each head's widths to its family).  `elbo_batch`
checks the labels it stacks and that each word's beta, recon and kl are finite.
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
from .errors import ConfigError, NumericError, atomic_write, read_input
from .lexica import (
    BINARY,
    COMPONENTS,
    PAIR_CONTINUOUS,
    RATER_HISTOGRAM,
    SIGNED_CONTINUOUS,
    CombinedVocabulary,
    LexiconView,
    ScaleFamily,
    out_of_domain,
)
from .tape import Tape

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


def encoder_input(scale: ScaleFamily, values: np.ndarray) -> np.ndarray:
    """Label rows (n, width) as the rows their encoder consumes.

    Rater histograms feed the raw ratings rescaled to [0, 1]; the other
    scales pass through unchanged.
    """
    if scale.tag == RATER_HISTOGRAM:
        return values / (scale.n_points - 1)
    return values


class Head(NamedTuple):
    """Two affine layers with a tanh between them, as its four arrays or as
    their tape leaves; the field order is their order in ModelState.params."""

    w1: np.ndarray | tp.Node  # (hidden, input)
    b1: np.ndarray | tp.Node  # (hidden,)
    w2: np.ndarray | tp.Node  # (output, hidden)
    b2: np.ndarray | tp.Node  # (output,)


@dataclass(frozen=True)
class WordObservation:
    """One word's labels across the views that contain it, each its row of
    the view's values, plus its prior concentration (3,)."""

    word: str
    labels: dict[str, np.ndarray]
    prior: np.ndarray

    def __post_init__(self):
        if not self.labels:
            raise ConfigError(f"word {self.word!r} has no observations")


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
        arrays = _state_arrays(self)
        self.params = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
        ends = np.cumsum([a.size for a in arrays])
        views = [self.params[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends)]
        heads = map(Head._make, zip(*[iter(views)] * 4))  # four arrays per head
        self.encoders, self.decoders = {}, {}
        for vid in self.view_ids():
            self.encoders[vid], self.decoders[vid] = next(heads), next(heads)

    def __reduce__(self):
        # copy and pickle rebuild the state from its heads, so the copy's
        # heads view the copy's own params
        return ModelState, (self.scales, self.encoders, self.decoders)

    def view_ids(self) -> list[str]:
        return sorted(self.scales)

    def check_view(self, view_id: str, family: ScaleFamily) -> None:
        """Refuse a view whose family is not the one its head was built for."""
        trained = self.scales.get(view_id)
        if trained != family:
            has = f"a {trained.header()} head" if trained else "no head"
            raise ConfigError(f"view {view_id!r} is {family.header()}, but the model has {has} for it")


def _state_arrays(state: ModelState) -> list[np.ndarray]:
    """Every head array in params order."""
    return [a for vid in state.view_ids() for head in (state.encoders[vid], state.decoders[vid]) for a in head]


# ---------------------------------------------------------------------------
# Array-tape route: the encoder forward of export and the training objective.


class ModelBinding:
    """All model parameters on one tape, one leaf per array of _state_arrays,
    and `heads` of those leaves, keyed by ("enc" or "dec", view id).

    Build a fresh binding per optimization step (tapes are append-only and
    single-use); `gradient` flattens the leaves' adjoints in the same order.
    """

    def __init__(self, tape: Tape, state: ModelState):
        self.tape = tape
        self.state = state
        self.leaves = [tape.leaf(a) for a in _state_arrays(state)]
        heads = map(Head._make, zip(*[iter(self.leaves)] * 4))  # four leaves per head
        self.heads = {(kind, vid): next(heads) for vid in state.view_ids() for kind in ("enc", "dec")}

    def gradient(self, adjoints: list) -> np.ndarray:
        """The flat parameter gradient (params order) from adjoints."""
        parts = []
        for leaf in self.leaves:
            g = adjoints[leaf.idx]
            parts.append(np.zeros(leaf.value.size) if g is None else g.ravel())
        return np.concatenate(parts)


def _mlp_vars(x, head: Head) -> tp.Node:
    return tp.affine(tp.tanh(tp.affine(x, head.w1, head.b1)), head.w2, head.b2)


def encode_vars(x: np.ndarray, head: Head) -> tp.Node:
    """omega = softmax(g(x)) for each row of encoder inputs: (m, 3)."""
    return tp.softmax(_mlp_vars(x, head))


def posterior_params(views: list[LexiconView], state: ModelState, vocab: CombinedVocabulary) -> np.ndarray:
    """beta = 1 + sum of omega_d over the given views covering each word of
    the vocabulary, one row per vocabulary word (the views' rows are
    vocab.rows); each view's encoder runs once over its value array through
    encode_vars, on a tape of its own so that its activations go before the
    next view runs, in sorted view-id order.  A view that the state has no
    head of its family for is a ConfigError (ModelState.check_view)."""
    beta = np.ones((len(vocab), 3))
    for view in sorted(views, key=lambda v: v.id):
        state.check_view(view.id, view.family)
        tape = Tape()
        head = Head(*map(tape.leaf, state.encoders[view.id]))
        beta[vocab.rows[view.id]] += encode_vars(encoder_input(view.family, view.values), head).value
    return beta


def decode_vars(z: tp.Node, head: Head, scale: ScaleFamily) -> tp.Node:
    """The emission parameters rho of a view with this scale at each row of z."""
    raw = _mlp_vars(z, head)
    r = raw.value
    if scale.tag in (BINARY, PAIR_CONTINUOUS):
        s = _sigmoid(r)
        return tp.pointwise(raw, s, s * (1.0 - s))
    if scale.tag == SIGNED_CONTINUOUS:
        t = np.tanh(r[:, 0])
        # max(v, 0) + log1p(exp(-|v|)) is overflow-safe on both sides
        softplus = np.maximum(r[:, 1], 0.0) + np.log1p(np.exp(-np.abs(r[:, 1])))
        rho = np.column_stack([t, softplus + VARIANCE_FLOOR])
        return tp.pointwise(raw, rho, np.column_stack([1.0 - t * t, _sigmoid(r[:, 1])]))
    return raw


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


def emission_ll_var(scale: ScaleFamily, y: np.ndarray, rho: tp.Node) -> tp.Node:
    """log P(label | rho) per row under the emission of this scale, for the
    targets y of emission_targets; a zero-probability label gives -inf."""
    r = rho.value
    with np.errstate(divide="ignore"):
        if scale.tag == BINARY:
            p = r[:, 0]
            one = y == 1.0
            q = np.where(one, p, 1.0 - p)
            return tp.rowwise(rho, np.log(q), (np.where(one, 1.0, -1.0) / q)[:, None])
    if scale.tag == SIGNED_CONTINUOUS:
        mean, var = r[:, 0], r[:, 1]
        d = mean - y
        ll = (np.log(var) + _LOG_2PI) * -0.5 - d * d / (2.0 * var)
        return tp.rowwise(rho, ll, np.column_stack([-d / var, -0.5 / var + d * d / (2.0 * var * var)]))
    if scale.tag == PAIR_CONTINUOUS:
        c = -0.5 * (_LOG_2PI + math.log(PAIR_VARIANCE))
        inv2v = 0.5 / PAIR_VARIANCE
        d = r - y
        ll = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) * (-inv2v) + 2.0 * c
        return tp.rowwise(rho, ll, d * (-2.0 * inv2v))
    top = r.max(axis=1, keepdims=True)
    e = np.exp(r - top)
    total = e.sum(axis=1, keepdims=True)
    n = y.sum(axis=1)
    ll = (y * r).sum(axis=1) - n * (top[:, 0] + np.log(total[:, 0]))
    return tp.rowwise(rho, ll, y - n[:, None] * (e / total))


@dataclass(eq=False)
class BatchElbo:
    """A minibatch's ELBO: total = sum over words of recon - kl, as a node."""

    total: tp.Node
    recon: np.ndarray  # (n,) per word
    kl: np.ndarray  # (n,) per word


def _refuse_non_finite(batch: list[WordObservation], **arrays: np.ndarray) -> None:
    """Raise NumericError for the first word in batch order with a non-finite row."""
    finite = [np.isfinite(a).reshape(len(batch), -1).all(axis=1) for a in arrays.values()]
    bad = ~np.logical_and.reduce(finite)
    if bad.any():
        i = int(np.argmax(bad))
        rows = ", ".join(f"{name}={a[i].tolist()!r}" for name, a in arrays.items())
        raise NumericError(
            f"non-finite ELBO for word {batch[i].word!r} (views {sorted(batch[i].labels)}): {rows}"
        )


def elbo_batch(binding: ModelBinding, batch: list[WordObservation], us: np.ndarray) -> BatchElbo:
    """The batch's ELBO on an existing binding, with explicit sampling noise.

    us holds the batch's uniforms, (len(batch), n_mc, 3) with row i for
    batch[i] and n_mc >= 1; any other shape is a ConfigError.
    Passing the same us twice makes the objective a deterministic function
    of the parameters (common random numbers), which both the finite-
    difference gradient checks and the frozen-noise training scheme rely
    on.  Each view runs its encoder once over the batch rows it covers, beta
    = 1 + the omegas added in sorted view order, and each sample runs each
    view's decoder and emission once.  A headless view or a label row
    outside its family is a ConfigError; a word whose beta, recon or kl is
    not finite raises NumericError, naming the first such word in batch order.
    """
    n_mc = np.shape(us)[1] if np.ndim(us) == 3 else 0
    if n_mc < 1 or np.shape(us) != (len(batch), n_mc, 3):
        raise ConfigError(f"a batch of {len(batch)} words needs one uniform per component per sample, shape "
                          f"({len(batch)}, n_mc >= 1, 3); got {np.shape(us)}")
    scales = binding.state.scales
    rows: dict[str, list[int]] = {}
    labels: dict[str, list[np.ndarray]] = {}
    for i, obs in enumerate(batch):
        for vid, label in obs.labels.items():
            rows.setdefault(vid, []).append(i)
            labels.setdefault(vid, []).append(label)
    views = []
    for vid in sorted(rows):
        if vid not in scales:
            raise ConfigError(f"the model has no head for view {vid!r}")
        scale = scales[vid]
        try:
            values = np.array(labels[vid], dtype=float)
        except ValueError:  # rows of differing lengths
            values = np.empty(0)
        if values.shape != (len(rows[vid]), scale.width) or out_of_domain(scale, values).any():
            raise ConfigError(
                f"view {vid!r} is {scale.header()}, but an observation's label is not one of its labels"
            )
        x = encoder_input(scale, values)
        views.append((vid, np.array(rows[vid]), x, emission_targets(scale, values)))

    n = len(batch)
    beta = tp.scatter_rows(
        n, [(r, encode_vars(x, binding.heads[("enc", vid)])) for vid, r, x, _ in views], base=1.0
    )
    _refuse_non_finite(batch, beta=beta.value)
    kl = dirichlet_kl_var(beta, np.array([obs.prior for obs in batch], dtype=float))

    lls = []
    recon = np.zeros(n)
    for s in range(n_mc):
        z = dirichlet_sample_vars(beta, us[:, s])
        for vid, r, _, y in views:
            rho = decode_vars(tp.take(z, r), binding.heads[("dec", vid)], scales[vid])
            ll = emission_ll_var(scales[vid], y, rho)
            np.add.at(recon, r, ll.value)
            lls.append(ll)
    recon /= n_mc
    _refuse_non_finite(batch, recon=recon, kl=kl.value)

    sizes = [len(r) for _ in range(n_mc) for _, r, _, _ in views]

    def vjp(g):
        return tuple(np.full(m, g / n_mc) for m in sizes) + (np.full(n, -g),)

    total = binding.tape.push((recon - kl.value).sum(), lls + [kl], vjp)
    return BatchElbo(total=total, recon=recon, kl=kl.value)


def observations_from_views(views, vocab, priors: dict[str, np.ndarray]) -> list[WordObservation]:
    """One WordObservation per vocabulary word, in sorted word order, its
    labels keyed by view id in sorted order."""
    labels: list[dict[str, np.ndarray]] = [{} for _ in vocab.words]
    for view in sorted(views, key=lambda v: v.id):
        for row, value in zip(vocab.rows[view.id].tolist(), view.values):
            labels[row][view.id] = value
    return [WordObservation(word, by_view, priors[word]) for word, by_view in zip(vocab.words, labels)]


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
