"""Stochastic variational inference over words: minibatch the vocabulary,
differentiate the summed per-word ELBOs, apply Adam.

Reproducibility scheme: all randomness is addressed, never consumed from a
shared stream.  Initial weights come from (seed, "init") and the epoch-e
shuffle from (seed, "shuffle", e).  Each word's Monte Carlo uniforms are
Philox-4x64-10 outputs keyed by a 128-bit BLAKE2b digest of (seed, word),
with the sample as the counter and the component as the output lane
(NOISE_SCHEME), computed for all words in one vectorized pass into one
(n_words, n_mc, 3) array whose rows each batch takes.  A 128-bit digest
makes two words sharing their noise as unlikely as a random collision of
128 bits.  Word noise is frozen for the whole run, which makes the objective
a fixed deterministic function of the parameters: gradients of disjoint
minibatches then add up exactly to the full-batch gradient, and resuming
from a checkpoint needs no RNG state beyond the seed, the epoch number and
the noise scheme, which the checkpoint records.

Training takes its words only as `model.Observations`, each batch an index
array into them.  Each check on training input has one owner: `TrainConfig`
its values, the `LexiconView` constructor every label, `Observations` its
shapes and that each word has a label, `train` repeated words and views the
vocabulary lacks, `ModelState.check_view` that each view fits its head, and
`elbo_batch` each batch's ELBOs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import FLOAT_FORMAT, ConfigError, NumericError, UsageError, read_lines, write_lines
from .lexica import CombinedVocabulary, LexiconView, ScaleFamily
from .model import (
    Head,
    ModelState,
    Observations,
    decoder_width,
    elbo_batch,
    save_checkpoint,
)
from .rng import RngStream, philox_uniforms, stream_for

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 256
    epochs: int = 50
    n_mc: int = 1
    seed: int = 0
    weight_init_scale: float = 0.1
    hidden_dim: int = 32

    def __post_init__(self):
        for name in ("learning_rate", "adam_eps", "weight_init_scale"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        for name in ("batch_size", "epochs", "n_mc", "hidden_dim", "seed"):
            if type(getattr(self, name)) is not int:  # a bool is not a count
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("batch_size", "epochs", "n_mc", "hidden_dim"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")


def load_train_config(path: str | Path) -> TrainConfig:
    """Read a `key = value` config file; keys are TrainConfig field names,
    each given at most once."""
    path = Path(path)
    types = {f.name: f.type for f in fields(TrainConfig)}
    kwargs = {}
    key_line: dict[str, int] = {}
    for lineno, raw in enumerate(read_lines(path, "config file"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in key_line:
            raise ConfigError(
                f"{path}:{lineno}: config key {key!r} given twice, on lines {key_line[key]} and {lineno}"
            )
        key_line[key] = lineno
        try:
            kwargs[key] = int(value) if types[key] == "int" else float(value)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from e
    return TrainConfig(**kwargs)


def config_hash(config: TrainConfig) -> str:
    """Short stable digest of the full configuration."""
    blob = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass(eq=False)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, config: TrainConfig
) -> np.ndarray:
    """One bias-corrected Adam update; mutates state, returns new params."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise UsageError(
            f"adam_step shape mismatch: params {params.shape}, grads {grads.shape}, moments {state.m.shape}"
        )
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    state.m = b1 * state.m + (1.0 - b1) * grads
    state.v = b2 * state.v + (1.0 - b2) * grads * grads
    m_hat = state.m / (1.0 - b1**state.step)
    v_hat = state.v / (1.0 - b2**state.step)
    return params - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)


def _init_head(in_dim: int, out_dim: int, config: TrainConfig, gen: np.random.Generator) -> Head:
    h = config.hidden_dim
    s1 = config.weight_init_scale / np.sqrt(in_dim)
    s2 = config.weight_init_scale / np.sqrt(h)
    w1 = gen.uniform(-s1, s1, size=(h, in_dim))
    return Head(w1, np.zeros(h), gen.uniform(-s2, s2, size=(out_dim, h)), np.zeros(out_dim))


def init_model(
    views: list[LexiconView] | dict[str, ScaleFamily], config: TrainConfig, rng: RngStream
) -> ModelState:
    """Fresh heads per view: weights ~ U(-s, s) with s = init_scale/sqrt(fan_in),
    biases zero.  Views may be given as parsed lexica or as id -> scale."""
    if isinstance(views, dict):
        scales = dict(views)
    else:
        scales = {v.id: v.family for v in views}
    if not scales:
        raise ConfigError("init_model needs at least one view")
    gen = rng.numpy()
    encoders = {}
    decoders = {}
    for vid in sorted(scales):
        scale = scales[vid]
        encoders[vid] = _init_head(scale.width, 3, config, gen)
        decoders[vid] = _init_head(3, decoder_width(scale), config, gen)
    return ModelState(scales=scales, encoders=encoders, decoders=decoders)


# The per-word noise scheme, recorded in checkpoints: a run resumes only
# under the scheme that drew its noise.
NOISE_SCHEME = "philox4x64-10,blake2b-128"


def frozen_noise(config: TrainConfig, words: list[str]) -> np.ndarray:
    """Per-word Monte Carlo uniforms as one (len(words), n_mc, 3) array whose
    row i is a pure function of (seed, words[i]): sample s of word w is block
    s of the Philox-4x64-10 stream keyed by the 16-byte BLAKE2b digest,
    personalized for noise keys, of the UTF-8 bytes of f"{seed}\\0{w}", its
    first three outputs the components, nudged off {0, 1} for quantile
    stability."""
    seeded = hashlib.blake2b(f"{config.seed}\0".encode(), digest_size=16, person=b"lexifuse-noise")

    def digest(word: str) -> bytes:
        h = seeded.copy()
        h.update(word.encode("utf-8"))
        return h.digest()

    keys = np.frombuffer(b"".join(map(digest, words)), "<u8").reshape(len(words), 2)
    return np.clip(philox_uniforms(keys, config.n_mc)[..., :3], 1e-12, 1.0 - 1e-12)


def batch_gradient(
    state: ModelState, batch: Observations, us: np.ndarray, scale: float
) -> tuple[np.ndarray, dict[str, float]]:
    """Gradient of loss = -scale * sum over the batch of each word's ELBO
    (elbo_batch at the batch's uniforms us, which checks the batch against
    the heads).

    Returns (flat gradient in params order, per-term sums).  Raises
    NumericError if the gradient is non-finite.
    """
    elbo = elbo_batch(state, batch, us)
    grad = elbo.tape.backward() * (-scale)
    if not np.isfinite(grad).all():
        raise NumericError(f"non-finite gradient in batch starting at word {batch[0].word!r}")
    recon_sum = float(elbo.recon.sum())
    kl_sum = float(elbo.kl.sum())
    stats = {
        "elbo_sum": recon_sum - kl_sum,
        "recon_sum": recon_sum,
        "kl_sum": kl_sum,
    }
    return grad, stats


@dataclass(eq=False)
class TrainResult:
    state: ModelState
    adam: AdamState
    log: list[dict]
    epochs_run: int


def write_training_log(path: str | Path, rows: list[dict]) -> None:
    columns = ("epoch", "mean_elbo", "recon_term", "kl_term", "wall_time_s")
    row = ",".join(["%s", *[FLOAT_FORMAT] * 3, "%.3f"])
    write_lines(path, [",".join(columns), *(row % tuple(map(r.__getitem__, columns)) for r in rows)])


def train(
    vocab: CombinedVocabulary,
    observations: Observations,
    config: TrainConfig,
    *,
    init_state: ModelState | None = None,
    init_adam: AdamState | None = None,
    start_epoch: int = 0,
    checkpoint_path: str | Path | None = None,
    log_path: str | Path | None = None,
) -> TrainResult:
    """Run SVI for config.epochs epochs (resuming from start_epoch if given).

    Each epoch shuffles the words with a stream addressed by (seed, epoch),
    walks batches of batch_size, and applies one Adam update per batch on
    the loss -(|W|/|batch|) * sum of word ELBOs, written into the state's
    params in place (a given init_state is the state trained).  The
    per-epoch log reports the mean ELBO over the epoch's own evaluations.

    observations is an Observations (observations_from_views) whose every
    view the vocabulary holds under the same family.  Words are trained in
    sorted order, each batch an index array into them; train builds no
    per-word record.
    """
    if not observations:
        raise ConfigError("train needs at least one observation")
    for vid, (lexicon, _) in observations.views.items():
        if vocab.families.get(vid) != lexicon.family:
            raise ConfigError(f"observations have view {vid!r} as {lexicon.family.header()}, not in the vocabulary")
    obs, words = observations, observations.words
    if len(set(words)) != len(words):
        raise ConfigError("duplicate words in observations")
    if words != sorted(words):
        obs = obs[sorted(range(len(words)), key=words.__getitem__)]
        words = obs.words
    scales = {vid: view.lexicon.family for vid, view in obs.views.items()}
    if init_state is None:
        init_state = init_model(scales, config, stream_for(config.seed, "init"))
    for vid, family in scales.items():
        init_state.check_view(vid, family)
    state = init_state
    params = state.params
    adam = init_adam if init_adam is not None else AdamState.zeros(params.size)
    noise = frozen_noise(config, words)

    n = len(obs)
    rows: list[dict] = []
    for epoch in range(start_epoch, config.epochs):
        t0 = time.perf_counter()
        perm = stream_for(config.seed, "shuffle", epoch).permutation(n)
        elbo_acc = recon_acc = kl_acc = 0.0
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            batch = obs[idx]
            grad, stats = batch_gradient(state, batch, noise[idx], scale=n / len(batch))
            params[...] = adam_step(params, grad, adam, config)  # the heads view params
            elbo_acc += stats["elbo_sum"]
            recon_acc += stats["recon_sum"]
            kl_acc += stats["kl_sum"]
        if not np.isfinite(params).all():
            raise NumericError(f"non-finite parameters after epoch {epoch}")
        row = {
            "epoch": epoch,
            "mean_elbo": elbo_acc / n,
            "recon_term": recon_acc / n,
            "kl_term": kl_acc / n,
            "wall_time_s": time.perf_counter() - t0,
        }
        rows.append(row)
        log.info(
            "epoch %d: mean elbo %.4f (recon %.4f, kl %.4f)",
            epoch, row["mean_elbo"], row["recon_term"], row["kl_term"],
        )

    if checkpoint_path is not None:
        save_checkpoint(
            checkpoint_path,
            state,
            config_hash=config_hash(config),
            extra=training_extra(adam, config.epochs, config.seed),
        )
    if log_path is not None:
        write_training_log(log_path, rows)
    return TrainResult(state=state, adam=adam, log=rows, epochs_run=config.epochs - start_epoch)


def training_extra(adam: AdamState, epoch: int, seed: int) -> dict:
    """Optimizer state as checkpoint metadata, enough to resume exactly."""
    return {
        "adam_m": adam.m.tolist(),
        "adam_v": adam.v.tolist(),
        "adam_step": adam.step,
        "epoch": epoch,
        "noise": NOISE_SCHEME,
        "seed": seed,
    }


def adam_from_extra(extra: dict) -> tuple[AdamState, int]:
    """Rebuild (AdamState, next epoch) from checkpoint metadata written under
    this NOISE_SCHEME; resuming under other noise would not continue the run.
    adam_m and adam_v must be lists of JSON numbers of one length, adam_step
    and epoch JSON integers; anything else is a ConfigError."""
    if extra.get("noise") != NOISE_SCHEME:
        raise ConfigError(
            f"checkpoint was trained with noise scheme {extra.get('noise')!r}, not {NOISE_SCHEME!r}; "
            "cannot resume"
        )
    try:
        m, v, step, epoch = [extra[key] for key in ("adam_m", "adam_v", "adam_step", "epoch")]
    except KeyError as e:
        raise ConfigError(f"checkpoint lacks optimizer state ({e}); cannot resume") from e
    numbers = all(type(a) is list and all(type(x) in (int, float) for x in a) for a in (m, v))
    if not numbers or len(m) != len(v):  # a bool is neither a number nor an integer here
        raise ConfigError("checkpoint's adam_m and adam_v must be number lists of one length; cannot resume")
    for key, count in (("adam_step", step), ("epoch", epoch)):
        if type(count) is not int:
            raise ConfigError(f"checkpoint's {key} is not a JSON integer: {count!r}; cannot resume")
    try:
        return AdamState(m=np.array(m, dtype=float), v=np.array(v, dtype=float), step=step), epoch
    except OverflowError:  # an integer beyond the float range
        raise ConfigError("checkpoint's adam_m or adam_v holds a number beyond the float range") from None
