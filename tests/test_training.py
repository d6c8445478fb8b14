import dataclasses
import gc
import json
import math
import re
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexifuse.errors import ConfigError, LexifuseError, NumericError, UsageError
from lexifuse.lexica import (
    binary,
    build_vocabulary,
    compute_prior,
    pair_continuous,
    rater_histogram,
    signed_continuous,
)
from lexifuse.model import (
    load_checkpoint,
    observations_from_views,
    posterior_params,
)
from lexifuse.rng import RngStream, stream_for
from lexifuse.tape import Tape
from lexifuse.training import (
    NOISE_SCHEME,
    AdamState,
    TrainConfig,
    adam_from_extra,
    adam_step,
    batch_gradient,
    config_hash,
    frozen_noise,
    init_model,
    load_train_config,
    train,
    training_extra,
)
from lexifuse.unified import export_lexicon
from row_lexica import view_of

ALL_SCALES = {
    "bin": binary(),
    "sig": signed_continuous(),
    "pair": pair_continuous(),
    "rater": rater_histogram(10, 9),
}


def make_views(n_words=10, seed=0, vids=("bin", "sig")):
    rng = RngStream(seed)
    words = [f"w{i:03d}" for i in range(n_words)]
    views = []
    for vid in vids:
        scale = ALL_SCALES[vid]
        entries = {}
        for w in words:
            if vid == "bin":
                entries[w] = int(rng.integers(0, 2))
            elif vid == "sig":
                entries[w] = rng.uniform(-1.0, 1.0)
            elif vid == "pair":
                entries[w] = (rng.uniform(0, 1), rng.uniform(0, 1))
            else:
                entries[w] = tuple(int(rng.integers(0, 9)) for _ in range(10))
        views.append(view_of(vid, scale, entries))
    return views


def make_corpus(n_words=10, seed=0, vids=("bin", "sig")):
    views = make_views(n_words, seed, vids)
    vocab = build_vocabulary(views)
    priors = {w: compute_prior(w, views, vocab) for w in vocab.sorted_words()}
    return vocab, observations_from_views(views, vocab, priors)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-2
        assert cfg.batch_size == 256
        assert cfg.hidden_dim == 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": -1e-3},
            {"batch_size": 0},
            {"epochs": 0},
            {"n_mc": 0},
            {"hidden_dim": 0},
            {"adam_beta1": 1.0},
            {"adam_beta2": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_load_file(self, tmp_path):
        p = tmp_path / "train.cfg"
        p.write_text(
            "# training setup\n"
            "learning_rate = 0.05   # step size\n"
            "epochs = 7\n"
            "\n"
            "seed=3\n"
        )
        cfg = load_train_config(p)
        assert cfg.learning_rate == 0.05
        assert cfg.epochs == 7
        assert cfg.seed == 3
        assert cfg.batch_size == 256

    def test_load_rejects_unknown_key(self, tmp_path):
        p = tmp_path / "train.cfg"
        p.write_text("momentum = 0.9\n")
        with pytest.raises(ConfigError, match="momentum"):
            load_train_config(p)

    def test_load_rejects_bad_value(self, tmp_path):
        p = tmp_path / "train.cfg"
        p.write_text("epochs = soon\n")
        with pytest.raises(ConfigError, match="epochs"):
            load_train_config(p)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_train_config(tmp_path / "absent.cfg")

    def test_load_line_boundaries(self, tmp_path):
        # only "\n" ends a line: a U+2028 inside a comment does not end it
        p = tmp_path / "train.cfg"
        p.write_text("# about\u2028epochs = 9\r\nseed = 2\r\nbogus\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"train.cfg:3: expected"):
            load_train_config(p)
        p.write_text("# about\u2028epochs = 9\nseed = 2\n", encoding="utf-8")
        cfg = load_train_config(p)
        assert (cfg.epochs, cfg.seed) == (50, 2)

    def test_load_rejects_repeated_key(self, tmp_path):
        p = tmp_path / "train.cfg"
        p.write_text("learning_rate = 0.1\nepochs = 2\nlearning_rate = 0.2\n")
        with pytest.raises(ConfigError, match=r"train.cfg:3: config key 'learning_rate' given twice, on lines 1 and 3"):
            load_train_config(p)

    def test_hash_stable_and_sensitive(self):
        a = config_hash(TrainConfig())
        assert a == config_hash(TrainConfig())
        assert a != config_hash(TrainConfig(seed=1))
        assert len(a) == 12


CONFIG_KEY = st.one_of(st.sampled_from([f.name for f in dataclasses.fields(TrainConfig)]), st.text(max_size=5))
CONFIG_VALUE = st.one_of(
    st.integers(-5, 10**30).map(str), st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "0x10", "1_000", "٣", ""]), st.text(max_size=6),
)
CONFIG_LINE = st.one_of(
    st.builds("{}{}={}{}".format, CONFIG_KEY, st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " "]),
              CONFIG_VALUE),
    st.just(""), st.text(max_size=8).map("#".__add__), st.text(max_size=8),
)


class TestLoadTrainConfigFuzz:
    @given(st.one_of(st.binary(), st.lists(CONFIG_LINE, max_size=12).map("\n".join),
                     st.lists(st.one_of(CONFIG_LINE, st.binary(max_size=4).map(lambda b: b.decode("latin-1"))),
                              max_size=12).map("\r\n".join)))
    @settings(max_examples=300, deadline=None)
    def test_only_typed_errors_escape(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("fuzz") / "train.cfg"
        path.write_bytes(body if isinstance(body, bytes) else body.encode("utf-8", "surrogatepass"))
        try:
            config = load_train_config(path)
        except LexifuseError:
            return
        assert isinstance(config, TrainConfig)


class TestAdam:
    def test_first_step_hand_value(self):
        cfg = TrainConfig(learning_rate=0.1)
        params = np.array([1.0, -2.0, 0.5])
        grads = np.array([0.3, -0.7, 0.0])
        st = AdamState.zeros(3)
        new = adam_step(params, grads, st, cfg)
        # after bias correction the first step is lr * g / (|g| + eps)
        want = params - cfg.learning_rate * grads / (np.abs(grads) + cfg.adam_eps)
        np.testing.assert_allclose(new, want, rtol=1e-12)
        assert st.step == 1

    def test_zero_gradient_leaves_params(self):
        cfg = TrainConfig()
        params = np.array([1.0, 2.0])
        new = adam_step(params, np.zeros(2), AdamState.zeros(2), cfg)
        np.testing.assert_array_equal(new, params)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            adam_step(np.zeros(3), np.zeros(2), AdamState.zeros(3), TrainConfig())

    def test_moments_accumulate(self):
        cfg = TrainConfig()
        st = AdamState.zeros(1)
        p = np.array([0.0])
        g = np.array([1.0])
        p = adam_step(p, g, st, cfg)
        np.testing.assert_allclose(st.m, [0.1])
        np.testing.assert_allclose(st.v, [0.001])
        p = adam_step(p, g, st, cfg)
        np.testing.assert_allclose(st.m, [0.19])
        assert st.step == 2


class TestInitModel:
    def test_head_dims_for_standard_views(self):
        scales = {
            "gi": binary(),
            "huliu": binary(),
            "mpqa": binary(),
            "sentic": signed_continuous(),
            "swn": pair_continuous(),
            "vader": rater_histogram(10, 9),
        }
        state = init_model(scales, TrainConfig(), stream_for(0, "init"))
        enc_in = {vid: h.w1.shape[1] for vid, h in state.encoders.items()}
        dec_out = {vid: h.w2.shape[0] for vid, h in state.decoders.items()}
        assert enc_in == {"gi": 1, "huliu": 1, "mpqa": 1, "sentic": 1, "swn": 2, "vader": 10}
        assert dec_out == {"gi": 1, "huliu": 1, "mpqa": 1, "sentic": 2, "swn": 2, "vader": 9}
        assert all(h.w2.shape[0] == 3 for h in state.encoders.values())
        assert all(h.w1.shape[1] == 3 for h in state.decoders.values())
        assert all(h.w1.shape[0] == 32 for h in state.encoders.values())

    def test_same_seed_identical(self):
        scales = {"a": binary(), "b": signed_continuous()}
        s1 = init_model(scales, TrainConfig(), stream_for(7, "init"))
        s2 = init_model(scales, TrainConfig(), stream_for(7, "init"))
        np.testing.assert_array_equal(s1.params, s2.params)
        s3 = init_model(scales, TrainConfig(), stream_for(8, "init"))
        assert not np.array_equal(s1.params, s3.params)

    def test_init_bounds(self):
        cfg = TrainConfig(weight_init_scale=0.1, hidden_dim=16)
        state = init_model({"sig": signed_continuous()}, cfg, stream_for(0, "init"))
        head = state.encoders["sig"]
        assert np.abs(head.w1).max() <= 0.1 / math.sqrt(1)
        assert np.abs(head.w2).max() <= 0.1 / math.sqrt(16)
        assert np.all(head.b1 == 0.0) and np.all(head.b2 == 0.0)

    def test_empty_views(self):
        with pytest.raises(ConfigError):
            init_model({}, TrainConfig(), stream_for(0, "init"))


class TestFrozenNoise:
    def test_deterministic_and_per_word(self):
        cfg = TrainConfig(n_mc=2, seed=5)
        n1 = frozen_noise(cfg, ["alpha", "beta"])
        n2 = frozen_noise(cfg, ["beta", "alpha"])
        np.testing.assert_array_equal(n1, n2[::-1])
        assert not np.array_equal(n1[0], n1[1])
        assert n1.shape == (2, 2, 3)

    @pytest.mark.parametrize("n_mc", [1, 3])
    def test_one_float64_array_row_per_word(self, n_mc):
        cfg = TrainConfig(n_mc=n_mc, seed=5)
        words = ["alpha", "beta", "gamma", ""]
        noise = frozen_noise(cfg, words)
        assert noise.dtype == np.float64 and noise.shape == (4, n_mc, 3)
        empty = frozen_noise(cfg, [])
        assert empty.dtype == np.float64 and empty.shape == (0, n_mc, 3)
        # row i depends on (seed, words[i]) alone: not on the other words or its position
        for i, w in enumerate(words):
            np.testing.assert_array_equal(frozen_noise(cfg, [w])[0], noise[i])
            np.testing.assert_array_equal(frozen_noise(cfg, ["delta", w, "alpha"])[1], noise[i])
        other = frozen_noise(TrainConfig(n_mc=n_mc, seed=6), words)
        assert not (other == noise).any()

    def test_crc32_colliding_words_differ(self):
        # the two words share a CRC-32, which once keyed each word's noise
        assert zlib.crc32(b"buckeroo") == zlib.crc32(b"plumless")
        a, b = frozen_noise(TrainConfig(seed=1, n_mc=3), ["buckeroo", "plumless"])
        assert not (a == b).any()


class TestBatchGradient:
    def test_disjoint_batch_partition(self):
        # gradient of the full objective equals the batch-size-weighted mean
        # of per-batch scaled gradients
        vocab, obs = make_corpus(9, seed=1)
        cfg = TrainConfig(hidden_dim=4)
        state = init_model(
            {"bin": binary(), "sig": signed_continuous()}, cfg, stream_for(0, "init")
        )
        noise = frozen_noise(cfg, [o.word for o in obs])
        n = len(obs)
        full, _ = batch_gradient(state, obs, noise, scale=1.0)
        combined = np.zeros_like(full)
        for lo in range(0, n, 4):
            batch = obs[lo : lo + 4]
            g, _ = batch_gradient(state, batch, noise[lo : lo + 4], scale=n / len(batch))
            combined += (len(batch) / n) * g
        np.testing.assert_allclose(combined, full, rtol=1e-9, atol=1e-12)

    def test_nan_param_names_word(self):
        vocab, obs = make_corpus(3, seed=2)
        cfg = TrainConfig(hidden_dim=4)
        state = init_model(
            {"bin": binary(), "sig": signed_continuous()}, cfg, stream_for(0, "init")
        )
        state.encoders["bin"].w1[0, 0] = float("nan")
        noise = frozen_noise(cfg, [o.word for o in obs])
        with pytest.raises(NumericError, match="w000"):
            batch_gradient(state, obs, noise, scale=1.0)

    @pytest.mark.parametrize(
        "vid, label, family",
        [
            ("bin", [0.5], "Binary"),
            ("pair", [0.5], "PairContinuous"),
            ("pair", [0.1, 0.2, 0.3], "PairContinuous"),
        ],
    )
    def test_label_outside_view_refused(self, vid, label, family):
        # elbo_batch checks the labels it stacks, so a direct caller is guarded too
        vocab, obs = make_corpus(3, seed=8, vids=("bin", "pair"))
        cfg = TrainConfig(hidden_dim=4)
        state = init_model({"bin": binary(), "pair": pair_continuous()}, cfg, stream_for(0, "init"))
        obs[1].labels[vid] = np.array(label)
        noise = frozen_noise(cfg, [o.word for o in obs])
        message = f"view '{vid}' is #family={family}, but an observation's label is not one of its labels"
        with pytest.raises(ConfigError, match=re.escape(message)):
            batch_gradient(state, obs, noise, scale=1.0)

    @pytest.mark.parametrize(
        "rows",
        [lambda u: u[:-1], lambda u: np.concatenate([u, u[:1]]), lambda u: u[:, 0], lambda u: u[:, 0, 0],
         lambda u: u[:, :0]],
        ids=["one_row_short", "one_row_extra", "no_mc_axis", "one_per_word", "no_samples"],
    )
    def test_uniforms_not_matching_batch_refused(self, rows):
        # one ConfigError for every shape, with no numpy warning before it
        vocab, obs = make_corpus(5, seed=2)
        cfg = TrainConfig(hidden_dim=4, n_mc=2)
        state = init_model({"bin": binary(), "sig": signed_continuous()}, cfg, stream_for(0, "init"))
        noise = frozen_noise(cfg, [o.word for o in obs])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="one uniform per component"):
                batch_gradient(state, obs, rows(noise), scale=1.0)

    def test_no_tape_outlives_its_batch(self):
        # a VJP closes over arrays, never over nodes, so reference counting
        # alone frees a batch's tape: with the cycle collector off, no tape
        # made by the batch is left once batch_gradient returns
        vids = tuple(sorted(ALL_SCALES))
        vocab, obs = make_corpus(6, seed=3, vids=vids)
        cfg = TrainConfig(hidden_dim=4, n_mc=2)
        state = init_model({vid: ALL_SCALES[vid] for vid in vids}, cfg, stream_for(0, "init"))
        noise = frozen_noise(cfg, [o.word for o in obs])
        gc.collect()
        gc.disable()
        try:
            before = {id(o) for o in gc.get_objects() if isinstance(o, Tape)}
            batch_gradient(state, obs, noise, scale=1.0)
            left = [type(o).__name__ for o in gc.get_objects() if isinstance(o, Tape) and id(o) not in before]
        finally:
            gc.enable()
        assert left == []


class TestTrain:
    def test_zero_lr_keeps_params_and_objective(self):
        vocab, obs = make_corpus(6, seed=3)
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=4, hidden_dim=4)
        init = init_model(
            {"bin": binary(), "sig": signed_continuous()}, cfg, stream_for(cfg.seed, "init")
        )
        before = init.params.copy()
        result = train(vocab, obs, cfg)
        np.testing.assert_array_equal(result.state.params, before)
        elbos = [r["mean_elbo"] for r in result.log]
        for e in elbos[1:]:
            assert e == pytest.approx(elbos[0], rel=1e-12)

    def test_objective_improves(self):
        vocab, obs = make_corpus(12, seed=4, vids=("bin", "sig", "pair"))
        cfg = TrainConfig(learning_rate=0.02, epochs=10, batch_size=64, hidden_dim=4)
        result = train(vocab, obs, cfg)
        assert result.log[-1]["mean_elbo"] > result.log[0]["mean_elbo"]
        assert result.epochs_run == 10

    def test_same_seed_bitwise_reproducible(self):
        vocab, obs = make_corpus(8, seed=5)
        cfg = TrainConfig(epochs=3, batch_size=3, hidden_dim=4, seed=11)
        r1 = train(vocab, obs, cfg)
        r2 = train(vocab, obs, cfg)
        np.testing.assert_array_equal(r1.state.params, r2.state.params)
        assert [row["mean_elbo"] for row in r1.log] == [row["mean_elbo"] for row in r2.log]

    def test_resume_matches_uninterrupted(self, tmp_path):
        vocab, obs = make_corpus(8, seed=6)
        cfg4 = TrainConfig(epochs=4, batch_size=3, hidden_dim=4, seed=2)
        straight = train(vocab, obs, cfg4)

        cfg2 = dataclasses.replace(cfg4, epochs=2)
        ckpt = tmp_path / "mid.json"
        train(vocab, obs, cfg2, checkpoint_path=ckpt)
        state, meta = load_checkpoint(ckpt)
        adam, next_epoch = adam_from_extra(meta["extra"])
        assert next_epoch == 2
        resumed = train(
            vocab, obs, cfg4, init_state=state, init_adam=adam, start_epoch=next_epoch
        )
        np.testing.assert_array_equal(resumed.state.params, straight.state.params)
        assert resumed.epochs_run == 2

    def test_checkpoint_and_log_written(self, tmp_path):
        vocab, obs = make_corpus(4, seed=7)
        cfg = TrainConfig(epochs=2, batch_size=4, hidden_dim=4)
        ckpt = tmp_path / "model.json"
        logp = tmp_path / "train.csv"
        train(vocab, obs, cfg, checkpoint_path=ckpt, log_path=logp)
        state, meta = load_checkpoint(ckpt)
        assert meta["config_hash"] == config_hash(cfg)
        lines = logp.read_text().splitlines()
        assert lines[0] == "epoch,mean_elbo,recon_term,kl_term,wall_time_s"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert math.isfinite(float(first[1]))

    @pytest.mark.parametrize("scheme", [None, "pcg64,crc32"])
    def test_other_noise_scheme_not_resumed(self, tmp_path, scheme):
        # a checkpoint that records no noise scheme, or another one, was
        # trained on other noise: resuming it is refused, exporting it is not
        views = make_views(4, seed=7)
        vocab, obs = make_corpus(4, seed=7)
        ckpt = tmp_path / "model.json"
        train(vocab, obs, TrainConfig(epochs=1, hidden_dim=4), checkpoint_path=ckpt)
        doc = json.loads(ckpt.read_text(encoding="utf-8"))
        assert doc["extra"]["noise"] == NOISE_SCHEME
        doc["extra"]["noise"] = scheme
        if scheme is None:
            del doc["extra"]["noise"]
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
        state, meta = load_checkpoint(ckpt)
        with pytest.raises(ConfigError, match=f"noise scheme {scheme!r}, not {NOISE_SCHEME!r}; cannot resume"):
            adam_from_extra(meta["extra"])
        assert len(export_lexicon(state, views)) == 4

    LISTS = "adam_m and adam_v must be number lists of one length"

    @pytest.mark.parametrize("key, value, message", [
        ("adam_m", ["x"], LISTS),
        ("adam_v", [[0.0, 0.0]], LISTS),
        ("adam_m", [True, 0.0], LISTS),
        ("adam_v", "0.0", LISTS),
        ("adam_v", [0.0], LISTS),
        ("adam_m", [10 ** 400, 0.0], "beyond the float range"),
        ("adam_step", "a", "adam_step is not a JSON integer: 'a'"),
        ("adam_step", 1.5, "adam_step is not a JSON integer: 1.5"),
        ("adam_step", True, "adam_step is not a JSON integer: True"),
        ("epoch", 2.7, "epoch is not a JSON integer: 2.7"),
    ])
    def test_malformed_optimizer_state_refused(self, key, value, message):
        extra = training_extra(AdamState(m=np.zeros(2), v=np.ones(2), step=3), 2, 0)
        adam, epoch = adam_from_extra(extra)
        assert (adam.m.tolist(), adam.v.tolist(), adam.step, epoch) == ([0.0, 0.0], [1.0, 1.0], 3, 2)
        with pytest.raises(ConfigError, match=re.escape(message)):
            adam_from_extra(extra | {key: value})

    def test_duplicate_words_rejected(self):
        vocab, obs = make_corpus(3, seed=8)
        with pytest.raises(ConfigError):
            train(vocab, obs + [obs[0]], TrainConfig(epochs=1, hidden_dim=4))

    def test_scale_mismatch_with_init_state(self):
        # the initial state has a rater head where the observations carry
        # signed labels; train refuses before any word is evaluated
        vocab, obs = make_corpus(3, seed=8)
        cfg = TrainConfig(epochs=1, hidden_dim=4)
        init = init_model(
            {"bin": binary(), "sig": rater_histogram(10, 9)}, cfg, stream_for(cfg.seed, "init")
        )
        with pytest.raises(ConfigError, match="'sig'.*SignedContinuous.*RaterHistogram"):
            train(vocab, obs, cfg, init_state=init)
        del init.scales["sig"], init.encoders["sig"], init.decoders["sig"]
        with pytest.raises(ConfigError, match="'sig'"):
            train(vocab, obs, cfg, init_state=init)

    def test_head_refusal_matches_export(self):
        # train refuses a view that does not fit the initial state with the
        # message export's posterior_params gives for the same view and state
        views = make_views(3, seed=8)
        vocab, obs = make_corpus(3, seed=8)
        cfg = TrainConfig(epochs=1, hidden_dim=4)
        init = init_model(
            {"bin": binary(), "sig": rater_histogram(10, 9)}, cfg, stream_for(cfg.seed, "init")
        )
        with pytest.raises(ConfigError) as refused:
            export_lexicon(init, views)
        assert "'sig' is #family=SignedContinuous" in str(refused.value)
        with pytest.raises(ConfigError, match=re.escape(str(refused.value))):
            train(vocab, obs, cfg, init_state=init)
        # without a head, export skips the view's words; posterior_params refuses it
        del init.scales["sig"], init.encoders["sig"], init.decoders["sig"]
        with pytest.raises(ConfigError) as refused:
            posterior_params(views, init, vocab)
        assert "'sig' is #family=SignedContinuous, but the model has no head" in str(refused.value)
        with pytest.raises(ConfigError, match=re.escape(str(refused.value))):
            train(vocab, obs, cfg, init_state=init)

    def test_mixed_families_in_one_view(self):
        # a signed label (or a pair, or nan) where the binary view has 0 or 1
        for label in ([0.5], [0.0, 1.0], [np.nan]):
            vocab, obs = make_corpus(3, seed=8)
            obs[0].labels["bin"] = np.array(label)
            with pytest.raises(ConfigError, match="'bin'"):
                train(vocab, obs, TrainConfig(epochs=1, hidden_dim=4))

    def test_empty_observations_rejected(self):
        vocab, obs = make_corpus(2, seed=9)
        with pytest.raises(ConfigError):
            train(vocab, [], TrainConfig(epochs=1, hidden_dim=4))

    def test_resume_state_roundtrip_helpers(self):
        adam = AdamState(m=np.array([1.0, 2.0]), v=np.array([3.0, 4.0]), step=7)
        extra = training_extra(adam, epoch=5, seed=3)
        back, next_epoch = adam_from_extra(extra)
        np.testing.assert_array_equal(back.m, adam.m)
        np.testing.assert_array_equal(back.v, adam.v)
        assert back.step == 7 and next_epoch == 5
        with pytest.raises(ConfigError):
            adam_from_extra({"adam_m": [0.0]})
