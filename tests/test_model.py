import copy
import json
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lexifuse import model
from lexifuse.errors import ConfigError, LexifuseError, NumericError
from lexifuse.evaluation import synth_generate
from lexifuse.lexica import (
    BINARY,
    PAIR_CONTINUOUS,
    SIGNED_CONTINUOUS,
    LexiconView,
    binary,
    build_vocabulary,
    pair_continuous,
    rater_histogram,
    signed_continuous,
)
from lexifuse.model import (
    EXPORT_BLOCK_ROWS,
    Head,
    ModelState,
    decode_vars,
    decoder_width,
    elbo_batch,
    emission_ll_var,
    emission_targets,
    encode_vars,
    encoder_input,
    export_blocks,
    load_checkpoint,
    posterior_params,
    save_checkpoint,
)
from lexifuse.rng import RngStream, stream_for
from lexifuse.tape import Tape
from lexifuse.training import TrainConfig, init_model
from reference import elbo_noise, elbo_word, encode, observations_of
from row_lexica import PolarityLabel, view_of

SMALL = TrainConfig(hidden_dim=4, seed=0)
ALL_SCALES = {
    "bin": binary(),
    "sig": signed_continuous(),
    "pair": pair_continuous(),
    "rater": rater_histogram(10, 9),
}


def small_state(scales=None, seed=0):
    scales = scales or ALL_SCALES
    cfg = TrainConfig(hidden_dim=4, seed=seed)
    return init_model(scales, cfg, stream_for(seed, "init"))


def example_label(scale):
    tag = scale.tag
    if tag == "Binary":
        return PolarityLabel(scale, 1)
    if tag == "SignedContinuous":
        return PolarityLabel(scale, 0.65)
    if tag == "PairContinuous":
        return PolarityLabel(scale, (0.75, 0.125))
    return PolarityLabel(scale, (4, 5, 3, 4, 6, 4, 4, 2, 4, 4))


def rows_of(*labels):
    """Labels of one family as the (n, width) values of a view."""
    return np.array([label.row for label in labels])


def encoder_row(label):
    """One label's encoder input, as a list."""
    return encoder_input(label.family, rows_of(label))[0].tolist()


def encode_words(state, vid, labels):
    """omega per label through the export path: beta - 1 of a view of view
    vid's head that holds one word per label, in label order."""
    view = view_of(vid, labels[0].family, {f"w{i:02d}": label for i, label in enumerate(labels)})
    return posterior_params([view], state, build_vocabulary([view])) - 1.0


def encode_one(label, state, vid):
    """omega for one label through the export path."""
    return encode_words(state, vid, [label])[0]


def decode_rho(state, vid, z):
    """rho (1, width) from view vid's decoder at z."""
    return decode_vars(np.array([z], dtype=float), np.array([0]), state.decoders[vid], state.scales[vid])[0]


def decode_values(state, vid, z):
    return tuple(decode_rho(state, vid, z)[0])


def label_ll(label, rho):
    """log P_d(x_d | rho) of one label, from rho (1, width): (1,)."""
    return emission_ll_var(label.family, emission_targets(label.family, rows_of(label)), rho)[0]


def emission_ll(label, rho):
    """log P_d(x_d | rho) at one rho."""
    return label_ll(label, np.array([rho], dtype=float))[0]


class TestDecoderWidth:
    def test_scale_mapping(self):
        assert decoder_width(binary()) == 1
        assert decoder_width(signed_continuous()) == 2
        assert decoder_width(pair_continuous()) == 2
        assert decoder_width(rater_histogram(10, 9)) == 9
        assert decoder_width(rater_histogram(3, 5)) == 5


class TestEncoderInput:
    def test_dims(self):
        assert encoder_row(PolarityLabel(binary(), 0)) == [0.0]
        assert encoder_row(PolarityLabel(signed_continuous(), -0.5)) == [-0.5]
        assert encoder_row(PolarityLabel(pair_continuous(), (0.25, 1.0))) == [0.25, 1.0]

    def test_rater_rescaled_to_unit(self):
        x = encoder_row(PolarityLabel(rater_histogram(10, 9), (0, 8, 4, 4, 4, 4, 4, 4, 4, 4)))
        assert len(x) == 10
        assert x[0] == 0.0 and x[1] == 1.0 and x[2] == 0.5


class TestEncode:
    def test_on_simplex(self):
        state = small_state()
        for vid, scale in ALL_SCALES.items():
            omega = encode_one(example_label(scale), state, vid)
            assert abs(sum(omega) - 1.0) < 1e-9
            assert all(w > 0 for w in omega)

    def test_zero_weights_uniform(self):
        cfg = TrainConfig(hidden_dim=4, weight_init_scale=0.0)
        state = init_model({"sig": signed_continuous()}, cfg, stream_for(0, "init"))
        omega = encode_one(PolarityLabel(signed_continuous(), 0.65), state, "sig")
        assert omega == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_dim_mismatch(self):
        state = small_state()
        # a pair view on a signed head is refused by the view check, before
        # any affine layer sees rows of the wrong width
        pair_on_signed = "view 'sig' is #family=PairContinuous, but the model has a #family=SignedContinuous head"
        with pytest.raises(ConfigError, match=pair_on_signed):
            encode_one(example_label(pair_continuous()), state, "sig")
        # a decoder takes 3 inputs but does not put out 3 logits; the state
        # refuses it as an encoder once, up front
        with pytest.raises(ConfigError):
            ModelState(
                scales={"sig": signed_continuous()},
                encoders={"sig": state.decoders["sig"]},
                decoders={"sig": state.decoders["sig"]},
            )

    def test_rows_independent(self):
        state = small_state()
        labels = [PolarityLabel(signed_continuous(), v) for v in (-1.0, -0.25, 0.0, 0.65, 1.0)]
        omegas = encode_words(state, "sig", labels)
        assert omegas.shape == (5, 3)
        for label, omega in zip(labels, omegas):
            np.testing.assert_allclose(omega, encode_one(label, state, "sig"), rtol=1e-15)

    def test_golden_seed0(self):
        # Pinned output of the seed-0 default-config encoder on label 0.65;
        # guards against silent changes to init or forward order.
        state = init_model({"sig": signed_continuous()}, TrainConfig(seed=0), stream_for(0, "init"))
        omega = encode_one(PolarityLabel(signed_continuous(), 0.65), state, "sig")
        golden = (0.33308868645984724, 0.33414938163772556, 0.3327619319024272)
        np.testing.assert_allclose(omega, golden, rtol=0, atol=1e-15)


class TestPosteriorParams:
    @given(st.sets(st.sampled_from(sorted(ALL_SCALES)), min_size=1))
    def test_pseudocount_identity(self, vids):
        state = small_state()
        views = [view_of(vid, ALL_SCALES[vid], {"w": example_label(ALL_SCALES[vid])}) for vid in vids]
        vocab = build_vocabulary(views)
        (beta,) = posterior_params(views, state, vocab)
        assert vocab.words == ["w"]
        assert sum(beta) - 3.0 == pytest.approx(len(vids), abs=1e-9)
        assert sum(b - 1.0 for b in beta) == pytest.approx(len(vids), abs=1e-9)
        assert all(b > 1.0 for b in beta)
        assert sum(beta / beta.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_equals_numpy_forward_on_whole_views(self):
        # Thousands of rows per view in every family: BLAS may round a large
        # block differently from a one-row call, so compare whole views.
        data = synth_generate(5000, 2, 0.1, 1, 1, RngStream(11))
        scales = {v.id: v.family for v in data.views}
        state = init_model(scales, TrainConfig(seed=11), stream_for(11, "init"))
        vocab = build_vocabulary(data.views)
        want = np.ones((len(vocab), 3))
        for view in sorted(data.views, key=lambda v: v.id):
            assert len(view.words) > 1000
            want[vocab.rows[view.id]] += encode(state.encoders[view.id], encoder_input(view.family, view.values))
        assert len({v.family.tag for v in data.views}) == 4
        assert np.array_equal(posterior_params(data.views, state, vocab), want)

    def test_missing_encoder(self):
        state = small_state({"sig": signed_continuous()})
        view = view_of("other", binary(), {"w": example_label(binary())})
        with pytest.raises(ConfigError, match="view 'other' is #family=Binary, but the model has no head for it"):
            posterior_params([view], state, build_vocabulary([view]))

    def test_family_mismatch_refused(self):
        # a binary view has the width of a signed one, so only the family tells them apart
        state = small_state({"sig": signed_continuous()})
        view = view_of("sig", binary(), {"w": example_label(binary())})
        with pytest.raises(ConfigError, match="view 'sig' is #family=Binary, but the model has a #family=SignedContinuous head"):
            posterior_params([view], state, build_vocabulary([view]))


def random_view(vid, family, n, seed):
    """A view of n words with labels drawn uniformly from the family's domain."""
    gen = np.random.default_rng(seed)
    if family.tag == BINARY:
        values = gen.integers(0, 2, (n, 1))
    elif family.tag == SIGNED_CONTINUOUS:
        values = gen.uniform(-1.0, 1.0, (n, 1))
    elif family.tag == PAIR_CONTINUOUS:
        values = gen.uniform(0.0, 1.0, (n, 2))
    else:
        values = gen.integers(0, family.n_points, (n, family.n_raters))
    return LexiconView(vid, family, [f"w{i:06d}" for i in range(n)], values)


class TestExportBlocks:
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 8191, 8192, 12287, 12288, 20845, 40000])
    def test_equal_blocks_never_short(self, n):
        blocks = export_blocks(n)
        assert len(blocks) == max(1, n // EXPORT_BLOCK_ROWS)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]] and blocks[-1].stop == n
        sizes = [b.stop - b.start for b in blocks]
        assert max(sizes) - min(sizes) <= 1
        assert all(EXPORT_BLOCK_ROWS <= m < 2 * EXPORT_BLOCK_ROWS for m in sizes) or sizes == [n]

    def test_blocked_bit_equal_to_whole_view(self, monkeypatch):
        # views of 2 to 3 blocks in every family: each block's rows get the
        # bits that one call over the whole view gives them
        views = [random_view(vid, scale, n, seed) for seed, ((vid, scale), n)
                 in enumerate(zip(ALL_SCALES.items(), (8193, 9000, 12288, 13001)))]
        state = init_model(ALL_SCALES, TrainConfig(seed=3), stream_for(3, "init"))
        state.params *= 3.0  # a state whose omegas are far from uniform
        vocab = build_vocabulary(views)
        want = np.ones((len(vocab), 3))
        for view in sorted(views, key=lambda v: v.id):
            head = state.encoders[view.id]
            want[vocab.rows[view.id]] += encode_vars(encoder_input(view.family, view.values), head)[0]
        calls = []

        def counted(x, head):
            calls.append(len(x))
            return encode_vars(x, head)

        monkeypatch.setattr(model, "encode_vars", counted)
        got = posterior_params(views, state, vocab)
        assert len(calls) == sum(len(view) // EXPORT_BLOCK_ROWS for view in views) == 10
        assert sum(calls) == sum(map(len, views))
        assert all(EXPORT_BLOCK_ROWS <= m < 2 * EXPORT_BLOCK_ROWS for m in calls), calls
        assert np.array_equal(got, want)

    def test_peak_memory_is_a_few_blocks(self):
        # 40,000 rows of 10 ratings, hidden 32: one call over the whole view
        # held its input, pre-activation and tanh whole, 24.5 MB at its peak
        view = random_view("r", rater_histogram(10, 9), 40000, 0)
        vocab = build_vocabulary([view])
        state = init_model([view], TrainConfig(seed=1), stream_for(1, "init"))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            posterior_params([view], state, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 8e6, (peak - start) / 1e6


class TestDecode:
    def test_zero_weight_links(self):
        cfg = TrainConfig(hidden_dim=4, weight_init_scale=0.0)
        state = init_model(ALL_SCALES, cfg, stream_for(0, "init"))
        z = (0.5, 0.3, 0.2)
        pair = decode_values(state, "pair", z)
        assert pair == pytest.approx((0.5, 0.5))
        bern = decode_values(state, "bin", z)
        assert bern == pytest.approx((0.5,))
        gauss = decode_values(state, "sig", z)
        assert gauss[0] == pytest.approx(0.0)
        assert gauss[1] == pytest.approx(math.log(2.0) + 0.01)
        cat = decode_values(state, "rater", z)
        assert cat == pytest.approx((0.0,) * 9)

    def test_gaussian_variance_positive_everywhere(self):
        state = small_state()
        for z in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1 / 3, 1 / 3, 1 / 3)]:
            rho = decode_values(state, "sig", z)
            assert rho[1] >= 0.01

    def test_dim_mismatch(self):
        state = small_state()
        with pytest.raises(ConfigError):
            decode_rho(state, "sig", (0.5, 0.5))
        # a one-output Bernoulli decoder cannot serve a signed view, which
        # needs a mean and a variance; the state refuses it once, up front
        with pytest.raises(ConfigError):
            ModelState(
                scales={"bin": signed_continuous()},
                encoders={"bin": state.encoders["bin"]},
                decoders={"bin": state.decoders["bin"]},
            )


class TestEmissionLogLikelihood:
    def test_bernoulli(self):
        assert emission_ll(PolarityLabel(binary(), 1), (0.5,)) == pytest.approx(math.log(0.5))
        assert emission_ll(PolarityLabel(binary(), 0), (0.25,)) == pytest.approx(math.log(0.75))

    def test_pair_gaussian_at_mean(self):
        label = PolarityLabel(pair_continuous(), (0.5, 0.5))
        got = emission_ll(label, (0.5, 0.5))
        # two univariate normals with variance 0.01 evaluated at their mean
        want = 2 * float(scipy.stats.norm.logpdf(0.5, 0.5, math.sqrt(0.01)))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(-math.log(2 * math.pi * 0.01), rel=1e-12)

    def test_ten_categorical_uniform(self):
        label = PolarityLabel(rater_histogram(10, 9), (0, 1, 2, 3, 4, 5, 6, 7, 8, 0))
        got = emission_ll(label, (0.0,) * 9)
        assert got == pytest.approx(10 * math.log(1 / 9), rel=1e-12)

    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-0.9, max_value=0.9),
        st.floats(min_value=0.011, max_value=2.0),
    )
    def test_gaussian_matches_scipy(self, x, mean, var):
        got = emission_ll(PolarityLabel(signed_continuous(), x), (mean, var))
        want = float(scipy.stats.norm.logpdf(x, mean, math.sqrt(var)))
        assert got == pytest.approx(want, rel=1e-10)

    @given(st.sampled_from(sorted(ALL_SCALES)), st.floats(min_value=-40, max_value=40))
    @settings(max_examples=60)
    def test_finite_for_extreme_decoder_outputs(self, key, raw_scale):
        # push the decoder's raw outputs far out by scaling its last bias
        scale = ALL_SCALES[key]
        state = small_state()
        state.decoders[key].b2[...] = raw_scale
        rho = decode_rho(state, key, (1 / 3, 1 / 3, 1 / 3))
        ll = label_ll(example_label(scale), rho)
        assert math.isfinite(ll[0])


class TestTapeFloatParity:
    def test_encode_parity(self):
        state = small_state()
        for vid, scale in ALL_SCALES.items():
            label = example_label(scale)
            om_t, _ = encode_vars(encoder_input(scale, rows_of(label)), state.encoders[vid])
            om_f = encode(state.encoders[vid], encoder_input(scale, rows_of(label)))[0]
            np.testing.assert_array_equal(om_t[0], om_f)


def _word_labels(vids=("bin", "sig", "pair", "rater")):
    return {vid: example_label(ALL_SCALES[vid]) for vid in vids}


def _word_obs(vids=("bin", "sig", "pair", "rater"), prior=(2.0, 1.0, 1.0)):
    """The Observations of one word "w" with an example label in each view."""
    return observations_of({"w": _word_labels(vids)}, {"w": prior})


class TestElboWord:
    def test_decomposition_exact(self):
        state = small_state()
        we = elbo_word(_word_obs(), state, n_mc=2, rng=RngStream(1))
        assert we.total == we.recon[0] - we.kl[0]

    def test_reproducible(self):
        state = small_state()
        a = elbo_word(_word_obs(), state, 1, RngStream(5)).total
        b = elbo_word(_word_obs(), state, 1, RngStream(5)).total
        assert a == b

    def test_kl_zero_when_beta_matches_prior(self):
        # force omegas to (1/3,1/3,1/3) with zero weights; single view ->
        # beta = (4/3,4/3,4/3); prior must equal it for KL = 0, which the
        # prior type forbids (components >= 1 with at most one boosted), so
        # check KL against the closed form instead of zero.
        from lexifuse.distributions import dirichlet_kl

        cfg = TrainConfig(hidden_dim=4, weight_init_scale=0.0)
        state = init_model({"sig": signed_continuous()}, cfg, stream_for(0, "init"))
        we = elbo_word(_word_obs(("sig",), prior=np.ones(3)), state, 1, RngStream(2))
        want = dirichlet_kl((4 / 3, 4 / 3, 4 / 3), (1.0, 1.0, 1.0))
        assert we.kl[0] == pytest.approx(want, rel=1e-9)

    def test_bad_n_mc(self):
        with pytest.raises(ConfigError):
            elbo_word(_word_obs(), small_state(), 0, RngStream(0))

    def test_gradient_matches_fd_under_crn(self):
        state = small_state()
        obs = _word_obs()
        us = np.array([elbo_noise(RngStream(3), 2)])

        grad = elbo_batch(state, obs, us).tape.backward()

        base = state.params.copy()

        def value_at(vec):
            s2 = copy.deepcopy(state)
            s2.params[...] = vec
            return elbo_batch(s2, obs, us).total

        h = 1e-5
        rng = np.random.default_rng(0)
        idxs = rng.choice(base.size, size=60, replace=False)
        for i in idxs:
            up = base.copy()
            dn = base.copy()
            up[i] += h
            dn[i] -= h
            fd = (value_at(up) - value_at(dn)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-3, abs=1e-7)

    def test_mc_self_consistency_across_seeds(self):
        state = small_state()
        obs = _word_obs()

        def mc_mean(seed, k=400):
            rng = RngStream(seed)
            vals = np.array([elbo_word(obs, state, 1, rng).total for _ in range(k)])
            return vals.mean(), vals.std() / math.sqrt(k)

        m1, se1 = mc_mean(101)
        m2, se2 = mc_mean(202)
        assert abs(m1 - m2) < 3 * math.hypot(se1, se2)

    def test_encode_cache_changes_nothing(self):
        # Two words sharing a binary label, evaluated in one batch (one
        # encoder forward per view over both) and each in a batch of its own.
        state = small_state()
        noise = elbo_noise(RngStream(4), 1)
        both = observations_of({"w": _word_labels(("bin", "sig")), "w2": _word_labels(("bin",))},
                               {"w": (2.0, 1.0, 1.0), "w2": (1.0, 1.0, 1.0)})
        us = np.array([noise, noise])
        we = elbo_batch(state, both, us)
        grad = we.tape.backward()

        totals, grad_sum = [], 0.0
        for row in range(2):
            one = elbo_batch(state, both[[row]], us[[row]])
            totals.append(one.recon[0] - one.kl[0])
            grad_sum = grad_sum + one.tape.backward()
        assert (we.recon - we.kl).tolist() == totals
        np.testing.assert_allclose(grad, grad_sum, rtol=1e-12, atol=1e-15)

    def test_beta_non_finite_names_word(self):
        state = small_state()
        state.encoders["sig"].b2[0] = np.inf
        batch = observations_of({"w": _word_labels(("bin",)), "w2": _word_labels(("sig",))},
                                {"w": (2.0, 1.0, 1.0), "w2": (1.0, 1.0, 1.0)})
        us = np.array([elbo_noise(RngStream(4), 1), elbo_noise(RngStream(5), 1)])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match="'w2'"):
                elbo_batch(state, batch, us)
            # the typed error is all a user sees: numpy prints no warning first
            view = view_of("sig", signed_continuous(), {"w": 0.5})
            (beta,) = posterior_params([view], state, build_vocabulary([view]))
        assert np.isnan(beta).all()
        assert not seen, [str(w.message) for w in seen]

    def test_recon_non_finite_names_word(self):
        # a NaN decoder weight leaves beta finite; elbo_batch refuses the
        # word whose recon it makes NaN rather than returning it
        state = small_state()
        state.decoders["sig"].w1[0, 0] = np.nan
        batch = observations_of({"w": _word_labels(("bin",)), "w2": _word_labels(("sig",))},
                                {"w": (2.0, 1.0, 1.0), "w2": (1.0, 1.0, 1.0)})
        us = np.array([elbo_noise(RngStream(4), 1), elbo_noise(RngStream(5), 1)])
        with pytest.raises(NumericError, match=r"non-finite ELBO for word 'w2' \(views \['sig'\]\): recon=nan"):
            elbo_batch(state, batch, us)


def pack_order(encoders, decoders) -> np.ndarray:
    """Head arrays flattened by sorted view id, the encoder's w1, b1, w2, b2
    and then the decoder's."""
    return np.concatenate([a.ravel() for vid in sorted(encoders) for h in (encoders[vid], decoders[vid]) for a in h])


def checkpointed_state(tmp_path):
    save_checkpoint(tmp_path / "model.json", small_state(seed=3))
    return load_checkpoint(tmp_path / "model.json")[0]


class TestPackUnpack:
    """ModelState.params: the one parameter vector, which the heads view."""

    def test_roundtrip(self):
        state = small_state()
        vec = state.params
        heads = [*state.encoders.values(), *state.decoders.values()]
        assert vec.size == sum(h.w1.size + h.b1.size + h.w2.size + h.b2.size for h in heads)
        state2 = small_state(seed=9)
        state2.params[...] = vec
        for vid in state.view_ids():
            for h, h2 in ((state.encoders[vid], state2.encoders[vid]), (state.decoders[vid], state2.decoders[vid])):
                for a, a2 in zip(h, h2):
                    np.testing.assert_array_equal(a2, a)

    def test_params_in_pack_order(self):
        # heads given in reverse view order, as arrays of the caller's own
        src = small_state()
        enc = {vid: Head(*(a.copy() for a in src.encoders[vid])) for vid in reversed(src.view_ids())}
        dec = {vid: Head(*(a.copy() for a in src.decoders[vid])) for vid in reversed(src.view_ids())}
        given = [*enc.values(), *dec.values()]
        state = ModelState(src.scales, enc, dec)
        assert state.params.dtype == np.float64
        np.testing.assert_array_equal(state.params, pack_order(enc, dec))
        np.testing.assert_array_equal(state.params, src.params)
        # the caller's dicts keep their heads, and the state writes none of their arrays
        state.params[...] = 0.0
        assert all(h is g for h, g in zip([*enc.values(), *dec.values()], given, strict=True))
        np.testing.assert_array_equal(pack_order(enc, dec), src.params)

    @pytest.mark.parametrize("origin", ["init_model", "load_checkpoint"])
    def test_heads_view_params(self, tmp_path, origin):
        state = small_state() if origin == "init_model" else checkpointed_state(tmp_path)
        arrays = [a for h in [*state.encoders.values(), *state.decoders.values()] for a in h]
        assert len(arrays) == 4 * 2 * len(state.scales)
        assert all(np.shares_memory(a, state.params) for a in arrays)
        for i, a in enumerate(arrays):
            a.flat[-1] = 1000.0 + i  # a head write shows in params
        np.testing.assert_array_equal(state.params, pack_order(state.encoders, state.decoders))
        assert sorted(state.params[state.params >= 1000.0]) == [1000.0 + i for i in range(len(arrays))]
        state.params[...] = -np.arange(state.params.size)  # and a params write in the heads
        np.testing.assert_array_equal(pack_order(state.encoders, state.decoders), -np.arange(state.params.size))

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copy_owns_its_params(self, tmp_path, how):
        state = checkpointed_state(tmp_path)
        twin = copy.deepcopy(state) if how == "deepcopy" else pickle.loads(pickle.dumps(state))
        assert twin.scales == state.scales
        np.testing.assert_array_equal(twin.params, state.params)
        assert not np.shares_memory(twin.params, state.params)
        twin_arrays = [a for h in [*twin.encoders.values(), *twin.decoders.values()] for a in h]
        assert all(np.shares_memory(a, twin.params) for a in twin_arrays)
        before = state.params.copy()
        twin.params[...] = 0.0
        assert not any(a.any() for a in twin_arrays)
        np.testing.assert_array_equal(state.params, before)

    def test_backward_gradient_alignment(self):
        # a head's flat gradient lands at its slice of params: the first
        # view's encoder's first entry (w1[0, 0]) at flat index 0, and the
        # last view's decoder's last entry (b2[-1]) at the last index
        state = small_state()
        heads = state.heads()
        sizes = {key: sum(a.size for a in head) for key, head in heads.items()}
        assert sum(sizes.values()) == state.params.size
        vids = state.view_ids()

        def scaled_entry(key, index, c):
            g = np.zeros(sizes[key])
            g[index] = c
            return g

        def tape_of(encoders=(), decoded=()):
            """A one-word, one-sample tape of the given layers, the rest zero."""
            tape = Tape(sizes)
            tape.encoders.extend(encoders)
            tape.kl = np.zeros((1, 3))
            tape.samples.append((lambda g: np.zeros((1, 3)), list(decoded)))
            return tape

        first = (("enc", vids[0]), np.array([0]), lambda g: scaled_entry(("enc", vids[0]), 0, 2.0))
        grad = tape_of(encoders=[first]).backward()
        assert grad.shape == state.params.shape
        assert grad[0] == 2.0
        assert np.count_nonzero(grad) == 1
        last = (("dec", vids[-1]), lambda g: (np.zeros((1, 3)), scaled_entry(("dec", vids[-1]), -1, 3.0)),
                np.zeros((1, 1)))
        grad = tape_of(decoded=[last]).backward()
        assert grad[-1] == 3.0
        assert np.count_nonzero(grad) == 1
        flat = np.concatenate([a.ravel() for head in heads.values() for a in head])
        np.testing.assert_array_equal(flat, state.params)


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        state = small_state()
        p = tmp_path / "model.json"
        save_checkpoint(p, state, config_hash="abc", extra={"epoch": 3})
        loaded, meta = load_checkpoint(p)
        assert meta["config_hash"] == "abc"
        assert meta["extra"]["epoch"] == 3
        assert loaded.scales == state.scales
        np.testing.assert_array_equal(loaded.params, state.params)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_checkpoint(tmp_path / "nope.json")

    @pytest.mark.parametrize("meta, message", [
        ({"config_hash": "run-1"}, "'config_hash' is not lowercase hex digits: 'run-1'"),
        ({"extra": {"seed": True}}, "'extra.seed' is not a JSON integer: True"),
    ])
    def test_save_refuses_what_load_refuses(self, tmp_path, meta, message):
        # the loader's own error, raised before anything is written
        p = tmp_path / "model.json"
        with pytest.raises(ConfigError, match=re.escape(f"checkpoint {p}: {message}")):
            save_checkpoint(p, small_state(), **meta)
        assert list(tmp_path.iterdir()) == []

    def test_bad_version(self, tmp_path):
        state = small_state()
        p = tmp_path / "model.json"
        save_checkpoint(p, state)
        doc = p.read_text().replace('"format_version": 1', '"format_version": 99')
        p.write_text(doc)
        with pytest.raises(ConfigError):
            load_checkpoint(p)

    @pytest.mark.parametrize(
        "head,array,value",
        [("encoders", "b2", math.nan), ("decoders", "w1", math.inf), ("encoders", "w2", -math.inf)],
    )
    def test_non_finite_array_names_view_head_and_array(self, tmp_path, head, array, value):
        p = tmp_path / "model.json"
        save_checkpoint(p, small_state())
        doc = json.loads(p.read_text())
        flat = np.array(doc[head]["pair"][array])
        flat.flat[-1] = value
        doc[head]["pair"][array] = flat.tolist()
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=rf"view 'pair' {head[:-1]} {array} holds a non-finite value"):
            load_checkpoint(p)

    @pytest.mark.parametrize("head,key", [("encoders", "hidden_dim"), ("decoders", "input_dim")])
    def test_stored_dims_must_match_arrays(self, tmp_path, head, key):
        p = tmp_path / "model.json"
        save_checkpoint(p, small_state())
        doc = json.loads(p.read_text())
        doc[head]["pair"][key] += 1
        p.write_text(json.dumps(doc))
        stores = r"stores \(hidden_dim, input_dim, output_dim\)"
        with pytest.raises(ConfigError, match=rf"view 'pair' {head[:-1]} {stores}"):
            load_checkpoint(p)

    @pytest.mark.parametrize("key, message", [
        ("n_raters", "needs a positive n_raters"),
        ("n_points", "needs n_points >= 2"),
    ])
    def test_bool_count_refused(self, tmp_path, key, message):
        # True is an int to isinstance; a one-rater scale would load as n_raters=True
        p = tmp_path / "model.json"
        state = init_model({"r": rater_histogram(1, 9)}, TrainConfig(hidden_dim=4), stream_for(0, "init"))
        save_checkpoint(p, state)
        doc = json.loads(p.read_text())
        doc["scales"]["r"][key] = True
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"RaterHistogram {message}") as e:
            load_checkpoint(p)
        assert e.value.exit_code == 2


class Pairs(list):
    """A JSON object as a list of (key, value) pairs, so a key can repeat."""


class Raw(str):
    """JSON text written as it is."""


def pairs(node):
    if isinstance(node, dict):
        return Pairs((k, pairs(v)) for k, v in node.items())
    if isinstance(node, list):
        return [pairs(v) for v in node]
    return node


def dump(node) -> str:
    if isinstance(node, Raw):
        return node
    if isinstance(node, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(dump, node)) + "]"
    return json.dumps(node)


def slots(node):
    """Every (container, index) in a document of Pairs and lists."""
    for i, child in enumerate(node):
        yield node, i
        value = child[1] if isinstance(node, Pairs) else child
        if isinstance(value, list):
            yield from slots(value)


JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10**400), st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
)
JSON_VALUE = st.recursive(
    JSON_LEAF, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
FLOAT_ARRAY = st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5), max_size=5)
NESTING = st.builds(lambda n, closed: Raw("[" * n + "]" * (n if closed else 0)),
                    st.integers(1, 100_000), st.booleans())
NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.just(10**400),
                   st.sampled_from([Raw("1e400"), Raw("-Infinity"), Raw("NaN")]))
FUZZ_VALUE = st.one_of(NUMBER, JSON_VALUE, FLOAT_ARRAY, FLOAT_ARRAY.map(lambda rows: rows[:1]), NESTING)


class TestCheckpointFuzz:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_only_typed_errors_escape(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "model.json"
        save_checkpoint(path, small_state({"bin": binary(), "rater": rater_histogram(2, 3)}),
                        extra={"epoch": 1})
        doc = pairs(json.loads(path.read_text()))
        for _ in range(data.draw(st.integers(1, 3))):
            node, i = data.draw(st.sampled_from(list(slots(doc))))
            action = data.draw(st.sampled_from(["replace", "repeat", "delete"]))
            value = data.draw(FUZZ_VALUE)
            if action == "replace":
                node[i] = (node[i][0], value) if isinstance(node, Pairs) else value
            elif action == "repeat" and isinstance(node, Pairs):
                node.insert(i + data.draw(st.integers(0, 1)), (node[i][0], value))
            else:  # delete, or repeat inside a list
                del node[i]
        body = dump(doc).encode("utf-8")
        if data.draw(st.booleans()):
            cut = data.draw(st.integers(0, len(body)))
            body = body[:cut] + data.draw(st.binary(min_size=1, max_size=4)) + body[cut:]
        path.write_bytes(body)
        try:
            state, meta = load_checkpoint(path)
        except LexifuseError:
            return
        assert np.isfinite(state.params).all()
        assert isinstance(meta["extra"], dict)


class TestObservationAssembly:
    def test_state_key_mismatch_rejected(self):
        state = small_state()
        with pytest.raises(ConfigError):
            ModelState(
                scales=state.scales, encoders={}, decoders=state.decoders
            )

    @pytest.mark.parametrize("kind,name,shape", [("encoder", "b1", (5,)), ("decoder", "w2", (2, 5))])
    def test_state_refuses_disagreeing_head_shapes(self, kind, name, shape):
        state = small_state()  # hidden width 4
        heads = {"encoder": dict(state.encoders), "decoder": dict(state.decoders)}
        heads[kind]["sig"] = heads[kind]["sig"]._replace(**{name: np.zeros(shape)})
        with pytest.raises(ConfigError, match=f"view 'sig' .* needs {kind} shapes"):
            ModelState(scales=state.scales, encoders=heads["encoder"], decoders=heads["decoder"])
