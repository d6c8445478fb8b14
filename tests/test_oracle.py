"""The library's batched numerics against the scalar code they replaced.

The array-tape minibatch gradient is compared with the per-word ELBO on the
scalar tape (tests/scalar_model.py), the vectorized Gamma quantile and its
implicit derivative with the scalar ones (tests/scalar_special.py), and the
vectorized Philox frozen noise with numpy's own Philox generator.
Summation orders differ, so values agree to a tolerance, not bitwise,
except for the noise, which is the same draws.
"""

import numpy as np
import pytest
import scipy.special as sps

import scalar_model
import scalar_special
import scalar_tape
from lexifuse import special
from lexifuse.rng import stream_for
from lexifuse.special import gamma_quantile
from lexifuse.training import TrainConfig, batch_gradient, frozen_noise, init_model
from reference import philox_noise
from test_training import ALL_SCALES, make_corpus

VIEWS = ("bin", "pair", "rater", "sig")


def moved_state(n_mc, seed=0):
    """A small four-family model with its parameters moved off the init point."""
    cfg = TrainConfig(hidden_dim=6, n_mc=n_mc, seed=seed)
    state = init_model({v: ALL_SCALES[v] for v in VIEWS}, cfg, stream_for(seed, "init"))
    state.params += np.random.default_rng(seed).normal(0.0, 0.5, state.params.size)
    return cfg, state


@pytest.mark.parametrize("n_mc", [1, 3])
def test_batch_gradient_matches_scalar_tape(n_mc):
    # word i is seen by views VIEWS[: 1 + i % 4] only, so batch rows differ per view
    vocab, obs = make_corpus(40, seed=3, vids=VIEWS, covers=lambda i, k: k <= i % 4)
    assert [len(o.labels) for o in obs[:8]] == [1, 2, 3, 4] * 2
    cfg, state = moved_state(n_mc)
    words = obs.words
    noise = frozen_noise(cfg, words)
    grad, stats = batch_gradient(state, obs, noise, scale=3.0)
    want, want_stats = scalar_model.batch_gradient(state, obs, dict(zip(words, noise.tolist())), scale=3.0)
    for key in ("elbo_sum", "recon_sum", "kl_sum"):
        assert stats[key] == pytest.approx(want_stats[key], rel=1e-9)
    np.testing.assert_allclose(grad, want, rtol=1e-9, atol=1e-12)


def test_underflowing_softmax_gives_unit_shapes():
    # a binary encoder whose first logit is 800 above the others: exp of the
    # rest underflows to 0, so a word seen only by that view has beta
    # (2, 1, 1) exactly and two draws at shape exactly 1.0
    vocab, obs = make_corpus(12, seed=4, vids=VIEWS, covers=lambda i, k: VIEWS[k] == "bin" or i % 2 == 0)
    assert list(obs[1].labels) == ["bin"]
    cfg, state = moved_state(3, seed=1)
    state.encoders["bin"].w2[...] = 0.0
    state.encoders["bin"].b2[...] = (800.0, 0.0, 0.0)
    words = obs.words
    noise = frozen_noise(cfg, words)
    by_word = dict(zip(words, noise.tolist()))

    tape = scalar_tape.Tape()
    binding = scalar_model.ModelBinding(tape, state)
    beta = scalar_model.elbo_word_on(binding, obs[1], by_word[obs[1].word]).beta
    assert [b.value for b in beta] == [2.0, 1.0, 1.0]

    grad, stats = batch_gradient(state, obs, noise, scale=1.0)
    want, want_stats = scalar_model.batch_gradient(state, obs, by_word, scale=1.0)
    for key in ("elbo_sum", "recon_sum", "kl_sum"):
        assert stats[key] == pytest.approx(want_stats[key], rel=1e-9)
    np.testing.assert_allclose(grad, want, rtol=1e-9, atol=1e-12)


# Training shapes are 1 + sum of omegas over at most D views, uniforms lie in
# [1e-12, 1 - 1e-12]; the grid takes both ends of each.
SHAPES = [1.0, 1.0 + 1e-9, 1.2, 1.5, 2.0, 2.7, 3.999, 5.5, 9.0]
UNIFORMS = [1e-12, 1e-8, 1e-3, 0.05, 0.3, 0.5, 0.5 + 1e-12, 0.7, 0.95, 0.999, 1 - 1e-8, 1 - 1e-12]


def test_gamma_quantile_and_derivative_match_scalar():
    a, u = (g.ravel() for g in np.meshgrid(SHAPES, UNIFORMS))
    y, dy = gamma_quantile(a, u)
    want_y = np.array([scalar_special.gamma_quantile(s, v) for s, v in zip(a, u)])
    np.testing.assert_allclose(y, want_y, rtol=1e-12, atol=0)
    want_dy = []
    for s, v in zip(a, u):
        tape = scalar_tape.Tape()
        leaf = tape.leaf(s)
        want_dy.append(tape.backward(scalar_model.gamma_sample_var(leaf, v))[leaf.idx])
    np.testing.assert_allclose(dy, want_dy, rtol=1e-12, atol=0)
    # a 2-d batch equals one call per element exactly: every recurrence
    # decides per element, in blocks that do not depend on the others
    grid_y, grid_dy = gamma_quantile(a.reshape(len(UNIFORMS), -1), u.reshape(len(UNIFORMS), -1))
    alone = np.array([gamma_quantile(s, v) for s, v in zip(a, u)])
    np.testing.assert_array_equal(grid_y.ravel(), alone[:, 0])
    np.testing.assert_array_equal(grid_dy.ravel(), alone[:, 1])


def count_rounds(monkeypatch, shape, u):
    """(gammainc_p calls, gammainc_p_da calls) of one gamma_quantile call,
    counted at the module attributes the quantile calls them through."""
    calls = {"gammainc_p": 0, "gammainc_p_da": 0}
    for name in calls:
        inner = getattr(special, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(special, name, counted)
    gamma_quantile(shape, u)
    monkeypatch.undo()
    return calls["gammainc_p"], calls["gammainc_p_da"]


def test_gamma_quantile_rounds(monkeypatch):
    # Halley rounds from tail-corrected starts: P alone in round 1, (P, dP/da)
    # in rounds 2 and 3, and one more gammainc_p_da call for the elements at
    # shape 1, on the grid and on a training-sized batch
    a, u = np.meshgrid(SHAPES, UNIFORMS)
    p_calls, da_calls = count_rounds(monkeypatch, a, u)
    assert p_calls == 1 and 2 <= da_calls <= 3
    gen = np.random.default_rng(0)
    shape = 1.0 + 8.0 * gen.random((256, 3))
    shape[0] = 1.0
    u = np.clip(gen.random((256, 3)), 1e-12, 1.0 - 1e-12)
    p_calls, da_calls = count_rounds(monkeypatch, shape, u)
    assert p_calls == 1 and 2 <= da_calls <= 3


def test_scalar_quantile_upper_tail_matches_scipy():
    # the residual on Q keeps the upper tail as accurate as the lower one
    for a in SHAPES:
        for q in (1e-12, 1e-8, 1e-3):
            x = scalar_special.gamma_quantile(a, 1.0 - q)
            assert x == pytest.approx(float(sps.gammainccinv(a, 1.0 - (1.0 - q))), rel=1e-12)


@pytest.mark.parametrize("n_mc", [1, 3])
def test_frozen_noise_matches_philox_oracle(n_mc):
    cfg = TrainConfig(n_mc=n_mc, seed=7)
    words = [f"w{i}" for i in range(50)] + ["", "naïve", "buckeroo", "plumless"]
    noise = frozen_noise(cfg, words)
    want = np.array([philox_noise(cfg.seed, w, n_mc) for w in words])
    assert noise.dtype == np.float64
    np.testing.assert_array_equal(noise, want)
