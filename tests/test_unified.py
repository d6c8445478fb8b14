import numpy as np
import pytest

from lexifuse.errors import ConfigError, ParseError
from lexifuse.lexica import (
    DirichletPrior,
    LexiconView,
    PolarityLabel,
    binary,
    build_vocabulary,
    compute_prior,
    signed_continuous,
)
from lexifuse.model import observations_from_views, posterior_params
from lexifuse.rng import stream_for
from lexifuse.training import TrainConfig, init_model
from lexifuse.unified import (
    UnifiedEntry,
    UnifiedLexicon,
    export_lexicon,
    read_unified,
    write_unified,
)
from reference import entry_from_beta


def make_setup(n_words=6, seed=0):
    words = [f"word{i}" for i in range(n_words)]
    bview = LexiconView(
        "bin", binary(), {w: PolarityLabel(binary(), i % 2) for i, w in enumerate(words)}
    )
    sview = LexiconView(
        "sig",
        signed_continuous(),
        {w: PolarityLabel(signed_continuous(), (i - 2) / 4) for i, w in enumerate(words[:4])},
    )
    views = [bview, sview]
    vocab = build_vocabulary(views)
    priors = {w: compute_prior(w, views, vocab) for w in vocab.sorted_words()}
    obs = observations_from_views(views, vocab, priors)
    state = init_model(
        {"bin": binary(), "sig": signed_continuous()},
        TrainConfig(hidden_dim=4, seed=seed),
        stream_for(seed, "init"),
    )
    return views, vocab, obs, state


class TestUnifiedEntry:
    def test_from_beta_normalizes(self):
        e = entry_from_beta("w", (2.3, 1.5, 1.2), n_views=2)
        assert e.mean == pytest.approx((0.46, 0.30, 0.24))

    def test_component_floor(self):
        with pytest.raises(ConfigError):
            entry_from_beta("w", (0.9, 2.0, 1.2), n_views=1)

    def test_view_count_consistency(self):
        with pytest.raises(ConfigError):
            entry_from_beta("w", (2.0, 1.5, 1.5), n_views=3)

    def test_mean_consistency(self):
        with pytest.raises(ConfigError):
            UnifiedEntry("w", (2.0, 1.5, 1.5), (0.5, 0.25, 0.25), 2)


class TestExportLexicon:
    def test_one_entry_per_word(self):
        views, vocab, obs, state = make_setup()
        entries = export_lexicon(state, obs)
        assert len(entries) == len(vocab)
        assert [e.word for e in entries] == vocab.sorted_words()

    def test_matches_posterior(self):
        views, vocab, obs, state = make_setup()
        entries = {e.word: e for e in export_lexicon(state, obs)}
        for o in obs:
            post = posterior_params(o, state.encoders)
            np.testing.assert_allclose(entries[o.word].beta, post.beta, rtol=0)
            assert entries[o.word].n_views == len(o.labels)

    def test_skips_uncovered_views_with_warning(self, caplog):
        views, vocab, obs, state = make_setup()
        extra = observations_from_views(
            [
                LexiconView(
                    "other", binary(), {"zzz": PolarityLabel(binary(), 1)}
                )
            ],
            build_vocabulary(
                [LexiconView("other", binary(), {"zzz": PolarityLabel(binary(), 1)})]
            ),
            {"zzz": DirichletPrior((2.0, 1.0, 1.0))},
        )
        with caplog.at_level("WARNING"):
            entries = export_lexicon(state, obs + extra)
        assert len(entries) == len(obs)
        assert all(e.word != "zzz" for e in entries)
        assert "zzz" in caplog.text


class TestLookup:
    def test_casefold_and_absent(self):
        lex = UnifiedLexicon([entry_from_beta("peppy", (2.0, 1.5, 1.5), 2)])
        assert lex.lookup("peppy") is not None
        assert lex.lookup("Peppy") is lex.lookup("peppy")
        assert lex.lookup("absent") is None
        assert "PEPPY" in lex and "absent" not in lex


class TestSerialization:
    def test_roundtrip_byte_identical(self, tmp_path):
        views, vocab, obs, state = make_setup()
        entries = export_lexicon(state, obs)
        p1 = tmp_path / "a.tsv"
        p2 = tmp_path / "b.tsv"
        write_unified(p1, entries, seed=3, config_hash="deadbeef0123")
        lex = read_unified(p1)
        write_unified(p2, lex.entries(), seed=3, config_hash="deadbeef0123")
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_meta(self, tmp_path):
        p = tmp_path / "u.tsv"
        write_unified(p, [entry_from_beta("w", (2.0, 1.5, 1.5), 2)], seed=7, config_hash="abc")
        text = p.read_text()
        assert text.splitlines()[0].startswith("#")
        assert "seed: 7" in text
        assert "config_hash: abc" in text
        header = next(l for l in text.splitlines() if not l.startswith("#"))
        assert header.split("\t") == [
            "word", "beta_pos", "beta_neg", "beta_neu",
            "mean_pos", "mean_neg", "mean_neu", "n_views",
        ]
        lex = read_unified(p)
        assert lex.meta["seed"] == "7"
        assert lex.meta["config_hash"] == "abc"

    def test_sorted_rows(self, tmp_path):
        p = tmp_path / "u.tsv"
        es = [entry_from_beta(w, (2.0, 1.5, 1.5), 2) for w in ("zebra", "apple", "mango")]
        write_unified(p, es)
        rows = [l.split("\t")[0] for l in p.read_text().splitlines() if "\t" in l][1:]
        assert rows == ["apple", "mango", "zebra"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_unified(tmp_path / "nope.tsv")

    def test_bad_header(self, tmp_path):
        p = tmp_path / "u.tsv"
        p.write_text("word\tbeta\n")
        with pytest.raises(ParseError, match="u.tsv:1"):
            read_unified(p)

    def test_bad_row(self, tmp_path):
        p = tmp_path / "u.tsv"
        write_unified(p, [entry_from_beta("w", (2.0, 1.5, 1.5), 2)])
        p.write_text(p.read_text() + "x\t1\t2\n")
        with pytest.raises(ParseError, match=":4"):
            read_unified(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "u.tsv"
        write_unified(p, [entry_from_beta("w", (2.0, 1.5, 1.5), 2)])
        p.write_text(p.read_text().replace("\t2\n", "\tmany\n"))
        with pytest.raises(ParseError):
            read_unified(p)
