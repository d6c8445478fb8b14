import numpy as np
import pytest

from lexifuse.errors import ConfigError, ParseError
from lexifuse.lexica import (
    LexiconView,
    PolarityLabel,
    binary,
    build_vocabulary,
    pair_continuous,
    rater_histogram,
    signed_continuous,
)
from lexifuse.model import ModelBinding, encode_vars
from lexifuse.rng import stream_for
from lexifuse.tape import Tape
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
    """One view per scale family over overlapping slices of the words."""
    words = [f"word{i}" for i in range(n_words)]
    bview = LexiconView(
        "bin", binary(), {w: PolarityLabel(binary(), i % 2) for i, w in enumerate(words)}
    )
    sview = LexiconView(
        "sig",
        signed_continuous(),
        {w: PolarityLabel(signed_continuous(), (i - 2) / 4) for i, w in enumerate(words[:4])},
    )
    pview = LexiconView(
        "pair",
        pair_continuous(),
        {w: PolarityLabel(pair_continuous(), (i / 8, 0.5)) for i, w in enumerate(words[1:5])},
    )
    rview = LexiconView(
        "rater",
        rater_histogram(10, 9),
        {
            w: PolarityLabel(rater_histogram(10, 9), tuple((i + r) % 9 for r in range(10)))
            for i, w in enumerate(words[3:])
        },
    )
    views = [bview, sview, pview, rview]
    vocab = build_vocabulary(views)
    state = init_model(views, TrainConfig(hidden_dim=4, seed=seed), stream_for(seed, "init"))
    return views, vocab, state


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
        views, vocab, state = make_setup()
        entries = export_lexicon(state, views)
        assert len(entries) == len(vocab)
        assert [e.word for e in entries] == vocab.sorted_words()

    def test_matches_posterior(self):
        # oracle: each view's omega on the tape, summed in sorted view order
        views, vocab, state = make_setup()
        entries = {e.word: e for e in export_lexicon(state, views)}
        by_id = {v.id: v for v in views}
        for word in vocab.sorted_words():
            binding = ModelBinding(Tape(), state)
            beta = [1.0, 1.0, 1.0]
            for vid in vocab.membership[word]:
                omega = encode_vars(by_id[vid].entries[word], binding.heads[("enc", vid)])
                beta = [b + o.value for b, o in zip(beta, omega)]
            np.testing.assert_allclose(entries[word].beta, beta, rtol=1e-12)
            np.testing.assert_allclose(entries[word].mean, np.divide(beta, sum(beta)), rtol=1e-12)
            assert entries[word].n_views == len(vocab.membership[word])

    def test_skips_uncovered_views_with_warning(self, caplog):
        views, vocab, state = make_setup()
        full = {e.word: e for e in export_lexicon(state, views)}
        # "other" has no encoder: it alone covers zzz and also covers word0
        other = LexiconView(
            "other",
            binary(),
            {"zzz": PolarityLabel(binary(), 1), "word0": PolarityLabel(binary(), 0)},
        )
        with caplog.at_level("WARNING"):
            entries = export_lexicon(state, views + [other])
        assert [e.word for e in entries] == [w for w in vocab.sorted_words() if w != "word0"]
        assert all(e == full[e.word] for e in entries)
        assert "'zzz'" in caplog.text and "'word0'" in caplog.text
        assert "export skipped 2 of 7 words" in caplog.text

    def test_duplicate_view_ids_rejected(self):
        views, vocab, state = make_setup()
        with pytest.raises(ConfigError):
            export_lexicon(state, views + [views[0]])


class TestLookup:
    def test_casefold_and_absent(self):
        lex = UnifiedLexicon([entry_from_beta("peppy", (2.0, 1.5, 1.5), 2)])
        assert lex.lookup("peppy") is not None
        assert lex.lookup("Peppy") is lex.lookup("peppy")
        assert lex.lookup("absent") is None
        assert "PEPPY" in lex and "absent" not in lex


class TestSerialization:
    def test_roundtrip_byte_identical(self, tmp_path):
        views, vocab, state = make_setup()
        entries = export_lexicon(state, views)
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

    def test_repeated_word(self, tmp_path):
        p = tmp_path / "u.tsv"
        write_unified(p, [entry_from_beta("a", (2.0, 1.5, 1.5), 2)])
        q = tmp_path / "q.tsv"
        write_unified(q, [entry_from_beta("a", (1.5, 2.0, 1.5), 2)])
        p.write_text(p.read_text() + q.read_text().splitlines()[-1] + "\n")
        with pytest.raises(ParseError, match=r"u.tsv:4: word 'a' repeats line 3"):
            read_unified(p)
