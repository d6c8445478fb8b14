import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexifuse.errors import ConfigError, LexifuseError, ParseError
from lexifuse.evaluation import make_featurizer
from lexifuse.lexica import (
    LexiconView,
    binary,
    build_vocabulary,
    pair_continuous,
    rater_histogram,
    signed_continuous,
)
from lexifuse.rng import stream_for
from lexifuse.training import TrainConfig, init_model
from lexifuse.unified import (
    UnifiedLexicon,
    export_lexicon,
    read_unified,
    write_unified,
)
from reference import lexicon_from_betas
from row_lexica import label_of, membership, view_of
from row_unified import read_unified as row_read_unified
from scalar_model import ModelBinding, encode_vars
from scalar_tape import Tape


def make_setup(n_words=6, seed=0):
    """One view per scale family over overlapping slices of the words."""
    words = [f"word{i}" for i in range(n_words)]
    bview = view_of("bin", binary(), {w: i % 2 for i, w in enumerate(words)})
    sview = view_of("sig", signed_continuous(), {w: (i - 2) / 4 for i, w in enumerate(words[:4])})
    pview = view_of("pair", pair_continuous(), {w: (i / 8, 0.5) for i, w in enumerate(words[1:5])})
    rview = view_of(
        "rater",
        rater_histogram(10, 9),
        {w: tuple((i + r) % 9 for r in range(10)) for i, w in enumerate(words[3:])},
    )
    views = [bview, sview, pview, rview]
    vocab = build_vocabulary(views)
    state = init_model(views, TrainConfig(hidden_dim=4, seed=seed), stream_for(seed, "init"))
    return views, vocab, state


class TestUnifiedEntry:
    """The invariants every row must meet, checked by the lexicon constructor."""

    def test_from_beta_normalizes(self):
        lex = lexicon_from_betas([("w", (2.3, 1.5, 1.2), 2)])
        assert lex.mean[0].tolist() == pytest.approx((0.46, 0.30, 0.24))

    def test_component_floor(self):
        with pytest.raises(ConfigError):
            lexicon_from_betas([("w", (0.9, 2.0, 1.2), 1)])

    def test_view_count_consistency(self):
        with pytest.raises(ConfigError):
            lexicon_from_betas([("w", (2.0, 1.5, 1.5), 3)])

    def test_mean_consistency(self):
        with pytest.raises(ConfigError):
            UnifiedLexicon(["w"], [(2.0, 1.5, 1.5)], [(0.5, 0.25, 0.25)], [2])


class TestLexiconArrays:
    """Shapes, row order and repeated words of the array form."""

    @pytest.mark.parametrize("beta, mean, n_views", [
        ([(2.0, 1.5)], [(0.4, 0.3, 0.3)], [2]),
        ([(2.0, 1.5, 1.5)], [(0.4, 0.3, 0.3)], [[2]]),
        ([(2.0, 1.5, 1.5), (2.0, 1.5, 1.5)], [(0.4, 0.3, 0.3)], [2]),
    ])
    def test_shapes(self, beta, mean, n_views):
        with pytest.raises(ConfigError, match="shape"):
            UnifiedLexicon(["w"], beta, mean, n_views)

    def test_first_failing_row_named(self):
        rows = [("a", (2.0, 1.5, 1.5), 2), ("b", (2.0, 1.5, 1.5), 1), ("c", (0.5, 3.0, 2.5), 3)]
        with pytest.raises(ConfigError, match="n_views: word 'b'"):
            lexicon_from_betas(rows)

    def test_repeated_word(self):
        with pytest.raises(ConfigError, match="'A' repeats"):
            lexicon_from_betas([("a", (2.0, 1.5, 1.5), 2), ("A", (2.0, 1.5, 1.5), 2)])

    def test_rows_sorted_by_casefolded_word(self):
        lex = lexicon_from_betas(
            [("b", (2.0, 1.5, 1.5), 2), ("A", (1.5, 2.0, 1.5), 2), ("c", (3.0, 1.0, 1.0), 2)]
        )
        assert lex.words == ["A", "b", "c"]
        np.testing.assert_array_equal(lex.beta[:, 0], [1.5, 2.0, 3.0])


class TestExportLexicon:
    def test_one_entry_per_word(self):
        views, vocab, state = make_setup()
        lexicon = export_lexicon(state, views)
        assert len(lexicon) == len(vocab)
        assert lexicon.words == vocab.sorted_words()

    def test_matches_posterior(self):
        # oracle: each view's omega on the scalar tape, summed in sorted view order
        views, vocab, state = make_setup()
        entries = {e.word: e for e in export_lexicon(state, views).entries()}
        by_id = {v.id: v for v in views}
        members = membership(vocab)
        for word in vocab.sorted_words():
            binding = ModelBinding(Tape(), state)
            beta = [1.0, 1.0, 1.0]
            for vid in members[word]:
                label = label_of(by_id[vid].family, by_id[vid].entries[word])
                omega = encode_vars(label, binding.heads[("enc", vid)])
                beta = [b + o.value for b, o in zip(beta, omega)]
            np.testing.assert_allclose(entries[word].beta, beta, rtol=1e-12)
            np.testing.assert_allclose(entries[word].mean, np.divide(beta, sum(beta)), rtol=1e-12)
            assert entries[word].n_views == len(members[word])

    def test_skips_uncovered_views_with_warning(self, caplog):
        views, vocab, state = make_setup()
        full = {e.word: e for e in export_lexicon(state, views).entries()}
        # "other" has no encoder: it alone covers zzz and also covers word0
        other = view_of("other", binary(), {"zzz": 1, "word0": 0})
        with caplog.at_level("WARNING"):
            lexicon = export_lexicon(state, views + [other])
        assert lexicon.words == [w for w in vocab.sorted_words() if w != "word0"]
        assert all(e == full[e.word] for e in lexicon.entries())
        assert "'zzz'" in caplog.text and "'word0'" in caplog.text
        assert "export skipped 2 of 7 words" in caplog.text

    def test_headless_view_warns_once(self, caplog):
        views, vocab, state = make_setup()
        other = view_of("other", binary(), {f"zz{i:04d}": i % 2 for i in range(1000)})
        with caplog.at_level("WARNING"):
            lexicon = export_lexicon(state, views + [other])
        assert len(lexicon) == len(vocab)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        message = caplog.records[0].getMessage()
        assert message.startswith("export skipped 1000 of 1006 words: no head for views ['other']")
        assert message.endswith("first skipped 'zz0000', 'zz0001', 'zz0002', 'zz0003', 'zz0004'")

    def test_family_mismatch_refused(self):
        # a binary view read through the encoder of a signed head
        state = init_model({"v": signed_continuous()}, TrainConfig(hidden_dim=4), stream_for(0, "init"))
        view = LexiconView("v", binary(), ["good"], np.array([[1.0]]))
        with pytest.raises(ConfigError, match="view 'v' is #family=Binary, but the model has a #family=SignedContinuous head"):
            export_lexicon(state, [view])

    def test_duplicate_view_ids_rejected(self):
        views, vocab, state = make_setup()
        with pytest.raises(ConfigError):
            export_lexicon(state, views + [views[0]])


class TestLookup:
    def test_casefold_and_absent(self):
        lex = lexicon_from_betas([("peppy", (2.0, 1.5, 1.5), 2)])
        featurizer = make_featurizer("fused-beta", unified=lex)
        assert "peppy" in featurizer
        assert "Peppy" in featurizer and lex.words == ["peppy"]
        assert "absent" not in featurizer
        assert "PEPPY" in featurizer and "absent" not in featurizer


class TestSerialization:
    def test_roundtrip_byte_identical(self, tmp_path):
        views, vocab, state = make_setup()
        lexicon = export_lexicon(state, views)
        p1 = tmp_path / "a.tsv"
        p2 = tmp_path / "b.tsv"
        write_unified(p1, lexicon, seed=3, config_hash="deadbeef0123")
        lex = read_unified(p1)
        write_unified(p2, lex, seed=3, config_hash="deadbeef0123")
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_across_write_blocks(self, tmp_path):
        # more rows than one write block holds: every row once, in order
        gen = np.random.default_rng(0)
        n = 2 * 4096 + 3
        n_views = gen.integers(1, 7, size=n)
        beta = 1.0 + n_views[:, None] * gen.dirichlet((1.0, 1.0, 1.0), size=n)
        rows = [(f"w{i:05d}", tuple(beta[i]), int(n_views[i])) for i in range(n)]
        lexicon = lexicon_from_betas(rows)
        p = tmp_path / "u.tsv"
        write_unified(p, lexicon)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 + n
        assert lines[-1].startswith(f"w{n - 1:05d}\t")
        back = read_unified(p)
        assert back.words == lexicon.words
        np.testing.assert_allclose(back.beta, lexicon.beta, rtol=1e-11)
        np.testing.assert_array_equal(back.n_views, lexicon.n_views)

    def test_header_and_meta(self, tmp_path):
        p = tmp_path / "u.tsv"
        write_unified(p, lexicon_from_betas([("w", (2.0, 1.5, 1.5), 2)]), seed=7, config_hash="abc")
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
        es = lexicon_from_betas([(w, (2.0, 1.5, 1.5), 2) for w in ("zebra", "apple", "mango")])
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
        write_unified(p, lexicon_from_betas([("w", (2.0, 1.5, 1.5), 2)]))
        p.write_text(p.read_text() + "x\t1\t2\n")
        with pytest.raises(ParseError, match=":4"):
            read_unified(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "u.tsv"
        write_unified(p, lexicon_from_betas([("w", (2.0, 1.5, 1.5), 2)]))
        p.write_text(p.read_text().replace("\t2\n", "\tmany\n"))
        with pytest.raises(ParseError):
            read_unified(p)

    @pytest.mark.parametrize("n_views", [str(2**63), str(-2**63 - 1), "9" * 40])
    def test_n_views_beyond_int64_names_line(self, tmp_path, n_views):
        p = tmp_path / "u.tsv"
        write_unified(p, lexicon_from_betas([("a", (2.0, 1.5, 1.5), 2), ("w", (2.0, 1.5, 1.5), 2)]))
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\t" + n_views]) + "\n")
        with pytest.raises(ParseError, match=r"u.tsv:4: n_views .* is beyond int64"):
            read_unified(p)

    def test_repeated_word(self, tmp_path):
        p = tmp_path / "u.tsv"
        write_unified(p, lexicon_from_betas([("a", (2.0, 1.5, 1.5), 2)]))
        q = tmp_path / "q.tsv"
        write_unified(q, lexicon_from_betas([("a", (1.5, 2.0, 1.5), 2)]))
        p.write_text(p.read_text() + q.read_text().splitlines()[-1] + "\n")
        with pytest.raises(ParseError, match=r"u.tsv:4: word 'a' repeats line 3"):
            read_unified(p)

    @pytest.mark.parametrize("column", range(1, 7))
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value(self, tmp_path, column, value):
        p = tmp_path / "u.tsv"
        write_unified(p, lexicon_from_betas([("a", (2.0, 1.5, 1.5), 2), ("w", (2.0, 1.5, 1.5), 2)]))
        lines = p.read_text().splitlines()
        parts = lines[-1].split("\t")
        parts[column] = value
        p.write_text("\n".join(lines[:-1] + ["\t".join(parts)]) + "\n")
        with pytest.raises(ParseError, match=r"u.tsv:4: .*'w'"):
            read_unified(p)

    @pytest.mark.parametrize("row", ["w inf 1 1 nan 0 0 1", "w inf inf inf nan nan nan 1"])
    def test_infinite_beta_with_nan_mean(self, tmp_path, row):
        p = tmp_path / "u.tsv"
        write_unified(p, lexicon_from_betas([("a", (2.0, 1.5, 1.5), 2)]))
        p.write_text(p.read_text() + row.replace(" ", "\t") + "\n")
        with pytest.raises(ParseError, match=r"u.tsv:4: beta components must be finite"):
            read_unified(p)

    def test_first_bad_line_reported(self, tmp_path):
        p = tmp_path / "u.tsv"
        write_unified(p, lexicon_from_betas([("a", (2.0, 1.5, 1.5), 2)]))
        p.write_text(
            p.read_text() + "good\tinf\t1\t1\tnan\t0\t0\t1\nbad\t1\t1\t1\t0.3\t0.3\t0.3\t0\n"
        )
        with pytest.raises(ParseError, match=r"u.tsv:4: beta components must be finite"):
            read_unified(p)


class TestLineBoundaries:
    # Only "\n" ends a line, as in the line numbers read_input reports.
    def test_line_number_after_unicode_separator(self, tmp_path):
        p = tmp_path / "u.tsv"
        write_unified(p, lexicon_from_betas([("a", (2.0, 1.5, 1.5), 2)]), seed=7)
        p.write_text(p.read_text().replace("# seed: 7", "# seed: 7\u2028") + "bad\t1\t1\n",
                     encoding="utf-8")
        with pytest.raises(ParseError) as e:
            read_unified(p)
        assert e.value.line == 5  # title, seed, column header, a, bad

    def test_word_with_next_line_char_kept_whole(self, tmp_path):
        p = tmp_path / "u.tsv"
        write_unified(p, lexicon_from_betas([("x\u0085y", (2.0, 1.5, 1.5), 2), ("z", (3.0, 1.0, 1.0), 2)]))
        assert read_unified(p).words == ["x\u0085y", "z"]

    def test_crlf(self, tmp_path):
        p = tmp_path / "u.tsv"
        lexicon = lexicon_from_betas([("a", (2.0, 1.5, 1.5), 2), ("b", (3.0, 1.0, 1.0), 2)])
        write_unified(p, lexicon, seed=7)
        p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
        back = read_unified(p)
        assert back.words == ["a", "b"] and back.meta["seed"] == "7"
        np.testing.assert_allclose(back.beta, lexicon.beta, rtol=1e-11)


# ---------------------------------------------------------------------------
# The column reader against the line-by-line oracle

UNIFIED_WORDS = ["good", "Good", "bad", "Straße", "STRASSE", "ok", "x\u0085y", "ǅ", "ǆ", "ß", "", " a "]


@st.composite
def unified_files(draw):
    """The text of a unified lexicon file: mostly valid rows, with repeated
    words, short, long and empty fields, numbers that do not parse, n_views
    beyond int64, broken invariants, comments, blanks and CRLF line ends."""
    lines = ["# unified polarity lexicon (lexifuse 0.1.0)", "# seed: 3"]
    header = "\t".join(["word", "beta_pos", "beta_neg", "beta_neu", "mean_pos", "mean_neg", "mean_neu",
                        "n_views"])
    if draw(st.integers(0, 9)):
        lines.append(header)
    else:  # no header, or a header with a stray field or space
        lines.append(draw(st.sampled_from(["", header + "\textra", header + " ", header.upper()])))
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row"] * 10 + ["comment", "blank", "short", "long", "empty",
                                                   "number", "n_views", "invariant"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# config_hash: abc", "  # note: x", "#"])))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        n = draw(st.integers(1, 8))
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3)))
        beta = 1.0 + n * weights / weights.sum()
        cells = [draw(st.sampled_from(UNIFIED_WORDS)), *("%.12g" % x for x in beta),
                 *("%.12g" % x for x in beta / beta.sum()), str(n)]
        if kind == "short":
            cells = cells[: draw(st.integers(1, 7))]
        elif kind == "long":
            cells.append(draw(st.sampled_from(["", "1", "extra"])))
        elif kind == "empty":
            cells[draw(st.integers(1, 7))] = ""
        elif kind == "number":
            cells[draw(st.integers(1, 6))] = draw(
                st.sampled_from(["x", "1.2.3", "--1", "1_0", "\u0663", " 2 "]))
        elif kind == "n_views":
            cells[7] = draw(st.sampled_from([str(2**63), str(-2**63 - 1), "9" * 30, "1.0", "+2", "2_0"]))
        elif kind == "invariant":
            cells[draw(st.integers(1, 7))] = draw(st.sampled_from(["0.5", "nan", "inf", "0", "100"]))
        lines.append("\t".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def _read(read, path):
    """What a reader makes of a file: its arrays and meta, or its error."""
    try:
        lex = read(path)
    except LexifuseError as e:
        return ("error", type(e), str(e), getattr(e, "line", None))
    return ("ok", lex.words, lex.beta.tobytes(), lex.mean.tobytes(), lex.n_views.tolist(), lex.meta)


class TestReadUnifiedAgainstOracle:
    @given(st.one_of(unified_files(), st.text()))
    @settings(max_examples=300, deadline=None)
    def test_same_as_line_by_line(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("uni") / "u.tsv"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        assert _read(read_unified, path) == _read(row_read_unified, path)

    def test_one_bad_row_near_the_end_of_a_long_file(self, tmp_path):
        p = tmp_path / "u.tsv"
        rows = [(f"w{i:05d}", (1.0 + i % 7, 1.5, 1.5), 1 + i % 7) for i in range(20_000)]
        write_unified(p, lexicon_from_betas(rows), seed=1)
        lines = p.read_text().split("\n")
        lines[19_990] = lines[19_990].replace("\t1.5\t", "\tx\t", 1)
        p.write_text("\n".join(lines))
        got = _read(read_unified, p)
        assert got == _read(row_read_unified, p)
        assert got[1:] == (ParseError, f"{p}:19991: could not convert string to float: 'x'", 19_991)
