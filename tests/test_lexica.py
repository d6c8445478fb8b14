import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexifuse.errors import ConfigError, DomainError, ParseError
from lexifuse.lexica import (
    COMPONENTS,
    DEFAULT_TAU,
    LexiconView,
    ScaleFamily,
    ViewSchema,
    binary,
    build_vocabulary,
    coarse_class,
    compute_prior,
    pair_continuous,
    parse_lexicon,
    parse_schema,
    rater_histogram,
    signed_continuous,
    write_lexicon,
)
from row_lexica import DirichletPrior, PolarityLabel, coarse_sentiment, membership, view_of
from row_lexica import compute_prior as row_prior
from row_lexica import parse_rows as row_parse

WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12)


def label_strategy(family: ScaleFamily):
    tag = family.tag
    if tag == "Binary":
        return st.integers(0, 1).map(lambda v: PolarityLabel(family, v))
    if tag == "SignedContinuous":
        return st.floats(min_value=-1.0, max_value=1.0).map(lambda v: PolarityLabel(family, v))
    if tag == "PairContinuous":
        unit = st.floats(min_value=0.0, max_value=1.0)
        return st.tuples(unit, unit).map(lambda v: PolarityLabel(family, v))
    return st.lists(
        st.integers(0, family.n_points - 1), min_size=family.n_raters, max_size=family.n_raters
    ).map(lambda v: PolarityLabel(family, tuple(v)))


ANY_FAMILY = st.sampled_from(
    [binary(), signed_continuous(), pair_continuous(), rater_histogram(10, 9), rater_histogram(3, 5)]
)


def coarse(family, value):
    """The coarse class of one label, the same from the columns as per row."""
    label = PolarityLabel(family, value)
    got = COMPONENTS[int(coarse_class(family, np.array([label.row]))[0])]
    assert got == coarse_sentiment(label)
    return got


class TestScaleFamily:
    def test_rater_requires_sizes(self):
        with pytest.raises(ConfigError):
            ScaleFamily("RaterHistogram")
        with pytest.raises(ConfigError):
            ScaleFamily("RaterHistogram", n_raters=0, n_points=9)

    def test_non_rater_rejects_sizes(self):
        with pytest.raises(ConfigError):
            ScaleFamily("Binary", n_raters=10)

    def test_unknown_tag(self):
        with pytest.raises(ConfigError):
            ScaleFamily("Ordinal")

    def test_n_points_at_least_two(self):
        with pytest.raises(ConfigError):
            ScaleFamily("RaterHistogram", n_raters=3, n_points=1)
        assert rater_histogram(3, 2).n_points == 2

    def test_width(self):
        assert binary().width == 1
        assert signed_continuous().width == 1
        assert pair_continuous().width == 2
        assert rater_histogram(10, 9).width == 10
        assert rater_histogram(3, 5).width == 3


def one_row(family, row):
    return LexiconView("v", family, ["w"], [row])


class TestPolarityLabel:
    # The oracle's per-row label and the view's whole-array check agree.
    def test_binary_domain(self):
        PolarityLabel(binary(), 1)
        one_row(binary(), [1.0])
        with pytest.raises(DomainError):
            PolarityLabel(binary(), 2)
        with pytest.raises(DomainError, match="Binary label must be 0 or 1"):
            one_row(binary(), [2.0])

    def test_signed_domain(self):
        PolarityLabel(signed_continuous(), 0.65)
        one_row(signed_continuous(), [0.65])
        with pytest.raises(DomainError):
            PolarityLabel(signed_continuous(), 1.5)
        for bad in (1.5, float("nan"), -float("inf")):
            with pytest.raises(DomainError, match="SignedContinuous label"):
                one_row(signed_continuous(), [bad])

    def test_pair_domain(self):
        PolarityLabel(pair_continuous(), (0.75, 0.0))
        one_row(pair_continuous(), [0.75, 0.0])
        with pytest.raises(DomainError):
            PolarityLabel(pair_continuous(), (1.2, 0.0))
        with pytest.raises(DomainError):
            PolarityLabel(pair_continuous(), (-0.1, 0.0))
        for bad in ([1.2, 0.0], [-0.1, 0.0], [0.5, float("nan")]):
            with pytest.raises(DomainError, match="PairContinuous label"):
                one_row(pair_continuous(), bad)

    def test_rater_domain(self):
        fam = rater_histogram(10, 9)
        PolarityLabel(fam, (4,) * 10)
        one_row(fam, [4.0] * 10)
        with pytest.raises(DomainError):
            PolarityLabel(fam, (9,) * 10)  # rating out of range
        with pytest.raises(DomainError):
            PolarityLabel(fam, (4,) * 9)  # wrong count
        with pytest.raises(DomainError, match="RaterHistogram label"):
            one_row(fam, [9.0] * 10)
        with pytest.raises(DomainError, match="RaterHistogram label"):
            one_row(fam, [4.5] + [4.0] * 9)  # not an integer
        with pytest.raises(ConfigError):
            one_row(fam, [4.0] * 9)  # wrong count


class TestLexiconView:
    def test_columns_checked(self):
        fam = signed_continuous()
        view = LexiconView("v", fam, ["a", "b"], [[0.5], [-0.5]])
        assert len(view) == 2 and view.values.shape == (2, 1)
        with pytest.raises(ValueError):
            view.values[0, 0] = 0.0  # read-only
        # rows in file order: sorted, a repeat keeps its last row, words case-folded
        unsorted = LexiconView("v", fam, ["b", "a"], [[0.5], [-0.5]])
        assert unsorted.words == ["a", "b"] and unsorted.values[:, 0].tolist() == [-0.5, 0.5]
        repeated = LexiconView("v", fam, ["a", "a"], [[0.5], [-0.5]])
        assert repeated.words == ["a"] and repeated.values[:, 0].tolist() == [-0.5]
        upper = LexiconView("v", fam, ["B", "A", "b"], [[0.5], [-0.5], [0.25]])
        assert upper.words == ["a", "b"] and upper.values[:, 0].tolist() == [-0.5, 0.25]
        with pytest.raises(ConfigError, match="shape"):
            LexiconView("v", fam, ["a", "b"], [[0.5]])
        assert len(LexiconView("v", pair_continuous(), [], [])) == 0

    def test_entries_map_words_to_rows(self):
        view = view_of("v", pair_continuous(), {"b": (0.5, 0.25), "a": (0.0, 1.0)})
        assert view.words == ["a", "b"]
        assert list(view.entries) == ["a", "b"]
        assert view.entries["b"].tolist() == [0.5, 0.25]


class TestParseLexicon:
    def test_signed_row(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=SignedContinuous\npeppy\t0.65\n")
        view = parse_lexicon(p)
        assert view.entries["peppy"].tolist() == [0.65]
        assert view.id == "lex"

    def test_binary_token_mapping(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("peppy\tpos\nawful\tneg\n")
        schema = parse_schema("binary,pos=pos,neg=neg")
        view = parse_lexicon(p, schema)
        assert view.entries["peppy"].tolist() == [1.0]
        assert view.entries["awful"].tolist() == [0.0]

    def test_out_of_domain_is_domain_error(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=SignedContinuous\ngood\t1.5\n")
        with pytest.raises(DomainError) as exc:
            parse_lexicon(p)
        assert ":2:" in str(exc.value)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=SignedContinuous\ngood\t0.5\nbad-row-without-tab\n")
        with pytest.raises(ParseError) as exc:
            parse_lexicon(p)
        assert ":3:" in str(exc.value)

    def test_unparseable_label_names_line(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=SignedContinuous\ngood\tnotanumber\n")
        with pytest.raises(ParseError) as exc:
            parse_lexicon(p)
        assert ":2:" in str(exc.value)

    def test_out_of_domain_row_overridden_by_a_repeat_still_raises(self, tmp_path):
        # the later repeat of good would win, but the bad row raises first, at its own line
        p = tmp_path / "lex.tsv"
        p.write_text("#family=SignedContinuous\nbad\t-0.5\ngood\t1.5\nfine\t0.1\nGood\t0.5\n")
        with pytest.raises(DomainError) as exc:
            parse_lexicon(p)
        assert exc.value.line == 3 and "got 1.5" in str(exc.value)

    def test_duplicates_last_wins_with_warning(self, tmp_path, caplog):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=SignedContinuous\ngood\t0.5\ngood\t0.9\n")
        with caplog.at_level(logging.WARNING):
            view = parse_lexicon(p)
        assert view.entries["good"].tolist() == [0.9]
        assert "1 duplicate" in caplog.text

    def test_multiword_skipped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=SignedContinuous\nnot good\t-0.5\nfine\t0.2\n")
        with caplog.at_level(logging.WARNING):
            view = parse_lexicon(p)
        assert set(view.entries) == {"fine"}
        assert "multi-word" in caplog.text

    def test_sorted_file_with_duplicates_keeps_last_and_warns_in_order(self, tmp_path, caplog):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=SignedContinuous\nbad\t-0.5\ngood\t0.5\nGood\t0.9\nnot good\t-0.5\n")
        with caplog.at_level(logging.WARNING):
            view = parse_lexicon(p)
        assert view.words == ["bad", "good"] and view.values[:, 0].tolist() == [-0.5, 0.9]
        assert [r.getMessage().split(": ", 1)[1] for r in caplog.records] == [
            "1 duplicate words resolved last-wins", "1 multi-word entries skipped"]

    def test_case_folding(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=Binary\nPeppy\t1\n")
        view = parse_lexicon(p)
        assert "peppy" in view.entries

    def test_rater_labels(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=RaterHistogram,n_raters=3,n_points=5\nokay\t2,2,3\n")
        view = parse_lexicon(p)
        assert view.entries["okay"].tolist() == [2.0, 2.0, 3.0]
        assert view.family.n_raters == 3

    def test_pair_via_two_columns(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("good\t0.75\t0.0\n")
        view = parse_lexicon(p, parse_schema("pair,neg_col=2"))
        assert view.entries["good"].tolist() == [0.75, 0.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_lexicon(tmp_path / "absent.tsv")

    def test_no_schema_no_header(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("good\t0.5\n")
        with pytest.raises(ConfigError):
            parse_lexicon(p)

    @pytest.mark.parametrize(
        "options",
        [
            "n_raters=3,n_point=5",  # misspelt: must not fall back to 9 points
            "n_raters=3,n_points=1",
            "n_raters=3,n_raters=2",  # repeated: must not keep the last value
        ],
    )
    def test_bad_rater_header(self, tmp_path, options):
        p = tmp_path / "lex.tsv"
        p.write_text(f"#family=RaterHistogram,{options}\ngood\t0,0,0\n")
        with pytest.raises(ParseError) as e:
            parse_lexicon(p)
        assert e.value.line == 1

    def test_schema_header_conflict(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=Binary\ngood\t1\n")
        with pytest.raises(ConfigError):
            parse_lexicon(p, parse_schema("signed"))

    @given(family=ANY_FAMILY, data=st.data())
    @settings(max_examples=40)
    def test_roundtrip(self, family, data, tmp_path_factory):
        words = data.draw(st.lists(WORDS, min_size=1, max_size=20, unique=True))
        labels = data.draw(
            st.lists(label_strategy(family), min_size=len(words), max_size=len(words))
        )
        view = view_of("v", family, dict(zip(words, labels)))
        path = tmp_path_factory.mktemp("rt") / "lex.tsv"
        write_lexicon(view, path)
        again = parse_lexicon(path, ViewSchema(id="v"))
        assert (again.id, again.family, again.words) == (view.id, view.family, view.words)
        assert again.values.tobytes() == view.values.tobytes()


class TestParseSchema:
    def test_rater_options(self):
        s = parse_schema("rater,raters=3,points=5,id=myview")
        assert s.family == rater_histogram(3, 5)
        assert s.id == "myview"

    def test_auto(self):
        assert parse_schema("auto").family is None

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            parse_schema("ordinal")

    def test_unknown_option(self):
        with pytest.raises(ConfigError):
            parse_schema("binary,wat=1")

    @pytest.mark.parametrize("opt", ["word_col=-5", "value_col=-1", "neg_col=-2"])
    def test_negative_column(self, opt):
        with pytest.raises(ConfigError):
            parse_schema(f"pair,{opt}")

    @pytest.mark.parametrize("text, first, second", [
        ("signed,word_col=1", "word_col", "value_col"),
        ("pair,neg_col=1", "value_col", "neg_col"),
        ("pair,neg_col=0", "word_col", "neg_col"),
        ("binary,word_col=3,value_col=3", "word_col", "value_col"),
    ])
    def test_shared_column(self, text, first, second):
        # one column read as two fields parses into garbage without an error
        with pytest.raises(ConfigError, match=f"options {first} and {second} both name column"):
            parse_schema(text)

    @pytest.mark.parametrize("cols, first, second", [
        ({"word_col": 1}, "word_col", "value_col"),
        ({"neg_col": 1}, "value_col", "neg_col"),
        ({"word_col": 2, "value_col": 0, "neg_col": 2}, "word_col", "neg_col"),
    ])
    def test_view_schema_refuses_shared_column(self, cols, first, second):
        with pytest.raises(ConfigError, match=f"options {first} and {second} both name column"):
            ViewSchema(family=pair_continuous(), **cols)
        ViewSchema(family=pair_continuous(), word_col=2, value_col=0, neg_col=1)

    @pytest.mark.parametrize("text", ["binary,pos=good,pos=great", "rater,raters=3,raters=2"])
    def test_repeated_option(self, text):
        with pytest.raises(ConfigError, match="given twice"):
            parse_schema(text)

    @pytest.mark.parametrize("text, token", [("binary,pos=x,neg=x", "x"), ("auto,pos=Yes,neg=yES", "yes")])
    def test_shared_binary_token(self, text, token):
        with pytest.raises(ConfigError, match=f"pos and neg share the token '{token}'"):
            parse_schema(text)

    @pytest.mark.parametrize("text, option", [
        ("binary,points=1,raters=0", "raters"),
        ("signed,points=5", "points"),
        ("auto,raters=3", "raters"),
    ])
    def test_rater_option_outside_rater(self, text, option):
        with pytest.raises(ConfigError, match=rf"options \[.*'{option}'.*\] are unknown or do not apply"):
            parse_schema(text)

    @pytest.mark.parametrize("header, schema, option", [
        ("", "signed,pos=x", "pos"),
        ("", "pair,neg=x", "neg"),
        ("", "binary,neg_col=7", "neg_col"),
        ("#family=SignedContinuous\n", "auto,neg_col=2", "neg_col"),
        ("#family=PairContinuous\n", "auto,pos=x", "pos"),
    ])
    def test_option_outside_its_family(self, tmp_path, header, schema, option):
        p = tmp_path / "lex.tsv"
        p.write_text(f"{header}good\t1\n")
        with pytest.raises(ConfigError, match=f"option {option} applies only to"):
            parse_lexicon(p, parse_schema(schema))

    def test_auto_options_fitting_header(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=Binary\ngood\tyes\n")
        view = parse_lexicon(p, parse_schema("auto,pos=yes"))
        assert view.entries["good"].tolist() == [1.0]


class TestBuildVocabulary:
    def _view(self, vid, words):
        return view_of(vid, binary(), {w: 1 for w in words})

    def test_union_and_counts(self):
        vocab = build_vocabulary([self._view("A", ["x", "y"]), self._view("B", ["y", "z"])])
        members = membership(vocab)
        assert set(members) == {"x", "y", "z"}
        assert len(members["y"]) == 2
        assert len(members["x"]) == 1
        assert len(members["z"]) == 1
        assert members["y"] == ("A", "B")
        assert vocab.words == ["x", "y", "z"]
        assert vocab.rows["A"].tolist() == [0, 1] and vocab.rows["B"].tolist() == [1, 2]
        assert vocab.n_views.tolist() == [1, 2, 1]
        assert "y" in vocab.index and "w" not in vocab.index and len(vocab) == 3

    def test_single_view(self):
        vocab = build_vocabulary([self._view("A", ["x"])])
        assert len(membership(vocab)["x"]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            build_vocabulary([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            build_vocabulary([self._view("A", ["x"]), self._view("A", ["y"])])

    @given(st.permutations(["A", "B", "C"]))
    def test_order_invariant(self, order):
        views = {
            "A": self._view("A", ["x", "y"]),
            "B": self._view("B", ["y", "z"]),
            "C": self._view("C", ["q"]),
        }
        vocab = build_vocabulary([views[k] for k in order])
        base = build_vocabulary([views["A"], views["B"], views["C"]])
        assert vocab.words == base.words
        assert membership(vocab) == membership(base)


class TestCoarseSentiment:
    def test_binary(self):
        assert coarse(binary(), 1) == "positive"
        assert coarse(binary(), 0) == "negative"

    def test_signed(self):
        assert coarse(signed_continuous(), 0.65) == "positive"
        assert coarse(signed_continuous(), -0.3) == "negative"
        assert coarse(signed_continuous(), 0.02) == "neutral"

    def test_pair(self):
        assert coarse(pair_continuous(), (0.0, 0.0)) == "neutral"
        assert coarse(pair_continuous(), (0.75, 0.0)) == "positive"
        assert coarse(pair_continuous(), (0.1, 0.6)) == "negative"

    def test_rater_midpoint(self):
        fam = rater_histogram(10, 9)
        assert coarse(fam, (4,) * 10) == "neutral"
        assert coarse(fam, (8,) * 10) == "positive"
        assert coarse(fam, (0,) * 10) == "negative"

    def test_threshold_boundary(self):
        # the dead zone is closed: exactly DEFAULT_TAU is still neutral
        def signed(v):
            return coarse(signed_continuous(), float(v))

        assert signed(DEFAULT_TAU) == "neutral"
        assert signed(np.nextafter(DEFAULT_TAU, 1.0)) == "positive"
        assert signed(-DEFAULT_TAU) == "neutral"
        assert signed(np.nextafter(-DEFAULT_TAU, -1.0)) == "negative"

    @given(ANY_FAMILY.flatmap(label_strategy))
    def test_total_and_deterministic(self, label):
        c = coarse(label.family, label.value)
        assert c in COMPONENTS
        assert coarse(label.family, label.value) == c


class TestComputePrior:
    def _setup(self, labels_by_view):
        views = [view_of(vid, signed_continuous(), {"w": val}) for vid, val in labels_by_view.items()]
        vocab = build_vocabulary(views)
        return views, vocab

    def test_unanimous_positive(self):
        views, vocab = self._setup({"A": 0.9, "B": 0.5, "C": 0.3})
        prior = compute_prior("w", views, vocab)
        assert tuple(prior) == (4.0, 1.0, 1.0)

    def test_disagreement_gives_uniform(self):
        views, vocab = self._setup({"A": 0.9, "B": -0.5})
        assert tuple(compute_prior("w", views, vocab)) == (1.0, 1.0, 1.0)

    def test_single_neutral_view(self):
        views, vocab = self._setup({"A": 0.0})
        assert tuple(compute_prior("w", views, vocab)) == (1.0, 1.0, 2.0)

    def test_missing_word(self):
        views, vocab = self._setup({"A": 0.9})
        with pytest.raises(ConfigError):
            compute_prior("absent", views, vocab)

    @given(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=6),
    )
    def test_alpha_sum_identity(self, vals):
        labels = {f"v{i}": v for i, v in enumerate(vals)}
        views, vocab = self._setup(labels)
        prior = compute_prior("w", views, vocab)
        classes = {coarse_sentiment(PolarityLabel(signed_continuous(), v)) for v in vals}
        want = 3.0 + (len(vals) if len(classes) == 1 else 0.0)
        assert sum(prior) == want
        assert tuple(prior) == row_prior("w", views).alpha

    @given(family=ANY_FAMILY, data=st.data())
    @settings(max_examples=40)
    def test_table_matches_per_word_prior(self, family, data):
        pool = ["a", "b", "c", "d", "e"]
        views = []
        for vid in data.draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True)):
            words = data.draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
            labels = data.draw(st.lists(label_strategy(family), min_size=len(words), max_size=len(words)))
            views.append(view_of(vid, family, dict(zip(words, labels))))
        vocab = build_vocabulary(views)
        table = vocab.priors
        assert table.shape == (len(vocab), 3) and not table.flags.writeable
        for word, alpha in zip(vocab.words, table):
            assert tuple(alpha) == row_prior(word, views).alpha
            DirichletPrior(tuple(alpha))  # components >= 1, at most one above
            assert tuple(compute_prior(word, views, vocab)) == tuple(alpha)

    def test_views_must_be_the_vocabularys(self):
        views, vocab = self._setup({"A": 0.9, "B": 0.5})
        with pytest.raises(ConfigError, match="not the ones"):
            compute_prior("w", views[:1], vocab)
        other = view_of("B", signed_continuous(), {"w": 0.5, "x": 0.5})
        with pytest.raises(ConfigError, match="not the ones"):
            compute_prior("w", [views[0], other], vocab)


class TestDirichletPrior:
    def test_valid(self):
        DirichletPrior((4.0, 1.0, 1.0))
        DirichletPrior((1.0, 1.0, 1.0))

    def test_below_one_rejected(self):
        with pytest.raises(ConfigError):
            DirichletPrior((0.5, 1.0, 1.0))

    def test_two_boosted_rejected(self):
        with pytest.raises(ConfigError):
            DirichletPrior((2.0, 2.0, 1.0))


# ---------------------------------------------------------------------------
# The columnar parser against the row-by-row oracle


class _Counts(logging.Handler):
    """Collects the duplicate and skip counts parse_lexicon logs."""

    def __init__(self):
        super().__init__()
        self.counts = {"duplicate": 0, "multi-word": 0}

    def emit(self, record):
        n = record.args[1]
        for key in self.counts:
            if key in record.msg:
                self.counts[key] = n


def _parsed(parse, path, schema):
    """What a parser makes of a file: its columns and counts, or its error."""
    try:
        result = parse(path, schema)
    except (ConfigError, ParseError) as e:
        return ("error", type(e), str(e), getattr(e, "line", None))
    return ("ok", result)


def _columnar(path, schema):
    logger = logging.getLogger("lexifuse.lexica")
    handler = _Counts()
    logger.addHandler(handler)
    try:
        out = _parsed(parse_lexicon, path, schema)
    finally:
        logger.removeHandler(handler)
    if out[0] == "error":
        return out
    view = out[1]
    return ("ok", view.id, view.family, view.words, view.values.tolist(),
            handler.counts["duplicate"], handler.counts["multi-word"])


def _row_by_row(path, schema):
    out = _parsed(row_parse, path, schema)
    if out[0] == "error":
        return out
    rv = out[1]
    words = sorted(rv.entries)
    return ("ok", rv.id, rv.family, words, [rv.entries[w].row for w in words],
            rv.n_dupes, rv.n_skipped)


PARSE_FAMILIES = [binary(), signed_continuous(), pair_continuous(), rater_histogram(3, 5),
                  rater_histogram(2, 12)]
FILE_WORDS = ["good", "Good", "GOOD", "bad", "ok", "Straße", "STRASSE", "not good", "a b",
              "x\u0085y", "x y", " spaced ", "ǅ", "ß"]


def _number_token(draw, family):
    """A label token: mostly in the family's domain, sometimes out of it or
    malformed."""
    if family.tag == "PairContinuous" and draw(st.booleans()):
        # two numbers joined by a comma, each spelled in a way float() reads
        return ",".join(draw(st.sampled_from(
            [_number_token(draw, signed_continuous()), "1_0", "\u0663", "0.2_5", "\u0660.\u0665"]))
            for _ in range(2))
    if family.tag == "SignedContinuous" and draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(["1_0", "\u0663", "0.2_5", "-\u0660.\u0665", "1__0", "_1"]))
    kind = draw(st.sampled_from(["good"] * 6 + ["outside", "malformed"]))
    if family.tag == "Binary":
        return draw(st.sampled_from(
            ["0", "1", " 1 ", "yes", "No", "YES"] if kind == "good" else ["2", "-1", "x", "", "1.0"]))
    if family.tag == "RaterHistogram":
        n, p = family.n_raters, family.n_points
        count = n if kind == "good" else draw(st.sampled_from([n - 1, n, n + 1]))
        top = p - 1 if kind == "good" else p + 20
        ratings = [str(draw(st.integers(0, top))) for _ in range(count)]
        if kind == "malformed":
            ratings[draw(st.integers(0, count - 1))] = draw(st.sampled_from(
                ["x", "", "1.5", "٣", " 2", "1_0", "9" * 30, "-1", "+3"]))
        return ",".join(ratings)
    lo = -1.0 if family.tag == "SignedContinuous" else 0.0
    if kind == "good":
        x = draw(st.floats(lo, 1.0))
        return draw(st.sampled_from([repr(x), f"{x:.3f}", f" {x} "]))
    if kind == "outside":
        return draw(st.sampled_from(["1.5", "-2", "nan", "inf", "-inf", "1e400", "1_0"]))
    return draw(st.sampled_from(["x", "", "0.5.5", "--1", "0x1"]))


@st.composite
def lexicon_files(draw):
    """(file text, schema) for a random lexicon of one of the four families."""
    family = draw(st.sampled_from(PARSE_FAMILIES))
    tag = family.tag
    layout = draw(st.sampled_from(["plain", "swapped", "wide"]))
    word_col, value_col = {"plain": (0, 1), "swapped": (1, 0), "wide": (2, 0)}[layout]
    neg_col = None
    if tag == "PairContinuous" and draw(st.booleans()):
        neg_col = 3 if layout == "wide" else 2
    header = draw(st.booleans())
    options = []
    if not header:
        options.append({"Binary": "binary", "SignedContinuous": "signed", "PairContinuous": "pair",
                        "RaterHistogram": "rater"}[tag])
        if tag == "RaterHistogram":
            options += [f"raters={family.n_raters}", f"points={family.n_points}"]
    else:
        options.append("auto")
    if tag == "Binary" and draw(st.booleans()):
        options += ["pos=yes", "neg=no"]
    options += [f"word_col={word_col}", f"value_col={value_col}"]
    if neg_col is not None:
        options.append(f"neg_col={neg_col}")
    schema = parse_schema(",".join(options))

    lines = [family.header()] if header else []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 8 + ["comment", "blank", "short", "short+long", "padded"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  #indented", "#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t", " "])))
        else:
            cells = ["extra"] * (max(word_col, value_col, neg_col or 0) + 1)
            cells[word_col] = draw(st.sampled_from(FILE_WORDS + ["", " "]))
            token = _number_token(draw, family)
            if neg_col is not None:
                pos, _, neg = token.partition(",")
                cells[value_col], cells[neg_col] = pos, neg
            else:
                cells[value_col] = token
            if kind == "short":
                cells = cells[: draw(st.integers(1, len(cells) - 1))]
            if kind == "padded":
                # whitespace or a lone carriage return next to a tab
                pad = st.sampled_from(["", " ", "\u00a0", "\x1c", "\u2003", "\x0b", "\r", "\x85"])
                cells = [draw(pad) + cell + draw(pad) for cell in cells]
            lines.append("\t".join(cells))
            if kind == "short+long":
                # one field too few, then one too many: the file's tab count balances
                lines[-1:] = ["\t".join(cells[:-1]), "\t".join(cells + ["extra"])]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return text, schema


class TestParseAgainstOracle:
    @given(lexicon_files())
    @settings(max_examples=400, deadline=None)
    def test_same_as_row_by_row(self, tmp_path_factory, case):
        text, schema = case
        path = tmp_path_factory.mktemp("lex") / "lex.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert _columnar(path, schema) == _row_by_row(path, schema)

    @given(family=st.sampled_from(PARSE_FAMILIES), n=st.integers(0, 300), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_valid_files_same_columns(self, tmp_path_factory, family, n, data):
        # many valid rows: the whole-array paths, with no error to stop early
        words = data.draw(st.lists(WORDS, min_size=n, max_size=n))
        labels = data.draw(st.lists(label_strategy(family), min_size=n, max_size=n))
        values = [lab.value if isinstance(lab.value, tuple) else (lab.value,) for lab in labels]
        text = "".join(f"{w}\t{','.join(map(str, v))}\n" for w, v in zip(words, values))
        path = tmp_path_factory.mktemp("lex") / "lex.tsv"
        path.write_text(family.header() + "\n" + text, encoding="utf-8")
        got = _columnar(path, None)
        assert got[0] == "ok"
        assert got == _row_by_row(path, None)

    @pytest.mark.parametrize("text, line, message", [
        # the first failing row wins, whichever check it fails
        ("#family=SignedContinuous\na\t0.5\nb\t2.0\nc\tx\n", 3, "must be a float in [-1, 1], got 2.0"),
        ("#family=SignedContinuous\na\t0.5\nb\tx\nc\t2.0\n", 3, "unparseable label 'x'"),
        ("#family=SignedContinuous\na\t2.0\nb\n", 2, "got 2.0"),
        ("#family=SignedContinuous\na b\tx\nb\n", 3, "expected at least 2 tab-separated fields, got 1"),
        ("#family=SignedContinuous\n \t1\nb\tx\n", 2, "empty word"),
        ("#family=RaterHistogram,n_raters=3,n_points=5\na\t1,2,3\nb\t1,2\nc\tx,1,1\n", 3,
         "RaterHistogram label must be 3 integers in [0, 5), got (1, 2)"),
        ("#family=RaterHistogram,n_raters=3,n_points=5\na\t1,2,3\nb\t1,2," + "9" * 400 + "\n", 3,
         "got (1, 2, " + "9" * 400 + ")"),
        ("#family=PairContinuous\na\t0.5,0.5\nb\t0.5\nc\t2,2\n", 3,
         "pair label needs two comma-separated values, got '0.5'"),
        ("#family=PairContinuous\na\t0.5,0.5\nb\t0.5,1.5\n", 3,
         "PairContinuous label must be two floats in [0, 1], got (0.5, 1.5)"),
        ("#family=Binary\na\t1\nb\tmaybe\n", 3, "unrecognized binary label 'maybe'"),
    ])
    def test_first_bad_row(self, tmp_path, text, line, message):
        path = tmp_path / "lex.tsv"
        path.write_text(text, encoding="utf-8")
        got = _columnar(path, None)
        assert got == _row_by_row(path, None)
        assert got[3] == line and message in got[2]

    def test_one_bad_row_near_the_end_of_a_long_file(self, tmp_path):
        # the column checks fail on the whole file; the row scan finds the row
        rows = [f"w{i:05d}\t{(i % 200) / 100 - 1}" for i in range(20_000)]
        rows[19_990] = "w19990\t0.5.5"
        path = tmp_path / "lex.tsv"
        path.write_text("#family=SignedContinuous\n" + "\n".join(rows) + "\n", encoding="utf-8")
        got = _columnar(path, None)
        assert got == _row_by_row(path, None)
        assert got[1:] == (ParseError, f"{path}:19992: unparseable label '0.5.5'", 19_992)

    def test_non_ascii_digits(self, tmp_path):
        # int() reads any Unicode decimal digit; single ASCII digits take a
        # shortcut that must leave the others to int()
        path = tmp_path / "lex.tsv"
        path.write_text("#family=RaterHistogram,n_raters=3,n_points=5\na\t1,\u0663,2\nb\t0,0,0\n",
                        encoding="utf-8")
        got = _columnar(path, None)
        assert got == _row_by_row(path, None)
        assert got[4] == [[1.0, 3.0, 2.0], [0.0, 0.0, 0.0]]

    @given(st.one_of(st.text(), st.binary()), st.sampled_from(
        ["", "#family=Binary\n", "#family=SignedContinuous\n", "#family=PairContinuous\n",
         "#family=RaterHistogram,n_raters=2,n_points=4\n", "#family=RaterHistogram\n"]))
    @settings(max_examples=300, deadline=None)
    def test_only_typed_errors_escape(self, tmp_path_factory, body, header):
        path = tmp_path_factory.mktemp("fuzz") / "lex.tsv"
        path.write_bytes(header.encode() + (body if isinstance(body, bytes) else body.encode("utf-8", "surrogatepass")))
        for schema in (None, ViewSchema(family=binary(), word_col=1, value_col=0)):
            try:
                parse_lexicon(path, schema)
            except (ConfigError, ParseError):
                pass


class TestLineBoundaries:
    # Only "\n" ends a line, as in the line numbers read_input reports.
    def test_unicode_line_separator_keeps_line_numbers(self, tmp_path):
        p = tmp_path / "u3.tsv"
        p.write_text("#family=Binary\nw\t1\u2028\nx\t9\n", encoding="utf-8")
        with pytest.raises(DomainError) as e:
            parse_lexicon(p)
        assert e.value.line == 3 and f"{p}:3: unrecognized binary label '9'" == str(e.value)

    def test_word_with_next_line_char_is_skipped(self, tmp_path, caplog):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=Binary\nx\u0085y\t1\nz\t0\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            view = parse_lexicon(p)
        assert view.words == ["z"]
        assert "1 multi-word" in caplog.text

    def test_crlf(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_bytes(b"#family=Binary\r\nw\t1\r\nx\t0\r")
        assert parse_lexicon(p).words == ["w", "x"]
