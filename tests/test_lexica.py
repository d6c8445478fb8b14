import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexifuse.errors import ConfigError, DomainError, ParseError
from lexifuse.lexica import (
    COMPONENTS,
    DEFAULT_TAU,
    CombinedVocabulary,
    DirichletPrior,
    LexiconView,
    PolarityLabel,
    ScaleFamily,
    ViewSchema,
    binary,
    build_vocabulary,
    coarse_sentiment,
    compute_prior,
    pair_continuous,
    parse_lexicon,
    parse_schema,
    rater_histogram,
    signed_continuous,
    write_lexicon,
)

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


class TestPolarityLabel:
    def test_binary_domain(self):
        PolarityLabel(binary(), 1)
        with pytest.raises(DomainError):
            PolarityLabel(binary(), 2)

    def test_signed_domain(self):
        PolarityLabel(signed_continuous(), 0.65)
        with pytest.raises(DomainError):
            PolarityLabel(signed_continuous(), 1.5)

    def test_pair_domain(self):
        PolarityLabel(pair_continuous(), (0.75, 0.0))
        with pytest.raises(DomainError):
            PolarityLabel(pair_continuous(), (1.2, 0.0))
        with pytest.raises(DomainError):
            PolarityLabel(pair_continuous(), (-0.1, 0.0))

    def test_rater_domain(self):
        fam = rater_histogram(10, 9)
        PolarityLabel(fam, (4,) * 10)
        with pytest.raises(DomainError):
            PolarityLabel(fam, (9,) * 10)  # rating out of range
        with pytest.raises(DomainError):
            PolarityLabel(fam, (4,) * 9)  # wrong count


class TestParseLexicon:
    def test_signed_row(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=SignedContinuous\npeppy\t0.65\n")
        view = parse_lexicon(p)
        assert view.entries["peppy"].value == 0.65
        assert view.id == "lex"

    def test_binary_token_mapping(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("peppy\tpos\nawful\tneg\n")
        schema = parse_schema("binary,pos=pos,neg=neg")
        view = parse_lexicon(p, schema)
        assert view.entries["peppy"].value == 1
        assert view.entries["awful"].value == 0

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

    def test_duplicates_last_wins_with_warning(self, tmp_path, caplog):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=SignedContinuous\ngood\t0.5\ngood\t0.9\n")
        with caplog.at_level(logging.WARNING):
            view = parse_lexicon(p)
        assert view.entries["good"].value == 0.9
        assert "1 duplicate" in caplog.text

    def test_multiword_skipped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=SignedContinuous\nnot good\t-0.5\nfine\t0.2\n")
        with caplog.at_level(logging.WARNING):
            view = parse_lexicon(p)
        assert set(view.entries) == {"fine"}
        assert "multi-word" in caplog.text

    def test_case_folding(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=Binary\nPeppy\t1\n")
        view = parse_lexicon(p)
        assert "peppy" in view.entries

    def test_rater_labels(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("#family=RaterHistogram,n_raters=3,n_points=5\nokay\t2,2,3\n")
        view = parse_lexicon(p)
        assert view.entries["okay"].value == (2, 2, 3)
        assert view.family.n_raters == 3

    def test_pair_via_two_columns(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("good\t0.75\t0.0\n")
        view = parse_lexicon(p, parse_schema("pair,neg_col=2"))
        assert view.entries["good"].value == (0.75, 0.0)

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
        view = LexiconView("v", family, dict(zip(words, labels)))
        path = tmp_path_factory.mktemp("rt") / "lex.tsv"
        write_lexicon(view, path)
        again = parse_lexicon(path, ViewSchema(id="v"))
        assert again == view


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
        assert view.entries["good"].value == 1


class TestBuildVocabulary:
    def _view(self, vid, words):
        fam = binary()
        return LexiconView(vid, fam, {w: PolarityLabel(fam, 1) for w in words})

    def test_union_and_counts(self):
        vocab = build_vocabulary([self._view("A", ["x", "y"]), self._view("B", ["y", "z"])])
        assert set(vocab.membership) == {"x", "y", "z"}
        assert len(vocab.membership["y"]) == 2
        assert len(vocab.membership["x"]) == 1
        assert len(vocab.membership["z"]) == 1
        assert vocab.membership["y"] == ("A", "B")

    def test_single_view(self):
        vocab = build_vocabulary([self._view("A", ["x"])])
        assert len(vocab.membership["x"]) == 1

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
        assert vocab == base


class TestCoarseSentiment:
    def test_binary(self):
        assert coarse_sentiment(PolarityLabel(binary(), 1)) == "positive"
        assert coarse_sentiment(PolarityLabel(binary(), 0)) == "negative"

    def test_signed(self):
        assert coarse_sentiment(PolarityLabel(signed_continuous(), 0.65)) == "positive"
        assert coarse_sentiment(PolarityLabel(signed_continuous(), -0.3)) == "negative"
        assert coarse_sentiment(PolarityLabel(signed_continuous(), 0.02)) == "neutral"

    def test_pair(self):
        assert coarse_sentiment(PolarityLabel(pair_continuous(), (0.0, 0.0))) == "neutral"
        assert coarse_sentiment(PolarityLabel(pair_continuous(), (0.75, 0.0))) == "positive"
        assert coarse_sentiment(PolarityLabel(pair_continuous(), (0.1, 0.6))) == "negative"

    def test_rater_midpoint(self):
        fam = rater_histogram(10, 9)
        assert coarse_sentiment(PolarityLabel(fam, (4,) * 10)) == "neutral"
        assert coarse_sentiment(PolarityLabel(fam, (8,) * 10)) == "positive"
        assert coarse_sentiment(PolarityLabel(fam, (0,) * 10)) == "negative"

    def test_threshold_boundary(self):
        # the dead zone is closed: exactly DEFAULT_TAU is still neutral
        def signed(v):
            return coarse_sentiment(PolarityLabel(signed_continuous(), float(v)))

        assert signed(DEFAULT_TAU) == "neutral"
        assert signed(np.nextafter(DEFAULT_TAU, 1.0)) == "positive"
        assert signed(-DEFAULT_TAU) == "neutral"
        assert signed(np.nextafter(-DEFAULT_TAU, -1.0)) == "negative"

    @given(ANY_FAMILY.flatmap(label_strategy))
    def test_total_and_deterministic(self, label):
        c = coarse_sentiment(label)
        assert c in COMPONENTS
        assert coarse_sentiment(label) == c


class TestComputePrior:
    def _setup(self, labels_by_view):
        views = []
        fam = signed_continuous()
        for vid, val in labels_by_view.items():
            views.append(LexiconView(vid, fam, {"w": PolarityLabel(fam, val)}))
        vocab = build_vocabulary(views)
        return views, vocab

    def test_unanimous_positive(self):
        views, vocab = self._setup({"A": 0.9, "B": 0.5, "C": 0.3})
        prior = compute_prior("w", views, vocab)
        assert prior.alpha == (4.0, 1.0, 1.0)

    def test_disagreement_gives_uniform(self):
        views, vocab = self._setup({"A": 0.9, "B": -0.5})
        assert compute_prior("w", views, vocab).alpha == (1.0, 1.0, 1.0)

    def test_single_neutral_view(self):
        views, vocab = self._setup({"A": 0.0})
        assert compute_prior("w", views, vocab).alpha == (1.0, 1.0, 2.0)

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
        assert sum(prior.alpha) == want


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
