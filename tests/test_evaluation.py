import csv
import dataclasses
import io
import logging
import math
import subprocess
import sys
from itertools import chain

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from lexifuse import evaluation
from lexifuse.errors import ConfigError, LexifuseError, ParseError, UsageError
from lexifuse.evaluation import (
    GRAD_TOL,
    L2,
    Featurizer,
    LabeledCorpus,
    REPORT_COLUMNS,
    LogisticModel,
    coverage,
    evaluate,
    fit_logistic,
    make_featurizer,
    read_corpus,
    restrict_vocabulary,
    split_corpus,
    synth_generate,
    tokenize,
    write_corpus,
    write_report,
)
from lexifuse.lexica import (
    binary,
    coarse_class,
    pair_continuous,
    rater_histogram,
    signed_continuous,
)
from lexifuse.rng import RngStream
from reference import TOKEN_SPLIT
from reference import featurize_corpus as oracle_corpus
from reference import lexicon_from_betas
from reference import tokenize as oracle_tokenize
from row_lexica import PolarityLabel, coarse_sentiment, concat_feature, label_of, single_feature, view_of


def single(view):
    return make_featurizer(f"single:{view.id}", views=[view])


STANDARD_VIEWS = [
    view_of("gi", binary(), {"good": 1}),
    view_of("huliu", binary(), {"good": 1, "bad": 0}),
    view_of("mpqa", binary(), {"bad": 0}),
    view_of("sentic", signed_continuous(), {"good": 0.7}),
    view_of("swn", pair_continuous(), {"good": (0.75, 0.125)}),
    view_of("vader", rater_histogram(10, 9), {"good": (5, 6, 7, 5, 6, 8, 6, 5, 7, 6)}),
]


class TestTokenize:
    def test_splits_and_lowercases(self):
        assert tokenize("Hello, World! it's fine.") == ["hello", "world", "it", "s", "fine"]

    def test_underscores_and_digits(self):
        assert tokenize("snake_case a1 2b") == ["snake", "case", "a1", "2b"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("  ... !!") == []

    # Separators the regex and str.split treat differently on their own
    # (`_`, the information separators, NEL, the ideographic space), digits
    # of other scripts, combining marks and characters whose case folding
    # expands or adds a combining mark.
    EDGE_CHARACTERS = "_ \t\n\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000'\u2019-٣੭५\u0301\u0307ßẞİﬁŉΐǰ½Ⅻ²ǅ"

    @given(st.text(st.one_of(st.characters(), st.sampled_from(EDGE_CHARACTERS), st.sampled_from("aZ09 .,"))))
    @settings(max_examples=500, deadline=None)
    def test_matches_regex_oracle(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    def test_isalnum_is_the_regex_word_rule(self):
        # The per-code-point rule on every non-surrogate code point, checked
        # without tokenize, whose shared table would keep an entry for each.
        everything = "".join(map(chr, chain(range(0xD800), range(0xE000, 0x110000))))
        kept = TOKEN_SPLIT.sub("", everything)
        assert kept == "".join(filter(str.isalnum, everything))
        assert not any(map(str.isspace, kept))


class TestLabeledCorpus:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LabeledCorpus((), (), 2)
        with pytest.raises(ConfigError):
            LabeledCorpus((("a",),), (2,), 2)
        with pytest.raises(ConfigError):
            LabeledCorpus((("a",), ("b",)), (0,), 2)

    def test_types(self):
        c = LabeledCorpus((("a", "b"), ("b", "c")), (0, 1), 2)
        assert c.types() == {"a", "b", "c"}

    def test_file_roundtrip(self, tmp_path):
        c = LabeledCorpus((("good", "movie"), ("bad", "film")), (0, 1), 2)
        p = tmp_path / "corpus.tsv"
        write_corpus(p, c, seed=1, config_hash="abc")
        back = read_corpus(p)
        assert back == c
        assert p.read_text().startswith("#")

    def test_read_errors(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("no tab here\n")
        with pytest.raises(ParseError, match=":1"):
            read_corpus(p)
        p.write_text("x\tgood movie\n")
        with pytest.raises(ParseError):
            read_corpus(p)
        with pytest.raises(ConfigError):
            read_corpus(tmp_path / "absent.tsv")

    def test_read_line_boundaries(self, tmp_path):
        # only "\n" ends a line, as in the line numbers read_input reports
        p = tmp_path / "c.tsv"
        p.write_text("0\tgood\u2028movie\n1\tbad\nx\tfilm\n", encoding="utf-8")
        with pytest.raises(ParseError) as e:
            read_corpus(p)
        assert e.value.line == 3
        p.write_text("0\tgood\u0085bad\r\n1\tfine\r\n", encoding="utf-8")
        assert read_corpus(p).texts == (("good", "bad"), ("fine",))

    def test_split(self):
        c = LabeledCorpus((("a",), ("b",), ("c",)), (0, 1, 0), 2)
        tr, te = split_corpus(c, 2)
        assert len(tr) == 2 and len(te) == 1
        with pytest.raises(ConfigError):
            split_corpus(c, 3)


# A corpus line: a label-like head, a tab (sometimes missing) and any text.
CORPUS_LINE = st.builds(
    lambda head, sep, body: head + sep + body,
    st.one_of(st.sampled_from(["0", "1", "-1", "+2", " 3", "1_0", "\u0663", "9" * 5000, "#", ""]),
              st.text(max_size=4)),
    st.sampled_from(["\t", "\t", " ", ""]),
    st.text(),
)
# A line read_corpus accepts: a row, a comment or a blank.
GOOD_LINE = st.one_of(st.builds("{}\t{}".format, st.sampled_from(["0", "1", "2", " 1", "+1", "\u0663"]), st.text()),
                      st.sampled_from(["", "  ", "# note", " #\tx"]))


class TestReadCorpusFuzz:
    @given(st.one_of(st.text(), st.binary(), st.lists(CORPUS_LINE).map("\n".join),
                     st.lists(GOOD_LINE).map("\n".join),
                     st.lists(st.one_of(CORPUS_LINE, st.binary().map(lambda b: b.decode("latin-1"))))
                     .map("\r\n".join)))
    @settings(max_examples=300, deadline=None)
    def test_only_typed_errors_escape(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("fuzz") / "corpus.tsv"
        path.write_bytes(body if isinstance(body, bytes) else body.encode("utf-8", "surrogatepass"))
        try:
            corpus = read_corpus(path)
        except LexifuseError:
            return
        assert len(corpus.texts) == len(corpus.labels) >= 1
        assert all(0 <= y < corpus.n_classes for y in corpus.labels)
        types, token_type, lengths = corpus.token_index
        assert [types[i] for i in token_type] == [t for text in corpus.texts for t in text]
        assert lengths.tolist() == [len(text) for text in corpus.texts]


def feature(featurizer, word):
    """A word's feature row, looked up case-folded as featurize_corpus does."""
    return featurizer.rows[featurizer.index[word.casefold()]]


class TestWordFeature:
    @given(st.sampled_from([binary(), signed_continuous(), pair_continuous(), rater_histogram(10, 9),
                            rater_histogram(3, 4)]), st.data())
    def test_columns_match_per_label_features(self, family, data):
        n = data.draw(st.integers(1, 8))
        if family.tag == "Binary":
            values = st.integers(0, 1)
        elif family.tag == "SignedContinuous":
            values = st.floats(-1.0, 1.0)
        elif family.tag == "PairContinuous":
            values = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
        else:
            values = st.tuples(*[st.integers(0, family.n_points - 1)] * family.n_raters)
        labels = data.draw(st.dictionaries(st.sampled_from("abcdefghij"), values, min_size=n, max_size=n))
        view = view_of("v", family, labels)
        other = view_of("w", binary(), {"a": 1, "z": 0})
        single_f, concat_f = single(view), make_featurizer("concat", views=[view, other])
        for word, value in labels.items():
            label = PolarityLabel(family, value)
            assert feature(single_f, word).tolist() == single_feature(label).tolist()
            tail = [1.0] if word == "a" else [0.0]
            assert feature(concat_f, word).tolist() == concat_feature(label).tolist() + tail
        assert feature(concat_f, "z").tolist() == [0.0] * family.width + [-1.0]

    def test_binary_sign_mapping(self):
        f = single(view_of("b", binary(), {"good": 1, "bad": 0}))
        np.testing.assert_array_equal(feature(f, "good"), [1.0])
        np.testing.assert_array_equal(feature(f, "bad"), [-1.0])
        assert "absent" not in f.index
        assert f.dim == 1

    def test_rater_midpoint_is_neutral(self):
        f = single(
            view_of("v", rater_histogram(10, 9), {"meh": (4,) * 10})
        )
        np.testing.assert_array_equal(feature(f, "meh"), [0.0])

    def test_rater_bucketed_mean(self):
        # ratings 0-3 count -1, 4 counts 0, 5-8 count +1
        f = single(
            view_of("v", rater_histogram(10, 9), {"w": (0, 1, 2, 3, 4, 5, 6, 7, 8, 4)})
        )
        np.testing.assert_allclose(feature(f, "w"), [0.0])
        f2 = single(
            view_of("v", rater_histogram(10, 9), {"w": (5, 6, 7, 8, 4, 5, 5, 5, 5, 5)})
        )
        np.testing.assert_allclose(feature(f2, "w"), [0.9])

    def test_pair_two_dim(self):
        f = single(view_of("p", pair_continuous(), {"w": (0.75, 0.125)}))
        np.testing.assert_allclose(feature(f, "w"), [0.75, 0.125])
        assert f.dim == 2

    def test_fused_features(self):
        lex = lexicon_from_betas([("w", (2.0, 1.5, 1.5), 2)])
        fused_mean = make_featurizer("fused-mean", unified=lex)
        np.testing.assert_allclose(feature(fused_mean, "w"), [0.4, 0.3, 0.3])
        fused_beta = make_featurizer("fused-beta", unified=lex)
        np.testing.assert_allclose(feature(fused_beta, "W"), [2.0, 1.5, 1.5])
        assert "absent" not in fused_mean.index

    def test_concat_dimension_16(self):
        f = make_featurizer("concat", views=STANDARD_VIEWS)
        assert f.dim == 16

    def test_concat_layout_and_fill(self):
        f = make_featurizer("concat", views=STANDARD_VIEWS)
        v = feature(f, "good")
        # views in id order: gi, huliu, mpqa, sentic, swn, vader
        assert v[0] == 1.0 and v[1] == 1.0
        assert v[2] == 0.0  # mpqa does not cover "good": neutral fill
        assert v[3] == pytest.approx(0.7)
        np.testing.assert_allclose(v[4:6], [0.75, 0.125])
        raw = (5, 6, 7, 5, 6, 8, 6, 5, 7, 6)
        np.testing.assert_allclose(v[6:], [2 * r / 8 - 1 for r in raw])

    def test_concat_absent_everywhere(self):
        f = make_featurizer("concat", views=STANDARD_VIEWS)
        assert "missing" not in f.index
        v = feature(f, "bad")
        assert v is not None and v.shape == (16,)

    def test_make_featurizer(self):
        lex = lexicon_from_betas([("w", (2.0, 1.5, 1.5), 2)])
        assert make_featurizer("fused-mean", unified=lex).dim == 3
        assert make_featurizer("fused-beta", unified=lex).dim == 3
        assert make_featurizer("single:gi", views=STANDARD_VIEWS).dim == 1
        assert make_featurizer("concat", views=STANDARD_VIEWS).dim == 16
        with pytest.raises(ConfigError):
            make_featurizer("single:nope", views=STANDARD_VIEWS)
        with pytest.raises(ConfigError):
            make_featurizer("fused-mean")
        with pytest.raises(ConfigError):
            make_featurizer("bogus", unified=lex)


def featurize_one(featurizer, tokens):
    """The library's features of one text, as a one-text corpus."""
    return featurizer.featurize_corpus(LabeledCorpus((tuple(tokens),), (0,), 1))[0]


class TestFeaturizeText:
    def setup_method(self):
        self.f = single(
            view_of("b", binary(), {"good": 1, "bad": 0, "fine": 1})
        )

    def test_mean_of_covered(self):
        np.testing.assert_allclose(featurize_one(self.f, ["good", "bad"]), [0.0])
        np.testing.assert_allclose(featurize_one(self.f, ["good", "unknown"]), [1.0])

    def test_uncovered_is_zero(self):
        np.testing.assert_array_equal(featurize_one(self.f, ["x", "y"]), [0.0])
        np.testing.assert_array_equal(featurize_one(self.f, []), [0.0])

    @given(st.permutations(["good", "bad", "fine", "zzz"]))
    def test_permutation_invariant(self, tokens):
        base = featurize_one(self.f, ["good", "bad", "fine", "zzz"])
        np.testing.assert_allclose(featurize_one(self.f, tokens), base)

    def test_duplication_invariant(self):
        tokens = ["good", "bad", "zzz"]
        np.testing.assert_allclose(
            featurize_one(self.f, tokens * 3), featurize_one(self.f, tokens)
        )


# Words of the differential test's views and lexicon: mixed case, and "ß",
# which case-folds to "ss".
DIFF_WORDS = ["good", "bad", "fine", "meh", "ss", "awful", "great", "okay", "dull", "vivid"]
DIFF_TOKENS = DIFF_WORDS + ["Good", "BAD", "ß", "SS", "Straße", "zzz", "", "unknown"]
DIFF_MODES = ["fused-mean", "fused-beta", "concat", "single:bin", "single:pair", "single:rater", "single:sig"]


def _diff_featurizers(data):
    def covered(values):
        return data.draw(st.dictionaries(st.sampled_from(DIFF_WORDS), values, min_size=1))

    unit = st.floats(0.0, 1.0)
    views = [
        view_of("bin", binary(), covered(st.integers(0, 1))),
        view_of("pair", pair_continuous(), covered(st.tuples(unit, unit))),
        view_of("rater", rater_histogram(3, 5), covered(st.tuples(*[st.integers(0, 4)] * 3))),
        view_of("sig", signed_continuous(), covered(st.floats(-1.0, 1.0))),
    ]
    # the fused lexicon keeps its words' case; lookups case-fold both sides
    fused_words = data.draw(st.lists(st.sampled_from(DIFF_WORDS + ["Vivid", "DULL", "Straße"]),
                                     unique_by=str.casefold, min_size=1))
    rows = []
    for w in fused_words:
        n, share = data.draw(st.integers(1, 6)), np.array(data.draw(st.tuples(*[st.floats(0.01, 1.0)] * 3)))
        rows.append((w, tuple(1.0 + n * share / share.sum()), n))
    lex = lexicon_from_betas(rows)
    return {mode: make_featurizer(mode, unified=lex, views=views) for mode in DIFF_MODES}


class TestFeaturizeCorpus:
    """featurize_corpus against the text-by-text oracle, bit for bit."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_text_by_text_oracle(self, data):
        featurizers = _diff_featurizers(data)
        drawn = data.draw(st.lists(st.lists(st.sampled_from(DIFF_TOKENS), max_size=40), max_size=12))
        texts = [
            [],  # empty
            ["zzz", "unknown", "Zzz"],  # nothing covered
            ["Good"],  # one token
            DIFF_WORDS * 4,  # 40 tokens, more than 8 covered in every mode
            ["good", "GOOD", "good", "ß", "Straße"],  # repeats and mixed case
        ] + drawn
        corpus = LabeledCorpus(tuple(map(tuple, data.draw(st.permutations(texts)))), (0,) * len(texts), 1)
        for mode, f in featurizers.items():
            got = f.featurize_corpus(corpus)
            want = oracle_corpus(f, corpus)
            assert got.shape == (len(texts), f.dim), mode
            assert np.array_equal(got, want), mode

    @pytest.mark.parametrize("gather_floats", [100, evaluation._GATHER_FLOATS])
    @pytest.mark.parametrize("dim", [1, 2, 3, 14])
    def test_means_of_m_rows(self, dim, gather_floats, monkeypatch):
        # numpy sums 8 or more values pairwise along a contiguous axis; the
        # grouped mean must round as the one-text mean does at every count,
        # whether a group is gathered whole or in parts
        monkeypatch.setattr(evaluation, "_GATHER_FLOATS", gather_floats)
        rng = np.random.default_rng(dim)
        rows = rng.standard_normal((43, dim)) * 10.0 ** np.arange(dim)
        f = Featurizer({f"w{i}": i for i in range(43)}, rows)
        texts = tuple(tuple(f"w{i}" for i in rng.integers(0, 43, m)) for m in range(41))
        texts += tuple(t[::-1] for t in texts) + texts[-3:] * 20
        corpus = LabeledCorpus(texts, (0,) * len(texts), 1)
        assert np.array_equal(f.featurize_corpus(corpus), oracle_corpus(f, corpus))


class TestFitLogistic:
    def test_separable_perfect_train_accuracy(self):
        x = np.array([[-1.0], [-0.8], [0.9], [1.0]])
        y = np.array([0, 0, 1, 1])
        model = fit_logistic(x, y)
        assert model.accuracy(x, y) == 1.0

    def test_zero_weight_loss_is_log_k(self):
        model = LogisticModel(
            weights=np.zeros((3, 2)), bias=np.zeros(3), converged=True, n_iter=0
        )
        x = np.array([[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]])
        logits = model.decision(x)
        logp = logits - logits.max(axis=1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        nll = -logp[np.arange(3), [0, 1, 2]].mean()
        assert nll == pytest.approx(math.log(3), rel=1e-12)

    def test_gradient_small_at_reported_optimum(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2))
        y = (x[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(int)
        l2, tol = 1e-4, 1e-8
        model = fit_logistic(x, y)
        assert model.converged
        n, k = x.shape[0], 2
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0
        logits = model.decision(x)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        resid = (p - onehot) / n
        gw = resid.T @ x + l2 * model.weights
        gb = resid.sum(axis=0)
        gnorm = math.sqrt(float(np.sum(gw**2) + np.sum(gb**2)))
        assert gnorm < 10 * tol

    @staticmethod
    def _objective(theta, x, y, k):
        """fit_logistic's objective and gradient at theta = [W | b] flattened."""
        n, d = x.shape
        theta = theta.reshape(k, d + 1)
        logits = x @ theta[:, :d].T + theta[:, d]
        m = logits.max(axis=1, keepdims=True)
        logp = logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
        resid = (np.exp(logp) - np.eye(k)[y]) / n
        val = -logp[np.arange(n), y].mean() + 0.5 * L2 * float(np.sum(theta[:, :d] ** 2))
        grad = np.hstack([resid.T @ x + L2 * theta[:, :d], resid.sum(axis=0)[:, None]])
        return val, grad.ravel()

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 3, 16])
    def test_matches_bfgs_optimum(self, k, d):
        rng = np.random.default_rng(100 * k + d)
        x = rng.normal(size=(150, d)) * rng.uniform(0.2, 3.0, size=d)
        y = np.argmax(x @ rng.normal(size=(d, k)) + rng.normal(size=(150, k)), axis=1)
        y[:k] = np.arange(k)
        model = fit_logistic(x, y)
        theta = np.hstack([model.weights, model.bias[:, None]]).ravel()
        val, grad = self._objective(theta, x, y, k)
        oracle = scipy.optimize.minimize(
            self._objective, np.zeros(k * (d + 1)), args=(x, y, k), jac=True,
            method="BFGS", options={"gtol": 1e-12, "maxiter": 10000},
        )
        assert model.converged
        assert model.n_iter <= 20
        assert np.linalg.norm(grad) < GRAD_TOL
        assert abs(val - oracle.fun) < 1e-12

    def test_huge_features_end_unconverged_with_warning(self, caplog):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 4))
        y = (x[:, 0] + 0.3 * rng.normal(size=200) > 0).astype(int)
        with caplog.at_level(logging.WARNING, logger="lexifuse.evaluation"):
            model = fit_logistic(x * 1e9, y)
        assert not model.converged
        assert [r.name for r in caplog.records] == ["lexifuse.evaluation"]
        assert f"after {model.n_iter} Newton steps" in caplog.text
        assert "gradient norm" in caplog.text

    def test_single_class_rejected(self):
        with pytest.raises(UsageError):
            fit_logistic(np.array([[1.0], [2.0]]), np.array([1, 1]))

    def test_empty_labels_rejected(self):
        with pytest.raises(UsageError, match="at least two classes"):
            fit_logistic(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_fit_leaves_numpy_ma_unimported(self):
        # numpy.ma costs about 30 ms to import; nothing in a fit needs it
        code = ("import sys, numpy as np\n"
                "from lexifuse.evaluation import fit_logistic\n"
                "fit_logistic(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 0, 1, 1]))\n"
                "print('numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_bad_shapes_rejected(self):
        with pytest.raises(UsageError):
            fit_logistic(np.zeros((3, 2)), np.zeros(4, dtype=int))


class TestEvaluate:
    def test_separable_identity_split(self):
        f = single(view_of("b", binary(), {"good": 1, "bad": 0}))
        c = LabeledCorpus(
            (("good",), ("bad",), ("good", "good"), ("bad", "bad")), (0, 1, 0, 1), 2
        )
        assert evaluate(c, c, f) == 1.0

    def test_deterministic(self):
        data = synth_generate(60, 1, 0.1, 120, 8, RngStream(4))
        tr, te = split_corpus(data.corpus, 90)
        f = make_featurizer("concat", views=data.views)
        assert evaluate(tr, te, f) == evaluate(tr, te, f)

    def test_declared_class_count_does_not_matter(self):
        # the classifier takes its classes from the training labels, so
        # corpora declaring 2 and 3 classes score as aligned copies do
        f = single(view_of("b", binary(), {"good": 1, "bad": 0}))
        texts = (("good",), ("bad",), ("good", "bad"), ("bad", "bad"))
        a = LabeledCorpus(texts, (0, 1, 0, 1), 2)
        b = LabeledCorpus(texts[::-1], (1, 0, 1, 1), 3)
        aligned = evaluate(a, dataclasses.replace(b, n_classes=2), f)
        assert evaluate(a, b, f) == aligned == evaluate(dataclasses.replace(a, n_classes=3), b, f)


class TestCoverage:
    def test_extremes(self):
        c = LabeledCorpus((("a", "b"), ("c",)), (0, 1), 2)
        assert coverage({"a", "b", "c", "d"}, c) == 100.0
        assert coverage({"x"}, c) == 0.0
        assert coverage({"a", "c"}, c) == pytest.approx(100 * 2 / 3)

    def test_fused_dominates_views(self):
        data = synth_generate(80, 1, 0.0, 30, 10, RngStream(7))
        fused_words = set()
        for v in data.views:
            fused_words |= set(v.entries)
        for v in data.views:
            assert coverage(fused_words, data.corpus) >= coverage(set(v.entries), data.corpus)

    def test_featurizer_as_container(self):
        f = single(view_of("b", binary(), {"good": 1}))
        c = LabeledCorpus((("good", "bad"),), (0,), 2)
        assert coverage(f, c) == 50.0


class TestRestrictVocabulary:
    def make_fused(self, words):
        return lexicon_from_betas([(w, (2.0, 1.5, 1.5), 2) for w in words])

    def test_superset_unchanged(self):
        fused = self.make_fused(["a", "b"])
        view = view_of("v", binary(), {"a": 1, "b": 0, "c": 1})
        out = restrict_vocabulary(fused, view)
        assert out.words == ["a", "b"]

    def test_empty_view(self):
        fused = self.make_fused(["a", "b"])
        out = restrict_vocabulary(fused, view_of("v", binary(), {}))
        assert len(out) == 0

    def test_intersection_size(self):
        fused = self.make_fused(["a", "b", "c"])
        view = view_of("v", binary(), {"b": 1, "c": 0, "d": 1})
        out = restrict_vocabulary(fused, view)
        assert out.words == ["b", "c"]
        at, kept = fused.words.index("b"), out.words.index("b")
        assert fused.beta[at].tolist() == out.beta[kept].tolist()
        assert fused.mean[at].tolist() == out.mean[kept].tolist()
        assert fused.n_views[at] == out.n_views[kept]

    def test_words_compared_case_folded(self):
        # a unified file keeps a word's case; the view's words are case-folded
        fused = self.make_fused(["Good", "bad"])
        out = restrict_vocabulary(fused, view_of("v", binary(), {"good": 1}))
        assert out.words == ["Good"]


class TestReport:
    def test_format(self, tmp_path):
        p = tmp_path / "report.csv"
        rows = [
            {
                "mode": "fused-beta",
                "dataset": "synth",
                "n_train": 100,
                "n_test": 25,
                "accuracy": 0.92,
                "coverage": 87.5,
                "feature_dim": 3,
            }
        ]
        write_report(p, rows, seed=3, config_hash="abc")
        lines = p.read_text().splitlines()
        assert lines[0].startswith("#")
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "mode,dataset,n_train,n_test,accuracy,coverage,feature_dim"
        assert "fused-beta,synth,100,25,0.92,87.5,3" in lines

    @pytest.mark.parametrize("mode, dataset", [
        ("single:my,lex", 'x"y,z'),
        ("single:a\"b", "line\nbreak"),
        ("fused-beta", "cr\rhere"),
        ("concat", " plain "),
    ])
    def test_free_text_fields_quoted(self, tmp_path, mode, dataset):
        p = tmp_path / "report.csv"
        row = {"mode": mode, "dataset": dataset, "n_train": 4, "n_test": 2,
               "accuracy": 0.5, "coverage": 50.0, "feature_dim": 3}
        write_report(p, [row])
        with open(p, newline="") as f:
            body = [fields for fields in csv.reader(f) if not fields[0].startswith("#")]
        assert body == [list(REPORT_COLUMNS), [mode, dataset, "4", "2", "0.5", "50", "3"]]
        # quoted exactly as the csv module's default writer quotes the row
        buf = io.StringIO()
        csv.writer(buf).writerow([mode, dataset, 4, 2, 0.5, 50, 3])
        assert p.read_bytes().endswith(buf.getvalue().removesuffix("\r\n").encode() + b"\n")


class TestSynthGenerate:
    def test_noiseless_labels_match_truth(self):
        data = synth_generate(60, 1, 0.0, 5, 5, RngStream(1))
        assert len(data.views) == 4
        from lexifuse.lexica import COMPONENTS

        for view in data.views:
            classes = coarse_class(view.family, view.values)
            for word, row, c in zip(view.words, view.values, classes):
                label = label_of(view.family, row)
                assert coarse_sentiment(label) == COMPONENTS[data.word_classes[word]], (
                    view.id,
                    word,
                    label.value,
                )
                assert c == data.word_classes[word]

    def test_seed_fixed_identical(self):
        a = synth_generate(50, 1, 0.2, 40, 6, RngStream(9))
        b = synth_generate(50, 1, 0.2, 40, 6, RngStream(9))
        assert a.word_classes == b.word_classes
        assert a.corpus == b.corpus
        for va, vb in zip(a.views, b.views):
            assert va.id == vb.id and va.words == vb.words
            assert va.values.tobytes() == vb.values.tobytes()

    def test_binary_views_polar_domain(self):
        data = synth_generate(90, 2, 0.3, 5, 5, RngStream(2))
        bins = [v for v in data.views if v.family.tag == "Binary"]
        assert len(bins) == 2
        for v in bins:
            for word, row in v.entries.items():
                assert row.tolist() in ([0.0], [1.0])
                assert data.word_classes[word] in (0, 1)

    def test_coverage_fraction_window(self):
        data = synth_generate(200, 1, 0.1, 5, 5, RngStream(3))
        for v in data.views:
            if v.family.tag == "Binary":
                eligible = sum(1 for c in data.word_classes.values() if c in (0, 1))
            else:
                eligible = 200
            frac = len(v.entries) / eligible
            assert 0.39 <= frac <= 0.71

    def test_corpus_shape(self):
        data = synth_generate(40, 1, 0.1, 25, 7, RngStream(5))
        assert len(data.corpus) == 25
        assert data.corpus.n_classes == 2
        assert all(len(t) == 7 for t in data.corpus.texts)
        for tokens, label in zip(data.corpus.texts, data.corpus.labels):
            n_pos = sum(1 for t in tokens if data.word_classes[t] == 0)
            n_neg = sum(1 for t in tokens if data.word_classes[t] == 1)
            assert (label == 0) == (n_pos > n_neg)

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            synth_generate(0, 1, 0.1, 5, 5, RngStream(0))
        with pytest.raises(ConfigError):
            synth_generate(10, 1, 0.5, 5, 5, RngStream(0))
