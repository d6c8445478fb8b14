"""Work counts that host load cannot blur: the incomplete-gamma evaluations
of one Gamma draw, and the whole-column passes of one lexicon parse.

gamma_quantile runs on a fixed 256x3 batch, the size of one training batch's
Dirichlet shapes, with special.gammainc_p and special.gammainc_p_da wrapped
in every lexifuse module that holds them.  Each wrapper counts its calls and
the elements each call gets.  parse_lexicon runs on fixed hand-written files
of the four families, with lexica.casefold_each and lexica.out_of_domain
wrapped and their calls counted.  The counts repeat exactly across runs and
processes, so they show a change in the work even where wall time cannot.
They are pinned as upper bounds: a change that lowers a count lowers its pin.
"""

import numpy as np
import pytest

from lexifuse import distributions, lexica, special

# (calls, elements over all calls) per function, and elements over both:
# gammainc_p runs Halley round 1, gammainc_p_da rounds 2 and 3 and the dP/da
# of the shape-1 elements.
PINS = {"gammainc_p": (1, 760), "gammainc_p_da": (3, 772), "elements": 1532}


def batch():
    """Shapes in [1, 9] with eight at exactly 1.0, and uniforms that include
    both clipping ends, 1e-12 and 1 - 1e-12."""
    gen = np.random.default_rng(26)
    shape = 1.0 + 8.0 * gen.random((256, 3))
    shape[::32, 0] = 1.0
    u = gen.random((256, 3))
    u[1::32] = 1e-12
    u[2::32] = 1.0 - 1e-12
    return shape, u


def counted_draw(monkeypatch) -> dict[str, list[int]]:
    """The elements of each call of each wrapped function, in call order,
    over one gamma_quantile on the batch."""
    sizes: dict[str, list[int]] = {name: [] for name in ("gammainc_p", "gammainc_p_da")}
    for name, seen in sizes.items():
        inner = getattr(special, name)

        def counted(a, x, *args, _inner=inner, _seen=seen, **kwargs):
            _seen.append(np.broadcast(np.asarray(a), np.asarray(x)).size)
            return _inner(a, x, *args, **kwargs)

        for module in (special, distributions):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    distributions.gamma_quantile(*batch())
    monkeypatch.undo()
    return sizes


def test_incomplete_gamma_work_per_draw(monkeypatch):
    shape, u = batch()
    assert shape.min() == 1.0 and shape.max() <= 9.0
    assert u.min() == 1e-12 and u.max() == 1.0 - 1e-12
    sizes = counted_draw(monkeypatch)
    assert counted_draw(monkeypatch) == sizes  # the counts repeat exactly
    for name in ("gammainc_p", "gammainc_p_da"):
        calls, elements = PINS[name]
        assert len(sizes[name]) <= calls, sizes
        assert sum(sizes[name]) <= elements, sizes
    assert sum(map(sum, sizes.values())) <= PINS["elements"], sizes



# Fixed files of each family, each with an upper-case word, a repeat and a
# multi-word entry: (file text, schema or None for the header's family).
LEXICON_FILES = {
    "binary": ("Good\tpos\nbad\tneg\nnot bad\tpos\nbad\tpos\nfine\tneg\n", "binary,pos=pos,neg=neg"),
    "signed": ("#family=SignedContinuous\nGood\t0.5\nbad\t-0.25\nnot bad\t0.1\nbad\t-0.75\nfine\t0\n", None),
    "pair": ("Good\t0.5\t0.125\nbad\t0\t1\nnot bad\t0.5\t0.5\nbad\t0.25\t0.75\nfine\t0\t0\n",
             "pair,neg_col=2"),
    "rater": ("#family=RaterHistogram,n_raters=3,n_points=5\nGood\t4,3,4\nbad\t0,1,0\nnot bad\t2,2,3\n"
              "bad\t1,1,0\nfine\t2,2,2\n", None),
}

# Calls per parse_lexicon call of each wrapped lexica function, per file.
# Binary files case-fold their labels as well as their words.
PARSE_PINS = {
    "binary": {"casefold_each": 2, "out_of_domain": 1},
    "signed": {"casefold_each": 1, "out_of_domain": 1},
    "pair": {"casefold_each": 1, "out_of_domain": 1},
    "rater": {"casefold_each": 1, "out_of_domain": 1},
}


def counted_parse(monkeypatch, path, schema) -> dict[str, int]:
    """The calls of each wrapped lexica function over one parse_lexicon."""
    calls = dict.fromkeys(("casefold_each", "out_of_domain"), 0)
    for name in calls:
        inner = getattr(lexica, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(lexica, name, counted)
    view = lexica.parse_lexicon(path, schema and lexica.parse_schema(schema))
    monkeypatch.undo()
    assert view.words == ["bad", "fine", "good"]
    return calls


@pytest.mark.parametrize("family", sorted(LEXICON_FILES))
def test_column_passes_per_parse(tmp_path, monkeypatch, family):
    text, schema = LEXICON_FILES[family]
    path = tmp_path / f"{family}.tsv"
    path.write_text(text, encoding="utf-8")
    calls = counted_parse(monkeypatch, path, schema)
    assert counted_parse(monkeypatch, path, schema) == calls  # the counts repeat exactly
    for name, pin in PARSE_PINS[family].items():
        assert calls[name] <= pin, calls
