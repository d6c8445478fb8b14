"""Work counts that host load cannot blur: the incomplete-gamma evaluations
and solver blocks of one Gamma draw, the whole-column passes of one lexicon
parse, the tape layers and lexifuse-frame calls of one training batch's
gradient, the
encoder calls and lexifuse-frame calls of one export, and the lexifuse-frame
calls of one CLI train and one CLI export.

gamma_quantile runs on a fixed 256x3 batch, the size of one training batch's
Dirichlet shapes, with special.gammainc_p and special.gammainc_p_da wrapped
in every lexifuse module that holds them.  Each wrapper counts its calls and
the elements each call gets.  The same draw runs again with special._iterate
wrapped, counting its calls and the blocks each runs by solver name.
parse_lexicon runs on fixed hand-written files
of the four families, with lexica.casefold_each and lexica.out_of_domain
wrapped and their calls counted.  batch_gradient runs on the first 256-word
batch of a fixed synthetic training run, with sys.setprofile counting the
calls into frames of lexifuse's own source files; numpy's Python wrappers
are left out, since they change between numpy versions.  export_lexicon
runs the same way on the views of a fixed synth, each longer than two
export blocks, with model.encode_vars wrapped to record each call's rows,
and one CLI `lexifuse train` of one epoch on the view files of a fixed synth,
then one CLI `lexifuse export` of its checkpoint.  read_unified runs on the
file of a fixed 20,000-word lexicon, counted the same way, and under
tracemalloc, whose traced peak is bounded against the file's size; so is
write_unified's, against that of writing two blocks' rows.
The counts repeat exactly across runs and processes, so they show a change
in the work even where wall time cannot.  They are pinned as upper bounds:
a change that lowers a count lowers its pin.
"""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lexifuse
from lexifuse import cli, distributions, lexica, model, special, tape, unified
from lexifuse.evaluation import synth_generate
from lexifuse.model import observations_from_views
from lexifuse.rng import RngStream, stream_for
from lexifuse.training import TrainConfig, batch_gradient, frozen_noise, init_model
from lexifuse.unified import UnifiedLexicon, export_lexicon, read_unified, write_unified

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


# (_iterate calls, blocks over all calls) per solver name: the quantile's
# Halley rounds, and the incomplete gamma's series and continued-fraction
# blocks of gammainc_p's round 1 and gammainc_p_da's three calls.
ITERATE_PINS = {"gamma_quantile": (1, 3), special._SER: (4, 10), special._CF: (4, 12)}


def counted_blocks(monkeypatch) -> dict[str, list[int]]:
    """The blocks each special._iterate call runs, in call order, by solver
    name, over one gamma_quantile on the batch."""
    blocks: dict[str, list[int]] = {}
    inner = special._iterate

    def counted(block, state, n_blocks, n_out, name, **inputs):
        seen = blocks.setdefault(name, [])
        seen.append(0)

        def each(j, state):
            seen[-1] += 1
            return block(j, state)

        return inner(each, state, n_blocks, n_out, name, **inputs)

    monkeypatch.setattr(special, "_iterate", counted)
    distributions.gamma_quantile(*batch())
    monkeypatch.undo()
    return blocks


def test_solver_blocks_per_draw(monkeypatch):
    blocks = counted_blocks(monkeypatch)
    assert counted_blocks(monkeypatch) == blocks  # the counts repeat exactly
    assert set(blocks) == set(ITERATE_PINS), blocks
    for name, (calls, total) in ITERATE_PINS.items():
        assert len(blocks[name]) <= calls, blocks
        assert sum(blocks[name]) <= total, blocks



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


# One batch's gradient: tape layers, len(tape) at backward, and calls into
# lexifuse frames.  28 layers: 8 encoders, beta, the KL, the draw, 8 times
# (decoder, emission) and the total.  Before layers were single nodes: 147
# nodes, 64 leaves, 1,212 calls; before each decoder read its own rows of the
# draw: 52 nodes, 447 calls; before the batch was an index array into
# Observations: 409 calls; with each batch's views checked against the heads
# by a helper of their own: 402; on a general node tape with one leaf per
# head: 44 nodes, 16 of them leaves, 401 calls.
BATCH_PINS = {"nodes": 28, "lexifuse_calls": 223}


def lexifuse_calls(fn) -> int:
    """Call events in frames of lexifuse's source files while fn runs, on
    this thread of this process only."""
    root = str(Path(lexifuse.__file__).parent)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(root):
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


@pytest.fixture(scope="module")
def first_batch():
    """batch_gradient's arguments for the first batch of epoch 0 of a
    default-config run at seed 1 on a 2,000-word synth with 8 views, the
    batch as train passes it: an index array into the Observations."""
    views = synth_generate(2000, 2, 0.1, 10, 5, RngStream(1)).views
    vocab = lexica.build_vocabulary(views)
    priors = {w: lexica.compute_prior(w, views, vocab) for w in vocab.sorted_words()}
    obs = observations_from_views(views, vocab, priors)
    config = TrainConfig(seed=1)
    idx = stream_for(1, "shuffle", 0).permutation(len(obs))[: config.batch_size]
    noise = frozen_noise(config, obs.words)[idx]
    state = init_model(views, config, stream_for(1, "init"))
    return state, obs[idx], noise, len(obs) / len(idx)


def test_batch_gradient_nodes_and_calls(monkeypatch, first_batch):
    assert len(first_batch[1]) == 256 and len(first_batch[0].scales) == 8
    calls = lexifuse_calls(lambda: batch_gradient(*first_batch))
    assert lexifuse_calls(lambda: batch_gradient(*first_batch)) == calls  # the counts repeat exactly
    sizes = []
    backward = tape.Tape.backward

    def counted(self):
        sizes.append(len(self))
        return backward(self)

    monkeypatch.setattr(tape.Tape, "backward", counted)
    batch_gradient(*first_batch)
    (nodes,) = sizes
    assert nodes <= BATCH_PINS["nodes"], sizes
    assert calls <= BATCH_PINS["lexifuse_calls"], calls


# One export over 4 views of 2 to 3 blocks each: encode_vars calls (one per
# block, the sum over views of max(1, n // EXPORT_BLOCK_ROWS)) and calls into
# lexifuse frames.  Each block runs on the view's encoder head as the state
# holds it; one encoder call per view made 4 and 167, a whole binding of the
# state on a tape per block 9 and 356, and the view's head alone bound on a
# tape per block 9 and 171.
EXPORT_PINS = {"encode_calls": 9, "lexifuse_calls": 77}


@pytest.fixture(scope="module")
def export_inputs():
    """An untrained seed-1 state and the 4 views of a 20,000-word synth at
    seed 1, of 9,341 to 13,568 rows."""
    views = synth_generate(20000, 1, 0.1, 1, 1, RngStream(1)).views
    return init_model(views, TrainConfig(seed=1), stream_for(1, "init")), views


def test_export_blocks_and_calls(monkeypatch, export_inputs):
    state, views = export_inputs
    assert all(len(view) > 2 * model.EXPORT_BLOCK_ROWS for view in views)
    calls = lexifuse_calls(lambda: export_lexicon(*export_inputs))
    assert lexifuse_calls(lambda: export_lexicon(*export_inputs)) == calls  # the counts repeat exactly
    rows = []
    encode = model.encode_vars

    def counted(x, head):
        rows.append(len(x))
        return encode(x, head)

    monkeypatch.setattr(model, "encode_vars", counted)
    export_lexicon(*export_inputs)
    assert len(rows) == sum(max(1, len(view) // model.EXPORT_BLOCK_ROWS) for view in views)
    assert len(rows) <= EXPORT_PINS["encode_calls"], rows
    assert sum(rows) == sum(map(len, views))
    assert all(model.EXPORT_BLOCK_ROWS <= m < 2 * model.EXPORT_BLOCK_ROWS for m in rows), rows
    assert calls <= EXPORT_PINS["lexifuse_calls"], calls


# One `lexifuse train` of one epoch at seed 1 on the 4 view files of a
# 500-word synth at seed 1 (482 words, two batches): calls into lexifuse
# frames from parsing the files to writing the checkpoint and the training
# log, 482 of them compute_prior's, one per word.  With one WordObservation
# per word and each batch a list of them: 3,269; with each batch's views
# checked against the heads by a helper of their own: 1,836; on a general
# node tape: 1,833; with each batch slice of Observations checked again,
# and a generator frame resumed per line that errors.write_lines wrote:
# 1,626.  Then one `lexifuse export` of that checkpoint on the same files,
# from parsing them to writing unified.tsv: 767 on a general node tape, and
# 720 with that generator frame resumed per row of unified.tsv; its rows
# are now formatted in blocks and written through C-level maps.
TRAIN_PINS = {"lexifuse_calls": 1619}
CLI_EXPORT_PINS = {"lexifuse_calls": 235}


@pytest.fixture(scope="module")
def cli_train(tmp_path_factory):
    """(directory, view file paths, lexifuse-frame calls of each of two CLI
    train runs into first/ and second/ there)."""
    tmp_path = tmp_path_factory.mktemp("cli")
    paths = []
    for view in synth_generate(500, 1, 0.1, 1, 1, RngStream(1)).views:
        paths.append(str(tmp_path / f"{view.id}.tsv"))
        lexica.write_lexicon(view, paths[-1])
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 1\n", encoding="utf-8")

    def run(out):
        argv = ["train", "--views", *paths, "--config", str(config), "--seed", "1", "--out", str(tmp_path / out)]
        assert cli.main(argv) == 0

    return tmp_path, paths, [lexifuse_calls(lambda: run(out)) for out in ("first", "second")]


def test_cli_train_calls(cli_train):
    tmp_path, _, (calls, again) = cli_train
    assert again == calls  # the counts repeat exactly
    first, second = (tmp_path / out / "checkpoint.json" for out in ("first", "second"))
    assert first.read_bytes() == second.read_bytes()
    assert calls <= TRAIN_PINS["lexifuse_calls"], calls


def test_cli_export_calls(cli_train):
    tmp_path, paths, _ = cli_train
    checkpoint = str(tmp_path / "first" / "checkpoint.json")

    def run(out):
        assert cli.main(["export", "--checkpoint", checkpoint, "--views", *paths, "--out", str(tmp_path / out)]) == 0

    calls = lexifuse_calls(lambda: run("first.tsv"))
    assert lexifuse_calls(lambda: run("second.tsv")) == calls  # the counts repeat exactly
    assert (tmp_path / "first.tsv").read_bytes() == (tmp_path / "second.tsv").read_bytes()
    assert calls <= CLI_EXPORT_PINS["lexifuse_calls"], calls


# One read_unified of a 20,000-row file (5 blocks of at most
# unified._BLOCK_ROWS rows): calls into lexifuse frames, and the traced peak
# of the read against the file's size.  With each value column converted
# whole, from all rows' fields split at once, it took 10 calls and peaked at
# 8.8 times the file's size; split and converted in blocks it takes one
# split and one column list per block, and peaks at about 4.6 times.
READ_PINS = {"lexifuse_calls": 20, "peak_per_file_byte": 6.0}


@pytest.fixture(scope="module")
def unified_20k(tmp_path_factory):
    """A fixed 20,000-word fused lexicon, and the file write_unified makes of it."""
    gen = np.random.default_rng(0)
    n_views = gen.integers(1, 9, size=20000)
    beta = 1.0 + n_views[:, None] * gen.dirichlet((1.0, 1.0, 1.0), size=20000)
    lexicon = UnifiedLexicon([f"word{i:06d}" for i in range(20000)], beta,
                             beta / beta.sum(axis=1, keepdims=True), n_views)
    path = tmp_path_factory.mktemp("unified") / "u.tsv"
    write_unified(path, lexicon)
    return lexicon, path


def traced_peak(fn) -> int:
    """The peak of traced allocations, in bytes, while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_unified_calls_and_peak(unified_20k):
    lexicon, path = unified_20k
    calls = lexifuse_calls(lambda: read_unified(path))
    assert lexifuse_calls(lambda: read_unified(path)) == calls  # the counts repeat exactly
    assert read_unified(path).words == lexicon.words
    assert calls <= READ_PINS["lexifuse_calls"], calls
    peak = traced_peak(lambda: read_unified(path))
    assert peak <= READ_PINS["peak_per_file_byte"] * path.stat().st_size, peak


def test_write_unified_peak_stays_at_two_blocks(unified_20k, tmp_path):
    # writing 5 blocks' rows peaks no higher than writing 2 blocks': with
    # the six value columns as whole float lists the peak grew with the
    # rows, 2.0 MB for 2 blocks' rows and 4.8 MB for all 20,000
    lexicon, path = unified_20k
    rows = 2 * unified._BLOCK_ROWS
    two_blocks = UnifiedLexicon(lexicon.words[:rows], lexicon.beta[:rows], lexicon.mean[:rows],
                                lexicon.n_views[:rows])
    small = traced_peak(lambda: write_unified(tmp_path / "small.tsv", two_blocks))
    whole = traced_peak(lambda: write_unified(tmp_path / "whole.tsv", lexicon))
    assert (tmp_path / "whole.tsv").read_bytes() == path.read_bytes()
    assert whole <= 1.05 * small, (whole, small)
