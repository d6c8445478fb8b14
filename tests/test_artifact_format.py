"""The artifact formats, byte for byte: the attribution header that each
attributed text artifact starts with, with and without a seed and a config
hash, the floats it prints, and the JSON of a checkpoint; and the Monte
Carlo uniforms that training draws, which every trained artifact rests on."""

import numpy as np
import pytest

from lexifuse.cli import main
from lexifuse.evaluation import LabeledCorpus, write_corpus, write_report
from lexifuse.lexica import binary
from lexifuse.model import save_checkpoint
from lexifuse.rng import stream_for
from lexifuse.training import TrainConfig, frozen_noise, init_model
from lexifuse.unified import write_unified
from reference import lexicon_from_betas

CORPUS = LabeledCorpus(texts=(("good", "film"),), labels=(2,), n_classes=3)
REPORT_ROW = {"mode": "fused-beta", "dataset": "d", "n_train": 4, "n_test": 2,
              "accuracy": 2 / 3, "coverage": 100.0, "feature_dim": 3}
LEXICON = lexicon_from_betas([("w", (2.0, 1.5, 1.5), 2)])

META = {  # name -> (keyword arguments, the header lines after the title)
    "none": ({}, b""),
    "seed": ({"seed": 7}, b"# seed: 7\n"),
    "config_hash": ({"config_hash": "abc"}, b"# config_hash: abc\n"),
    "both": ({"seed": 7, "config_hash": "abc"}, b"# seed: 7\n# config_hash: abc\n"),
}
ARTIFACTS = {  # name -> (writer(path, **meta), title line, the lines after the header)
    "corpus": (
        lambda p, **kw: write_corpus(p, CORPUS, **kw),
        b"# labeled corpus (lexifuse 0.1.0)\n",
        b"2\tgood film\n",
    ),
    "report": (
        lambda p, **kw: write_report(p, [REPORT_ROW], **kw),
        b"# evaluation report (lexifuse 0.1.0)\n",
        b"mode,dataset,n_train,n_test,accuracy,coverage,feature_dim\nfused-beta,d,4,2,0.666666666667,100,3\n",
    ),
    "unified": (
        lambda p, **kw: write_unified(p, LEXICON, **kw),
        b"# unified polarity lexicon (lexifuse 0.1.0)\n",
        b"word\tbeta_pos\tbeta_neg\tbeta_neu\tmean_pos\tmean_neg\tmean_neu\tn_views\n"
        b"w\t2\t1.5\t1.5\t0.4\t0.3\t0.3\t2\n",
    ),
}


@pytest.mark.parametrize("meta", sorted(META))
@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_attributed_artifact_bytes(tmp_path, artifact, meta):
    write, title, body = ARTIFACTS[artifact]
    kwargs, meta_lines = META[meta]
    write(tmp_path / artifact, **kwargs)
    assert (tmp_path / artifact).read_bytes() == title + meta_lines + body


def test_truth_header_bytes(tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--seed", "3", "--n-words", "20", "--n-texts", "10"]) == 0
    head = b"# ground-truth word classes (lexifuse 0.1.0)\n# seed: 3\nword0000\tpositive\nword0001\tneutral\n"
    assert (tmp_path / "truth.tsv").read_bytes().startswith(head)


def test_checkpoint_bytes(tmp_path):
    state = init_model({"v": binary()}, TrainConfig(hidden_dim=1), stream_for(0, "init"))
    state.params[...] = np.array([0.5, 0.0, 1.0, -2.0, 0.1, 0.25, -0.5, 3.0, -1.0, 2.0, -0.75, 1e-5, 4.0, -0.125])
    save_checkpoint(tmp_path / "checkpoint.json", state, config_hash="abc", extra={"epoch": 2, "seed": 7})
    assert (tmp_path / "checkpoint.json").read_bytes() == (
        b'{"component_order": ["positive", "negative", "neutral"], "config_hash": "abc", '
        b'"decoders": {"v": {"b1": [1e-05], "b2": [-0.125], "hidden_dim": 1, "input_dim": 3, '
        b'"output_dim": 1, "w1": [[-1.0, 2.0, -0.75]], "w2": [[4.0]]}}, '
        b'"encoders": {"v": {"b1": [0.0], "b2": [0.25, -0.5, 3.0], "hidden_dim": 1, "input_dim": 1, '
        b'"output_dim": 3, "w1": [[0.5]], "w2": [[1.0], [-2.0], [0.1]]}}, '
        b'"extra": {"epoch": 2, "seed": 7}, "format_version": 1, "scales": {"v": {"tag": "Binary"}}}'
    )


def test_frozen_noise_values():
    # a change of noise scheme moves every trained artifact, and shows here
    words = ["alpha", "beta", "word00001"]
    noise = frozen_noise(TrainConfig(seed=7, n_mc=2), words)
    assert noise.dtype == np.float64
    np.testing.assert_array_equal(noise, [
        [[0.36062039588525197, 0.8126240476421424, 0.30130636822660783],
         [0.8161426500828061, 0.9993172837188073, 0.7761598183633199]],
        [[0.6620297789311249, 0.17920507695739452, 0.9676150973196078],
         [0.1499982034501982, 0.3094695697417167, 0.5500671449046806]],
        [[0.18191523373950025, 0.9059814377902622, 0.12393581491951278],
         [0.9324853649875422, 0.1294087942522929, 0.24007955714053042]],
    ])
