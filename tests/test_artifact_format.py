"""The text-artifact format, byte for byte: the attribution header that each
attributed artifact starts with, with and without a seed and a config hash,
and the floats it prints."""

import pytest

from lexifuse.cli import main
from lexifuse.evaluation import LabeledCorpus, write_corpus, write_report
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
