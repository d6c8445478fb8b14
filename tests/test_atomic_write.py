"""Artifacts are written atomically: through one helper, as a new file beside
the target that os.replace moves onto it, so a write that fails part way
leaves the previous file as it was and no temporary file behind."""

import numpy as np
import pytest

from lexifuse import errors
from lexifuse.errors import atomic_write
from lexifuse.evaluation import write_report
from lexifuse.lexica import signed_continuous, write_lexicon
from lexifuse.model import save_checkpoint
from lexifuse.unified import write_unified
from reference import lexicon_from_betas
from row_lexica import view_of
from test_model import small_state


def leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith("."))


class TestAtomicWrite:
    def test_replaces_on_success(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("old")
        with atomic_write(p) as f:
            f.write("new\n")
        assert p.read_text() == "new\n"
        assert leftovers(tmp_path) == []

    def test_error_mid_write_keeps_previous_file(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(p) as f:
                f.write("half")
                f.flush()
                raise RuntimeError("stopped part way")
        assert p.read_text() == "old"
        assert leftovers(tmp_path) == []

    def test_mode_as_plain_write(self, tmp_path):
        p, q = tmp_path / "atomic.txt", tmp_path / "plain.txt"
        with atomic_write(p) as f:
            f.write("x")
        q.write_text("x")
        assert p.stat().st_mode == q.stat().st_mode


REPORT_ROW = {"mode": "fused-beta", "dataset": "d", "n_train": 4, "n_test": 2,
              "accuracy": 0.5, "coverage": 100.0, "feature_dim": 3}
WRITERS = {  # name -> writer(path, k), where k picks one of two different contents
    "unified": lambda p, k: write_unified(p, lexicon_from_betas([("w", (2.0, 1.5, 1.5), 2)]), seed=k),
    "checkpoint": lambda p, k: save_checkpoint(p, small_state(seed=k)),
    "report": lambda p, k: write_report(p, [REPORT_ROW], seed=k),
    "lexicon": lambda p, k: write_lexicon(view_of("v", signed_continuous(), {"w": k / 4}), p),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_leaves_previous_file(tmp_path, monkeypatch, name):
    p = tmp_path / "artifact"
    WRITERS[name](p, 0)
    before = p.read_bytes()

    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(errors.os, "replace", refuse)
    with pytest.raises(OSError):
        WRITERS[name](p, 1)
    assert p.read_bytes() == before
    assert leftovers(tmp_path) == []
    monkeypatch.undo()
    WRITERS[name](p, 1)
    assert p.read_bytes() != before


def test_unified_failing_in_second_block(tmp_path):
    # rows are formatted as they are written; a row that fails after earlier
    # rows went out keeps the old file
    p = tmp_path / "u.tsv"
    write_unified(p, lexicon_from_betas([("w", (2.0, 1.5, 1.5), 2)]))
    before = p.read_bytes()

    class Unprintable:
        def __str__(self):
            raise RuntimeError("row 2 cannot be formatted")

    class Broken:  # three rows, the second of which cannot be written
        words = ["a", Unprintable(), "c"]
        beta = np.full((3, 3), 4.0 / 3.0)
        mean = beta / 4.0
        n_views = np.ones(3, dtype=int)

        def __len__(self):
            return 3

    with pytest.raises(RuntimeError, match="row 2"):
        write_unified(p, Broken())
    assert p.read_bytes() == before
    assert leftovers(tmp_path) == []
