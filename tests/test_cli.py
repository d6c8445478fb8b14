import glob
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lexifuse.cli import main
from lexifuse.errors import FLOAT_FORMAT
from lexifuse.lexica import binary
from lexifuse.model import save_checkpoint
from lexifuse.rng import stream_for
from lexifuse.training import TrainConfig, init_model
from lexifuse.unified import read_unified

BASE = [sys.executable, "-m", "lexifuse.cli"]


def run_cli(*args, env_extra=None, cwd=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, cwd=cwd
    )


def write_standard_views(d):
    (d / "gi.tsv").write_text("#family=Binary\ngood\t1\nbad\t0\n")
    (d / "huliu.tsv").write_text("#family=Binary\ngood\t1\nawful\t0\n")
    (d / "mpqa.tsv").write_text("#family=Binary\nbad\t0\nnice\t1\n")
    (d / "sentic.tsv").write_text("#family=SignedContinuous\ngood\t0.7\nbad\t-0.6\n")
    (d / "swn.tsv").write_text("#family=PairContinuous\ngood\t0.75,0.125\nawful\t0.1,0.8\n")
    (d / "vader.tsv").write_text(
        "#family=RaterHistogram,n_raters=10,n_points=9\n"
        "good\t5,6,7,5,6,8,6,5,7,6\nbad\t1,2,1,0,2,1,1,3,2,1\n"
    )
    return [str(d / f"{n}.tsv") for n in ("gi", "huliu", "mpqa", "sentic", "swn", "vader")]


class TestPipeline:
    def test_synth_train_export_eval(self, tmp_path):
        data = tmp_path / "data"
        r = run_cli(
            "synth", "--out", str(data), "--seed", "5", "--n-words", "30",
            "--n-texts", "40", "--text-len", "6", "--train-fraction", "0.75",
        )
        assert r.returncode == 0, r.stderr
        views = sorted(str(p) for p in data.glob("view_*.tsv"))
        assert len(views) == 4

        r = run_cli("validate", "--views", *views)
        assert r.returncode == 0, r.stderr
        assert "Binary" in r.stdout and "ok" in r.stdout

        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 3\nhidden_dim = 4\n")
        run_dir = tmp_path / "run"
        r = run_cli(
            "train", "--views", *views, "--config", str(cfg), "--seed", "5",
            "--out", str(run_dir),
        )
        assert r.returncode == 0, r.stderr
        assert (run_dir / "checkpoint.json").exists()
        assert (run_dir / "training_log.csv").exists()

        unified = run_dir / "unified.tsv"
        r = run_cli(
            "export", "--checkpoint", str(run_dir / "checkpoint.json"),
            "--views", *views, "--out", str(unified),
        )
        assert r.returncode == 0, r.stderr
        assert unified.exists()
        assert "config_hash" in unified.read_text()

        report = run_dir / "report.csv"
        r = run_cli(
            "eval", "--mode", "fused-beta", "--unified", str(unified),
            "--corpus", str(data / "corpus_train.tsv"), str(data / "corpus_test.tsv"),
            "--out", str(report), "--dataset", "synth", "--seed", "5",
        )
        assert r.returncode == 0, r.stderr
        text = report.read_text()
        assert "mode,dataset,n_train,n_test,accuracy,coverage,feature_dim" in text
        assert "fused-beta,synth,30,10," in text

    def test_eval_restricted_runs(self, tmp_path):
        data = tmp_path / "data"
        run_cli(
            "synth", "--out", str(data), "--seed", "1", "--n-words", "24",
            "--n-texts", "24", "--text-len", "5", "--train-fraction", "0.5",
        )
        views = sorted(str(p) for p in data.glob("view_*.tsv"))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 2\nhidden_dim = 4\n")
        run_cli("train", "--views", *views, "--config", str(cfg), "--out", str(tmp_path / "m"))
        run_cli(
            "export", "--checkpoint", str(tmp_path / "m" / "checkpoint.json"),
            "--views", *views, "--out", str(tmp_path / "u.tsv"),
        )
        r = run_cli(
            "eval", "--mode", "fused-mean", "--unified", str(tmp_path / "u.tsv"),
            "--views", views[0], "--restrict", "view_bin0",
            "--corpus", str(data / "corpus_train.tsv"), str(data / "corpus_test.tsv"),
            "--out", str(tmp_path / "r.csv"),
        )
        assert r.returncode == 0, r.stderr

    def test_hash_word_round_trips(self, tmp_path, capsys, caplog):
        # with the word in column 1, '#happy' is a data row of the view file,
        # but any artifact line starting with it would read as a comment
        (tmp_path / "b.tsv").write_text("1\t#happy\n0\tsad\n1\tglad\n")
        (tmp_path / "s.tsv").write_text("#family=SignedContinuous\nglad\t0.6\nsad\t-0.7\n")
        views = [f"{tmp_path / 'b.tsv'}:binary,word_col=1,value_col=0", str(tmp_path / "s.tsv")]
        (tmp_path / "c.cfg").write_text("epochs = 2\nhidden_dim = 4\n")
        train = ["train", "--views", *views, "--config", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "m")]
        assert main(train) == 0
        unified = tmp_path / "u.tsv"
        assert main(["export", "--checkpoint", str(tmp_path / "m" / "checkpoint.json"),
                     "--views", *views, "--out", str(unified)]) == 0
        assert f"exported 2 words to {unified}" in capsys.readouterr().out
        assert sorted(read_unified(unified).words) == ["glad", "sad"]
        assert "1 words starting with '#' skipped" in caplog.text


class TestConcatDimension:
    def test_sixteen_with_standard_schemas(self, tmp_path):
        views = write_standard_views(tmp_path)
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("0\tgood nice movie\n1\tbad awful film\n0\tgood good\n1\tbad\n")
        report = tmp_path / "report.csv"
        r = run_cli(
            "eval", "--mode", "concat", "--views", *views,
            "--corpus", str(corpus), str(corpus), "--out", str(report),
        )
        assert r.returncode == 0, r.stderr
        data_row = [
            l for l in report.read_text().splitlines()
            if l.startswith("concat,")
        ][0]
        assert data_row.endswith(",16")
        assert "feature_dim 16" in r.stdout


class TestErrorExits:
    def test_missing_file_exit_2_names_path(self, tmp_path):
        r = run_cli("train", "--views", "no_such_lexicon.tsv", "--out", str(tmp_path / "x"))
        assert r.returncode == 2
        assert "no_such_lexicon.tsv" in r.stderr

    def test_parse_error_exit_3(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#family=Binary\nword\tnotanumber\n")
        r = run_cli("validate", "--views", str(bad))
        assert r.returncode == 3
        assert "bad.tsv:2" in r.stderr

    def test_numeric_error_exit_4(self, tmp_path):
        data = tmp_path / "data"
        run_cli(
            "synth", "--out", str(data), "--seed", "2", "--n-words", "12",
            "--n-texts", "5", "--text-len", "4",
        )
        cfg = tmp_path / "c.cfg"
        cfg.write_text("learning_rate = 1e8\nepochs = 3\nhidden_dim = 4\n")
        views = sorted(str(p) for p in data.glob("view_*.tsv"))
        r = run_cli("train", "--views", *views, "--config", str(cfg), "--out", str(tmp_path / "b"))
        assert r.returncode == 4
        assert "word" in r.stderr

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_failed_train_leaves_out_as_it_was(self, tmp_path, capsys, existing):
        data = tmp_path / "data"
        main(["synth", "--out", str(data), "--seed", "2", "--n-words", "12", "--n-texts", "5", "--text-len", "4"])
        cfg = tmp_path / "c.cfg"
        cfg.write_text("learning_rate = 1e8\nepochs = 3\nhidden_dim = 4\n")
        out = tmp_path / "new" / "b"
        if existing:
            out.mkdir(parents=True)
            (out / "keep.txt").write_text("kept\n")
        views = sorted(str(p) for p in data.glob("view_*.tsv"))
        assert main(["train", "--views", *views, "--config", str(cfg), "--out", str(out)]) == 4
        assert "non-finite" in capsys.readouterr().err
        if existing:
            assert [p.name for p in out.iterdir()] == ["keep.txt"]
        else:  # every directory the run made is gone, the new parent too
            assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("key", ["learning_rate", "adam_eps", "weight_init_scale"])
    def test_infinite_config_value_exit_2(self, tmp_path, key):
        view = tmp_path / "v.tsv"
        view.write_text("#family=Binary\ngood\t1\nbad\t0\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = inf\nepochs = 1\nhidden_dim = 4\n")
        r = run_cli("train", "--views", str(view), "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert_clean_exit_2(r)
        assert f"{key} must be finite and nonnegative, got inf" in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["synth", "train", "config"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, case):
        view = tmp_path / "v.tsv"
        view.write_text("#family=Binary\ngood\t1\nbad\t0\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = -2\nepochs = 1\nhidden_dim = 4\n")
        train = ["train", "--views", str(view), "--out", str(tmp_path / "out")]
        synth = ["synth", "--n-words", "40", "--n-texts", "20", "--out", str(tmp_path / "d")]
        argv, seed = {
            "synth": (synth + ["--seed", "-1"], -1),
            "train": (train + ["--seed", "-3"], -3),
            "config": (train + ["--config", str(cfg)], -2),
        }[case]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: seed must be a nonnegative integer, got {seed}")
        assert not (tmp_path / "out").exists() and not (tmp_path / "d").exists()  # refused before --out is made

    @pytest.mark.parametrize("argv, message", [
        (["--train-fraction", "nan"], "--train-fraction must be in (0, 1), got nan"),
        (["--train-fraction", "inf"], "--train-fraction must be in (0, 1), got inf"),
        (["--train-fraction", "1.5"], "--train-fraction must be in (0, 1), got 1.5"),
        (["--train-fraction", "0"], "--train-fraction must be in (0, 1), got 0.0"),
        (["--train-fraction", "0.001"], "--train-fraction 0.001 of 20 texts leaves no train or no test text"),
        (["--train-fraction", "0.99"], "--train-fraction 0.99 of 20 texts leaves no train or no test text"),
        (["--n-words", "0"], "synth sizes must be positive"),
    ], ids=["fraction-nan", "fraction-inf", "fraction-1.5", "fraction-0", "no-train-text", "no-test-text",
            "no-words"])
    def test_synth_refusal_writes_nothing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "d"
        assert main(["synth", "--n-words", "40", "--n-texts", "20", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_synth_with_no_polar_word_refused(self, tmp_path, seed):
        # one word that draws neutral: no text has a majority polarity, so
        # the text loop would redraw forever
        out = tmp_path / "d"
        r = subprocess.run(BASE + ["synth", "--n-words", "1", "--seed", seed, "--out", str(out)],
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 2
        assert r.stderr == ("error: every synth word (1) drew neutral, so no text can be labeled; "
                            "use more words or another seed\n")
        assert not out.exists()

    def test_usage_error_exit_2(self):
        r = run_cli()
        assert r.returncode == 2

    def test_bad_thread_cap(self, tmp_path):
        # LEXIFUSE_THREADS is no longer read, so a stale value changes nothing
        view = tmp_path / "v.tsv"
        view.write_text("#family=Binary\ngood\t1\n")
        r = run_cli("validate", "--views", str(view), env_extra={"LEXIFUSE_THREADS": "many"})
        assert r.returncode == 0

    def test_validate_warns_once_per_view(self, tmp_path):
        view = tmp_path / "v.tsv"
        view.write_text("#family=Binary\ngood\t1\ngood\t0\nbad\t0\n")
        r = run_cli("validate", "--views", str(view))
        assert r.returncode == 0, r.stderr
        assert r.stderr.count("1 duplicate words resolved last-wins") == 1

    def test_validate_reports_shared_words(self, tmp_path):
        (tmp_path / "a.tsv").write_text("#family=Binary\ngood\t1\nbad\t0\n")
        (tmp_path / "b.tsv").write_text("#family=SignedContinuous\nfine\t0.5\npoor\t-0.5\nnice\t0.75\n")
        (tmp_path / "c.tsv").write_text("#family=Binary\nfine\t1\n")
        r = run_cli("validate", "--views", str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv"))
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == ["a: 2 words, family Binary, 0 shared with another view",
                                         "b: 3 words, family SignedContinuous, 0 shared with another view", "ok"]
        assert r.stderr.count("share no word") == 1 and "views ['a', 'b'] share no word" in r.stderr
        r = run_cli("validate", "--views", *(str(tmp_path / f"{v}.tsv") for v in "abc"))
        assert r.returncode == 0, r.stderr
        assert [line.split(", ")[-1] for line in r.stdout.splitlines()] == [
            "0 shared with another view", "1 shared with another view", "1 shared with another view", "ok"]
        assert "views ['a'] share no word" in r.stderr

    def test_version_flag(self):
        r = run_cli("--version")
        assert r.returncode == 0
        assert "lexifuse" in r.stdout

    def test_negative_schema_column_exit_2(self, tmp_path):
        view = tmp_path / "b.tsv"
        view.write_text("good\t1\n")
        r = run_cli("validate", "--views", f"{view}:binary,word_col=-5")
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:") and "word_col" in r.stderr
        assert "Traceback" not in r.stderr

    def test_shared_schema_column_exit_2(self, tmp_path):
        view = tmp_path / "s.tsv"
        view.write_text("good\t0.5\n")
        r = run_cli("validate", "--views", f"{view}:signed,word_col=1")
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:") and "word_col and value_col" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "schema, option",
        [
            ("binary,points=1,raters=0", "raters"),
            ("signed,pos=x", "pos"),
            ("binary,neg_col=7", "neg_col"),
            ("binary,pos=same,neg=same", "same"),
        ],
    )
    def test_option_outside_its_family_exit_2(self, tmp_path, schema, option):
        view = tmp_path / "b.tsv"
        view.write_text("good\t1\n")
        r = run_cli("validate", "--views", f"{view}:{schema}")
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:") and option in r.stderr
        assert "Traceback" not in r.stderr

    def test_repeated_schema_option_exit_2(self, tmp_path):
        view = tmp_path / "b.tsv"
        view.write_text("good\t1\n")
        r = run_cli("validate", "--views", f"{view}:binary,pos=good,pos=great")
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:") and "pos" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "header",
        [
            "#family=RaterHistogram,n_raters=3,n_point=5",
            "#family=RaterHistogram,n_raters=3,n_points=1",
            "#family=RaterHistogram,n_raters=3,n_raters=2",
        ],
    )
    def test_bad_rater_header_exit_3(self, tmp_path, header):
        view = tmp_path / "r.tsv"
        view.write_text(f"{header}\ngood\t0,0,0\n")
        r = run_cli("validate", "--views", str(view))
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("error:") and "r.tsv:1" in r.stderr
        assert "Traceback" not in r.stderr


    @pytest.mark.parametrize(
        "row",
        [
            "good inf 1 1 nan 0 0 1",
            "good inf inf inf nan nan nan 1",
            "good -inf 1 1 0 0 0 1",
            "good nan 1.5 1.5 0.4 0.3 0.3 2",
            "good 2 1.5 1.5 nan 0.3 0.3 2",
            "good 2 1.5 1.5 inf 0.3 0.3 2",
            "good 2 1.5 1.5 -inf 0.3 0.3 2",
        ],
    )
    def test_non_finite_unified_exit_3(self, tmp_path, row):
        unified = tmp_path / "u.tsv"
        unified.write_text(
            "word\tbeta_pos\tbeta_neg\tbeta_neu\tmean_pos\tmean_neg\tmean_neu\tn_views\n"
            + row.replace(" ", "\t") + "\n"
        )
        corpus = tmp_path / "c.tsv"
        corpus.write_text("0\tgood\n1\tbad\n")
        r = run_cli("eval", "--mode", "fused-mean", "--unified", str(unified),
                    "--corpus", str(corpus), str(corpus), "--out", str(tmp_path / "r.csv"))
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("error:") and "u.tsv:2" in r.stderr
        assert "Traceback" not in r.stderr


def write_binary_checkpoint(d):
    """An untrained checkpoint for one Binary view with id "v", plus that view."""
    view = d / "v.tsv"
    view.write_text("#family=Binary\ngood\t1\nbad\t0\n")
    state = init_model({"v": binary()}, TrainConfig(hidden_dim=4), stream_for(0, "init"))
    checkpoint = d / "checkpoint.json"
    save_checkpoint(checkpoint, state)
    return view, checkpoint


def export(checkpoint, view, out):
    return run_cli("export", "--checkpoint", str(checkpoint), "--views", str(view), "--out", str(out))


def assert_clean_exit_2(r):
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.stderr


class TestCheckpointErrors:
    def test_truncated_checkpoint(self, tmp_path):
        view, checkpoint = write_binary_checkpoint(tmp_path)
        checkpoint.write_text(checkpoint.read_text()[:200])
        assert_clean_exit_2(export(checkpoint, view, tmp_path / "u.tsv"))

    def test_checkpoint_without_scales(self, tmp_path):
        view, checkpoint = write_binary_checkpoint(tmp_path)
        doc = json.loads(checkpoint.read_text())
        del doc["scales"]
        checkpoint.write_text(json.dumps(doc))
        r = export(checkpoint, view, tmp_path / "u.tsv")
        assert_clean_exit_2(r)
        assert "scales" in r.stderr

    def test_deeply_nested_checkpoint(self, tmp_path):
        view, checkpoint = write_binary_checkpoint(tmp_path)
        checkpoint.write_text("[" * 100_000)
        r = export(checkpoint, view, tmp_path / "u.tsv")
        assert_clean_exit_2(r)
        assert "is not valid JSON" in r.stderr

    def test_non_finite_weight_refused(self, tmp_path):
        view, checkpoint = write_binary_checkpoint(tmp_path)
        doc = json.loads(checkpoint.read_text())
        doc["encoders"]["v"]["b2"][0] = float("nan")
        checkpoint.write_text(json.dumps(doc))
        r = export(checkpoint, view, tmp_path / "u.tsv")
        assert_clean_exit_2(r)
        assert "view 'v' encoder b2 holds a non-finite value" in r.stderr
        assert not (tmp_path / "u.tsv").exists()

    @pytest.mark.parametrize("head, name, value", [
        ("encoder", "b2", "0.1"),
        ("decoder", "b1", True),
        ("encoder", "w1", None),
    ])
    def test_non_numeric_weight_refused(self, tmp_path, head, name, value):
        view, checkpoint = write_binary_checkpoint(tmp_path)
        doc = json.loads(checkpoint.read_text())
        row = doc[f"{head}s"]["v"][name]
        if name.startswith("w"):  # a matrix: edit its first row
            row = row[0]
        row[0] = value
        checkpoint.write_text(json.dumps(doc))
        r = export(checkpoint, view, tmp_path / "u.tsv")
        assert_clean_exit_2(r)
        assert f"view 'v' {head} {name} holds a non-numeric value" in r.stderr
        assert not (tmp_path / "u.tsv").exists()

    @pytest.mark.parametrize("key, value", [
        ("config_hash", "ab\ncd"),
        ("config_hash", ["ab"]),
        ("config_hash", "AB12"),
        ("extra.seed", "7"),
        ("extra.seed", True),
        ("extra.seed", {"n": 7}),
    ])
    def test_header_metadata_refused(self, tmp_path, key, value):
        view, checkpoint = write_binary_checkpoint(tmp_path)
        doc = json.loads(checkpoint.read_text())
        if key == "extra.seed":
            doc["extra"]["seed"] = value
        else:
            doc[key] = value
        checkpoint.write_text(json.dumps(doc))
        r = export(checkpoint, view, tmp_path / "u.tsv")
        assert_clean_exit_2(r)
        assert f"{checkpoint}: '{key}' is not" in r.stderr
        assert not (tmp_path / "u.tsv").exists()

    def test_scale_mismatch_refused(self, tmp_path):
        view, checkpoint = write_binary_checkpoint(tmp_path)
        r = export(checkpoint, view, tmp_path / "u.tsv")
        assert r.returncode == 0, r.stderr
        view.write_text("#family=SignedContinuous\ngood\t0.5\nbad\t-0.5\n")
        r = export(checkpoint, view, tmp_path / "u2.tsv")
        assert_clean_exit_2(r)
        assert "'v'" in r.stderr and "SignedContinuous" in r.stderr and "Binary" in r.stderr
        assert not (tmp_path / "u2.tsv").exists()


def _unwritable_command(case, d):
    """A CLI call whose output path cannot be written, and that path."""
    view, checkpoint = write_binary_checkpoint(d)
    corpus = d / "c.tsv"
    corpus.write_text("0\tgood\n1\tbad\n")
    (d / "a_dir").mkdir()
    (d / "a_file").write_text("")
    export_to = ["export", "--checkpoint", str(checkpoint), "--views", str(view), "--out"]
    out, argv = {
        "export-into-missing-dir": (d / "missing" / "u.tsv", export_to),
        "export-onto-dir": (d / "a_dir", export_to),
        "eval-into-missing-dir": (d / "missing" / "r.csv", [
            "eval", "--mode", "single:v", "--views", str(view), "--corpus", str(corpus), str(corpus), "--out"]),
        "train-onto-file": (d / "a_file", ["train", "--views", str(view), "--out"]),
        "synth-onto-file": (d / "a_file", ["synth", "--n-words", "40", "--n-texts", "20", "--out"]),
    }[case]
    return argv + [str(out)], out


@pytest.mark.parametrize("case", [
    "export-into-missing-dir", "export-onto-dir", "eval-into-missing-dir", "train-onto-file", "synth-onto-file",
])
def test_unwritable_output_exit_2(tmp_path, capsys, case):
    argv, out = _unwritable_command(case, tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".")) == []


def _missing_inputs(command, d):
    """An export or eval call all of whose inputs are missing from d."""
    if command == "export":
        return ["export", "--checkpoint", str(d / "c.json"), "--views", str(d / "v.tsv")]
    return ["eval", "--mode", "single:v", "--views", str(d / "v.tsv"), "--corpus", str(d / "a.tsv"), str(d / "b.tsv")]


@pytest.mark.parametrize("command", ["export", "eval"])
def test_unwritable_output_refused_before_reading_inputs(tmp_path, capsys, command):
    missing = tmp_path / "missing"
    out = missing / ("u.tsv" if command == "export" else "r.csv")
    assert main(_missing_inputs(command, missing) + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("command", ["export", "eval"])
def test_output_check_leaves_existing_file(tmp_path, capsys, command):
    out = tmp_path / "out.txt"
    out.write_text("kept\n")
    assert main(_missing_inputs(command, tmp_path) + ["--out", str(out)]) == 2
    assert "cannot write" not in capsys.readouterr().err
    assert out.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def _reader_command(reader, bad, d):
    """A CLI call whose first input read is `bad`, through the named reader."""
    view = d / "v.tsv"
    view.write_text("#family=Binary\ngood\t1\nbad\t0\n")
    corpus = d / "c.tsv"
    corpus.write_text("0\tgood\n1\tbad\n")
    out = str(d / "out")
    if reader == "lexicon":
        return ["validate", "--views", bad]
    if reader == "checkpoint":
        return ["export", "--checkpoint", bad, "--views", str(view), "--out", out]
    if reader == "config":
        return ["train", "--views", str(view), "--config", bad, "--out", out]
    if reader == "unified":
        return ["eval", "--mode", "fused-beta", "--unified", bad,
                "--corpus", str(corpus), str(corpus), "--out", out]
    return ["eval", "--mode", "single:v", "--views", str(view),
            "--corpus", bad, bad, "--out", out]


@pytest.mark.parametrize("reader", ["lexicon", "checkpoint", "config", "unified", "corpus"])
@pytest.mark.parametrize(
    "case, code",
    [("missing", 2), ("directory", 2), ("not_utf8", 3)],
)
def test_unreadable_input(tmp_path, reader, case, code):
    bad = tmp_path / "bad.txt"
    if case == "directory":
        bad.mkdir()
    elif case == "not_utf8":
        bad.write_bytes(b"good\t1\n\xff\t0\n")
    r = run_cli(*_reader_command(reader, str(bad), tmp_path))
    assert r.returncode == code, r.stderr
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.stderr
    assert str(bad) in r.stderr
    if case == "not_utf8":
        assert f"{bad}:2:" in r.stderr


def quick_start_steps() -> list[tuple[str, list[str]]]:
    """(the comment above it, argv) for each command of README's quick start
    block, with its continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    steps, comment = [], ""
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("#"):
            comment += line + "\n"
        elif line.strip():
            steps.append((comment, shlex.split(line)))
            comment = ""
    return steps


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = quick_start_steps()
    assert [argv[:2] for _, argv in steps] == [
        ["lexifuse", command] for command in ("synth", "validate", "train", "export", "eval")
    ]
    for comment, argv in steps:
        args = [arg for word in argv[1:] for arg in (sorted(glob.glob(word)) or [word] if "*" in word else [word])]
        assert main(args) == 0, capsys.readouterr().err
        if "--out" in args:
            out = Path(args[args.index("--out") + 1])
            assert out.exists()
            for name in re.findall(r"[\w-]+\.(?:json|csv|tsv)\b", comment):  # files the comment says it writes
                assert (out / name).is_file(), name


def test_readme_python_sketch_runs(tmp_path, monkeypatch):
    """README's Python API sketch, run as written on two hand-typed views."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("Python API sketch:", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "bin.tsv").write_text("#family=Binary\ngood\t1\nbad\t0\nfine\t1\nawful\t0\n", encoding="utf-8")
    (tmp_path / "sig.tsv").write_text("#family=SignedContinuous\ngood\t0.75\nbad\t-0.5\nmeh\t0\n",
                                      encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    names = {"paths": ["bin.tsv", "sig.tsv"]}
    exec(compile(sketch, "README.md", "exec"), names)
    lexicon, back = names["lexicon"], read_unified(tmp_path / "unified.tsv")
    assert back.words == lexicon.words == ["awful", "bad", "fine", "good", "meh"]
    assert back.n_views.tolist() == lexicon.n_views.tolist() == [1, 2, 1, 2, 1]
    for column in ("beta", "mean"):
        text = np.vectorize(lambda v: float(FLOAT_FORMAT % v))(getattr(lexicon, column))
        np.testing.assert_array_equal(getattr(back, column), text)
