"""Metamorphic relations: changes to the input files that must leave the
fused lexicon unchanged.

Each relation writes transformed copies of a small synthetic set's view
files (same file names, so the same view ids, unless a schema's `id=` names
them), runs `lexifuse train` and `lexifuse export` on them in-process through
`cli.main`, and compares the output bytes with a base run on the untouched
files.  None of the relations depends on how training draws its noise, so
they hold across a change of noise scheme that golden bytes cannot follow.
"""

import random

import pytest

from lexifuse import cli

TRAIN_SEED = "5"


@pytest.fixture(scope="module", params=[3, 11])
def synth(request, tmp_path_factory):
    """(view files, train config) of a small synth set at the given seed."""
    d = tmp_path_factory.mktemp(f"synth{request.param}")
    argv = ["synth", "--out", str(d), "--seed", str(request.param),
            "--n-words", "60", "--n-texts", "2", "--text-len", "2"]
    assert cli.main(argv) == 0
    config = d / "train.cfg"
    config.write_text("epochs = 2\nbatch_size = 16\nhidden_dim = 4\n")
    return sorted(d.glob("view_*.tsv")), config


def export(checkpoint, views, out):
    argv = ["export", "--checkpoint", str(checkpoint), "--views", *map(str, views), "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_bytes()


def fuse(views, config, out):
    """Train on the view files, then export them; returns the run directory,
    which holds checkpoint.json and unified.tsv."""
    argv = ["train", "--views", *map(str, views), "--config", str(config),
            "--seed", TRAIN_SEED, "--out", str(out)]
    assert cli.main(argv) == 0
    export(out / "checkpoint.json", views, out / "unified.tsv")
    return out


@pytest.fixture(scope="module")
def base(synth, tmp_path_factory):
    views, config = synth
    return fuse(views, config, tmp_path_factory.mktemp("base"))


def rewrite(views, out, change_lines, newline="\n"):
    """Copies of the view files under out, each one's data rows (the lines
    after its `#family=` header) passed through change_lines."""
    out.mkdir()
    copies = []
    for path in views:
        head, *rows = path.read_text(encoding="utf-8").splitlines()
        copy = out / path.name
        copy.write_bytes(newline.join([head, *change_lines(rows), ""]).encode("utf-8"))
        copies.append(copy)
    return copies


def renamed(views, out):
    """Copies under other file names, each keeping its view id through `id=`."""
    out.mkdir()
    args = []
    for k, path in enumerate(views):
        copy = out / f"lexicon{len(views) - k}.txt"
        copy.write_bytes(path.read_bytes())
        args.append(f"{copy}:auto,id={path.stem}")
    return args


def swapped_columns(views, out):
    """Copies with the label before the word, read through word_col and value_col."""
    copies = rewrite(views, out, lambda rows: ["\t".join(row.split("\t")[::-1]) for row in rows])
    return [f"{copy}:auto,word_col=1,value_col=0" for copy in copies]


def spelled_binary(views, out):
    """The binary views' labels spelled as words, read through pos= and neg=
    (which match case-folded); the other views as they are."""
    spelling = {"1": "Good", "0": "bad"}

    def spell(rows):
        return [word + "\t" + spelling[label] for word, label in (row.split("\t") for row in rows)]

    binary = [path for path in views if path.read_text(encoding="utf-8").startswith("#family=Binary\n")]
    assert binary
    args = {path: f"{copy}:auto,pos=good,neg=BAD" for path, copy in zip(binary, rewrite(binary, out, spell))}
    return [args.get(path, str(path)) for path in views]


def padded(rows):
    return ["  " + " \t ".join(row.split("\t")) + " " for row in rows]


def commented(rows):
    out = ["", "# a comment line", "   "]
    for k, row in enumerate(rows):
        out.append(row)
        if k % 7 == 3:
            out += ["", "  # an indented comment", "#"]
    return out + ["", "# the end"]


def shuffled(rows):
    rows = list(rows)
    random.Random(0).shuffle(rows)
    return rows


def upper_cased(rows):
    return [word.upper() + "\t" + rest for word, rest in (row.split("\t", 1) for row in rows)]


# relation -> (view files, their directory) -> the view arguments to run on
RELATIONS = {
    "reversed views": lambda views, out: views[::-1],
    "crlf": lambda views, out: rewrite(views, out, lambda rows: rows, newline="\r\n"),
    "shuffled rows": lambda views, out: rewrite(views, out, shuffled),
    "upper-cased words": lambda views, out: rewrite(views, out, upper_cased),
    "renamed files": renamed,
    "swapped columns": swapped_columns,
    "binary labels as words": spelled_binary,
    "padded fields": lambda views, out: rewrite(views, out, padded),
    "comment and blank lines": lambda views, out: rewrite(views, out, commented),
}


@pytest.mark.parametrize("relation", list(RELATIONS))
def test_fused_output_unchanged(synth, base, tmp_path, relation):
    views, config = synth
    changed = RELATIONS[relation](views, tmp_path / "in")
    run = fuse(changed, config, tmp_path / "run")
    for name in ("unified.tsv", "checkpoint.json"):
        assert (run / name).read_bytes() == (base / name).read_bytes(), name


def rows_by_word(unified: bytes) -> dict[bytes, bytes]:
    lines = [line for line in unified.splitlines() if not line.startswith(b"#")]
    return {line.split(b"\t", 1)[0]: line for line in lines[1:]}


def test_left_out_view_keeps_other_rows(synth, base, tmp_path):
    views, _ = synth
    full = rows_by_word((base / "unified.tsv").read_bytes())
    for k, left_out in enumerate(views):
        covered = {line.split("\t", 1)[0].encode("utf-8")
                   for line in left_out.read_text(encoding="utf-8").splitlines()[1:]}
        rest = rows_by_word(export(base / "checkpoint.json", views[:k] + views[k + 1:], tmp_path / f"u{k}.tsv"))
        outside = {word: line for word, line in full.items() if word not in covered}
        assert outside, left_out.name
        assert {word: line for word, line in rest.items() if word not in covered} == outside, left_out.name
