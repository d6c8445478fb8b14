"""Command-line pipeline: synth -> validate -> train -> export -> eval.

Corpora, `truth.tsv`, `unified.tsv` and `report.csv` open with the
attribution header (errors.header: tool version, seed, config hash); view
files carry only their `#family=` header, `training_log.csv` none, and
`checkpoint.json` its config hash and seed as JSON fields.  Runs with the
same inputs and seed write byte-identical outputs, apart from the wall
times in `training_log.csv`.  Error exit codes by category: 2
usage/configuration, 3 parse/domain, 4 numeric.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, LexifuseError, check_writable, header, output_errors, write_lines
from .evaluation import (
    coverage,
    evaluate,
    make_featurizer,
    read_corpus,
    restrict_vocabulary,
    split_corpus,
    synth_generate,
    write_corpus,
    write_report,
)
from .lexica import (
    COMPONENTS,
    LexiconView,
    ViewSchema,
    build_vocabulary,
    compute_prior,
    parse_lexicon,
    parse_schema,
    write_lexicon,
)
from .model import load_checkpoint, observations_from_views
from .rng import RngStream
from .training import TrainConfig, config_hash, load_train_config, train
from .unified import export_lexicon, read_unified, write_unified


def _split_view_arg(arg: str) -> tuple[str, ViewSchema | None]:
    if ":" in arg:
        path, schema_text = arg.split(":", 1)
        return path, parse_schema(schema_text)
    return arg, None


def _load_views(view_args: list[str]) -> list[LexiconView]:
    views = []
    for arg in view_args:
        path, schema = _split_view_arg(arg)
        views.append(parse_lexicon(path, schema))
    return views


def cmd_synth(args) -> int:
    fraction = args.train_fraction
    if fraction is not None and not 0.0 < fraction < 1.0:
        raise ConfigError(f"--train-fraction must be in (0, 1), got {fraction}")
    data = synth_generate(
        args.n_words,
        args.views_per_family,
        args.noise,
        args.n_texts,
        args.text_len,
        RngStream(args.seed),
    )
    # generated and split before --out is made, so a refused input writes nothing
    splits = ()
    if fraction is not None:
        n_train = round(fraction * len(data.corpus))
        if not 0 < n_train < len(data.corpus):
            raise ConfigError(
                f"--train-fraction {fraction} of {len(data.corpus)} texts leaves no train or no test text")
        splits = split_corpus(data.corpus, n_train)
    out = Path(args.out)
    with output_errors(out):
        out.mkdir(parents=True, exist_ok=True)
    for view in data.views:
        write_lexicon(view, out / f"view_{view.id}.tsv")
    write_corpus(out / "corpus.tsv", data.corpus, seed=args.seed)
    truth = [f"{w}\t{COMPONENTS[c]}" for w, c in sorted(data.word_classes.items())]
    write_lines(out / "truth.tsv", header("ground-truth word classes", seed=args.seed) + truth)
    for name, part in zip(("corpus_train", "corpus_test"), splits):
        write_corpus(out / f"{name}.tsv", part, seed=args.seed)
    print(
        f"wrote {len(data.views)} views, {len(data.corpus)} texts, "
        f"{args.n_words} words to {out}"
    )
    return 0


def cmd_validate(args) -> int:
    views = _load_views(args.views)
    for view in views:
        extras = ""
        if view.family.n_raters is not None:
            extras = f" ({view.family.n_raters} raters, {view.family.n_points} points)"
        print(f"{view.id}: {len(view)} words, family {view.family.tag}{extras}")
    build_vocabulary(views)
    print("ok")
    return 0


def cmd_train(args) -> int:
    config = load_train_config(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    views = _load_views(args.views)
    vocab = build_vocabulary(views)
    priors = {w: compute_prior(w, views, vocab) for w in vocab.sorted_words()}
    obs = observations_from_views(views, vocab, priors)
    out = Path(args.out)
    made = next((d for d in reversed([out, *out.parents]) if not d.exists()), None)  # the top new directory
    with output_errors(out):
        out.mkdir(parents=True, exist_ok=True)
    try:
        result = train(vocab, obs, config, checkpoint_path=out / "checkpoint.json", log_path=out / "training_log.csv")
    except BaseException:
        if made is not None:  # a failed run leaves no directory it created
            shutil.rmtree(made)
        raise
    final = result.log[-1]["mean_elbo"] if result.log else float("nan")
    print(
        f"trained {result.epochs_run} epochs on {len(obs)} words "
        f"(final mean ELBO {final:.4f}); checkpoint in {out}"
    )
    return 0


def cmd_export(args) -> int:
    check_writable(args.out)
    state, meta = load_checkpoint(args.checkpoint)
    views = _load_views(args.views)
    lexicon = export_lexicon(state, views)
    write_unified(args.out, lexicon, seed=meta["extra"].get("seed"), config_hash=meta["config_hash"] or None)
    print(f"exported {len(lexicon)} words to {args.out}")
    return 0


def cmd_eval(args) -> int:
    check_writable(args.out)
    views = _load_views(args.views) if args.views else []
    unified = read_unified(args.unified) if args.unified else None
    if args.restrict is not None:
        if unified is None:
            raise ConfigError("--restrict needs --unified")
        match = [v for v in views if v.id == args.restrict]
        if not match:
            raise ConfigError(f"--restrict {args.restrict!r}: no such view loaded")
        unified = restrict_vocabulary(unified, match[0])
    featurizer = make_featurizer(args.mode, unified=unified, views=views)

    train_path, test_path = args.corpus
    corpus_train = read_corpus(train_path)
    corpus_test = read_corpus(test_path)
    acc = evaluate(corpus_train, corpus_test, featurizer)
    cov = coverage(featurizer, corpus_train)
    row = {
        "mode": args.mode,
        "dataset": args.dataset or Path(train_path).stem,
        "n_train": len(corpus_train),
        "n_test": len(corpus_test),
        "accuracy": acc,
        "coverage": cov,
        "feature_dim": featurizer.dim,
    }
    hash_source = unified.meta.get("config_hash") if unified is not None else None
    write_report(args.out, [row], seed=args.seed, config_hash=hash_source)
    print(
        f"mode {args.mode}: accuracy {acc:.4f}, coverage {cov:.1f}%, "
        f"feature_dim {featurizer.dim} -> {args.out}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexifuse",
        description="Fuse sentiment lexica into one polarity representation "
        "and evaluate it on text classification.",
    )
    parser.add_argument("--version", action="version", version=f"lexifuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic views and a labeled corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-words", type=int, default=500)
    p.add_argument("--views-per-family", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--n-texts", type=int, default=2500)
    p.add_argument("--text-len", type=int, default=20)
    p.add_argument(
        "--train-fraction",
        type=float,
        default=None,
        help="also write corpus_train/corpus_test split at this fraction",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="parse view files and report their shape")
    p.add_argument("--views", nargs="+", required=True, metavar="PATH[:SCHEMA]")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="fit the fusion model on parsed views")
    p.add_argument("--views", nargs="+", required=True, metavar="PATH[:SCHEMA]")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="key = value training config file")
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("export", help="write the unified lexicon from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--views", nargs="+", required=True, metavar="PATH[:SCHEMA]")
    p.add_argument("--out", required=True, help="output TSV path")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("eval", help="train/test a text classifier on one representation")
    p.add_argument(
        "--mode", required=True, help="fused-mean | fused-beta | single:<view> | concat"
    )
    p.add_argument("--corpus", nargs=2, required=True, metavar=("TRAIN", "TEST"))
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--unified", default=None, help="unified lexicon TSV (fused modes)")
    p.add_argument("--views", nargs="+", default=None, metavar="PATH[:SCHEMA]")
    p.add_argument("--restrict", default=None, metavar="VIEW_ID",
                   help="restrict the unified lexicon to one view's vocabulary")
    p.add_argument("--dataset", default=None, help="dataset name for the report")
    p.add_argument("--seed", type=int, default=None, help="recorded in the report header")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except LexifuseError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
