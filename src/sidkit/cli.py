"""Command-line pipeline: tokenize, collide, evaluate, train, retrieve.

Every subcommand is a thin deterministic wrapper over one library operation.
Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from itertools import chain
from pathlib import Path

from . import collision, quantizer, retrieval, sidmetrics, toydata
from .catalog import (
    INT_LIST,
    SID_STRING,
    SidStructure,
    load_item_catalog,
    load_sequences,
    render_sid_string,
    save_item_catalog,
    save_sequences,
    write_artifact,
)
from .errors import DataError, NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this CLI reserves 2 for
    data errors, so remap usage failures to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: error: {message}")


def _int_list(text: str) -> tuple[int, ...]:
    """The integers of a comma list: empty, or ASCII-digit items joined by
    single commas.  Any other spelling is an ArgumentTypeError."""
    if not INT_LIST.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma list of integers in ASCII digits")
    return tuple(map(int, text.split(","))) if text else ()


def _structure(args) -> SidStructure:
    return SidStructure(_int_list(args.levels), code_dim=args.code_dim)


def build_parser() -> _Parser:
    parser = _Parser(prog="sidkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_catalog_args(p):
        p.add_argument("--catalog", required=True, help="item catalog TSV")
        p.add_argument("--d-in", type=int, required=True, help="embedding dimension")

    def add_structure_args(p):
        p.add_argument("--levels", required=True, help="comma list of level sizes, e.g. 16,16,16")
        p.add_argument("--code-dim", type=int, default=64, help="codebook vector dimension")

    p = sub.add_parser("tokenize", help="learn a quantizer and assign raw SIDs")
    add_catalog_args(p)
    add_structure_args(p)
    p.add_argument("--kind", required=True, choices=["rqvae", "rqkmeans", "multivq", "random"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--warmup-epochs", type=int, default=40)
    p.add_argument("--lr", type=float, default=2e-4)
    p.add_argument("--batch-size", type=int, default=2048)
    p.add_argument("--hidden-dims", type=_int_list, default=(256, 256))
    p.add_argument("--iters", type=int, default=100, help="k-means iterations per level")
    p.add_argument("--out-assignment", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-trace", help="optional loss-trace CSV")

    p = sub.add_parser("collide", help="apply a collision policy to the raw assignment")
    add_catalog_args(p)
    p.add_argument("--model", required=True, help="quantizer file from tokenize")
    p.add_argument("--policy", required=True, choices=["noco", "knn", "random", "merge"])
    p.add_argument("--sigma", type=int, default=collision.DEFAULT_SIGMA)
    p.add_argument("--merge-threshold", type=int, default=0)
    p.add_argument("--assignment",
                   help="assignment TSV that merge and noco repair (default: the raw assignment "
                        "from --catalog and --model); knn and random do not read it")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval-sid", help="print SID quality metrics")
    add_catalog_args(p)
    p.add_argument("--assignment", required=True)
    p.add_argument("--levels", help="comma list of level sizes (or pass --model)")
    p.add_argument("--model", help="quantizer file; enables reconstruction fidelity")
    p.add_argument("--labels", help="pair-label TSV; enables consistency")
    p.add_argument("--sequences", help="sequence TSV; enables embedding hitrate")
    p.add_argument("--k", type=int, default=10, help="K for embedding hitrate")
    p.add_argument("--occupied-only", action="store_true",
                   help="Gini over occupied SIDs only (changes the value; the "
                        "default includes every possible SID as a zero)")
    p.add_argument("--csv", help="also write the metric table as CSV")

    p = sub.add_parser("train-scorer", help="count-train the Markov scorer")
    add_structure_args(p)
    p.add_argument("--corpus", help="token-stream file from build-pretrain-corpus")
    p.add_argument("--sequences", help="sequence TSV (needs --assignment)")
    p.add_argument("--assignment", help="assignment TSV for --sequences")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--alpha", type=float, default=retrieval.DEFAULT_ALPHA)
    p.add_argument("--out", required=True)

    p = sub.add_parser("retrieve", help="decode top-K SIDs for a context")
    p.add_argument("--scorer", required=True)
    p.add_argument("--context", default="",
                   help="whole SIDs as flat tokens, C12C8200C16400 or 12,8200,16400; or empty")
    p.add_argument("--beam", type=_int_list, default=None, help="per-level widths, e.g. 300,600,1200")
    p.add_argument("--k", type=int, default=10)

    p = sub.add_parser("eval-hr", help="HR@K over sequences, as CSV")
    p.add_argument("--scorer", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--sequences", required=True)
    p.add_argument("--beam", type=_int_list, default=None)
    p.add_argument("--k", type=_int_list, default=retrieval.DEFAULT_K_LIST,
                   help="comma list of K values")
    p.add_argument("--stage", default="eval", help="label for the CSV stage column")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("build-pretrain-corpus", help="sequences + assignment -> token streams")
    p.add_argument("--levels", required=True, help="comma list of level sizes, e.g. 16,16,16")
    p.add_argument("--sequences", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-toy", help="write a synthetic toy dataset")
    p.add_argument("--items", type=int, default=1000)
    p.add_argument("--clusters", type=int, default=20)
    p.add_argument("--d-in", type=int, default=16)
    p.add_argument("--train-sequences", type=int, default=500)
    p.add_argument("--eval-sequences", type=int, default=100)
    p.add_argument("--history-len", type=int, default=3)
    p.add_argument("--targets", type=int, default=2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)

    return parser


def _load_catalog(args):
    return load_item_catalog(args.catalog, d_in=args.d_in)


def _check_known(path, rows, items_of, owner_of, known, known_path, ids=None) -> None:
    """DataError at the first item, in file order, that `known` lacks.

    `rows` are what `path` holds, `items_of(row)` gives a row's item ids and
    `known` is a catalog or a table.  The ids the rows name (`ids`, when the
    caller holds them, else every row's) are checked against its id dict in
    one set operation; only when one is missing are the rows walked to name
    that file, the row's owner, `owner_of(row)`, the item and `known_path`,
    the file that lacks the item."""
    known_ids = known._rows.keys()  # id -> row, in a catalog and in a table
    if known_ids >= set(chain.from_iterable(map(items_of, rows)) if ids is None else ids):
        return
    for row in rows:
        unknown = next((i for i in items_of(row) if i not in known_ids), None)
        if unknown is not None:
            raise DataError(f"{path}: {owner_of(row)} names item {unknown!r}, "
                            f"which is not in {known_path}")


def _sequences_and_table(args, structure: SidStructure):
    """--sequences and --assignment, every sequence item holding a SID."""
    table = collision.load_assignment(args.assignment, structure)
    sequences = load_sequences(args.sequences)
    _check_known(args.sequences, sequences, lambda s: (*s.history, *s.targets),
                 lambda s: f"sequence {s.pv_id!r}", table, args.assignment,
                 ids=sequences.item_ids)
    return sequences, table


def _schedule(args, scorer) -> retrieval.BeamSchedule:
    """--beam, or the scorer's default widths."""
    if args.beam is not None:
        return retrieval.BeamSchedule(args.beam)
    return retrieval.default_schedule(scorer.structure)


def _write_csv(path, header: str, rows) -> None:
    """A result table to `path`, or to stdout when path is None.  Floats are
    written with repr, so equal runs give equal bytes."""
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        write_artifact(path, [text])


def cmd_tokenize(args) -> int:
    catalog = _load_catalog(args)
    structure = _structure(args)
    X = catalog.embedding_matrix()
    if args.kind in ("rqvae", "multivq"):
        config = quantizer.RqvaeConfig(
            epochs=args.epochs,
            warmup_epochs=args.warmup_epochs,
            learning_rate=args.lr,
            batch_size=args.batch_size,
            hidden_dims=tuple(args.hidden_dims),
            seed=args.seed,
        )
        train = quantizer.train_rqvae if args.kind == "rqvae" else quantizer.train_multivq
        model = train(X, structure, config)
    elif args.kind == "rqkmeans":
        config = quantizer.RqkmeansConfig(iters_per_level=args.iters, seed=args.seed)
        model = quantizer.train_rqkmeans(X, structure, config)
    else:
        model = quantizer.random_model(structure, seed=args.seed)
    table = collision.raw_assignment(catalog, model)
    quantizer.save_quantizer(model, args.out_model)
    collision.save_assignment(table, args.out_assignment)
    if args.out_trace and model.kind == "rqvae":
        _write_csv(args.out_trace, "epoch,total_loss,recon_loss",
                   ((e, *pair) for e, pair in enumerate(zip(model.loss_trace, model.recon_trace))))
    elif args.out_trace:
        _write_csv(args.out_trace, "level,step,objective",
                   ((level, step, value) for level, trace in enumerate(model.objective_traces)
                    for step, value in enumerate(trace)))
    print(f"tokenize: {len(table)} items assigned, kind={model.kind}")
    return EXIT_OK


def cmd_collide(args) -> int:
    if args.policy in ("knn", "random") and args.assignment:
        print(f"sidkit: collide --policy {args.policy} does not read --assignment "
              f"{args.assignment}; it rebuilds the raw table from --catalog and --model",
              file=sys.stderr)
    catalog = _load_catalog(args)
    model = quantizer.load_quantizer(args.model)
    if args.policy == "knn":
        table = collision.apply_knn_policy(catalog, model, sigma=args.sigma)
    elif args.policy == "random":
        table = collision.apply_random_policy(catalog, model)
    else:
        if args.assignment:
            base = collision.load_assignment(args.assignment, model.structure)
            _check_known(args.assignment, [base], list, lambda _: "assignment", catalog,
                         args.catalog)
        else:
            base = collision.raw_assignment(catalog, model)
        if args.policy == "merge":
            table = collision.apply_merge_policy(base, model.codebooks, args.merge_threshold)
        else:
            table = collision.apply_noco_policy(base)
    collision.save_assignment(table, args.out)
    stats = collision.occupancy_stats(table)
    print(
        f"collide: policy={args.policy} items={len(table)} "
        f"distinct_sids={stats.distinct_occupied} max_occupancy={stats.max_occupancy}"
    )
    return EXIT_OK


def cmd_eval_sid(args) -> int:
    catalog = _load_catalog(args)
    model = quantizer.load_quantizer(args.model) if args.model else None
    if model is None and not args.levels:
        raise DataError("eval-sid needs --model or --levels for the SID structure")
    structure = model.structure if model is not None else SidStructure(_int_list(args.levels))
    if model is not None and args.levels and _int_list(args.levels) != structure.level_sizes:
        raise DataError(f"--levels {args.levels} disagrees with the levels "
                        f"{','.join(map(str, structure.level_sizes))} of --model {args.model}")
    table = collision.load_assignment(args.assignment, structure)
    _check_known(args.assignment, [table], list, lambda _: "assignment", catalog, args.catalog)
    occ = sidmetrics.OccupancyVector.from_table(table)
    # --occupied-only shrinks the space of the Gini alone; utilization keeps the full space
    gini_occ = (dataclasses.replace(occ, total_sids=max(len(occ.counts), 1))
                if args.occupied_only else occ)

    rows: list[tuple[str, float]] = []
    rows.append(("gini", sidmetrics.gini_coefficient(gini_occ)))
    rows.append(("utilization_pct", sidmetrics.codebook_utilization(occ)))
    for level, value in enumerate(sidmetrics.codebook_utilization(occ, per_level=True)):
        rows.append((f"utilization_level{level}_pct", value))
    if model is not None and model.kind == "rqvae":
        rows.append(
            ("feature_fidelity_pct", quantizer.feature_fidelity(model, catalog.embedding_matrix()))
        )
    if args.labels:
        labels = sidmetrics.load_pair_labels(args.labels)
        _check_known(args.labels, labels.pairs, lambda pair: pair[:2],
                     lambda pair: f"{pair[2]} pair ({pair[0]!r}, {pair[1]!r})",
                     table, args.assignment)
        for relation in sidmetrics.RELATIONS:
            if labels.of_relation(relation):
                rows.append(
                    (f"{relation}_consistency_pct", sidmetrics.consistency(table, labels, relation))
                )
    if args.sequences:
        sequences = load_sequences(args.sequences)
        # a hitrate pair reads the last history item and the targets
        _check_known(args.sequences, sequences,
                     lambda s: (s.history[-1], *s.targets) if s.history else (),
                     lambda s: f"sequence {s.pv_id!r}", catalog, args.catalog)
        pairs = sidmetrics.pairs_from_sequences(sequences)
        rows.append(
            (f"embedding_hr@{args.k}", sidmetrics.embedding_hitrate(catalog, pairs, args.k))
        )

    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:.4f}")
    if args.csv:
        _write_csv(args.csv, "metric,value", rows)
    return EXIT_OK


def cmd_train_scorer(args) -> int:
    structure = _structure(args)
    others = [f"--{name} {path}" for name, path in
              (("sequences", args.sequences), ("assignment", args.assignment)) if path]
    if args.corpus and others:
        raise DataError(f"train-scorer got --corpus {args.corpus} and {' and '.join(others)}; "
                        "give --corpus, or --sequences with --assignment, not both")
    if args.corpus:
        corpus = retrieval.load_corpus(args.corpus)
    elif args.sequences and args.assignment:
        corpus = retrieval.build_useraction_corpus(*_sequences_and_table(args, structure))
    else:
        raise DataError("train-scorer needs --corpus, or --sequences with --assignment")
    scorer = retrieval.train_markov_scorer(corpus, structure, order=args.order, alpha=args.alpha)
    retrieval.save_markov_scorer(scorer, args.out)
    print(f"train-scorer: {len(corpus)} streams, {scorer.num_contexts} contexts")
    return EXIT_OK


def _parse_context(text: str) -> list[int]:
    """Flat tokens from SID strings (C12C8200.., the SID_STRING grammar) or
    comma tokens (12,8200,.., the INT_LIST grammar); the beam search checks
    that they are whole SIDs, each token in its level's band."""
    text = text.strip()
    if text.startswith("C"):
        if not SID_STRING.fullmatch(text):
            raise DataError(f"cannot parse context {text!r}")
        text = text[1:].replace("C", ",")
    if not INT_LIST.fullmatch(text):
        raise DataError(f"cannot parse context {text!r}: not a comma list of ASCII-digit tokens")
    return list(_int_list(text))


def cmd_retrieve(args) -> int:
    scorer = retrieval.load_markov_scorer(args.scorer)
    context = _parse_context(args.context)
    results = retrieval.dynamic_beam_search(scorer, context, _schedule(args, scorer), k=args.k)
    print("rank,sid,log_prob")
    for rank, (sid, logp) in enumerate(results, start=1):
        print(f"{rank},{render_sid_string(sid, scorer.structure)},{repr(logp)}")
    return EXIT_OK


def cmd_eval_hr(args) -> int:
    scorer = retrieval.load_markov_scorer(args.scorer)
    sequences, table = _sequences_and_table(args, scorer.structure)
    schedule = _schedule(args, scorer)
    results = retrieval.evaluate_hr(scorer, table, sequences, schedule, k_list=args.k)
    _write_csv(args.out, "stage,k,hr", ((args.stage, k, results[k]) for k in sorted(results)))
    return EXIT_OK


def cmd_build_pretrain_corpus(args) -> int:
    structure = SidStructure(_int_list(args.levels))
    corpus = retrieval.build_useraction_corpus(*_sequences_and_table(args, structure))
    retrieval.save_corpus(corpus, args.out)
    print(f"build-pretrain-corpus: {len(corpus)} streams")
    return EXIT_OK


def cmd_gen_toy(args) -> int:
    config = toydata.ToyConfig(
        n_items=args.items,
        n_clusters=args.clusters,
        d_in=args.d_in,
        n_train_sequences=args.train_sequences,
        n_eval_sequences=args.eval_sequences,
        history_len=args.history_len,
        n_targets=args.targets,
        seed=args.seed,
    )
    world = toydata.make_toy_world(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_item_catalog(world.catalog, out / "catalog.tsv")
    save_sequences(world.train_sequences, out / "train_sequences.tsv")
    save_sequences(world.eval_sequences, out / "eval_sequences.tsv")
    sidmetrics.save_pair_labels(world.labels, out / "labels.tsv")
    print(f"gen-toy: {len(world.catalog)} items, {len(world.train_sequences)} train "
          f"and {len(world.eval_sequences)} eval sequences in {out}")
    return EXIT_OK


_COMMANDS = {
    "tokenize": cmd_tokenize,
    "collide": cmd_collide,
    "eval-sid": cmd_eval_sid,
    "train-scorer": cmd_train_scorer,
    "retrieve": cmd_retrieve,
    "eval-hr": cmd_eval_hr,
    "build-pretrain-corpus": cmd_build_pretrain_corpus,
    "gen-toy": cmd_gen_toy,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"sidkit: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"sidkit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"sidkit: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
