"""Command-line entry point: split, train, eval, recommend, pretrain.

One command per process. Exit code 0 on success; any error prints a
message on stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

import numpy as np

from deepicf import checkpoint as ckpt
from deepicf import data
from deepicf.config import load_config
from deepicf.errors import CheckpointError, DataError, DeepIcfError, TrainingDiverged
from deepicf.evaluation import (evaluate, item_knn_fit_and_score,
                                item_pop_scorer, model_scorer_factory,
                                rank_order)
from deepicf.model import Variant, forward, score_items
from deepicf.training import EVAL_K, fit, pretrain_and_init

log = logging.getLogger("deepicf")


def cmd_split(args):
    with data.open_text(args.input) as f:
        dataset = data.parse_interactions(f, fmt=args.format)
    split = data.leave_one_out_split(dataset, seed=args.seed)
    data.save_split(split, args.split)
    log.info("wrote %s.{train,test,negatives,idmap}: %d users, %d items,"
             " %d training interactions", args.split, split.train.num_users,
             split.train.num_items, split.train.num_interactions)
    return 0


def _metrics_writer(path):
    if path is None:
        return None
    needs_header = True
    try:
        with data.open_text(path) as f:
            for lineno, line in enumerate(f, start=1):
                if data.not_utf8(line):
                    raise DeepIcfError(f"{path}: line {lineno}: not UTF-8 text")
                needs_header = False
    except FileNotFoundError:
        pass
    handle = open(path, "a", encoding="utf-8")
    if needs_header:
        handle.write(f"epoch,loss,hr{EVAL_K},ndcg{EVAL_K},seconds\n")
        handle.flush()

    def on_epoch(stats):
        hr = "" if stats.hr is None else f"{stats.hr:.6f}"
        ndcg = "" if stats.ndcg is None else f"{stats.ndcg:.6f}"
        handle.write(f"{stats.epoch},{stats.loss:.6f},{hr},{ndcg},"
                     f"{stats.seconds:.3f}\n")
        handle.flush()
    on_epoch.close = handle.close
    return on_epoch


def _run_training(args, force_pretrain):
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if force_pretrain and not config.pretrain:
        config = dataclasses.replace(config, pretrain=True)
    split = data.load_split(args.split)
    on_epoch = _metrics_writer(args.metrics)
    params = None
    try:
        if config.pretrain:
            log.info("phase 1/2: FISM pre-training")
            params = pretrain_and_init(config, split)
            log.info("phase 2/2: training %s", config.variant.value)
        try:
            params, report = fit(config, split, params=params,
                                 on_epoch=on_epoch)
        except TrainingDiverged as err:
            if err.last_params is not None:
                ckpt.save_checkpoint(args.checkpoint, err.last_params, config)
                log.error("training diverged at epoch %s (%s);"
                          " saved last finite epoch to %s",
                          err.epoch, err, args.checkpoint)
            raise
    finally:
        if on_epoch is not None:
            on_epoch.close()
    ckpt.save_checkpoint(args.checkpoint, params, config)
    log.info("trained %s for %d epochs (final loss %s); checkpoint: %s",
             config.variant.value, config.epochs,
             "n/a" if report.final_loss is None else f"{report.final_loss:.6f}",
             args.checkpoint)
    return 0


def cmd_train(args):
    return _run_training(args, force_pretrain=False)


def cmd_pretrain(args):
    return _run_training(args, force_pretrain=True)


def _load_model(path, split):
    """(params, config) of the checkpoint at ``path``, which must be sized
    for the users and items of ``split``."""
    params, config, num_users, num_items = ckpt.load_checkpoint(path)
    if (num_users, num_items) != (split.train.num_users,
                                  split.train.num_items):
        raise CheckpointError(
            f"{path}: checkpoint is for {num_users} users x {num_items} items,"
            f" split has {split.train.num_users} x {split.train.num_items}")
    return params, config


def cmd_eval(args):
    split = data.load_split(args.split)
    if args.scorer == "itempop":
        factory = item_pop_scorer(split.train)
    elif args.scorer == "itemknn":
        _, factory = item_knn_fit_and_score(split.train)
    else:
        if args.checkpoint is None:
            raise CheckpointError("--checkpoint is required for the model scorer")
        params, config = _load_model(args.checkpoint, split)
        factory = model_scorer_factory(params, config, split)
    report = evaluate(factory, split, k=args.k)
    if args.metrics:
        report.write_csv(args.metrics)
    print(report.summary())
    print(f"ties={report.ties}")
    return 0


def cmd_recommend(args):
    split = data.load_split(args.split)
    params, config = _load_model(args.checkpoint, split)
    train = split.train
    user = train.user_index.get(args.user)
    if user is None:
        shown = ", ".join(train.user_ids[:20])
        suffix = ", ..." if train.num_users > 20 else ""
        raise DataError(
            f"unknown user {args.user!r}; {train.num_users} known users"
            f" with raw ids: {shown}{suffix}")
    hist = train.history_items(user)
    mask = np.ones(train.num_items, dtype=bool)
    mask[hist] = False
    candidates = np.flatnonzero(mask)
    if candidates.size == 0:
        raise DataError(f"user {args.user!r} interacted with every item")
    scores = score_items(params, config, hist, user, candidates)
    order = rank_order(candidates, scores)[:args.k]
    print(f"user {args.user}")
    for rank, pos in enumerate(order, start=1):
        item = int(candidates[pos])
        print(f"{rank}\t{train.item_ids[item]}\t{scores[pos]:.6f}")
    if config.variant is Variant.DEEPICF_A and hist.size:
        # a candidate lies outside the history, so it keeps every row
        for item in candidates[order].tolist():
            print(f"# attention {train.item_ids[item]}")
            weights = forward(params, config, hist, user, item).net[3]
            for j, weight in zip(hist.tolist(), weights.tolist()):
                print(f"{train.item_ids[j]}\t{weight:.6f}")
    return 0


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="deepicf",
        description="Item-based collaborative filtering: train and evaluate"
                    " FISM, DeepICF, and DeepICF_A for top-N recommendation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="parse a log and write a leave-one-out split")
    p.add_argument("input", help="interaction file: user<sep>item<sep>rating<sep>timestamp")
    p.add_argument("--format", choices=sorted(data.SEPARATORS), default="tab")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--split", required=True, metavar="PREFIX",
                   help="output prefix for .train/.test/.negatives/.idmap")
    p.set_defaults(func=cmd_split)

    for name, func, blurb in (
            ("train", cmd_train, "train a model on a split"),
            ("pretrain", cmd_pretrain,
             "train with FISM embedding pre-training forced on")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True)
        p.add_argument("--split", required=True, metavar="PREFIX")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--metrics", help="per-epoch CSV (appended)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.set_defaults(func=func)

    p = sub.add_parser("eval", help="rank held-out items and report HR/NDCG")
    p.add_argument("--checkpoint")
    p.add_argument("--split", required=True, metavar="PREFIX")
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--scorer", choices=["model", "itempop", "itemknn"],
                   default="model")
    p.add_argument("--metrics", help="write per-user ranks as CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("recommend", help="top-N items for one user")
    p.add_argument("user", help="raw user id")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True, metavar="PREFIX")
    p.add_argument("--k", type=_positive_int, default=10,
                   help="number of items")
    p.set_defaults(func=cmd_recommend)
    return parser


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DeepIcfError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
