"""Command-line front-end: train, run sweeps, diagnose, verify."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .ablation import ablate_and_score
from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .engine import (STRATEGY_KINDS, DecodeSettings, DraftStrategy, build_mask,
                     decode_prompts)
from .experiments import ExperimentSpec, run_experiments
from .corpus import load_corpus, sample_prompts
from .metrics import divergence_stats, greedy_margin, match_rate
from .model import HybridModel, ModelConfig, ARCHS
from .theory import flop_ratio, optimal_k, speedup_readings
from .training import TrainConfig, train


# a greedy margin below this is a near tie that the ~1e-14 difference
# between chunk and step logits could flip
NEAR_TIE = 1e-9


def _csv_list(conv):
    def parse(text):
        return tuple(conv(x) for x in text.split(",") if x)
    return parse


def _strategy_kind(text: str) -> str:
    if text not in STRATEGY_KINDS:
        raise argparse.ArgumentTypeError(
            f"unknown strategy {text!r}, expected one of {', '.join(STRATEGY_KINDS)}")
    return text


def _bounded(conv, ok, expect: str):
    """An argparse type: convert with ``conv``, then reject values that fail
    ``ok`` at parse time."""
    def parse(text):
        value = conv(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {expect}")
        return value
    parse.__name__ = conv.__name__
    return parse


_alpha = _bounded(float, lambda a: 0.0 <= a < 1.0, "in [0, 1)")
_at_least_one = _bounded(int, lambda n: n >= 1, ">= 1")
_at_least_zero = _bounded(int, lambda n: n >= 0, ">= 0")
_at_least_two = _bounded(int, lambda n: n >= 2, ">= 2")  # one scored token
_positive = _bounded(float, lambda x: x > 0.0, "> 0")
_non_negative = _bounded(float, lambda x: x >= 0.0, ">= 0")

# the ModelConfig sizes that `speclab train` takes as flags of the same name
_MODEL_SIZES = ("n_layers", "d_model", "n_heads", "d_state", "vocab_size",
                "context_limit")


def _emit(payload: dict, json_path):
    """Print ``payload`` as JSON, and write it to ``json_path`` if given."""
    print(json.dumps(payload, indent=2, sort_keys=True))
    if json_path:
        write_atomic(json_path, json.dumps(payload, sort_keys=True))


def _load_model(path) -> HybridModel:
    weights = load_checkpoint(path)
    return HybridModel(weights.cfg, weights)


def cmd_train(args) -> int:
    pattern = tuple(args.layer_pattern.split(",")) if args.layer_pattern else None
    cfg = ModelConfig(arch=args.arch, layer_pattern=pattern,
                      **{name: getattr(args, name) for name in _MODEL_SIZES})
    log_path = args.log or str(args.out) + ".train_log.csv"
    for flag, path in (("--out", args.out), ("--log", log_path)):
        if not Path(path).parent.is_dir():
            raise ValueError(f"{flag} directory not found: {Path(path).parent}")
    tcfg = TrainConfig(
        corpus_path=args.corpus, steps=args.steps, batch_size=args.batch_size,
        seq_len=args.seq_len, learning_rate=args.lr, seed=args.seed,
        warmup_steps=args.warmup_steps, log_path=log_path)
    weights, history = train(cfg, tcfg)
    save_checkpoint(args.out, weights)
    if history:
        tail = float(np.mean([loss for _, loss in history[-max(1, len(history) // 10):]]))
        print(f"trained {len(history)} steps; tail loss {tail:.4f}")
    print(f"checkpoint written to {args.out}")
    print(f"training log written to {log_path}")
    return 0


def cmd_run(args) -> int:
    spec = ExperimentSpec(
        checkpoints=tuple(args.checkpoint), strategies=args.strategies,
        k_values=args.k, temperatures=args.temperatures,
        prompt_corpus=args.corpus, out_dir=args.out_dir,
        n_prompts=args.n_prompts, prompt_len=args.prompt_len,
        max_new_tokens=args.max_new_tokens, seed=args.seed)
    result = run_experiments(spec)
    print(f"computed {result.n_computed} cells, reused {result.n_skipped}")
    print(f"report: {result.report_path}")
    for cell, err in result.errors:
        print(f"error in {cell}: {err}", file=sys.stderr)
    return 0 if not result.errors else 1


def cmd_divergence(args) -> int:
    model = _load_model(args.checkpoint)
    corpus = load_corpus(args.corpus)
    prompts = sample_prompts(corpus, args.n_prompts, args.prompt_len, args.seed)
    strategy = DraftStrategy(args.strategy)
    stats = divergence_stats(model, build_mask(model.cfg, strategy), prompts)
    payload = {"checkpoint": str(args.checkpoint), "strategy": strategy.label(),
               "tv_mean": stats.tv_mean, "top1_agreement": stats.top1_agreement,
               "n_positions": stats.n_positions}
    _emit(payload, args.json)
    return 0


def cmd_ablate(args) -> int:
    model = _load_model(args.checkpoint)
    report = ablate_and_score(model, load_corpus(args.corpus)[:args.eval_bytes])
    _emit({"checkpoint": str(args.checkpoint), **report.to_dict()}, args.json)
    if args.ledger:
        append_ledger(args.ledger, args.checkpoint, report)
    return 0


def append_ledger(path, checkpoint, report) -> None:
    """Add one ablation row to the CSV ledger at ``path``, with a header row
    when the ledger is new: the old ledger plus the row is written whole
    through :func:`write_atomic`, so a cut-short write leaves the old one."""
    path = Path(path)
    new = not path.exists()
    rows = io.StringIO()
    writer = csv.writer(rows, lineterminator="\n")
    if new:
        writer.writerow(["checkpoint", "ppl_base", "ppl_no_attn", "ppl_ratio",
                         "verdict"])
    writer.writerow([checkpoint, f"{report.ppl_base:.10g}",
                     f"{report.ppl_no_attn:.10g}", f"{report.ppl_ratio:.10g}",
                     report.verdict])
    old = b"" if new else path.read_bytes()
    write_atomic(path, old + rows.getvalue().encode())


def cmd_theory(args) -> int:
    if args.cost_ratio is not None:
        ratio = args.cost_ratio
    elif args.checkpoint:
        model = _load_model(args.checkpoint)
        ratio = flop_ratio(model.cfg, DraftStrategy(args.strategy)).cost_ratio
    else:
        print("need --cost-ratio or --checkpoint", file=sys.stderr)
        return 2
    readings = speedup_readings(args.alpha, args.k, ratio)
    payload = {
        "alpha": args.alpha,
        "k": args.k,
        "cost_ratio": ratio,
        "expected_tokens": readings["expected_tokens_direct"],
        "speedup": readings["speedup_direct"],
        "speedup_readings": readings,
        "optimal_k": optimal_k(args.alpha, ratio, args.k_max),
    }
    if args.reference_speedup is not None:
        payload["reference_speedup"] = args.reference_speedup
        for name in ("direct", "all_token_converted"):
            payload[f"reference_deviation_{name}"] = (
                readings[f"speedup_{name}"] - args.reference_speedup)
    _emit(payload, args.json)
    return 0


def _mask_kinds(cfg: ModelConfig) -> tuple[str, ...]:
    """The strategy kinds :func:`build_mask` realises for ``cfg``."""
    kinds = []
    for kind in STRATEGY_KINDS:
        try:
            build_mask(cfg, DraftStrategy(kind))
        except ValueError:
            continue
        kinds.append(kind)
    return tuple(kinds)


def cmd_verify_lossless(args) -> int:
    model = _load_model(args.checkpoint)
    corpus = load_corpus(args.corpus)
    prompts = sample_prompts(corpus, args.n_prompts, args.prompt_len, args.seed)
    kinds = args.strategies or _mask_kinds(model.cfg)
    settings = DecodeSettings(k=args.k, temperature=0.0,
                              max_new_tokens=args.max_new_tokens,
                              seed=args.seed)
    # the strategies first: a k that does not fit the context fails before
    # any decode, not after the autoregressive reference
    outputs = [decode_prompts(model, DraftStrategy(kind), prompts, settings)[0]
               for kind in kinds]
    ar = decode_prompts(model, None, prompts, settings)[0]
    rates = [match_rate(out, ar) for out in outputs]
    for kind, rate in zip(kinds, rates):
        print(f"{kind}: match rate {rate:.3f} over {len(prompts)} prompts")
    margin, i, j = greedy_margin(model, prompts, ar)
    print(f"smallest greedy margin {margin:.6e} (top-1 minus top-2 logit) "
          f"at prompt {i}, new token {j}")
    if margin < NEAR_TIE:
        print(f"warning: near tie below {NEAR_TIE:g}; chunk and step logits "
              f"differ by about 1e-14, so decoding paths could disagree")
    return 0 if all(rate == 1.0 for rate in rates) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="toy lab for component-aware self-speculative decoding")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a toy checkpoint on a byte corpus")
    p.add_argument("--arch", choices=ARCHS, required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--steps", type=_at_least_zero, default=2000)
    p.add_argument("--batch-size", type=_at_least_one, default=TrainConfig.batch_size)
    p.add_argument("--seq-len", type=_at_least_two, default=TrainConfig.seq_len)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--warmup-steps", type=_at_least_zero,
                   default=TrainConfig.warmup_steps)
    for name in _MODEL_SIZES:
        p.add_argument("--" + name.replace("_", "-"), type=_at_least_one,
                       default=getattr(ModelConfig, name))
    p.add_argument("--layer-pattern", default=None,
                   help="comma list of linear/attention (sequential only)")
    p.add_argument("--log", default=None, help="training-log CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="run the acceptance-rate sweep")
    p.add_argument("--checkpoint", action="append", required=True,
                   help="checkpoint path; repeatable")
    p.add_argument("--corpus", required=True, help="prompt source corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--strategies", type=_csv_list(_strategy_kind),
                   default=("component_only", "layer_skip", "early_exit"),
                   help="comma list of draft strategies")
    p.add_argument("--k", type=_csv_list(_at_least_one), default=(2, 4, 8),
                   help="comma list of draft lengths")
    p.add_argument("--temperatures", type=_csv_list(_non_negative),
                   default=(0.0, 0.6), help="comma list of temperatures")
    p.add_argument("--n-prompts", type=_at_least_one, default=ExperimentSpec.n_prompts)
    p.add_argument("--prompt-len", type=_at_least_one,
                   default=ExperimentSpec.prompt_len)
    p.add_argument("--max-new-tokens", type=_at_least_one,
                   default=ExperimentSpec.max_new_tokens)
    p.add_argument("--seed", type=int, default=ExperimentSpec.seed)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("divergence", help="draft-vs-full distribution gap")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--strategy", choices=STRATEGY_KINDS,
                   default="component_only")
    p.add_argument("--n-prompts", type=_at_least_one, default=100)
    p.add_argument("--prompt-len", type=_at_least_one, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("ablate", help="attention-removal viability diagnostic")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--eval-bytes", type=_at_least_two, default=24_000)
    p.add_argument("--json", default=None)
    p.add_argument("--ledger", default=None,
                   help="CSV to append the verdict row to")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("theory", help="speedup model and optimal k")
    p.add_argument("--alpha", type=_alpha, required=True,
                   help="per-token acceptance rate; speedup_readings also "
                        "reads it as alpha(k) by the k-th root")
    p.add_argument("--k", type=_at_least_one, required=True)
    p.add_argument("--cost-ratio", type=_positive, default=None)
    p.add_argument("--checkpoint", default=None,
                   help="derive the cost ratio from a checkpoint instead")
    p.add_argument("--strategy", choices=STRATEGY_KINDS,
                   default="component_only")
    p.add_argument("--k-max", type=_at_least_one, default=16)
    p.add_argument("--reference-speedup", type=float, default=None,
                   help="external estimate to report deviations against")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("verify-lossless",
                       help="check speculative output equals autoregressive")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--strategies", type=_csv_list(_strategy_kind),
                   default=None, help="comma list of draft strategies")
    p.add_argument("--n-prompts", type=_at_least_one, default=100)
    p.add_argument("--prompt-len", type=_at_least_one, default=16)
    p.add_argument("--max-new-tokens", type=_at_least_one, default=64)
    p.add_argument("--k", type=_at_least_one, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_lossless)

    return parser


def main(argv=None) -> int:
    """Run one command. A ``ValueError`` from it, such as settings that do
    not fit a checkpoint's context, or a ``FileNotFoundError`` for a
    checkpoint or corpus path that is not a file, is bad input: reported on
    stderr as argparse reports its own, with exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as err:
        print(f"speclab {args.command}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
