#!/usr/bin/env python3
"""speclab benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads are ``sweep``, ``score`` and ``train`` (see workloads.py). The
first run in a checkout makes the two toy checkpoints (checkpoints.py);
that is not part of any timed figure. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones, and the spans go to ``bench/out/``. See README.md.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checkpoints  # noqa: E402  (stdlib only; must precede numpy)

# Sizes of one round. A run repeats whole rounds for --seconds, so each round
# is a few seconds: short enough for five or more per run, long enough that
# timer and scheduler noise average out.
ROUND_SIZES = {"sweep": {"prompts": 1},
               "score": {"ppl_windows": 2, "div_windows": 1},
               "train": {"steps": 4}}
# The traced run also runs one small round of each other workload, so every
# per-layer metric is measured whichever workload is traced.
SLICE_SIZES = {"sweep": {"prompts": 1},
               "score": {"ppl_windows": 1, "div_windows": 1},
               "train": {"steps": 4}}
SETUP_REPEATS = 5
PROBE_CALLS = 100


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(ROUND_SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed seconds of rounds to run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_round(workload, index: int, errors: list, tracer=None):
    """One timed round, with ``tracer`` installed if given, then its check."""
    if tracer is not None:
        tracer.install()
    try:
        t = time.perf_counter()
        rnd = workload.round(index)
        rnd.seconds = time.perf_counter() - t
    finally:
        if tracer is not None:
            tracer.uninstall()
    errors.extend(workload.check(rnd))
    return rnd


def run_rounds(workload, budget: float, errors: list):
    """Whole rounds until the next one would pass ``budget`` timed seconds
    (at least one)."""
    rounds, timed = [], 0.0
    while not rounds or timed + timed / len(rounds) <= budget:
        rounds.append(run_round(workload, len(rounds), errors))
        timed += rounds[-1].seconds
        log(f"  round {rounds[-1].index}: {rounds[-1].seconds:.4f} s, "
            f"{rounds[-1].ops} ops, {rounds[-1].failed} failed {rounds[-1].notes or ''}")
    return rounds


def op_seconds(rounds) -> float:
    """Timed seconds per operation over all the rounds of a run. Not the
    median round: sweep rounds differ in their prompts, and the total
    averages over them."""
    return sum(r.seconds for r in rounds) / sum(r.ops for r in rounds)


def untraced_run(workload, seconds: float, errors: list, setup_s: float):
    rounds = run_rounds(workload, seconds, errors)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_s": (op_seconds(rounds), "s"),
    }
    return metrics, rounds


def traced_run(workload, inputs, seconds: float, errors: list, span_path):
    """Each round twice on the same inputs, once untraced and once traced,
    for ``seconds`` of timed work; then the forward probe and one small round
    of each other workload, traced. Returns the per-layer metrics, with the
    tracing overhead as the median traced/untraced ratio of the pairs."""
    import layers
    import workloads
    from spans import Tracer
    from speclab.model import ComponentMask

    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
        models = workloads.load_models(inputs.checkpoints)
    finally:
        tracer.uninstall()
    pairs, timed = [], 0.0
    while not pairs or timed + timed / len(pairs) <= seconds:
        # which side goes first alternates, so warm-up favours neither
        order = (None, tracer) if len(pairs) % 2 == 0 else (tracer, None)
        pair = {t is not None: run_round(workload, len(pairs), errors, t) for t in order}
        timed += sum(r.seconds for r in pair.values())
        log(f"  round {len(pairs)}: {pair[False].seconds:.4f} s untraced, "
            f"{pair[True].seconds:.4f} s traced")
        pairs.append(pair)
    tracer.install()
    try:
        layers.model_probe(tracer, models, PROBE_CALLS)
        extra = []
        for name, cls in workloads.WORKLOADS.items():
            if name != workload.name:
                other = cls(inputs, **SLICE_SIZES[name])
                other.setup()
                extra.append(other.round(0))
                errors.extend(other.check(extra[-1]))
    finally:
        tracer.uninstall()
    tracer.write(span_path, describe=lambda v: v.describe()
                 if isinstance(v, ComponentMask) else v)
    log(f"{len(tracer.spans)} spans written to {span_path}")
    overhead = 100.0 * (statistics.median(p[True].seconds / p[False].seconds
                                          for p in pairs) - 1.0)
    return (layers.derive(tracer, models, overhead),
            [r for p in pairs for r in p.values()] + extra)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkpoints.pin_blas_threads()
    checkpoints.import_speclab()
    import layers  # noqa: F401  (imported here so that import_s covers it)
    import workloads
    import_s = time.perf_counter() - T0

    if any(checkpoints.read_record(name) is None for name in checkpoints.ARCHS):
        # a child process, so that training leaves this one's memory alone
        subprocess.run([sys.executable, str(BENCH_DIR / "checkpoints.py")],
                       stdout=sys.stderr, check=True)
    paths = {}
    for name in checkpoints.ARCHS:
        record = checkpoints.read_record(name)
        path = checkpoints.checkpoint_path(name)
        digest = checkpoints.sha256(path)
        if digest != record["sha256"]:
            raise SystemExit(f"{path} does not match its digest record; "
                             "run bench/checkpoints.py --force")
        print(f"checkpoint {name} sha256 {digest}")
        paths[name] = path

    workdir = checkpoints.CACHE_DIR / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workloads.Inputs(seed=args.seed, workdir=workdir, checkpoints=paths,
                              train_corpus=checkpoints.train_corpus_path())
    errors: list[str] = []
    try:
        workload = workloads.WORKLOADS[args.workload](inputs, **ROUND_SIZES[args.workload])
        if args.trace:
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            metrics, rounds = traced_run(
                workload, inputs, args.seconds, errors,
                out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                t = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t)
            log(f"{args.workload} seed {args.seed}: imports {import_s:.3f} s, "
                f"set-up {statistics.median(setups):.3f} s")
            metrics, rounds = untraced_run(workload, args.seconds, errors,
                                           import_s + statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bad = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if bad:
        raise SystemExit(f"metrics without a value: {bad}")
    for msg in errors:
        log(f"CHECK FAILED: {msg}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
