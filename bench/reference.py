#!/usr/bin/env python3
"""Reference figures for bench/README.md: one larger sweep, tabulated.

Usage, from the repository root:

    python3 bench/reference.py --prompts 8 --seed 0 > bench/out/reference.md

Runs ``run_experiments`` over the benchmark's sweep grid with more prompts
than a benchmark round, and the forward probe of the traced run, then
prints per cell: alpha with its interval, tokens per round, the speedup the
report models from the parameter-count cost ratio, the speedup modelled
from measured costs, E[tokens] / (k c + v(k)) with c the measured draft
step over the full step and v(k) the measured (k+1)-row verify chunk over
the full step, and, at T=0 where timings.csv has both, the measured one.
"""

import argparse
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checkpoints  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--prompts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    checkpoints.pin_blas_threads()
    checkpoints.import_speclab()
    import checks
    import layers
    import workloads
    from spans import Tracer
    from speclab.experiments import read_report, run_experiments

    checkpoints.ensure_checkpoints(log=lambda m: print(m, file=sys.stderr))
    paths = {name: checkpoints.checkpoint_path(name) for name in checkpoints.ARCHS}
    out = BENCH_DIR / "out" / f"reference-sweep-{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    inputs = workloads.Inputs(args.seed, out, paths, checkpoints.train_corpus_path())
    sweep = workloads.Sweep(inputs,
                            prompts=args.prompts)
    sweep.setup()
    spec = sweep.spec(0)
    result = run_experiments(spec, log=lambda m: print(m, file=sys.stderr))
    rows = read_report(result.report_path)
    timings = {(r["model"], r["strategy"], r["k"], r["temperature"]): r
               for r in read_report(result.timing_path)}

    tracer = Tracer()
    tracer.install()
    try:
        layers.model_probe(tracer, sweep.models, calls=100)
    finally:
        tracer.uninstall()
    d = layers.Derivation(tracer, sweep.models)
    stems = {Path(path).stem: name for name, path in paths.items()}

    print(f"Sweep: {args.prompts} prompts x {spec.max_new_tokens} tokens per cell, "
          f"seed {spec.seed}.\n")
    print("| model | strategy | k | T | alpha [95% CI] | tokens/round | "
          "speedup, proxy cost | speedup, measured cost | speedup, measured |")
    print("|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        name = stems[r["model"]]
        kind = r["strategy"].split("_0.")[0]
        k = int(r["k"])
        step = d.probe_us(name, "full", 1)
        c = d.probe_us(name, kind if kind != "identity" else "full", 1) / step
        v = d.probe_us(name, "full", k + 1) / step
        a = min(float(r["per_token_alpha"]), 1.0 - 1e-9)
        modelled = checks.expected_tokens(a, k) / (k * c + v)
        t = timings.get((r["model"], r["strategy"], r["k"], r["temperature"]), {})
        measured = ""
        if t.get("ar_seconds_per_token") and t.get("spec_seconds_per_token"):
            measured = (f"{float(t['ar_seconds_per_token']) / float(t['spec_seconds_per_token']):.2f}")
        print(f"| {name} | {kind} | {k} | {r['temperature']} | "
              f"{float(r['alpha']):.3f} [{float(r['alpha_ci_low']):.3f}, "
              f"{float(r['alpha_ci_high']):.3f}] | {float(r['mean_accepted_per_round']):.2f} | "
              f"{float(r['speedup_theory']):.2f} | {modelled:.2f} | {measured} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
