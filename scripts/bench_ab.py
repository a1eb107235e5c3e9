#!/usr/bin/env python3
"""A/B runs of the repository's benchmark: a parent commit against a change,
in alternating pairs, written as one ``BENCH_<pr>.json``.

Usage, from the repository root:

    python3 scripts/bench_ab.py --parent HEAD~1 --seed 3001 --out BENCH_16.json \\
        --note "what the change does" --claim train.peak_rss_mb

Both sides are fresh exports into a temporary directory: the parent is
``git archive`` of ``--parent``, the change is the checkout's tracked and
untracked files as they stand (so an uncommitted change can be measured).
An export registers nothing in the repository, so a run that is cut short
leaves no state behind. Both trees get the checkout's toy checkpoints
(``bench/.cache``; any that are missing are made by ``bench/checkpoints.py``
in the change tree), so both sides read the same bytes.

For each workload of ``BENCHMARK.json``, the unchanged ``bench/run.py
--workload W --seed S --seconds N --trace 0`` runs in ``PAIRS`` (10) pairs,
one run at a time, the side that goes first alternating from pair to pair. Pair
``i`` runs on seed ``--seed + i`` on both sides; pick seeds not used while the
change was written. One untimed warm-up run per side comes first, so that
neither side's first recorded run pays for compiling its bytecode.

Each end-to-end metric of ``BENCHMARK.json`` gets both sides' median,
quartiles and runs, the pairs the change won, the median change and a
verdict by the rule written into the file (``VERDICT_RULE``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# alternating parent/change pairs per workload, and the share of them a
# claimed gain needs
PAIRS = 10
CLAIM_SHARE = 0.9
VERDICT_RULE = {
    "claim met": "change better in >= 9/10 of pairs and the medians differ "
                 "by more than the parent's IQR",
    "claim not met": "a claimed metric that does not meet the claim rule",
    "unresolved": "relative IQR (IQR / median) of either side exceeds the "
                  "metric's bound, unless every change run beats every "
                  "parent run",
    "no regression": "otherwise, change median worse than the parent's by no "
                     "more than the bound",
    "regression": "otherwise",
}


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def git(*args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          **kwargs)


def export_rev(rev: str, dest: Path):
    """The committed files of ``rev`` under ``dest``."""
    dest.mkdir(parents=True)
    archive = git("archive", "--format=tar", rev, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_checkout(dest: Path):
    """The checkout's tracked and untracked, not ignored, files as they
    stand, under ``dest``."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                capture_output=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def copy_cache(src: Path, dest: Path):
    """The files (toy checkpoints, their digest records, the training corpus)
    of the ``bench/.cache`` of tree ``src`` into that of tree ``dest``."""
    cache = src / "bench" / ".cache"
    if cache.is_dir():
        (dest / "bench" / ".cache").mkdir(parents=True, exist_ok=True)
        for path in cache.iterdir():
            if path.is_file():
                shutil.copy2(path, dest / "bench" / ".cache" / path.name)


def share_checkpoints(change: Path, parent: Path):
    """Give both trees the same toy checkpoints: the checkout's, with any
    that are missing made in the change tree."""
    copy_cache(ROOT, change)
    subprocess.run([sys.executable, "bench/checkpoints.py"], cwd=change,
                   stdout=sys.stderr, check=True)
    copy_cache(change, parent)


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its exit code and, if it printed one, its
    result line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 900)
    result = None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None:
        log(f"    exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return {"exit_code": proc.returncode, "result": result}


def quartiles(runs) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "runs": [round(r, 6) for r in runs]}


def verdict(parent, change, better: str, bound: float, claimed: bool) -> dict:
    """The comparison of one metric's paired runs (NaN where a run gave no
    value) by ``VERDICT_RULE``; with a NaN, only the runs."""
    sign = 1.0 if better == "lower" else -1.0
    if not (np.all(np.isfinite(parent)) and np.all(np.isfinite(change))):
        return {"parent": {"runs": parent}, "change": {"runs": change},
                "verdict": "incomplete: a run gave no value"}
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    parent_iqr = p["q3"] - p["q1"]
    gap = sign * (p["median"] - c["median"])      # > 0: the change is better
    every_run_better = (max(sign * np.array(change))
                        < min(sign * np.array(parent)))
    if claimed:
        met = wins >= CLAIM_SHARE * len(parent) and gap > parent_iqr
        word = "claim met" if met else "claim not met"
    elif (max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (p, c)) > bound
          and not every_run_better):
        word = "unresolved"
    else:
        word = ("no regression" if -gap / abs(p["median"]) <= bound
                else "regression")
    return {"parent": p, "change": c,
            f"change_{better}": f"{wins}/{len(parent)}",
            "median_change_pct": round(100.0 * (c["median"] - p["median"])
                                       / abs(p["median"]), 2),
            "parent_iqr": round(parent_iqr, 6), "verdict": word}


def run_workload(trees: dict, name: str, seeds: list, seconds: float,
                 metrics: list, claimed: set) -> dict:
    runs = {side: [] for side in SIDES}
    first = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(bench_run(trees[side], name, seed, seconds))
            res = runs[side][-1]["result"]
            log(f"  {name} pair {i} seed {seed} {side}: " + (
                ", ".join(f"{m} {v['value']:.4g}"
                          for m, v in res["metrics"].items())
                if res else "no result"))
    out = {"workload": name, "pairs": len(seeds), "seeds": seeds,
           "first_side": first,
           "exit_codes": {s: [r["exit_code"] for r in runs[s]] for s in SIDES},
           "failed_ops": {s: sum(r["result"]["failed"] for r in runs[s]
                                 if r["result"]) for s in SIDES},
           "attempted_ops": {s: sum(r["result"]["attempted"] for r in runs[s]
                                    if r["result"]) for s in SIDES},
           "all_correct": all(r["result"] and r["result"]["correct"]
                              for s in SIDES for r in runs[s]),
           "metrics": {}}
    for m in metrics:
        values = {s: [r["result"]["metrics"][m["name"]]["value"]
                      if r["result"] else float("nan") for r in runs[s]]
                  for s in SIDES}
        out["metrics"][m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **verdict(values["parent"], values["change"], m["better"],
                      m["bound"], f"{name}.{m['name']}" in claimed)}
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--seed", type=int, required=True,
                   help="seed of the first pair; pair i runs on seed + i")
    p.add_argument("--out", required=True, help="the BENCH_<pr>.json to write")
    p.add_argument("--note", default="", help="what the change does")
    p.add_argument("--claim", action="append", default=[],
                   help="a claimed workload.metric, e.g. train.peak_rss_mb")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(args.seed, args.seed + PAIRS))
    report = {
        "change": args.note,
        "machine": f"{os.cpu_count()}-core {platform.machine()} "
                   f"{platform.system()}, python {platform.python_version()}, "
                   f"numpy {np.__version__}; OpenBLAS pinned to 1 thread by "
                   f"bench/run.py",
        "command": f"python3 bench/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0, parent {args.parent} and the change "
                   f"checkout each a fresh export with the same bench/.cache "
                   f"checkpoints",
        "protocol": f"{PAIRS} alternating parent/change pairs per "
                    f"workload, the first side alternating from pair to pair; "
                    f"one run at a time after one warm-up run per side; seeds "
                    f"{seeds[0]}-{seeds[-1]}",
        "quartiles": "numpy.percentile 25/50/75, linear interpolation",
        "verdict_rule": VERDICT_RULE,
        "claimed": args.claim,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export_rev(args.parent, trees["parent"])
        export_checkout(trees["change"])
        share_checkpoints(trees["change"], trees["parent"])
        for side in SIDES:
            log(f"warm-up run, {side}")
            bench_run(trees[side], names[0], args.seed - 1, 1)
        for name in names:
            log(f"workload {name}")
            report["workloads"][name] = run_workload(
                trees, name, seeds, seconds, spec["end_to_end"], set(args.claim))
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for name, w in report["workloads"].items():
        for metric, m in w["metrics"].items():
            log(f"{name}.{metric}: parent {m['parent']['median']:.4g} change "
                f"{m['change']['median']:.4g} ({m['median_change_pct']:+.2f}%), "
                f"{m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
