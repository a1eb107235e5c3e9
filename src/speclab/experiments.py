"""Batch experiment runner: sweeps, resumable cells, CSV/JSON reports.

A sweep is the cross product (checkpoint, strategy, k, temperature). Each
cell's results live in ``<out_dir>/cells/<cell_id>.json``. The cell id
carries a hash of everything else that changes the cell's numbers or rows:
the four spec fields in ``KEYED_FIELDS``, the three constants that fix the
drafts and the confidence interval (``LAYER_SKIP_FRACTION``,
``EARLY_EXIT_FRACTION`` and ``BOOTSTRAP_RESAMPLES``), the report and timing
schemas, and the content digests of the checkpoint and the prompt corpus.
Completed cells with a matching id are skipped on re-run, and the top-level
``report.csv`` is regenerated from cell files every run, so
re-running a finished sweep does no model work and reproduces the report
byte for byte, while a changed spec, checkpoint or corpus recomputes, and
so does a cell whose file does not parse or holds no report row. When
a cell with the current id is read or written, the files of earlier ids for
the same (model, strategy, k, T) are deleted. Every file is written to a
temporary name and renamed into place. Wall-clock timings are intentionally
kept out of the deterministic report: each cell file stores its timing row
beside the report row, and ``timings.csv`` is regenerated from the cell
files like the report.

Cells decode their prompts through ``engine.decode_prompts``, whose
randomness is derived from (seed, prompt index), never from execution
order, so cells can in principle run concurrently over the shared immutable
checkpoints without changing any number.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import io
import json
import re
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .corpus import load_corpus, sample_prompts, write_corpus
from .engine import (EARLY_EXIT_FRACTION, LAYER_SKIP_FRACTION, DecodeSettings,
                     DraftStrategy, build_mask, decode_prompts)
from .metrics import (BOOTSTRAP_RESAMPLES, DivergenceStats, all_token_alpha,
                      divergence_stats, match_rate)
from .model import HybridModel, ModelConfig
from .theory import expected_tokens, flop_ratio, speedup
from .training import TrainConfig, train

REPORT_SCHEMA = "speclab-report v2"
TIMING_SCHEMA = "speclab-timings v1"
TIMING_COLUMNS = ["model", "strategy", "k", "temperature",
                  "spec_seconds_per_token", "ar_seconds_per_token"]

REPORT_COLUMNS = [
    "model", "arch", "strategy", "k", "temperature", "n_prompts", "n_rounds",
    "alpha", "alpha_ci_low", "alpha_ci_high", "per_token_alpha",
    "mean_accepted_per_round", "tv_mean", "top1_agreement",
    "divergence_positions", "match_rate", "cost_ratio",
    "expected_tokens_theory", "speedup_theory",
]

# the spec fields, besides the cell's own coordinates, that change its numbers
KEYED_FIELDS = ("n_prompts", "prompt_len", "max_new_tokens", "seed")


@dataclass(frozen=True)
class ExperimentSpec:
    checkpoints: tuple[str, ...]
    strategies: tuple[str, ...]
    k_values: tuple[int, ...]
    temperatures: tuple[float, ...]
    prompt_corpus: str
    out_dir: str
    n_prompts: int = 200
    prompt_len: int = 16
    max_new_tokens: int = 64
    seed: int = 0

    def __post_init__(self):
        # -0.0 + 0.0 is 0.0: a negative zero names and writes the T = 0 cells
        object.__setattr__(self, "temperatures",
                           tuple(t + 0.0 for t in self.temperatures))
        dims = (self.strategies, self.k_values, self.temperatures)
        if not (self.checkpoints and all(dims)):
            raise ValueError("sweep dimensions must be non-empty")
        stems = [Path(c).stem for c in self.checkpoints]
        if len(set(stems)) < len(stems):  # a stem names its model's cells
            raise ValueError(f"checkpoint file stems must differ: {stems}")
        if any(len(set(d)) < len(d) for d in dims):  # a repeat shares a cell
            raise ValueError(f"sweep values must not repeat: {dims}")
        for kind in self.strategies:
            DraftStrategy(kind)  # an unknown kind raises here, before any work
        if self.n_prompts < 1 or self.prompt_len < 1:
            raise ValueError("prompt settings must be positive")
        if min(self.k_values) < 1 or self.max_new_tokens < 1:
            raise ValueError("k_values and max_new_tokens must be >= 1")
        if min(self.temperatures) < 0.0:
            raise ValueError("temperatures must be >= 0")


@dataclass
class RunResult:
    report_path: Path
    timing_path: Path
    rows: list[dict]
    n_computed: int = 0
    n_skipped: int = 0
    errors: list[tuple[str, str]] = field(default_factory=list)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _sha256(path) -> str:
    """Hex SHA-256 of a file, read in 64 KiB pieces so that hashing a
    checkpoint never holds it whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 16):
            digest.update(block)
    return digest.hexdigest()


def _cell_key(spec: ExperimentSpec, checkpoint_sha256: str,
              corpus_sha256: str) -> dict:
    # the constants are keyed under the names of the spec fields they were
    return {"spec": {**{f: getattr(spec, f) for f in KEYED_FIELDS},
                     "skip_fraction": LAYER_SKIP_FRACTION,
                     "exit_fraction": EARLY_EXIT_FRACTION,
                     "bootstrap_resamples": BOOTSTRAP_RESAMPLES},
            "report_schema": REPORT_SCHEMA,
            "timing_schema": TIMING_SCHEMA,
            "checkpoint_sha256": checkpoint_sha256,
            "corpus_sha256": corpus_sha256}


def _cell_id(model: str, strategy: str, k: int, temp: float, key: dict) -> str:
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    return f"{model}__{strategy}__k{k}__T{temp:g}__{digest[:12]}"


def _remove_superseded(cells_dir: Path, cell: str):
    """Delete the files of the cell's coordinates under any other id: the
    unkeyed name of older sweeps, or another key hash."""
    coords = cell.rsplit("__", 1)[0]
    own = re.compile(re.escape(coords) + r"(__[0-9a-f]{12})?\.json")
    for path in cells_dir.glob(glob.escape(coords) + "*.json"):
        if path.name != f"{cell}.json" and own.fullmatch(path.name):
            path.unlink(missing_ok=True)


def _read_cell(path: Path) -> dict | None:
    """A cell file's payload; None if it is missing, unparsable or rowless."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) and "row" in payload else None


def _write_csv(path: Path, schema: str, columns: list[str], rows: list[dict]):
    buf = io.StringIO()
    buf.write(f"# {schema}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    write_atomic(path, buf.getvalue())


def read_report(path) -> list[dict]:
    """Rows of a report or timings CSV, skipping the schema comment line."""
    with open(path) as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _grid_order(row: dict):
    return (row["model"], row["strategy"], float(row["temperature"]),
            int(row["k"]))


def run_experiments(spec: ExperimentSpec, log=None) -> RunResult:
    """Execute (or resume) the sweep; returns rows plus computed/skipped
    counts. Per-cell failures are recorded and the run continues."""
    corpus = load_corpus(spec.prompt_corpus)
    corpus_sha256 = _sha256(spec.prompt_corpus)
    out_dir = Path(spec.out_dir)
    cells_dir = out_dir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    log = log or (lambda msg: print(msg, file=sys.stderr))
    prompts = sample_prompts(corpus, spec.n_prompts, spec.prompt_len,
                             seed=spec.seed + 101)
    result = RunResult(report_path=out_dir / "report.csv",
                       timing_path=out_dir / "timings.csv", rows=[])
    timing_rows: list[dict] = []
    for ckpt_path in spec.checkpoints:
        model_name = Path(ckpt_path).stem
        try:
            weights = load_checkpoint(ckpt_path)
            model = HybridModel(weights.cfg, weights)
            key = _cell_key(spec, _sha256(ckpt_path), corpus_sha256)
        except (OSError, ValueError) as exc:
            for kind in spec.strategies:
                result.errors.append((f"{model_name}/{kind}", str(exc)))
            log(f"[skip] {model_name}: {exc}")
            continue
        ar: dict = {}  # the greedy AR run, made by the first T = 0 cell
        div_cache: dict[DraftStrategy, DivergenceStats] = {}
        for kind in spec.strategies:
            strategy = DraftStrategy(kind)
            try:
                build_mask(model.cfg, strategy)
            except ValueError as exc:
                result.errors.append((f"{model_name}/{kind}", str(exc)))
                log(f"[skip] {model_name}/{kind}: {exc}")
                continue
            for temp in spec.temperatures:
                for k in spec.k_values:
                    cell = _cell_id(model_name, strategy.label(), k, temp, key)
                    cell_path = cells_dir / f"{cell}.json"
                    payload = _read_cell(cell_path)
                    if payload is not None:
                        result.n_skipped += 1
                    else:
                        if cell_path.exists():
                            log(f"[redo] {cell}: unreadable cell file")
                        try:
                            payload = _compute_cell(
                                spec, model, model_name, strategy, k, temp,
                                prompts, ar, div_cache)
                        except Exception as exc:  # recorded; the sweep goes on
                            result.errors.append(
                                (cell, f"{type(exc).__name__}: {exc}"))
                            log(f"[fail] {cell}:\n{traceback.format_exc()}")
                            continue
                        payload["key"] = key
                        write_atomic(cell_path,
                                     json.dumps(payload, sort_keys=True))
                        result.n_computed += 1
                        log(f"[done] {cell}: alpha={payload['row']['alpha']:.3f}")
                    _remove_superseded(cells_dir, cell)
                    result.rows.append(payload["row"])
                    if "timing" in payload:
                        timing_rows.append(payload["timing"])
    result.rows.sort(key=_grid_order)
    timing_rows.sort(key=_grid_order)
    _write_csv(result.report_path, REPORT_SCHEMA, REPORT_COLUMNS, result.rows)
    _write_csv(result.timing_path, TIMING_SCHEMA, TIMING_COLUMNS, timing_rows)
    return result


def _compute_cell(spec, model, model_name, strategy, k, temp, prompts, ar,
                  div_cache):
    settings = DecodeSettings(k=k, temperature=temp,
                              max_new_tokens=spec.max_new_tokens,
                              seed=spec.seed)
    outputs, rounds, spec_spt = decode_prompts(model, strategy, prompts,
                                               settings)
    stats = all_token_alpha(rounds, k, seed=spec.seed)
    if strategy not in div_cache:
        div_cache[strategy] = divergence_stats(
            model, build_mask(model.cfg, strategy), prompts)
    div = div_cache[strategy]
    rate = ar_spt = None
    if temp == 0.0:
        if not ar:
            ar["outputs"], _, ar["seconds"] = decode_prompts(
                model, None, prompts, settings)
        rate, ar_spt = match_rate(outputs, ar["outputs"]), ar["seconds"]
    cost = flop_ratio(model.cfg, strategy)
    alpha_pt = min(stats.per_token_alpha, 1.0 - 1e-9)
    row = {
        "model": model_name, "arch": model.cfg.arch, "strategy": strategy.label(),
        "k": k, "temperature": temp, "n_prompts": len(prompts),
        "n_rounds": stats.n_rounds, "alpha": stats.all_token_alpha,
        "alpha_ci_low": stats.ci_low, "alpha_ci_high": stats.ci_high,
        "per_token_alpha": stats.per_token_alpha,
        "mean_accepted_per_round": stats.mean_accepted_per_round,
        "tv_mean": div.tv_mean, "top1_agreement": div.top1_agreement,
        "divergence_positions": div.n_positions, "match_rate": rate,
        "cost_ratio": cost.cost_ratio,
        "expected_tokens_theory": expected_tokens(alpha_pt, k),
        "speedup_theory": speedup(alpha_pt, k, cost.cost_ratio),
    }
    timing = {"model": model_name, "strategy": strategy.label(), "k": k,
              "temperature": temp, "spec_seconds_per_token": spec_spt,
              "ar_seconds_per_token": ar_spt}
    return {
        "row": row,
        "timing": timing,
        "diagnostics": {
            "accepted_counts": [r.accepted_count for r in rounds],
            "all_accepted": [bool(r.all_accepted) for r in rounds],
            "position_match_totals": _position_match_totals(rounds, k),
        },
    }


def _position_match_totals(rounds, k: int) -> list[int]:
    totals = [0] * k
    for r in rounds:
        for i, flag in enumerate(r.per_position_match):
            totals[i] += bool(flag)
    return totals


# The toy-lab design of the acceptance gate and the desk-protocol scripts:
# both hybrids get the same corpus, steps, seed and sizes. Depth 12 gives
# layer_skip redundancy to exploit; scarce recurrent state leaves attention
# the corpus's long-range copies, so it carries real function.
TOY_ARCHS = ("parallel_hybrid", "sequential_hybrid")
TOY_MODEL = {"n_layers": 12, "d_model": 64, "d_state": 8}
TOY_TRAINING = {"steps": 1500, "seq_len": 96, "batch_size": 8,
                "learning_rate": 3e-3, "seed": 7}
TOY_CORPORA = {"train": (220_000, 1234), "eval": (26_000, 777)}  # bytes, seed
TOY_SWEEP = {"k_values": (2, 4, 8), "temperatures": (0.0, 0.6),
             "n_prompts": 200, "prompt_len": 16, "max_new_tokens": 48}


def training_digest(cfg: ModelConfig, tcfg: TrainConfig) -> str:
    """SHA-256 of the weights after the first two steps of ``tcfg``'s seeded
    training of ``cfg``: a change to the training numerics that moves one
    bit of those steps changes it."""
    digest = hashlib.sha256()
    for _, arr in train(cfg, replace(tcfg, steps=2, log_path=None))[0].items():
        digest.update(arr.tobytes())
    return digest.hexdigest()


def build_toys(directory) -> dict[str, Path]:
    """Paths of the toy-lab corpora (keyed "train" and "eval") and toys
    (keyed by arch) under ``directory``. Making them is bitwise
    reproducible, and file names carry the design. A corpus is made only if
    absent. Beside each toy, ``<tag>.train_digest`` records the
    :func:`training_digest` of the code that trained it; a toy is retrained
    when it, or its record, is missing or the record differs from the
    current code's digest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (n_bytes, seed) in TOY_CORPORA.items():
        paths[name] = directory / f"{name}_corpus_{n_bytes}_{seed}.bin"
        if not paths[name].exists():
            write_corpus(paths[name], n_bytes, seed)
    m, t = TOY_MODEL, TOY_TRAINING
    for arch in TOY_ARCHS:
        tag = (f"toy_{arch}_L{m['n_layers']}_d{m['d_model']}_s{m['d_state']}"
               f"_st{t['steps']}_sl{t['seq_len']}_seed{t['seed']}")
        paths[arch] = directory / f"{tag}.ckpt"
        record = directory / f"{tag}.train_digest"
        cfg = ModelConfig(arch, **m)
        tcfg = TrainConfig(corpus_path=str(paths["train"]), **t,
                           log_path=str(directory / f"{tag}.train_log.csv"))
        digest = training_digest(cfg, tcfg)
        if not (paths[arch].exists() and record.exists()
                and record.read_text() == digest):
            save_checkpoint(paths[arch], train(cfg, tcfg)[0])
            write_atomic(record, digest)
    return paths
