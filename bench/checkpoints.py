#!/usr/bin/env python3
"""Make the two toy hybrid checkpoints that the sweep and score workloads read.

Usage, from the repository root:

    python3 bench/checkpoints.py            # make them if missing
    python3 bench/checkpoints.py --force    # make them anew

Both checkpoints come from the repository's own ``training.train`` with the
fixed spec below, so the same code on the same machine makes the same bytes.
Each checkpoint gets a ``.digest.json`` beside it with its SHA-256, the spec
it was made from and the seconds training took; benchmark runs print the
digests they read, so figures made on different checkpoints are never
compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CACHE_DIR = BENCH_DIR / ".cache"

# The toy spec of the repository's acceptance suite (12 layers, d=64,
# d_state=8, batch 8, windows of 96, lr 3e-3, seed 7) at 300 steps instead of
# 1500: the loss curve of the 1500-step run is flat within 0.1 nat from step
# 300 on, and 300 steps keep the one-time build near five minutes.
TRAIN_CORPUS_BYTES = 220_000
TRAIN_CORPUS_SEED = 1234
ARCHS = {"par": "parallel_hybrid", "seq": "sequential_hybrid"}
MODEL_SPEC = {"n_layers": 12, "d_model": 64, "d_state": 8}
TRAIN_SPEC = {"steps": 300, "batch_size": 8, "seq_len": 96,
              "learning_rate": 3e-3, "seed": 7}


def pin_blas_threads() -> None:
    """One BLAS thread: the toy matrices are too small to gain from more, and
    a fixed count keeps float summation order, hence checkpoint bytes, fixed.
    Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_speclab() -> None:
    """Put the checkout's ``src`` on the path; fails where it is absent."""
    src = ROOT / "src"
    if not (src / "speclab" / "__init__.py").is_file():
        raise SystemExit(f"speclab sources not found under {src}")
    sys.path.insert(0, str(src))


def train_corpus_path() -> Path:
    return CACHE_DIR / f"train_corpus_{TRAIN_CORPUS_BYTES}_{TRAIN_CORPUS_SEED}.bin"


def checkpoint_path(name: str) -> Path:
    return CACHE_DIR / f"{name}.ckpt"


def digest_path(name: str) -> Path:
    return CACHE_DIR / f"{name}.digest.json"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _spec(name: str) -> dict:
    return {"arch": ARCHS[name], "model": MODEL_SPEC, "train": TRAIN_SPEC,
            "train_corpus": {"bytes": TRAIN_CORPUS_BYTES,
                             "seed": TRAIN_CORPUS_SEED}}


def make_checkpoint(name: str) -> dict:
    from speclab.checkpoint import save_checkpoint
    from speclab.corpus import write_corpus
    from speclab.model import ModelConfig
    from speclab.training import TrainConfig, train

    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    corpus = train_corpus_path()
    if not corpus.exists():
        tmp = corpus.with_suffix(".tmp")
        write_corpus(tmp, TRAIN_CORPUS_BYTES, TRAIN_CORPUS_SEED)
        tmp.replace(corpus)
    cfg = ModelConfig(ARCHS[name], **MODEL_SPEC)
    tcfg = TrainConfig(corpus_path=str(corpus), **TRAIN_SPEC)
    t0 = time.perf_counter()
    weights, history = train(cfg, tcfg)
    seconds = time.perf_counter() - t0
    # written under a temporary name and renamed, so a run that is cut
    # short never leaves a checkpoint that looks finished
    tmp = CACHE_DIR / f"{name}.tmp.ckpt"
    save_checkpoint(tmp, weights)
    Path(str(tmp) + ".manifest.json").unlink()
    record = {"name": name, "sha256": sha256(tmp), "train_seconds": seconds,
              "final_loss": history[-1][1], **_spec(name)}
    tmp.replace(checkpoint_path(name))
    digest_path(name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def read_record(name: str) -> dict | None:
    """The digest record of a finished checkpoint made from today's spec."""
    path, rec = checkpoint_path(name), digest_path(name)
    if not (path.exists() and rec.exists()):
        return None
    record = json.loads(rec.read_text())
    spec = _spec(name)
    if any(record.get(key) != value for key, value in spec.items()):
        return None
    return record


def ensure_checkpoints(force: bool = False, log=print) -> dict[str, dict]:
    """Digest records of both checkpoints, making any that are missing."""
    records = {}
    for name in ARCHS:
        record = None if force else read_record(name)
        if record is None:
            log(f"making checkpoint {name} ({TRAIN_SPEC['steps']} steps)")
            record = make_checkpoint(name)
            log(f"  {record['sha256'][:16]} in {record['train_seconds']:.1f} s")
        records[name] = record
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--force", action="store_true",
                        help="train both checkpoints again even if present")
    args = parser.parse_args(argv)
    pin_blas_threads()
    import_speclab()
    for name, record in ensure_checkpoints(args.force).items():
        print(f"{name} {record['sha256']} {checkpoint_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
