"""Session fixtures: matched-budget toy checkpoints, the acceptance sweep,
and the acceptance-criteria summary printed at the end of a run.

Training and sweep outputs are cached under ``.speclab_cache/`` at the repo
root. Training is bitwise reproducible, and each cached toy carries the
digest of two training steps by the code that trained it, so a change to
the training numerics retrains it; delete that directory to exercise the
full cold-start budget.
"""

import time
from pathlib import Path

import pytest

from speclab.checkpoint import load_checkpoint
from speclab.corpus import load_corpus
from speclab.experiments import (TOY_ARCHS, TOY_SWEEP, ExperimentSpec,
                                 build_toys, run_experiments)
from speclab.model import HybridModel

_acceptance_lines: dict[str, tuple[bool, str]] = {}


@pytest.fixture
def criterion():
    """Record one pass/fail line for an acceptance criterion and assert it."""
    def record(cid: str, passed: bool, detail: str = ""):
        _acceptance_lines[cid] = (bool(passed), detail)
        assert passed, f"{cid}: {detail}"
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(_acceptance_lines):
        passed, detail = _acceptance_lines[cid]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{status}] {cid}: {detail}")


def cache_dir() -> Path:
    d = Path(__file__).resolve().parent.parent / ".speclab_cache"
    d.mkdir(exist_ok=True)
    return d


@pytest.fixture(scope="session")
def toy_lab():
    """The two matched-budget toy hybrids of the toy-lab design
    (``speclab.experiments.TOY_*``) plus their train and eval corpora."""
    t0 = time.perf_counter()
    paths = build_toys(cache_dir())
    train_seconds = time.perf_counter() - t0
    checkpoints = {arch: paths[arch] for arch in TOY_ARCHS}
    models = {}
    for arch, path in checkpoints.items():
        weights = load_checkpoint(path)
        models[arch] = HybridModel(weights.cfg, weights)
    return {
        "checkpoints": checkpoints,
        "models": models,
        "train_corpus": paths["train"],
        "eval_corpus": paths["eval"],
        "eval_tokens": load_corpus(paths["eval"]),
        "train_seconds": train_seconds,
    }


@pytest.fixture(scope="session")
def acceptance_sweep(toy_lab):
    """The measured grid behind criteria 6-8; resumable across sessions."""
    spec = ExperimentSpec(
        checkpoints=tuple(str(p) for p in toy_lab["checkpoints"].values()),
        strategies=("component_only", "layer_skip"),
        prompt_corpus=str(toy_lab["eval_corpus"]),
        out_dir=str(cache_dir() / "acceptance_sweep"),
        **TOY_SWEEP,
    )
    t0 = time.perf_counter()
    result = run_experiments(spec, log=lambda m: None)
    sweep_seconds = time.perf_counter() - t0
    assert not result.errors, result.errors
    return {"rows": result.rows, "sweep_seconds": sweep_seconds,
            "spec": spec, "result": result}
