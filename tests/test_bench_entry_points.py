"""The benchmark's modules import, and its tracer patches and restores, against
this checkout's speclab, so that a renamed or removed function the benchmark
calls or traces fails here and not only in ``bench/run.py --trace 1``."""

import importlib
from pathlib import Path

from speclab.model import ARCHS, ModelConfig, mask_blocks

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_bench_modules_import_and_the_tracer_installs_and_uninstalls(
        monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spans = importlib.import_module("spans")
    importlib.import_module("workloads")
    layers = importlib.import_module("layers")

    def target_values():
        values = []
        for module_name, path, _ in spans.TARGETS.values():
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
            values.append(owner)
        return values

    before = target_values()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(a is not b for a, b in zip(target_values(), before))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(target_values(), before))

    # the per-block metrics count a config's blocks by these two
    assert callable(ModelConfig.has_alt) and callable(ModelConfig.has_attn)
    for arch in ARCHS[:2]:
        cfg = ModelConfig(arch, n_layers=4, d_model=16, n_heads=2, d_state=4)
        for mask in layers.probe_masks(cfg).values():
            mask_blocks(cfg, mask)
