import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speclab
from speclab.ablation import (
    AblationReport,
    ablate_and_score,
    classify_viability,
)
from speclab.model import HybridModel, ModelConfig


def report(base, no_attn):
    ratio = no_attn / base
    return AblationReport(ppl_base=base, ppl_no_attn=no_attn, ppl_ratio=ratio,
                          verdict=classify_viability(ratio))


class TestClassifyViability:
    def test_published_parallel_operating_point_is_viable(self):
        assert classify_viability(3.15) == "viable"

    def test_published_sequential_operating_point_is_non_viable(self):
        assert classify_viability(81.96) == "non_viable"

    def test_band_between_thresholds_is_uncertain(self):
        assert classify_viability(10.0) == "uncertain"
        assert classify_viability(5.0) == "uncertain"
        assert classify_viability(20.0) == "uncertain"

    def test_ratio_below_one_is_viable(self):
        assert classify_viability(0.9) == "viable"

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError):
            classify_viability(0.0)


class TestAblationReport:
    def test_inconsistent_ratio_rejected(self):
        with pytest.raises(ValueError):
            AblationReport(ppl_base=5.0, ppl_no_attn=15.0, ppl_ratio=2.9,
                           verdict="viable")

    def test_round_trip_dict(self):
        r = report(5.621, 17.725)
        d = r.to_dict()
        assert d["verdict"] == "viable"
        assert abs(d["ppl_ratio"] - 3.1533) < 1e-3


class TestAblateAndScore:
    def test_zeroed_attention_gives_exact_unit_ratio(self):
        cfg = ModelConfig("parallel_hybrid", n_layers=3, d_model=32, n_heads=2,
                          d_state=8, vocab_size=32, context_limit=64)
        m = HybridModel.from_seed(cfg, 0)
        for i in range(cfg.n_layers):
            for p in ("wq", "wk", "wv", "wo"):
                m.weights[f"layers.{i}.attn.{p}"][:] = 0.0
        corpus = np.random.default_rng(0).integers(0, 32, size=300)
        rep = ablate_and_score(m, corpus)
        assert rep.ppl_ratio == 1.0
        assert rep.verdict == "viable"

    def test_transformer_has_no_component_to_ablate(self):
        cfg = ModelConfig("transformer", n_layers=2, d_model=16, n_heads=2,
                          d_state=4, vocab_size=16, context_limit=32)
        m = HybridModel.from_seed(cfg, 0)
        with pytest.raises(ValueError):
            ablate_and_score(m, np.zeros(100, dtype=int))


def test_importing_every_module_loads_no_scipy():
    code = ("import importlib, pkgutil, sys, speclab\n"
            "names = [m.name for m in pkgutil.iter_modules(speclab.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('speclab.' + name)\n"
            "print(sorted(names), any(m.split('.')[0] == 'scipy'\n"
            "                         for m in sys.modules))")
    src = str(Path(speclab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert "'cli'" in out and "'training'" in out
    assert out.strip().endswith("False")
