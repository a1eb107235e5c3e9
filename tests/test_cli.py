import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speclab.cli as cli
import speclab.training as training
from speclab.checkpoint import load_checkpoint, manifest_path, save_checkpoint
from speclab.cli import main
from speclab.corpus import load_corpus, make_corpus, sample_prompts
from speclab.experiments import ExperimentSpec, read_report
from speclab.model import HybridModel, ModelConfig, init_weights
from speclab.training import TrainConfig


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.bin"
    corpus.write_bytes(make_corpus(9_000, seed=8))
    cfg = ModelConfig("parallel_hybrid", n_layers=4, d_model=16, n_heads=2,
                      d_state=4, vocab_size=256, context_limit=64)
    ckpt = root / "toy.ckpt"
    save_checkpoint(ckpt, init_weights(cfg, 6))
    return {"root": root, "corpus": str(corpus), "ckpt": str(ckpt)}


def test_blas_threads_follow_only_the_standard_variables():
    # importing the CLI sets no thread count of its own
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["SPECLAB_THREADS"] = "3"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    code = ("import os, speclab.cli\n"
            f"print([os.environ.get(n) for n in {names!r}])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[None, None, None]"


class TestTrainCommand:
    def test_trains_and_writes_artifacts(self, env, tmp_path):
        out = tmp_path / "model.ckpt"
        rc = main([
            "train", "--arch", "parallel_hybrid", "--corpus", env["corpus"],
            "--out", str(out), "--steps", "3", "--batch-size", "2",
            "--seq-len", "24", "--n-layers", "2", "--d-model", "16",
            "--n-heads", "2", "--d-state", "4", "--context-limit", "48",
        ])
        assert rc == 0
        weights = load_checkpoint(out)
        assert weights.cfg.n_layers == 2
        assert manifest_path(out).exists()
        log = out.parent / (out.name + ".train_log.csv")
        assert log.read_text().startswith("step,loss")

    def test_sequential_layer_pattern_flag(self, env, tmp_path):
        out = tmp_path / "seq.ckpt"
        rc = main([
            "train", "--arch", "sequential_hybrid", "--corpus", env["corpus"],
            "--out", str(out), "--steps", "1", "--batch-size", "2",
            "--seq-len", "16", "--n-layers", "2", "--d-model", "16",
            "--n-heads", "2", "--d-state", "4", "--context-limit", "48",
            "--layer-pattern", "linear,attention",
        ])
        assert rc == 0
        assert load_checkpoint(out).cfg.layer_pattern == ("linear", "attention")

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_missing_output_directory_stops_before_training(
            self, tmp_path, capsys, monkeypatch, flag):
        seen = _capture(monkeypatch, "train")
        paths = {"--out": str(tmp_path / "x.ckpt"),
                 flag: str(tmp_path / "nodir" / "x.out")}
        rc = main(["train", "--arch", "parallel_hybrid", "--corpus", "x.bin",
                   *(t for kv in paths.items() for t in kv)])
        assert rc == 2
        assert seen == []
        assert capsys.readouterr().err == (
            f"speclab train: error: {flag} directory not found: "
            f"{tmp_path / 'nodir'}\n")


    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
    def test_learning_rate_that_is_not_finite_and_positive_is_bad_input(
            self, env, tmp_path, capsys, monkeypatch, lr):
        steps = []
        monkeypatch.setattr(training, "_train_step",
                            lambda *a: steps.append(a) or 0.0)
        rc = main(["train", "--arch", "parallel_hybrid", "--corpus",
                   env["corpus"], "--out", str(tmp_path / "m.ckpt"),
                   "--steps", "3", f"--lr={lr}", "--n-layers", "2",
                   "--d-model", "16", "--n-heads", "2", "--d-state", "4",
                   "--context-limit", "48", "--seq-len", "24"])
        assert rc == 2
        assert steps == []
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err == ("speclab train: error: learning_rate must be finite "
                       f"and positive, got {float(lr)}\n")


class _Stop(Exception):
    """Raised by a stub to end a command once its inputs are captured."""


def _capture(monkeypatch, name: str) -> list:
    """Replace ``cli.<name>`` by a stub that records its arguments, then stops
    the command."""
    seen = []

    def stub(*args):
        seen.append(args)
        raise _Stop

    monkeypatch.setattr(cli, name, stub)
    return seen


def _record_decodes(monkeypatch) -> list:
    """Wrap ``cli.decode_prompts`` to record the strategy kind of each call
    (``None`` for autoregressive decoding)."""
    seen = []
    real = cli.decode_prompts

    def recorded(model, strategy, prompts, settings):
        seen.append(strategy.kind if strategy else None)
        return real(model, strategy, prompts, settings)

    monkeypatch.setattr(cli, "decode_prompts", recorded)
    return seen


class TestDefaultsWrittenOnce:
    """The CLI reads its defaults from the dataclasses it fills."""

    def test_run_builds_the_spec_defaults(self, monkeypatch):
        seen = _capture(monkeypatch, "run_experiments")
        with pytest.raises(_Stop):
            main(["run", "--checkpoint", "x.ckpt", "--corpus", "x.bin",
                  "--out-dir", "x"])
        (spec,), = seen
        assert spec == ExperimentSpec(
            checkpoints=("x.ckpt",), strategies=spec.strategies,
            k_values=spec.k_values, temperatures=spec.temperatures,
            prompt_corpus="x.bin", out_dir="x")

    def test_train_builds_the_config_defaults(self, monkeypatch):
        seen = _capture(monkeypatch, "train")
        with pytest.raises(_Stop):
            main(["train", "--arch", "sequential_hybrid", "--corpus", "x.bin",
                  "--out", "x.ckpt"])
        (cfg, tcfg), = seen
        assert cfg == ModelConfig("sequential_hybrid")
        assert tcfg == TrainConfig(corpus_path="x.bin", steps=tcfg.steps,
                                   log_path="x.ckpt.train_log.csv")


class TestRunCommand:
    def test_end_to_end_sweep(self, env, tmp_path):
        out_dir = tmp_path / "runs"
        rc = main([
            "run", "--checkpoint", env["ckpt"], "--corpus", env["corpus"],
            "--out-dir", str(out_dir), "--strategies", "identity",
            "--k", "1,2", "--temperatures", "0", "--n-prompts", "3",
            "--prompt-len", "6", "--max-new-tokens", "6",
        ])
        assert rc == 0
        rows = read_report(out_dir / "report.csv")
        assert len(rows) == 2
        assert all(float(r["alpha"]) == 1.0 for r in rows)


class TestDiagnosticsCommands:
    def test_divergence_json(self, env, tmp_path, capsys):
        out = tmp_path / "div.json"
        rc = main(["divergence", "--checkpoint", env["ckpt"], "--corpus",
                   env["corpus"], "--n-prompts", "4", "--prompt-len", "8",
                   "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert 0.0 <= payload["tv_mean"] <= 1.0
        assert payload["n_positions"] == 32

    def test_ablate_json_and_ledger(self, env, tmp_path):
        out = tmp_path / "ablate.json"
        ledger = tmp_path / "ledger.csv"
        rc = main(["ablate", "--checkpoint", env["ckpt"], "--corpus",
                   env["corpus"], "--eval-bytes", "2000",
                   "--json", str(out), "--ledger", str(ledger)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] in ("viable", "uncertain", "non_viable")
        lines = ledger.read_text().strip().splitlines()
        assert lines[0].startswith("checkpoint,")
        assert len(lines) == 2

    def test_ledger_quotes_a_checkpoint_path(self, env, tmp_path):
        odd = tmp_path / 'toy, "copy".ckpt'
        odd.write_bytes(Path(env["ckpt"]).read_bytes())
        ledger = tmp_path / "ledger.csv"
        for _ in range(2):
            assert main(["ablate", "--checkpoint", str(odd), "--corpus",
                         env["corpus"], "--eval-bytes", "2000",
                         "--ledger", str(ledger)]) == 0
        with open(ledger, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["checkpoint", "ppl_base", "ppl_no_attn",
                           "ppl_ratio", "verdict"]
        assert len(rows) == 3
        for row in rows[1:]:
            assert len(row) == 5
            assert row[0] == str(odd)

    def test_theory_json_with_reference(self, env, tmp_path):
        out = tmp_path / "theory.json"
        rc = main(["theory", "--alpha", "0.680", "--k", "2", "--cost-ratio",
                   "0.784", "--reference-speedup", "0.92",
                   "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert abs(payload["speedup"] - 0.834) < 1e-3
        readings = payload["speedup_readings"]
        assert abs(readings["speedup_all_token_converted"] - 0.975) < 1e-3
        assert payload["reference_deviation_direct"] < 0
        assert payload["reference_deviation_all_token_converted"] > 0
        assert payload["optimal_k"] <= 2
        # the top-level fields read alpha directly; both readings sit in
        # speedup_readings
        assert payload["speedup"] == readings["speedup_direct"]
        assert payload["expected_tokens"] == readings["expected_tokens_direct"]
        assert sorted(payload) == [
            "alpha", "cost_ratio", "expected_tokens", "k", "optimal_k",
            "reference_deviation_all_token_converted",
            "reference_deviation_direct", "reference_speedup", "speedup",
            "speedup_readings"]

    def test_theory_cost_ratio_from_checkpoint(self, env, capsys):
        rc = main(["theory", "--alpha", "0.5", "--k", "2", "--checkpoint",
                   env["ckpt"]])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["cost_ratio"] < 1.0

    def test_theory_alpha_reading_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theory", "--alpha", "0.5", "--k", "2", "--cost-ratio",
                  "0.5", "--alpha-is-all-token"])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --alpha-is-all-token"
                in capsys.readouterr().err)

    def test_theory_needs_a_ratio_source(self, capsys):
        assert main(["theory", "--alpha", "0.5", "--k", "2"]) == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("theory", "--alpha", "1.0"), ("theory", "--k", "0"),
        ("theory", "--k-max", "0"), ("theory", "--cost-ratio", "0"),
        ("run", "--k", "0"), ("run", "--temperatures", "-0.6"),
        ("run", "--max-new-tokens", "0"), ("run", "--n-prompts", "0"),
        ("ablate", "--eval-bytes", "-2990"), ("ablate", "--eval-bytes", "0"),
        ("ablate", "--eval-bytes", "1"),
        ("divergence", "--n-prompts", "0"), ("divergence", "--prompt-len", "0"),
        ("verify-lossless", "--k", "0"), ("train", "--steps", "-1"),
        ("train", "--seq-len", "1")])
    def test_out_of_range_input_rejected_at_parse_time(
            self, capsys, command, flag, value):
        files = {"--checkpoint": "x.ckpt", "--corpus": "x.bin"}
        argv = {"theory": {"--alpha": "0.5", "--k": "2", "--cost-ratio": "0.5"},
                "run": {**files, "--out-dir": "x"},
                "ablate": files, "divergence": files, "verify-lossless": files,
                "train": {"--arch": "parallel_hybrid", "--corpus": "x.bin",
                          "--out": "x.ckpt"}}[command].copy()
        argv[flag] = value
        with pytest.raises(SystemExit) as exc:
            main([command, *(t for kv in argv.items() for t in kv)])
        assert exc.value.code == 2
        assert f"argument {flag}: '{value}' is not" in capsys.readouterr().err

    def test_verify_lossless_passes_on_toy_checkpoint(self, env, capsys):
        rc = main(["verify-lossless", "--checkpoint", env["ckpt"], "--corpus",
                   env["corpus"], "--n-prompts", "4", "--prompt-len", "6",
                   "--max-new-tokens", "8", "--k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("match rate 1.000") == 4

    @pytest.mark.parametrize("arch,kinds", [
        ("parallel_hybrid", ("component_only", "layer_skip", "early_exit",
                             "identity")),
        ("sequential_hybrid", ("component_only", "layer_skip", "early_exit",
                               "identity")),
        ("transformer", ("layer_skip", "early_exit", "identity"))])
    def test_verify_lossless_defaults_to_the_kinds_with_a_mask(
            self, env, tmp_path, monkeypatch, arch, kinds):
        # every strategy kind build_mask realises for the checkpoint's config
        cfg = ModelConfig(arch, n_layers=4, d_model=16, n_heads=2, d_state=4,
                          vocab_size=256, context_limit=64)
        ckpt = tmp_path / f"{arch}.ckpt"
        save_checkpoint(ckpt, init_weights(cfg, 6))
        seen = _record_decodes(monkeypatch)
        main(["verify-lossless", "--checkpoint", str(ckpt), "--corpus",
              env["corpus"], "--n-prompts", "1", "--prompt-len", "6",
              "--max-new-tokens", "4"])
        assert tuple(kind for kind in seen if kind) == kinds

    def test_verify_lossless_decodes_autoregressively_once_first(
            self, env, monkeypatch):
        seen = _record_decodes(monkeypatch)
        rc = main(["verify-lossless", "--checkpoint", env["ckpt"], "--corpus",
                   env["corpus"], "--n-prompts", "3", "--prompt-len", "6",
                   "--max-new-tokens", "6", "--strategies",
                   "identity,layer_skip,component_only"])
        assert rc == 0
        assert seen == [None, "identity", "layer_skip", "component_only"]

    def test_verify_lossless_rejects_unknown_strategy_names(self, env,
                                                            capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-lossless", "--checkpoint", env["ckpt"], "--corpus",
                  env["corpus"], "--strategies", "identity,foo"])
        assert exc.value.code == 2
        assert "unknown strategy 'foo'" in capsys.readouterr().err

    def test_run_rejects_unknown_strategy_names_before_any_work(
            self, env, tmp_path, capsys, monkeypatch):
        seen = _capture(monkeypatch, "run_experiments")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--checkpoint", env["ckpt"], "--corpus", env["corpus"],
                  "--out-dir", str(tmp_path / "runs"), "--strategies", "bogus"])
        assert exc.value.code == 2
        assert "unknown strategy 'bogus'" in capsys.readouterr().err
        assert seen == []

    def test_run_rejects_repeated_sweep_values_before_any_work(
            self, env, tmp_path, capsys, monkeypatch):
        seen = _capture(monkeypatch, "run_experiments")
        rc = main(["run", "--checkpoint", env["ckpt"], "--corpus", env["corpus"],
                   "--out-dir", str(tmp_path / "runs"), "--k", "2,2"])
        assert rc == 2
        assert "sweep values must not repeat" in capsys.readouterr().err
        assert seen == []

    @pytest.mark.parametrize("argv", [
        ["run", "--checkpoint", "x", "--corpus", "x", "--out-dir", "x"],
        ["divergence", "--checkpoint", "x", "--corpus", "x"],
        ["theory", "--alpha", "0.5", "--k", "2"],
        ["verify-lossless", "--checkpoint", "x", "--corpus", "x"]],
        ids=lambda argv: argv[0])
    def test_draft_fractions_are_not_options(self, argv, capsys):
        # each strategy kind is one fixed draft
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--skip-fraction", "0.25"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --skip-fraction" in capsys.readouterr().err

    def test_training_compute_dtype_is_not_an_option(self, capsys):
        # training computes in float32 only
        with pytest.raises(SystemExit) as exc:
            main(["train", "--arch", "parallel_hybrid", "--corpus", "x.bin",
                  "--out", "x.ckpt", "--compute-dtype", "float64"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --compute-dtype" in capsys.readouterr().err

    @pytest.mark.parametrize("command,missing", [
        ("ablate", "checkpoint"), ("ablate", "corpus"),
        ("divergence", "corpus"), ("verify-lossless", "checkpoint"),
        ("run", "corpus")])
    def test_missing_input_file_is_bad_input(self, env, tmp_path, capsys,
                                             command, missing):
        files = {"checkpoint": env["ckpt"], "corpus": env["corpus"],
                 missing: str(tmp_path / "nope.bin")}
        argv = [command, "--checkpoint", files["checkpoint"], "--corpus",
                files["corpus"]]
        if command == "run":
            argv += ["--out-dir", str(tmp_path / "runs")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"speclab {command}: error: {missing} not found: "
            f"{tmp_path / 'nope.bin'}\n")
        # the sweep checks its corpus before it makes any directory
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command,flags", [
        ("train", ("--corpus",)), ("run", ("--checkpoint", "--corpus")),
        ("ablate", ("--checkpoint",))])
    def test_directory_input_path_is_bad_input(self, env, tmp_path, capsys,
                                               command, flags):
        folder = tmp_path / "folder"
        folder.mkdir()
        files = {"--checkpoint": env["ckpt"], "--corpus": env["corpus"],
                 **{flag: str(folder) for flag in flags}}
        argv = {"train": ["--arch", "parallel_hybrid", "--corpus",
                          files["--corpus"], "--out", str(tmp_path / "m.ckpt")],
                "run": ["--checkpoint", files["--checkpoint"], "--corpus",
                        files["--corpus"], "--out-dir", str(tmp_path / "runs")],
                "ablate": ["--checkpoint", files["--checkpoint"], "--corpus",
                           files["--corpus"]]}[command]
        assert main([command, *argv]) == 2
        name = flags[-1].lstrip("-")
        assert capsys.readouterr().err == (
            f"speclab {command}: error: {name} not found: {folder}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["folder"]

    @pytest.mark.parametrize("command,argv,message", [
        ("verify-lossless", ["--prompt-len", "16", "--max-new-tokens", "60"],
         "prompt + max_new_tokens needs 75 positions, context_limit is 64"),
        ("divergence", ["--prompt-len", "100"],
         "context overflow: 0+100 exceeds limit 64")])
    def test_prompt_beyond_the_context_is_bad_input(self, env, capsys, command,
                                                    argv, message):
        # the limit comes from the checkpoint, so it is checked after parsing
        rc = main([command, "--checkpoint", env["ckpt"], "--corpus",
                   env["corpus"], "--n-prompts", "2", *argv])
        assert rc == 2
        assert capsys.readouterr().err == f"speclab {command}: error: {message}\n"

    def test_verify_lossless_prints_smallest_greedy_margin(self, env, capsys):
        rc = main(["verify-lossless", "--checkpoint", env["ckpt"], "--corpus",
                   env["corpus"], "--n-prompts", "4", "--prompt-len", "6",
                   "--max-new-tokens", "8", "--k", "2",
                   "--strategies", "identity"])
        assert rc == 0
        out = capsys.readouterr().out
        found = re.search(r"smallest greedy margin (\S+) .* at prompt (\d+), "
                          r"new token (\d+)", out)
        assert found, out
        assert "warning" not in out
        # direct: greedy decoding by a fresh full-prefix forward per token
        weights = load_checkpoint(env["ckpt"])
        model = HybridModel(weights.cfg, weights)
        prompts = sample_prompts(load_corpus(env["corpus"]), 4, 6, 0)
        gaps = np.empty((4, 8))
        for i, prompt in enumerate(prompts):
            seq = list(prompt)
            for j in range(8):
                logits, _ = model.forward_prefix(seq)
                top2 = np.sort(logits[-1])[-2:]
                gaps[i, j] = top2[1] - top2[0]
                seq.append(int(np.argmax(logits[-1])))
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        assert float(found.group(1)) == pytest.approx(gaps[i, j], rel=1e-6)
        assert (int(found.group(2)), int(found.group(3))) == (i, j)

    def test_near_tie_warns_without_changing_exit_code(self, env, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(cli, "greedy_margin", lambda *a: (3e-12, 1, 2))
        rc = main(["verify-lossless", "--checkpoint", env["ckpt"], "--corpus",
                   env["corpus"], "--n-prompts", "2", "--prompt-len", "6",
                   "--max-new-tokens", "4", "--strategies", "identity"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "smallest greedy margin 3.000000e-12" in out
        assert "warning: near tie" in out
