import json
import math

import numpy as np
import pytest

from speclab import engine, experiments, training
from speclab.checkpoint import save_checkpoint
from speclab.corpus import make_corpus
from speclab.engine import STRATEGY_KINDS, DraftStrategy
from speclab.experiments import (
    ExperimentSpec,
    read_report,
    run_experiments,
)
from speclab.model import ModelConfig, init_weights

PAR = ModelConfig("parallel_hybrid", n_layers=4, d_model=16, n_heads=2,
                  d_state=4, vocab_size=256, context_limit=64)
TRA = ModelConfig("transformer", n_layers=4, d_model=16, n_heads=2,
                  d_state=4, vocab_size=256, context_limit=64)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("exp")
    corpus = root / "corpus.bin"
    corpus.write_bytes(make_corpus(8_000, seed=3))
    par = root / "toy_parallel.ckpt"
    save_checkpoint(par, init_weights(PAR, 1))
    tra = root / "toy_transformer.ckpt"
    save_checkpoint(tra, init_weights(TRA, 2))
    return {"root": root, "corpus": corpus, "par": par, "tra": tra}


def tiny_spec(workspace, out_dir, **kw):
    defaults = dict(
        checkpoints=(str(workspace["par"]),),
        strategies=("identity", "component_only"),
        k_values=(1, 2),
        temperatures=(0.0, 0.7),
        prompt_corpus=str(workspace["corpus"]),
        out_dir=str(out_dir),
        n_prompts=4,
        prompt_len=6,
        max_new_tokens=8,
        seed=5,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestRunExperiments:
    def test_identity_cells_are_perfect(self, workspace, tmp_path):
        spec = tiny_spec(workspace, tmp_path / "runA")
        result = run_experiments(spec, log=lambda m: None)
        assert result.n_computed == 8
        rows = {(r["strategy"], float(r["temperature"]), int(r["k"])): r
                for r in result.rows}
        for k in (1, 2):
            row = rows[("identity", 0.0, k)]
            assert row["alpha"] == 1.0
            assert row["tv_mean"] == 0.0
            assert row["match_rate"] == 1.0
            assert row["top1_agreement"] == 1.0

    def test_greedy_cells_are_lossless_for_all_strategies(self, workspace,
                                                          tmp_path):
        spec = tiny_spec(workspace, tmp_path / "runB")
        result = run_experiments(spec, log=lambda m: None)
        for row in result.rows:
            if float(row["temperature"]) == 0.0:
                assert row["match_rate"] == 1.0

    def test_rerun_reuses_every_cell_and_reproduces_report(self, workspace,
                                                           tmp_path):
        out = tmp_path / "runC"
        spec = tiny_spec(workspace, out)
        first = run_experiments(spec, log=lambda m: None)
        body = first.report_path.read_bytes()
        second = run_experiments(spec, log=lambda m: None)
        assert second.n_computed == 0
        assert second.n_skipped == first.n_computed
        assert second.report_path.read_bytes() == body

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda text: text[:40], id="truncated"),
        pytest.param(lambda text: json.dumps({"key": json.loads(text)["key"]}),
                     id="no-row")])
    def test_unreadable_cell_file_is_computed_again(self, workspace, tmp_path,
                                                    damage):
        out = tmp_path / "runR"
        spec = tiny_spec(workspace, out, strategies=("component_only",),
                         temperatures=(0.7,))
        first = run_experiments(spec, log=lambda m: None)
        body = first.report_path.read_bytes()
        assert first.n_computed == 2
        cell = sorted((out / "cells").glob("*.json"))[0]
        cell.write_text(damage(cell.read_text()))
        logged = []
        second = run_experiments(spec, log=logged.append)
        assert (second.n_computed, second.n_skipped) == (1, 1)
        assert second.errors == []
        assert [m.split(":")[0] for m in logged
                if m.startswith("[redo]")] == [f"[redo] {cell.stem}"]
        assert second.report_path.read_bytes() == body
        assert "row" in json.loads(cell.read_text())

    def test_identical_specs_give_byte_identical_reports(self, workspace,
                                                         tmp_path):
        r1 = run_experiments(tiny_spec(workspace, tmp_path / "d1"),
                             log=lambda m: None)
        r2 = run_experiments(tiny_spec(workspace, tmp_path / "d2"),
                             log=lambda m: None)
        assert r1.report_path.read_bytes() == r2.report_path.read_bytes()

    def test_invalid_strategy_for_arch_is_reported_not_fatal(self, workspace,
                                                             tmp_path):
        spec = tiny_spec(
            workspace, tmp_path / "runD",
            checkpoints=(str(workspace["tra"]), str(workspace["par"])),
            strategies=("component_only", "identity"), k_values=(1,),
            temperatures=(0.0,))
        result = run_experiments(spec, log=lambda m: None)
        assert any("component_only" in cell for cell, _ in result.errors)
        models = {r["model"] for r in result.rows}
        assert "toy_parallel" in models and "toy_transformer" in models

    def test_unreadable_checkpoint_is_reported_not_fatal(self, workspace,
                                                         tmp_path):
        spec = tiny_spec(
            workspace, tmp_path / "runE",
            checkpoints=(str(workspace["root"] / "missing.ckpt"),
                         str(workspace["par"])),
            strategies=("identity",), k_values=(1,), temperatures=(0.0,))
        result = run_experiments(spec, log=lambda m: None)
        assert result.errors
        assert len(result.rows) == 1

    def test_directory_checkpoint_is_skipped_like_a_missing_one(
            self, workspace, tmp_path):
        folder = tmp_path / "toy_folder.ckpt"
        folder.mkdir()
        spec = tiny_spec(
            workspace, tmp_path / "runE2",
            checkpoints=(str(folder), str(workspace["par"])),
            strategies=("identity",), k_values=(1,), temperatures=(0.0,))
        logged = []
        result = run_experiments(spec, log=logged.append)
        assert result.errors == [
            ("toy_folder/identity", f"checkpoint not found: {folder}")]
        assert logged[0] == f"[skip] toy_folder: checkpoint not found: {folder}"
        assert {r["model"] for r in result.rows} == {"toy_parallel"}

    def test_cell_files_carry_round_diagnostics(self, workspace, tmp_path):
        out = tmp_path / "runF"
        spec = tiny_spec(workspace, out, strategies=("identity",),
                         k_values=(2,), temperatures=(0.0,))
        run_experiments(spec, log=lambda m: None)
        cell = json.loads(next((out / "cells").glob("*.json")).read_text())
        diag = cell["diagnostics"]
        assert len(diag["position_match_totals"]) == 2
        assert len(diag["accepted_counts"]) == len(diag["all_accepted"])
        assert all(0 <= c <= 2 for c in diag["accepted_counts"])

    def test_timings_kept_out_of_the_deterministic_report(self, workspace,
                                                          tmp_path):
        out = tmp_path / "runG"
        run_experiments(tiny_spec(workspace, out), log=lambda m: None)
        header = (out / "report.csv").read_text().splitlines()[1]
        assert "seconds" not in header
        assert (out / "timings.csv").exists()

    def test_one_prompt_cell_is_timed(self, workspace, tmp_path):
        out = tmp_path / "runG1"
        result = run_experiments(
            tiny_spec(workspace, out, n_prompts=1, k_values=(2,),
                      temperatures=(0.0,)), log=lambda m: None)
        rows = read_report(result.timing_path)
        assert len(rows) == 2
        for row in rows:
            for column in ("spec_seconds_per_token", "ar_seconds_per_token"):
                seconds = float(row[column])
                assert math.isfinite(seconds) and seconds > 0, (row, column)

    def test_failing_cell_is_recorded_and_the_sweep_goes_on(
            self, workspace, tmp_path, monkeypatch):
        real = engine.speculative_generate

        def failing(model, strategy, prompt, settings):
            if strategy.kind == "component_only":
                raise RuntimeError("injected failure")
            return real(model, strategy, prompt, settings)

        monkeypatch.setattr(engine, "speculative_generate", failing)
        spec = tiny_spec(workspace, tmp_path / "runI", k_values=(1,),
                         temperatures=(0.0,))
        result = run_experiments(spec, log=lambda m: None)
        assert result.n_computed == 1
        assert len(result.errors) == 1
        cell, message = result.errors[0]
        assert "component_only" in cell and "injected failure" in message
        rows = read_report(result.report_path)
        assert [r["strategy"] for r in rows] == ["identity"]

    def test_greedy_cells_share_one_autoregressive_run_per_model(
            self, workspace, tmp_path, monkeypatch):
        calls = []
        real = engine.decode_prompts

        def recorded(model, strategy, prompts, settings):
            calls.append((model.cfg.arch, strategy and strategy.kind))
            return real(model, strategy, prompts, settings)

        monkeypatch.setattr(experiments, "decode_prompts", recorded)
        spec = tiny_spec(workspace, tmp_path / "runH",
                         checkpoints=(str(workspace["par"]),
                                      str(workspace["tra"])),
                         strategies=("identity", "layer_skip"), k_values=(2, 4))
        result = run_experiments(spec, log=lambda m: None)
        assert result.n_computed == 16 and not result.errors
        assert sorted(a for a, kind in calls if kind is None) == [
            "parallel_hybrid", "transformer"]
        assert len(calls) == 16 + 2   # one per cell, one AR run per model
        timings = read_report(result.timing_path)
        assert all((row["ar_seconds_per_token"] != "")
                   == (float(row["temperature"]) == 0.0) for row in timings)

    def test_changed_spec_recomputes_instead_of_reusing_cells(self, workspace,
                                                              tmp_path):
        out = tmp_path / "runJ"
        kw = dict(strategies=("identity",), k_values=(1,), temperatures=(0.0,))
        run_experiments(tiny_spec(workspace, out, n_prompts=1, **kw),
                        log=lambda m: None)
        second = run_experiments(tiny_spec(workspace, out, n_prompts=2, **kw),
                                 log=lambda m: None)
        assert (second.n_computed, second.n_skipped) == (1, 0)
        assert [r["n_prompts"] for r in read_report(second.report_path)] == ["2"]
        assert not list((out / "cells").glob(".*.tmp"))

    def test_retrained_checkpoint_recomputes_its_cells(self, workspace, tmp_path):
        ckpt = tmp_path / "toy_parallel.ckpt"
        save_checkpoint(ckpt, init_weights(PAR, 1))
        kw = dict(checkpoints=(str(ckpt),), strategies=("identity",),
                  k_values=(1,), temperatures=(0.0,))
        out = tmp_path / "runK"
        run_experiments(tiny_spec(workspace, out, **kw), log=lambda m: None)
        save_checkpoint(ckpt, init_weights(PAR, 9))
        again = run_experiments(tiny_spec(workspace, out, **kw), log=lambda m: None)
        assert (again.n_computed, again.n_skipped) == (1, 0)

    def test_malformed_checkpoint_is_reported_not_fatal(self, workspace,
                                                        tmp_path):
        bad = tmp_path / "toy_bad.ckpt"
        raw = workspace["par"].read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:12 + hlen])
        del header["config"]
        new_header = json.dumps(header).encode()
        bad.write_bytes(raw[:8] + len(new_header).to_bytes(4, "little")
                        + new_header + raw[12 + hlen:])
        spec = tiny_spec(workspace, tmp_path / "runL",
                         checkpoints=(str(bad), str(workspace["par"])),
                         strategies=("identity",), k_values=(1,),
                         temperatures=(0.0,))
        result = run_experiments(spec, log=lambda m: None)
        assert [cell for cell, _ in result.errors] == ["toy_bad/identity"]
        assert [r["model"] for r in read_report(result.report_path)] == [
            "toy_parallel"]

    def test_negative_zero_temperature_reuses_the_greedy_cells(self, workspace,
                                                               tmp_path):
        out = tmp_path / "runZ"
        kw = dict(strategies=("identity",), k_values=(1,))
        first = run_experiments(tiny_spec(workspace, out, temperatures=(0.0,),
                                          **kw), log=lambda m: None)
        body = first.report_path.read_bytes()
        again = run_experiments(tiny_spec(workspace, out, temperatures=(-0.0,),
                                          **kw), log=lambda m: None)
        assert (again.n_computed, again.n_skipped) == (0, 1)
        assert again.report_path.read_bytes() == body

    def test_schema_bump_recomputes_and_deletes_the_old_cell(
            self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "runS"
        spec = tiny_spec(workspace, out, strategies=("identity",),
                         k_values=(1,), temperatures=(0.0,))
        run_experiments(spec, log=lambda m: None)
        (old,) = (out / "cells").glob("*.json")
        monkeypatch.setattr(experiments, "REPORT_SCHEMA", "speclab-report v99")
        again = run_experiments(spec, log=lambda m: None)
        assert (again.n_computed, again.n_skipped) == (1, 0)
        (new,) = (out / "cells").glob("*.json")
        assert new != old and not old.exists()

    def test_resumed_run_keeps_every_timing_row(self, workspace, tmp_path):
        out = tmp_path / "runM"
        spec = tiny_spec(workspace, out, strategies=("identity",),
                         k_values=(1, 2), temperatures=(0.0,))
        run_experiments(spec, log=lambda m: None)
        first = sorted((out / "cells").glob("*.json"))
        assert len(first) == 2
        first[0].unlink()
        again = run_experiments(spec, log=lambda m: None)
        assert (again.n_computed, again.n_skipped) == (1, 1)
        rows = read_report(again.timing_path)
        assert [r["k"] for r in rows] == ["1", "2"]
        assert all(r["spec_seconds_per_token"] for r in rows)

    def test_superseded_cell_files_are_removed(self, workspace, tmp_path):
        out = tmp_path / "runN"
        spec = tiny_spec(workspace, out, strategies=("identity",),
                         k_values=(1,), temperatures=(0.0,))
        run_experiments(spec, log=lambda m: None)
        (current,) = (out / "cells").glob("*.json")
        coords = current.stem.rsplit("__", 1)[0]
        stale = [out / "cells" / f"{coords}.json",
                 out / "cells" / f"{coords}__0123456789ab.json"]
        for path in stale:
            path.write_text(current.read_text())
        again = run_experiments(spec, log=lambda m: None)
        assert again.n_skipped == 1
        assert sorted((out / "cells").glob("*.json")) == [current]

    def test_cells_of_other_coordinates_are_kept(self, workspace, tmp_path):
        out = tmp_path / "runO"
        kw = dict(strategies=("identity",), temperatures=(0.0,))
        run_experiments(tiny_spec(workspace, out, k_values=(1, 2), **kw),
                        log=lambda m: None)
        cells = sorted((out / "cells").glob("*.json"))
        k2 = [p for p in cells if "__k2__" in p.name]
        # an unkeyed file of a coordinate no run covers here is kept too
        other = out / "cells" / "toy_other__identity__k1__T0.json"
        other.write_text(k2[0].read_text())
        run_experiments(tiny_spec(workspace, out, k_values=(1,), **kw),
                        log=lambda m: None)
        assert sorted((out / "cells").glob("*.json")) == sorted(cells + [other])

    def test_empty_sweep_rejected(self, workspace, tmp_path):
        with pytest.raises(ValueError):
            tiny_spec(workspace, tmp_path / "x", k_values=())

    def test_checkpoints_sharing_a_file_stem_rejected(self, workspace,
                                                      tmp_path):
        # the stem names a checkpoint's cells and rows, so two such
        # checkpoints would overwrite each other's cells on every run
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(str(tmp_path / sub / "toy.ckpt"))
            save_checkpoint(paths[-1], init_weights(PAR, len(paths)))
        with pytest.raises(ValueError, match="stems must differ"):
            tiny_spec(workspace, tmp_path / "x", checkpoints=tuple(paths))

    @pytest.mark.parametrize("field, values", [
        ("strategies", ("identity", "component_only", "identity")),
        ("k_values", (2, 2)),
        ("temperatures", (0.0, 0.7, 0.0))])
    def test_repeated_sweep_values_rejected(self, workspace, tmp_path, field,
                                            values):
        # a repeat would reuse its first copy's cell and report its row twice
        with pytest.raises(ValueError, match="sweep values must not repeat"):
            tiny_spec(workspace, tmp_path / "x", **{field: values})

    def test_unknown_strategy_rejected_when_the_spec_is_built(self, workspace,
                                                             tmp_path):
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            tiny_spec(workspace, tmp_path / "x", strategies=("identity", "bogus"))

    def test_cell_id_keys_the_fixed_draft_and_interval_constants(self):
        # the constants sit in the key under the names and values they had
        # as spec fields, beside the schemas of the rows a cell holds
        spec = ExperimentSpec(checkpoints=("x.ckpt",), strategies=STRATEGY_KINDS,
                              k_values=(2,), temperatures=(0.0,),
                              prompt_corpus="x.bin", out_dir="x")
        key = experiments._cell_key(spec, "0" * 64, "1" * 64)
        assert key["spec"] == {
            "n_prompts": 200, "prompt_len": 16, "max_new_tokens": 64, "seed": 0,
            "skip_fraction": 1 / 3, "exit_fraction": 0.5,
            "bootstrap_resamples": 10_000}
        label = DraftStrategy("layer_skip").label()
        assert experiments._cell_id("toy", label, 2, 0.0, key) == \
            "toy__layer_skip_0.33__k2__T0__2d3e4a82867f"

    @pytest.mark.parametrize("field, values", [
        ("k_values", ((1, 0), (-1,))),
        ("temperatures", ((0.0, -0.6), (-1e-9,))),
        ("max_new_tokens", (0, -1)),
    ])
    def test_counts_below_one_rejected(self, workspace, tmp_path, field,
                                       values):
        # caught when the spec is built, not in every cell of the sweep
        for value in values:
            with pytest.raises(ValueError, match=field):
                tiny_spec(workspace, tmp_path / "x", **{field: value})

    def test_single_cell_report(self, workspace, tmp_path):
        out = tmp_path / "runH"
        spec = tiny_spec(workspace, out, strategies=("identity",),
                         k_values=(2,), temperatures=(0.0,))
        run_experiments(spec, log=lambda m: None)
        rows = read_report(out / "report.csv")
        assert len(rows) == 1
        assert float(rows[0]["alpha_ci_low"]) <= float(rows[0]["alpha"]) \
            <= float(rows[0]["alpha_ci_high"])


class TestToyCache:
    """Cached toys are keyed by the numerics of the code that trained them."""

    @pytest.fixture
    def tiny_lab(self, monkeypatch):
        monkeypatch.setattr(experiments, "TOY_ARCHS", ("parallel_hybrid",))
        monkeypatch.setattr(experiments, "TOY_MODEL",
                            {"n_layers": 2, "d_model": 16, "d_state": 4})
        monkeypatch.setattr(experiments, "TOY_TRAINING",
                            {"steps": 3, "seq_len": 16, "batch_size": 2,
                             "learning_rate": 3e-3, "seed": 7})
        monkeypatch.setattr(experiments, "TOY_CORPORA",
                            {"train": (4_000, 1), "eval": (1_000, 2)})
        saved = []
        original = experiments.save_checkpoint

        def counted(path, weights):
            saved.append(path.name)
            original(path, weights)

        monkeypatch.setattr(experiments, "save_checkpoint", counted)
        return saved

    @staticmethod
    def nudge_one_bit(monkeypatch):
        """Move the first logits gradient of every step by one ulp."""
        original = training.cross_entropy

        def nudged(logits, targets):
            loss, dlogits = original(logits, targets)
            dlogits.flat[0] = np.nextafter(dlogits.flat[0], np.inf)
            return loss, dlogits

        monkeypatch.setattr(training, "cross_entropy", nudged)

    def test_digest_is_stable_and_sees_one_bit(self, tiny_lab, tmp_path,
                                               monkeypatch):
        paths = experiments.build_toys(tmp_path)
        cfg = ModelConfig("parallel_hybrid", **experiments.TOY_MODEL)
        tcfg = training.TrainConfig(corpus_path=str(paths["train"]),
                                    **experiments.TOY_TRAINING)
        digest = experiments.training_digest(cfg, tcfg)
        assert experiments.training_digest(cfg, tcfg) == digest
        self.nudge_one_bit(monkeypatch)
        assert experiments.training_digest(cfg, tcfg) != digest

    def test_toy_retrained_when_its_record_is_missing_or_differs(
            self, tiny_lab, tmp_path, monkeypatch):
        name = "toy_parallel_hybrid_L2_d16_s4_st3_sl16_seed7"
        record = tmp_path / f"{name}.train_digest"
        paths = experiments.build_toys(tmp_path)
        assert paths["parallel_hybrid"] == tmp_path / f"{name}.ckpt"
        assert tiny_lab == [f"{name}.ckpt"]
        first = record.read_text()
        experiments.build_toys(tmp_path)
        assert len(tiny_lab) == 1          # same code: the cache holds
        record.unlink()
        experiments.build_toys(tmp_path)
        assert len(tiny_lab) == 2 and record.read_text() == first
        self.nudge_one_bit(monkeypatch)
        experiments.build_toys(tmp_path)
        assert len(tiny_lab) == 3 and record.read_text() != first
        experiments.build_toys(tmp_path)
        assert len(tiny_lab) == 3
