import math
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import speclab.model as model_module
import speclab.training as training
from speclab.corpus import make_corpus
from speclab.engine import DraftStrategy, build_mask
from speclab.model import (
    ARCHS,
    LAYER_KINDS,
    ComponentMask,
    HybridModel,
    ModelConfig,
    init_weights,
)
from speclab.training import (
    TrainConfig,
    TrainingDiverged,
    cross_entropy,
    evaluate_loss,
    forward_train,
    backward_train,
    grad_check,
    load_corpus,
    sample_batch,
    train,
)

import broadcast_form

TINY_PAR = ModelConfig("parallel_hybrid", n_layers=2, d_model=16, n_heads=2,
                       d_state=4, vocab_size=24, context_limit=48)
TINY_SEQ = ModelConfig("sequential_hybrid", n_layers=2, d_model=16, n_heads=2,
                       d_state=4, vocab_size=24, context_limit=48,
                       layer_pattern=("linear", "attention"))
TINY_TRA = ModelConfig("transformer", n_layers=2, d_model=16, n_heads=2,
                       d_state=4, vocab_size=24, context_limit=48)
# byte-vocab variants for tests that consume real corpus bytes
BYTE_PAR = ModelConfig("parallel_hybrid", n_layers=2, d_model=16, n_heads=2,
                       d_state=4, vocab_size=256, context_limit=48)
BYTE_SEQ = ModelConfig("sequential_hybrid", n_layers=2, d_model=16, n_heads=2,
                       d_state=4, vocab_size=256, context_limit=48,
                       layer_pattern=("linear", "attention"))


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "train.bin"
    path.write_bytes(make_corpus(30_000, seed=11))
    return str(path)


def small_batch(cfg, seed=0, b=2, t=12):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, cfg.vocab_size, (b, t)),
            rng.integers(0, cfg.vocab_size, (b, t)))


class TestGradCheck:
    @pytest.mark.parametrize("cfg", [TINY_PAR, TINY_SEQ, TINY_TRA],
                             ids=lambda c: c.arch)
    def test_full_models_match_finite_differences(self, cfg):
        w = init_weights(cfg, 1)
        x, y = small_batch(cfg)
        assert grad_check(cfg, w, x, y, n_samples=120) < 1e-4

    def test_head_only_degenerate_model_is_near_exact(self):
        cfg = TINY_PAR
        w = init_weights(cfg, 1)
        mask = ComponentMask((False,) * 2, (False,) * 2, (True,) * 2)
        x, y = small_batch(cfg)
        # step chosen at the truncation/rounding crossover of the nearly
        # linear head-only loss
        assert grad_check(cfg, w, x, y, mask=mask, n_samples=60,
                          step=3e-6) < 1e-7

    @pytest.mark.parametrize("cfg", [TINY_PAR, TINY_SEQ],
                             ids=lambda c: c.arch)
    def test_masked_forward_gradients(self, cfg):
        w = init_weights(cfg, 2)
        mask = build_mask(cfg, DraftStrategy("component_only"))
        x, y = small_batch(cfg, seed=3)
        assert grad_check(cfg, w, x, y, mask=mask, n_samples=80) < 1e-4

    def test_disabled_components_get_zero_gradient(self):
        cfg = TINY_PAR
        w = init_weights(cfg, 1)
        mask = build_mask(cfg, DraftStrategy("component_only"))
        x, y = small_batch(cfg)
        logits, tape = forward_train(cfg, w, mask, x)
        _, dlogits = cross_entropy(logits, y)
        grads = backward_train(cfg, w, tape, dlogits)
        for i in range(cfg.n_layers):
            for p in ("wq", "wk", "wv", "wo", "norm_g"):
                assert not grads[f"layers.{i}.attn.{p}"].any()
            assert grads[f"layers.{i}.ssm.w_in"].any()


STRATEGY_KINDS = {
    "parallel_hybrid": ("component_only", "layer_skip", "early_exit", "identity"),
    "sequential_hybrid": ("component_only", "layer_skip", "early_exit", "identity"),
    "transformer": ("layer_skip", "early_exit", "identity"),
}


@st.composite
def batched_windows(draw, arch):
    """A random tiny model of ``arch``, its full mask plus every valid
    strategy mask, and B token windows of T >= 2 rows.

    Every matrix width (d_state, vocab) is a multiple of 4: OpenBLAS gemm
    rows are bitwise independent of the call's row count at those widths,
    but not at all others (a width of 1-3 mod 8, as in d_state 2 or vocab 9,
    gives rows that differ in the last bit between a B-window and a
    one-window call). The lab's models use widths that are multiples of 8."""
    n_layers = draw(st.integers(3, 5))
    pattern = None
    if arch == "sequential_hybrid":
        pattern = tuple(draw(st.lists(st.sampled_from(LAYER_KINDS),
                                      min_size=n_layers, max_size=n_layers)
                             .filter(lambda p: len(set(p)) == 2)))
    cfg = ModelConfig(arch, n_layers=n_layers,
                      d_model=draw(st.sampled_from([8, 16])),
                      n_heads=draw(st.sampled_from([1, 2])),
                      d_state=draw(st.sampled_from([4, 8])),
                      vocab_size=draw(st.sampled_from([8, 16, 24])),
                      context_limit=48,
                      layer_pattern=pattern)
    model = HybridModel.from_seed(cfg, draw(st.integers(0, 2 ** 16)))
    masks = [ComponentMask.full(n_layers)] + [
        build_mask(cfg, DraftStrategy(kind)) for kind in STRATEGY_KINDS[arch]]
    B, T = draw(st.integers(1, 3)), draw(st.integers(2, 40))
    x = np.random.default_rng(draw(st.integers(0, 2 ** 16))).integers(
        0, cfg.vocab_size, (B, T))
    return model, masks, x


class TestForwardEquivalence:
    @pytest.mark.parametrize("arch", ARCHS)
    @hsettings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_batched_forward_matches_decode_path(self, arch, data):
        # training, decoding and multi-mask scoring run one forward: every
        # batch row, and every mask's logits from one forward_masks call
        # (which runs the plans' shared leading layers once), equals a
        # decode-path prefix forward over it, bit for bit
        model, masks, x = data.draw(batched_windows(arch))
        prefixes = [[model.forward_prefix(x[b], mask)[0] for mask in masks]
                    for b in range(x.shape[0])]
        for m, mask in enumerate(masks):
            batched, _ = forward_train(model.cfg, model.weights, mask, x)
            for b in range(x.shape[0]):
                np.testing.assert_array_equal(batched[b], prefixes[b][m],
                                              err_msg=mask.describe())
        for b in range(x.shape[0]):
            every = model.forward_masks(x[b], masks)
            for m, mask in enumerate(masks):
                # and as divergence_stats calls it: target and one draft
                pair = model.forward_masks(x[b], [masks[0], mask])
                for logits in (every[m], pair[1]):
                    np.testing.assert_array_equal(logits, prefixes[b][m],
                                                  err_msg=mask.describe())

    def test_masked_equivalence(self):
        cfg = TINY_SEQ
        m = HybridModel.from_seed(cfg, 4)
        mask = build_mask(cfg, DraftStrategy("component_only"))
        toks = np.random.default_rng(1).integers(0, cfg.vocab_size, 20)
        batched, _ = forward_train(cfg, m.weights, mask, toks[None])
        prefix, _ = m.forward_prefix(toks, mask)
        np.testing.assert_array_equal(batched[0], prefix)


class TestContiguousStateRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("T", [1, 5, 16, 17, 40])
    @pytest.mark.parametrize("cfg", [TINY_PAR, TINY_SEQ, replace(TINY_PAR, d_state=8)],
                             ids=lambda c: f"{c.arch}-s{c.d_state}")
    def test_step_equals_the_broadcast_form(self, cfg, T, B, dtype,
                                            monkeypatch):
        # the forward, its tape and every gradient of a training step on
        # contiguous state rows have the bits of the broadcast-form recurrent
        # branch, whose backward scans a time-flipped view
        wc = {n: a.astype(dtype) for n, a in init_weights(cfg, 3).items()}
        x, y = small_batch(cfg, seed=T, b=B, t=T)

        def step():
            logits, tape = forward_train(cfg, wc, None, x)
            _, dlogits = cross_entropy(logits, y)
            return logits, backward_train(cfg, wc, tape, dlogits)

        logits, grads = step()
        monkeypatch.setattr(model_module, "ssm_block", broadcast_form.ssm_block)
        monkeypatch.setattr(training, "_ssm_bwd", broadcast_form.ssm_bwd)
        ref_logits, ref_grads = step()
        broadcast_form.assert_same_bits(logits, ref_logits)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            broadcast_form.assert_same_bits(grads[name], ref_grads[name])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3, 4, 7, 8, 9, 16, 17, 32, 128, 129, 300])
    def test_row_sums_are_numpy_row_sums(self, n, dtype):
        # every branch of numpy's pairwise order: from zero, eight running
        # sums with and without a tail, and halves above 128 terms
        rng = np.random.default_rng(n)
        for shape in [(5,), (3, 4, 6), (0, 3)]:
            x = rng.normal(0, 1, shape + (n,)) * rng.choice([1e-3, 1.0, 1e3],
                                                             shape + (n,))
            x = x.astype(dtype)
            broadcast_form.assert_same_bits(training._row_sums(x),
                                            x.sum(axis=-1))


def tape_arrays(obj):
    """Every array a forward tape holds (nested dicts, tuples and lists)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from tape_arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from tape_arrays(value)


class TestFloat32Compute:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_step_stays_float32(self, arch):
        # T > 16 runs the chunked scan in the forward and the backward
        cfg = ModelConfig(arch, n_layers=4, d_model=16, n_heads=2, d_state=4,
                          vocab_size=24, context_limit=48)
        w = init_weights(cfg, 5)
        wc = {n: a.astype(np.float32) for n, a in w.items()}
        x, y = small_batch(cfg, t=40)
        masks = [ComponentMask.full(cfg.n_layers)] + [
            build_mask(cfg, DraftStrategy(kind)) for kind in STRATEGY_KINDS[arch]]
        for mask in masks:
            logits, tape = forward_train(cfg, wc, mask, x)
            _, dlogits = cross_entropy(logits, y)
            grads = backward_train(cfg, wc, tape, dlogits)
            taped = list(tape_arrays({k: v for k, v in tape.items() if k != "x"}))
            assert len(taped) > 2
            for arr in [logits, dlogits, *taped, *grads.values()]:
                assert arr.dtype == np.float32, mask.describe()


def on_returns(funcs, record):
    """A profile hook calling ``record(name, caller, frame locals, value)``
    at each return of the python functions ``funcs``."""
    codes = {f.__code__ for f in funcs}

    def hook(frame, event, value):
        if event == "return" and frame.f_code in codes:
            record(frame.f_code.co_name, frame.f_back.f_code.co_name,
                   frame.f_locals, value)
    return hook


def profiled(hook, fn, *args):
    sys.setprofile(hook)
    try:
        return fn(*args)
    finally:
        sys.setprofile(None)


# the arrays each forward stage leaves off the tape for the backward to
# rebuild, by their names in its frame
REBUILT = {"ssm_block": ("xs", "u"), "attn_block": ("xs",),
           "ffn_block": ("xs", "act"), "head": ("hn",)}
BLOCKS = (model_module.ssm_block, model_module.attn_block,
          model_module.ffn_block, model_module.head)


class TestTapeContract:
    """The tape holds nothing its backward can rebuild with one elementwise
    product, and the backward rebuilds those arrays bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cfg", [TINY_PAR, TINY_SEQ, TINY_TRA],
                             ids=lambda c: c.arch)
    def test_forward_keeps_no_rebuildable_array(self, cfg, dtype):
        wc = {n: a.astype(dtype) for n, a in init_weights(cfg, 3).items()}
        refs = []

        def record(name, caller, local, value):
            refs.extend((name, key, weakref.ref(local[key]))
                        for key in REBUILT[name])

        x, _ = small_batch(cfg, t=20)
        logits, tape = profiled(on_returns(BLOCKS, record), forward_train,
                                cfg, wc, None, x)
        assert {name for name, _, _ in refs} == (
            {"attn_block", "ffn_block", "head"}
            | ({"ssm_block"} if cfg.arch != "transformer" else set()))
        alive = [(name, key) for name, key, ref in refs if ref() is not None]
        assert alive == []
        assert tape["layers"] and logits.shape == (*x.shape, cfg.vocab_size)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [5, 17, 40])
    @pytest.mark.parametrize("cfg", [TINY_PAR, TINY_SEQ, TINY_TRA],
                             ids=lambda c: c.arch)
    def test_backward_rebuilds_the_forward_bits(self, cfg, T, dtype):
        wc = {n: a.astype(dtype) for n, a in init_weights(cfg, 3).items()}
        x, y = small_batch(cfg, seed=T, b=2, t=T)
        computed = {}   # (forward function, name) -> arrays, in call order
        rebuilt = {}

        def forward_record(name, caller, local, value):
            for key in REBUILT[name]:
                computed.setdefault((name, key), []).append(local[key].copy())

        # the backward names the gate products as the forward does; the
        # normalised inputs are what rmsnorm_output returns to each backward
        owner = {"_ssm_bwd": "ssm_block", "_attn_bwd": "attn_block",
                 "_ffn_bwd": "ffn_block", "backward_train": "head"}

        def backward_record(name, caller, local, value):
            if name == "rmsnorm_output":
                key = (owner[caller], "hn" if caller == "backward_train"
                       else "xs")
                rebuilt.setdefault(key, []).append(value.copy())
            else:
                key = (owner[name], "u" if name == "_ssm_bwd" else "act")
                rebuilt.setdefault(key, []).append(local[key[1]].copy())

        logits, tape = profiled(on_returns(BLOCKS, forward_record),
                                forward_train, cfg, wc, None, x)
        _, dlogits = cross_entropy(logits, y)
        profiled(on_returns((model_module.rmsnorm_output, training._ssm_bwd,
                             training._ffn_bwd), backward_record),
                 backward_train, cfg, wc, tape, dlogits)
        assert rebuilt.keys() == computed.keys()
        for key, arrays in computed.items():
            # the backward visits the layers last to first
            assert len(rebuilt[key]) == len(arrays), key
            for got, want in zip(reversed(rebuilt[key]), arrays):
                broadcast_form.assert_same_bits(got, want)


class TestTrainLoop:
    def test_zero_steps_returns_seeded_init(self, corpus_file):
        tcfg = TrainConfig(corpus_path=corpus_file, steps=0, seq_len=24, seed=9)
        w, history = train(BYTE_PAR, tcfg)
        ref = init_weights(BYTE_PAR, 9)
        assert history == []
        for name, arr in w.items():
            np.testing.assert_array_equal(arr, ref[name])

    def test_training_is_bitwise_reproducible(self, corpus_file):
        tcfg = TrainConfig(corpus_path=corpus_file, steps=8, batch_size=2,
                           seq_len=24, seed=13)
        w1, h1 = train(BYTE_PAR, tcfg)
        w2, h2 = train(BYTE_PAR, tcfg)
        assert h1 == h2
        for name, arr in w1.items():
            np.testing.assert_array_equal(arr, w2[name])

    def test_loss_beats_uniform_baseline(self, corpus_file):
        tcfg = TrainConfig(corpus_path=corpus_file, steps=150, batch_size=4,
                           seq_len=32, learning_rate=3e-3, seed=1)
        _, history = train(BYTE_PAR, tcfg)
        tail = [loss for _, loss in history[-15:]]
        assert np.mean(tail) < math.log(256)

    def test_final_losses_beat_initial_model_on_same_batches(self, corpus_file):
        tcfg = TrainConfig(corpus_path=corpus_file, steps=120, batch_size=4,
                           seq_len=32, seed=2)
        w, history = train(BYTE_SEQ, tcfg)
        corpus = load_corpus(corpus_file)
        init_w = init_weights(BYTE_SEQ, 2)
        rng = np.random.default_rng(0)
        init_losses, final_losses = [], []
        for _ in range(6):
            x = rng.integers(0, corpus.size - 33, 4)
            idx = x[:, None] + np.arange(33)[None]
            window = corpus[idx]
            init_losses.append(evaluate_loss(BYTE_SEQ, init_w, None,
                                             window[:, :-1], window[:, 1:]))
            final_losses.append(evaluate_loss(BYTE_SEQ, w, None,
                                              window[:, :-1], window[:, 1:]))
        tail = np.mean([l for _, l in history[-12:]])
        assert tail < np.mean(init_losses)
        assert np.mean(final_losses) < np.mean(init_losses)

    def test_masked_training_never_touches_disabled_blocks(self, corpus_file):
        mask = build_mask(BYTE_PAR, DraftStrategy("component_only"))
        tcfg = TrainConfig(corpus_path=corpus_file, steps=5, batch_size=2,
                           seq_len=16, seed=3)
        w, _ = train(BYTE_PAR, tcfg, mask=mask)
        ref = init_weights(BYTE_PAR, 3)
        for i in range(BYTE_PAR.n_layers):
            for p in ("wq", "wk", "wv", "wo"):
                np.testing.assert_array_equal(w[f"layers.{i}.attn.{p}"],
                                              ref[f"layers.{i}.attn.{p}"])
        assert not np.array_equal(w["layers.0.ssm.w_in"],
                                  ref["layers.0.ssm.w_in"])

    def test_missing_and_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            train(BYTE_PAR, TrainConfig(corpus_path=str(tmp_path / "nope"),
                                        steps=1, seq_len=16))
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        with pytest.raises(ValueError):
            train(BYTE_PAR, TrainConfig(corpus_path=str(empty), steps=1,
                                        seq_len=16))

    def test_divergence_reports_step_index(self, corpus_file, monkeypatch):
        def poisoned(cfg, seed):
            w = init_weights(cfg, seed)
            w["head_w"][0, 0] = np.nan
            return w
        monkeypatch.setattr(training, "init_weights", poisoned)
        with pytest.raises(TrainingDiverged) as exc:
            train(BYTE_PAR, TrainConfig(corpus_path=corpus_file, steps=3,
                                        seq_len=16))
        assert exc.value.step == 0

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_step_frees_its_tape_before_the_next_forward(self, corpus_file,
                                                         monkeypatch, dtype):
        owned = []   # weak references to arrays of earlier steps' tapes
        alive_at_entry = []
        original = training.forward_train

        def watched(*args):
            alive_at_entry.append(sum(ref() is not None for ref in owned))
            logits, tape = original(*args)
            owned.extend(weakref.ref(a) for a in
                         (logits, tape["final_norm"][0],
                          tape["layers"][0]["ssm"][1][6]))
            return logits, tape

        monkeypatch.setattr(training, "forward_train", watched)
        train(BYTE_PAR, TrainConfig(corpus_path=corpus_file, steps=3,
                                    batch_size=2, seq_len=16, seed=0,
                                    compute_dtype=dtype))
        assert alive_at_entry == [0, 0, 0]

    def test_evaluate_loss_records_no_tape(self, monkeypatch):
        tapes = []
        original = training.forward

        def spy(*args, **kwargs):
            tapes.append(kwargs.get("tape", args[5] if len(args) > 5 else None))
            return original(*args, **kwargs)

        monkeypatch.setattr(training, "forward", spy)
        w = init_weights(TINY_SEQ, 4)
        x, y = small_batch(TINY_SEQ)
        mask = build_mask(TINY_SEQ, DraftStrategy("component_only"))
        for m in (None, mask):
            loss = evaluate_loss(TINY_SEQ, w, m, x, y)
            assert tapes.pop() is None
            taped, _ = cross_entropy(forward_train(TINY_SEQ, w, m, x)[0], y)
            assert loss == float(taped)

    def test_training_log_csv(self, corpus_file, tmp_path):
        log = tmp_path / "log.csv"
        tcfg = TrainConfig(corpus_path=corpus_file, steps=4, batch_size=2,
                           seq_len=16, seed=0, log_path=str(log))
        train(BYTE_PAR, tcfg)
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 5

    def test_seq_len_beyond_context_rejected(self, corpus_file):
        with pytest.raises(ValueError):
            train(BYTE_PAR, TrainConfig(corpus_path=corpus_file, steps=1,
                                        seq_len=BYTE_PAR.context_limit + 1))


class TestSampleBatch:
    def test_shapes_and_target_shift(self):
        corpus = np.arange(100) % 7
        from speclab.numerics import RngState
        x, y = sample_batch(corpus, 3, 10, RngState(0))
        assert x.shape == y.shape == (3, 10)
        np.testing.assert_array_equal(x[:, 1:], y[:, :-1])

    def test_corpus_too_short(self):
        from speclab.numerics import RngState
        with pytest.raises(ValueError):
            sample_batch(np.arange(5), 1, 10, RngState(0))
