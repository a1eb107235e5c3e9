import ctypes
import math
import sys
import tracemalloc
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import speclab.model as model_module
import speclab.training as training
from speclab.corpus import load_corpus, make_corpus
from speclab.engine import DraftStrategy, build_mask
from speclab.model import (
    ARCHS,
    LAYER_KINDS,
    ComponentMask,
    HybridModel,
    ModelConfig,
    init_weights,
    layer_plan,
)
from speclab.training import (
    TrainConfig,
    TrainingDiverged,
    cross_entropy,
    evaluate_loss,
    forward_train,
    backward_train,
    grad_check,
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
        # contiguous state rows, with the SiLU's input gradients formed in
        # place, have the bits of the broadcast-form recurrent branch, whose
        # backward scans a time-flipped view, and of an FFN backward that
        # forms them as one expression
        wc = {n: a.astype(dtype) for n, a in init_weights(cfg, 3).items()}
        x, y = small_batch(cfg, seed=T, b=B, t=T)

        def step():
            logits, tape = forward_train(cfg, wc, None, x)
            _, dlogits = cross_entropy(logits, y)
            return logits, backward_train(cfg, wc, tape, dlogits)

        logits, grads = step()
        monkeypatch.setattr(model_module, "ssm_block", broadcast_form.ssm_block)
        monkeypatch.setattr(training, "_ssm_bwd", broadcast_form.ssm_bwd)
        monkeypatch.setattr(training, "_ffn_bwd", broadcast_form.ffn_bwd)
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
            taped = list(tape_arrays(tape[1:]))
            assert len(taped) > 2
            for arr in [logits, dlogits, *taped, *grads.values()]:
                assert arr.dtype == np.float32, mask.describe()


def on_lines(funcs, record):
    """A trace hook calling ``record(frame, event, value)`` at each line and
    at the return of the python functions ``funcs``."""
    codes = {f.__code__ for f in funcs}

    def local(frame, event, value):
        record(frame, event, value)
        return local

    def hook(frame, event, value):
        return local if frame.f_code in codes else None
    return hook


def traced(hook, fn, *args):
    sys.settrace(hook)
    try:
        return fn(*args)
    finally:
        sys.settrace(None)


# the arrays each forward stage leaves off the tape for the backward to
# rebuild, by their names in its frame and in its backward's
REBUILT = {"ssm_block": ("xs", "u", "upre", "usig", "bm", "cm", "states",
                         "y_skip"),
           "attn_block": ("xs", "w", "q", "k", "v", "ctx"),
           "ffn_block": ("xs", "act", "pre", "sig"), "head": ("hn",)}
BLOCKS = (model_module.ssm_block, model_module.attn_block,
          model_module.ffn_block, model_module.head)
BACKWARDS = {"_ssm_bwd": "ssm_block", "_attn_bwd": "attn_block",
             "_ffn_bwd": "ffn_block", "backward_train": "head"}


def owners(a):
    """``a`` and every array whose memory it views."""
    while isinstance(a, np.ndarray):
        yield a
        a = a.base


class TestTapeContract:
    """The tape holds the tokens, each planned layer's plan entry, input
    rows and FFN input rows, and the rows the head reads: no (T, T) term, no
    state history, no sigmoid and no product with a weight. The backward
    rebuilds the normalised inputs, the weight products, the sigmoids and
    gate products, the attention probabilities and context and the state
    history, the last two a group of batch rows at a time, by the forward's
    own functions and expressions, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cfg", [TINY_PAR, TINY_SEQ, TINY_TRA],
                             ids=lambda c: c.arch)
    def test_forward_keeps_no_rebuildable_array(self, cfg, dtype):
        wc = {n: a.astype(dtype) for n, a in init_weights(cfg, 3).items()}
        refs = []

        def record(frame, event, value):
            if event == "return":
                name = frame.f_code.co_name
                refs.extend((name, key, weakref.ref(a))
                            for key in REBUILT[name]
                            for a in owners(frame.f_locals[key]))

        x, _ = small_batch(cfg, t=20)
        logits, tape = traced(on_lines(BLOCKS, record), forward_train,
                              cfg, wc, None, x)
        assert {name for name, _, _ in refs} == (
            {"attn_block", "ffn_block", "head"}
            | ({"ssm_block"} if cfg.arch != "transformer" else set()))
        alive = [(name, key) for name, key, ref in refs if ref() is not None]
        assert alive == []
        assert logits.shape == (*x.shape, cfg.vocab_size)
        tokens, *layers, final = tape
        np.testing.assert_array_equal(tokens, x)
        assert ([lp.index for lp, _, _ in layers]
                == [lp.index for lp in layer_plan(cfg, wc, None)])
        rows = (*x.shape, cfg.d_model)
        for lp, h_in, h_ffn in layers:
            assert type(lp) is model_module.LayerPlan
            assert h_in.shape == h_ffn.shape == rows
            assert h_in.dtype == h_ffn.dtype == dtype
        assert final.shape == rows and final.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [5, 17, 40])
    @pytest.mark.parametrize("cfg", [TINY_PAR, TINY_SEQ, TINY_TRA],
                             ids=lambda c: c.arch)
    def test_backward_rebuilds_the_forward_bits(self, cfg, T, dtype):
        wc = {n: a.astype(dtype) for n, a in init_weights(cfg, 3).items()}
        x, y = small_batch(cfg, seed=T, b=3, t=T)
        computed = {}   # (forward function, name) -> arrays, in call order
        rebuilt = {}    # (forward function, name) -> per call, its groups
        held = {}       # name -> (array, its copy as it stands)
        released = {}   # name -> copies of the current backward's arrays
        scans = []      # the current SSM backward's scans

        def forward_record(frame, event, value):
            if event == "return":
                name = frame.f_code.co_name
                for key in REBUILT[name]:
                    computed.setdefault((name, key), []).append(
                        frame.f_locals[key].copy())

        # the backwards name what they rebuild as the forward does, and each
        # is recorded as it stands when its backward rebinds or deletes the
        # name or returns: the attention probabilities once per group of
        # batch rows, the FFN's ``act``, ``pre`` and ``sig`` before they are
        # freed. The normalised inputs are what rmsnorm returns to each
        # backward, and the SSM backward's scans, one per group of batch
        # rows, each rebuild that group's states in their first half
        def backward_record(frame, event, value):
            name = frame.f_code.co_name
            if name == "rmsnorm":
                if event == "return":
                    caller = frame.f_back.f_code.co_name
                    key = (BACKWARDS[caller],
                           "hn" if caller == "backward_train" else "xs")
                    rebuilt.setdefault(key, []).append([value[0].copy()])
                return
            if name == "_linear_scan":
                if event == "return":
                    scans.append(value[:len(value) // 2, :T].copy())
                return
            block = BACKWARDS[name]
            local = frame.f_locals
            for key in REBUILT[block]:
                if key in ("xs", "states", "hn"):
                    continue
                now = local.get(key)
                if key in held and held[key][0] is not now:
                    released.setdefault(key, []).append(held.pop(key)[1])
                if isinstance(now, np.ndarray):
                    held[key] = (now, now.copy())
            if event == "return":
                for key, (_, copy) in held.items():
                    released.setdefault(key, []).append(copy)
                held.clear()
                if block == "ssm_block":
                    released["states"] = scans[:]
                    scans.clear()
                for key, groups in released.items():
                    rebuilt.setdefault((block, key), []).append(groups)
                released.clear()

        logits, tape = traced(on_lines(BLOCKS, forward_record),
                              forward_train, cfg, wc, None, x)
        taped = [a for arr in tape_arrays(tape) for a in owners(arr)]
        # nothing on the tape grows with the square of the window, and no
        # (B, T, d_model, d_state) state history is on it
        assert not [a.shape for a in taped if a.shape[-2:] == (T, T)]
        assert not [a.shape for a in taped
                    if a.ndim == 4 and a.shape[-2:] == (cfg.d_model, cfg.d_state)]
        _, dlogits = cross_entropy(logits, y)
        traced(on_lines((model_module.rmsnorm,
                         model_module._linear_scan, training._ssm_bwd,
                         training._attn_bwd, training._ffn_bwd),
                        backward_record),
               backward_train, cfg, wc, tape, dlogits)
        assert rebuilt.keys() == computed.keys()
        for key, arrays in computed.items():
            # the backward visits the layers last to first, and each group
            # of a backward is the next batch rows of the forward's array
            assert len(rebuilt[key]) == len(arrays), key
            for groups, want in zip(reversed(rebuilt[key]), arrays):
                rows = 0
                for got in groups:
                    broadcast_form.assert_same_bits(got,
                                                    want[rows:rows + len(got)])
                    rows += len(got)
                assert rows == len(want), key
        # the probabilities and the states come in groups of batch rows
        for key in [("attn_block", "w"), ("ssm_block", "states")]:
            for groups in rebuilt.get(key, []):
                assert [len(g) for g in groups] == [2, 1], key


class TestSsmBackwardPeak:
    def test_peak_stays_under_two_histories(self):
        # per recurrent layer, what the tape holds for the backward (its
        # input rows and its plan's decay) plus the backward's peak: the
        # tape holds no state history and no sigmoid, and the backward
        # rebuilds the gate sigmoid and the history, and scans the
        # reverse-time recurrence, two batch rows at a time
        cfg = ModelConfig("parallel_hybrid", n_layers=1, d_model=64, d_state=8)
        wc = {n: a.astype(np.float32) for n, a in init_weights(cfg, 3).items()}
        x, _ = small_batch(cfg, b=8, t=96)
        _, tape = forward_train(cfg, wc, None, x)
        lp, h, _ = tape[1]
        history = x.size * cfg.d_model * cfg.d_state * 4
        taped = h.nbytes + lp.decay.nbytes
        dout = np.random.default_rng(0).normal(0, 1, (*x.shape, cfg.d_model))
        dout = dout.astype(np.float32)
        grads = {n: np.zeros_like(a) for n, a in wc.items()}
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            training._ssm_bwd(lp.ssm, lp.decay, h, dout, grads,
                              "layers.0.ssm.")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert taped + peak < 2 * history


class TestAttnBackwardPeak:
    def test_peak_stays_under_three_probabilities(self):
        # per attention layer, what the tape holds for the backward (its
        # input rows) plus the backward's peak, in one layer's (B, heads, T,
        # T) probabilities: the tape holds none of them, and the backward
        # rebuilds them, and forms the gradients through them, two batch
        # rows at a time. It reads 2.57 (0.17 taped, 2.40 the backward's
        # peak, 0.75 of it a group's probabilities, their gradient and its
        # product with them), so the bound leaves 0.43; over all rows at
        # once the backward's peak alone read 4.18
        cfg = ModelConfig("parallel_hybrid", n_layers=1, d_model=64, d_state=8)
        wc = {n: a.astype(np.float32) for n, a in init_weights(cfg, 3).items()}
        x, _ = small_batch(cfg, b=8, t=96)
        _, tape = forward_train(cfg, wc, None, x)
        lp, h, _ = tape[1]
        probabilities = x.size * cfg.n_heads * x.shape[1] * 4
        taped = h.nbytes
        dout = np.random.default_rng(0).normal(0, 1, (*x.shape, cfg.d_model))
        dout = dout.astype(np.float32)
        grads = {n: np.zeros_like(a) for n, a in wc.items()}
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            training._attn_bwd(lp.attn, h, cfg.n_heads, dout, grads,
                               "layers.0.attn.")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert taped + peak < 3 * probabilities

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [1, 17, 40])
    def test_groups_have_the_all_rows_bits(self, T, dtype):
        # B = 3 is one group of two rows and a remainder of one: the input
        # gradient and every weight gradient have the bits of the backward
        # over all rows at once
        assert training._BWD_ROWS == 2
        cfg = TINY_PAR
        wc = {n: a.astype(dtype) for n, a in init_weights(cfg, 3).items()}
        x, _ = small_batch(cfg, seed=T, b=3, t=T)
        _, tape = forward_train(cfg, wc, None, x)
        lp, h, _ = tape[-2]
        dout = np.random.default_rng(T).normal(0, 1, (*x.shape, cfg.d_model))
        prefix = "layers.1.attn."
        results = []
        for bwd in (training._attn_bwd, broadcast_form.attn_bwd):
            grads = {n: np.zeros_like(a) for n, a in wc.items()
                     if n.startswith(prefix)}
            results.append((bwd(lp.attn, h, cfg.n_heads, dout.astype(dtype),
                                grads, prefix), grads))
        (dh, grads), (ref_dh, ref_grads) = results
        broadcast_form.assert_same_bits(dh, ref_dh)
        assert grads.keys() == ref_grads.keys() and len(grads) == 5
        for name in grads:
            broadcast_form.assert_same_bits(grads[name], ref_grads[name])


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

    def test_step_frees_its_tape_before_the_next_forward(self, corpus_file,
                                                         monkeypatch):
        owned = []   # weak references to arrays of earlier steps' tapes
        alive_at_entry = []
        inputs = []  # each step's weight dtype and mask
        original = training.forward_train

        def watched(*args):
            alive_at_entry.append(sum(ref() is not None for ref in owned))
            inputs.append((args[1]["head_w"].dtype, args[2]))
            logits, tape = original(*args)
            # the logits, the head's rows, and the first layer's input rows
            # and its plan entry's decay
            lp, h, _ = tape[1]
            owned.extend(weakref.ref(a) for a in
                         (logits, tape[-1], h, lp.decay))
            return logits, tape

        monkeypatch.setattr(training, "forward_train", watched)
        train(BYTE_PAR, TrainConfig(corpus_path=corpus_file, steps=3,
                                    batch_size=2, seq_len=16, seed=0))
        assert alive_at_entry == [0, 0, 0]
        # every step runs the full model on float32 casts
        assert inputs == [(np.float32, None)] * 3

    def test_train_keeps_freed_pages_before_its_first_step(self, corpus_file,
                                                            monkeypatch):
        # glibc keeps what a step frees, so the next step faults none in
        events = []

        def mallopt(param, value):
            events.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL",
                            lambda *a, **k: types.SimpleNamespace(mallopt=mallopt))
        step = training._train_step
        monkeypatch.setattr(training, "_train_step",
                            lambda *a: events.append("step") or step(*a))
        train(BYTE_PAR, TrainConfig(corpus_path=corpus_file, steps=2,
                                    batch_size=2, seq_len=16, seed=5))
        assert events == [(-1, 1 << 30), (-3, 32 << 20), "step", "step"]

    @pytest.mark.parametrize("libc", [
        pytest.param(OSError("no libc here"), id="no-libc"),
        pytest.param(types.SimpleNamespace(), id="no-mallopt")])
    def test_train_runs_where_libc_has_no_mallopt(self, corpus_file,
                                                  monkeypatch, libc):
        def load(*args, **kwargs):
            if isinstance(libc, Exception):
                raise libc
            return libc

        monkeypatch.setattr(ctypes, "CDLL", load)
        config = TrainConfig(corpus_path=corpus_file, steps=2, batch_size=2,
                             seq_len=16, seed=5)
        w, history = train(BYTE_PAR, config)
        monkeypatch.undo()
        expected, expected_history = train(BYTE_PAR, config)
        assert history == expected_history
        for name, arr in w.items():
            np.testing.assert_array_equal(arr, expected[name], err_msg=name)

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
        # the shortest corpus that holds one window and its shifted target
        sample_batch(np.arange(12), 1, 10, RngState(0))

    def test_windows_start_where_the_seeded_draw_says(self):
        from speclab.numerics import RngState
        corpus = np.arange(300) * 7 % 256
        x, y = sample_batch(corpus, 5, 12, RngState(4))
        starts = RngState(4).integers(0, corpus.size - 13, size=5)
        idx = starts[:, None] + np.arange(13)
        np.testing.assert_array_equal(x, corpus[idx[:, :-1]])
        np.testing.assert_array_equal(y, corpus[idx[:, 1:]])


class TestTrainConfig:
    def test_warmup_steps_must_not_be_negative(self):
        with pytest.raises(ValueError, match="warmup_steps"):
            TrainConfig(corpus_path="x.bin", steps=1, warmup_steps=-1)
        TrainConfig(corpus_path="x.bin", steps=1, warmup_steps=0)
