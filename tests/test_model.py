import json
import tracemalloc
import weakref

import numpy as np
import pytest

from speclab import model as model_module
from speclab.model import (
    ComponentMask,
    HybridModel,
    BLOCK_PARAMS,
    ModelConfig,
    SsmParams,
    Weights,
    _SCAN_CHUNK,
    _linear_scan,
    _scan_inputs,
    attn_block,
    block_shapes,
    default_layer_pattern,
    ffn_block,
    forward,
    init_weights,
    layer_plan,
    mask_blocks,
    param_spec,
    rmsnorm,
    ssm_block,
    ssm_decay,
)

import broadcast_form


PARALLEL = ModelConfig("parallel_hybrid", n_layers=4, d_model=32, n_heads=2,
                       d_state=8, vocab_size=32, context_limit=64)
SEQUENTIAL = ModelConfig("sequential_hybrid", n_layers=4, d_model=32, n_heads=2,
                         d_state=8, vocab_size=32, context_limit=64)
TRANSFORMER = ModelConfig("transformer", n_layers=3, d_model=32, n_heads=2,
                          d_state=8, vocab_size=32, context_limit=64)
ALL_CFGS = [PARALLEL, SEQUENTIAL, TRANSFORMER]


def make_model(cfg, seed=0):
    return HybridModel.from_seed(cfg, seed)


def tokens_for(cfg, n, seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(0, cfg.vocab_size, size=n)


def ssm_only_mask(cfg):
    n = cfg.n_layers
    if cfg.arch == "parallel_hybrid":
        return ComponentMask((False,) * n, (True,) * n, (False,) * n)
    skipped = tuple(not cfg.has_alt(i) for i in range(n))
    return ComponentMask(
        tuple(not s for s in skipped), tuple(not s for s in skipped), skipped)


class TestModelConfig:
    def test_default_pattern_is_three_to_one(self):
        assert default_layer_pattern(8) == (
            "linear", "linear", "linear", "attention",
            "linear", "linear", "linear", "attention")

    def test_sequential_fills_default_pattern(self):
        assert SEQUENTIAL.layer_pattern == ("linear", "linear", "linear", "attention")

    def test_pattern_rejected_outside_sequential(self):
        with pytest.raises(ValueError, match="^layer_pattern is only valid "
                                             "for sequential_hybrid$"):
            ModelConfig("transformer", layer_pattern=("attention",) * 8)

    def test_pattern_needs_both_kinds(self):
        with pytest.raises(ValueError):
            ModelConfig("sequential_hybrid", n_layers=2,
                        layer_pattern=("linear", "linear"))

    @pytest.mark.parametrize("field, value", [
        ("n_layers", 2.0), ("d_model", 16.0), ("n_heads", True),
        ("d_state", "4"), ("vocab_size", 0), ("context_limit", -1)])
    def test_sizes_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a positive "
                                             f"integer, got {value!r}"):
            ModelConfig("transformer", **{field: value})

    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError):
            ModelConfig("transformer", d_model=30, n_heads=4)

    @pytest.mark.parametrize("cfg, compact", [
        (ModelConfig("parallel_hybrid", n_layers=12, d_model=64, d_state=8),
         '{"arch": "parallel_hybrid", "n_layers": 12, "d_model": 64, '
         '"n_heads": 4, "d_state": 8, "vocab_size": 256, "context_limit": 256}'),
        (ModelConfig("sequential_hybrid", n_layers=4),
         '{"arch": "sequential_hybrid", "n_layers": 4, "d_model": 128, '
         '"n_heads": 4, "d_state": 32, "vocab_size": 256, "context_limit": 256, '
         '"layer_pattern": ["linear", "linear", "linear", "attention"]}'),
        (ModelConfig("transformer"),
         '{"arch": "transformer", "n_layers": 8, "d_model": 128, "n_heads": 4, '
         '"d_state": 32, "vocab_size": 256, "context_limit": 256}'),
    ], ids=["par", "seq", "tra"])
    def test_dict_form_is_the_checkpoint_header_form(self, cfg, compact):
        # checkpoint headers write this compact form; a None pattern is left out
        assert json.dumps(cfg.to_dict()) == compact
        assert ModelConfig.from_dict(json.loads(compact)) == cfg


class TestComponentMask:
    def test_skipped_layer_must_disable_components(self):
        with pytest.raises(ValueError):
            ComponentMask((True,), (False,), (True,))

    def test_full_mask_describe(self):
        assert ComponentMask.full(3).describe() == "BBB"


class TestWeights:
    def test_init_is_seed_deterministic(self):
        a, b = init_weights(PARALLEL, 7), init_weights(PARALLEL, 7)
        for (na, wa), (nb, wb) in zip(a.items(), b.items()):
            assert na == nb
            np.testing.assert_array_equal(wa, wb)

    def test_spec_covers_all_blocks(self):
        w = init_weights(SEQUENTIAL, 0)
        assert set(n for n, _ in param_spec(SEQUENTIAL)) == set(w.names)
        # attention-only layers carry no recurrence blocks
        assert "layers.3.ssm.w_in" not in w.names
        assert "layers.3.attn.wq" in w.names

    @pytest.mark.parametrize("cfg", ALL_CFGS, ids=lambda c: c.arch)
    def test_spec_lists_the_fields_of_each_kind_mask_blocks_gives(self, cfg):
        kinds_of = {"parallel_hybrid": lambda i: ("attn", "ssm", "ffn"),
                    "transformer": lambda i: ("attn", "ffn"),
                    "sequential_hybrid": lambda i: (
                        ("attn", "ffn") if cfg.layer_pattern[i] == "attention"
                        else ("ssm", "ffn"))}[cfg.arch]
        layers = mask_blocks(cfg, None)
        assert layers == [(i, kinds_of(i)) for i in range(cfg.n_layers)]
        shapes = block_shapes(cfg)
        expected = [(f"layers.{i}.{kind}.{field}", shape)
                    for i, kinds in layers for kind in kinds
                    for field, shape in zip(BLOCK_PARAMS[kind]._fields,
                                            shapes[kind])]
        spec = param_spec(cfg)
        assert [n for n, _ in spec[:2]] == ["embed", "pos_embed"]
        assert [n for n, _ in spec[-2:]] == ["final_norm_g", "head_w"]
        assert spec[2:-2] == expected

    def test_a_parallel_layer_names_its_weights_in_checkpoint_order(self):
        names = [n for n, _ in param_spec(PARALLEL) if n.startswith("layers.0.")]
        assert names == [f"layers.0.{n}" for n in (
            "attn.norm_g", "attn.wq", "attn.wk", "attn.wv", "attn.wo",
            "ssm.norm_g", "ssm.w_in", "ssm.w_b", "ssm.w_c", "ssm.decay_raw",
            "ssm.skip_gain", "ssm.w_out", "ffn.norm_g", "ffn.w1", "ffn.w2")]

    def test_shape_mismatch_rejected(self):
        blocks = {n: np.zeros(s) for n, s in param_spec(TRANSFORMER)}
        blocks["head_w"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            Weights(TRANSFORMER, blocks)


class TestForwardPrefix:
    @pytest.mark.parametrize("cfg", ALL_CFGS, ids=lambda c: c.arch)
    def test_absent_mask_is_the_full_mask(self, cfg):
        assert mask_blocks(cfg, None) == \
            mask_blocks(cfg, ComponentMask.full(cfg.n_layers))

    @pytest.mark.parametrize("cfg", ALL_CFGS, ids=lambda c: c.arch)
    def test_absent_mask_equals_full_mask_bitwise(self, cfg):
        m = make_model(cfg)
        toks = tokens_for(cfg, 12)
        la, _ = m.forward_prefix(toks, None)
        lb, _ = m.forward_prefix(toks, ComponentMask.full(cfg.n_layers))
        np.testing.assert_array_equal(la, lb)

    def test_zeroed_attention_makes_ssm_only_exact(self):
        # additive composition: a zero attention branch contributes nothing
        m = make_model(PARALLEL)
        for i in range(PARALLEL.n_layers):
            for p in ("wq", "wk", "wv", "wo"):
                m.weights[f"layers.{i}.attn.{p}"][:] = 0.0
        toks = tokens_for(PARALLEL, 10)
        full, _ = m.forward_prefix(toks)
        drafted, _ = m.forward_prefix(toks, ssm_only_mask(PARALLEL))
        np.testing.assert_array_equal(full, drafted)

    def test_skip_all_layers_is_head_of_normed_embedding(self):
        m = make_model(SEQUENTIAL)
        n = SEQUENTIAL.n_layers
        mask = ComponentMask((False,) * n, (False,) * n, (True,) * n)
        toks = tokens_for(SEQUENTIAL, 6)
        logits, _ = m.forward_prefix(toks, mask)
        w = m.weights
        x = w["embed"][toks] + w["pos_embed"][:6]
        expect = rmsnorm(x, w["final_norm_g"])[0] @ w["head_w"]
        np.testing.assert_array_equal(logits, expect)

    def test_token_out_of_range_rejected(self):
        m = make_model(PARALLEL)
        with pytest.raises(ValueError):
            m.forward_prefix([0, PARALLEL.vocab_size])

    def test_context_overflow_rejected(self):
        m = make_model(PARALLEL)
        with pytest.raises(ValueError):
            m.forward_prefix(np.zeros(PARALLEL.context_limit + 1, dtype=int))

    def test_alt_only_mask_on_transformer_rejected(self):
        m = make_model(TRANSFORMER)
        n = TRANSFORMER.n_layers
        bad = ComponentMask((False,) * n, (True,) * n, (False,) * n)
        with pytest.raises(ValueError):
            m.forward_prefix([1, 2], bad)

    def test_mask_length_mismatch_rejected(self):
        m = make_model(PARALLEL)
        with pytest.raises(ValueError):
            m.forward_prefix([1], ComponentMask.full(PARALLEL.n_layers + 1))

    def test_forward_masks_rejects_what_forward_prefix_rejects(self):
        m = make_model(PARALLEL)
        full = ComponentMask.full(PARALLEL.n_layers)
        for toks, masks in (([], [full]), ([[1, 2]], [full]),
                            ([0, PARALLEL.vocab_size], [full]),
                            ([1], [full, ComponentMask.full(PARALLEL.n_layers + 1)])):
            with pytest.raises(ValueError):
                m.forward_masks(toks, masks)


def live_cache_elements(state):
    """Floats a state holds for its stream: live KV rows plus recurrent state."""
    kv = sum(2 * c.k.shape[0] * c.k.shape[2] * state.pos
             for c in state.kv if c is not None)
    return kv + sum(s.size for s in state.ssm if s is not None)


def chain_decode(model, mask, toks):
    state = model.new_state(mask)
    rows = [model.decode_step(state, t) for t in toks]
    return np.stack(rows), state


class TestDecodeStep:
    @pytest.mark.parametrize("cfg", ALL_CFGS, ids=lambda c: c.arch)
    def test_incremental_matches_batch(self, cfg):
        m = make_model(cfg)
        toks = tokens_for(cfg, 20)
        batch, _ = m.forward_prefix(toks)
        inc, _ = chain_decode(m, None, toks)
        np.testing.assert_allclose(inc, batch, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("cfg", ALL_CFGS, ids=lambda c: c.arch)
    def test_incremental_matches_batch_under_masks(self, cfg):
        m = make_model(cfg)
        toks = tokens_for(cfg, 16)
        n = cfg.n_layers
        masks = [ComponentMask.full(n)]
        if cfg.arch != "transformer":
            masks.append(ssm_only_mask(cfg))
        if cfg.arch == "parallel_hybrid":
            # one layer attention-only, rest mixed
            masks.append(ComponentMask(
                (True,) * n, (False,) + (True,) * (n - 1), (False,) * n))
        # one interior layer skipped entirely
        skip = tuple(i == 1 for i in range(n))
        masks.append(ComponentMask(
            tuple(not s for s in skip) if cfg.arch != "transformer"
            else tuple(not s for s in skip),
            tuple(not s for s in skip) if cfg.arch != "transformer"
            else (False,) * n,
            skip))
        for mask in masks:
            batch, _ = m.forward_prefix(toks, mask)
            inc, _ = chain_decode(m, mask, toks)
            np.testing.assert_allclose(inc, batch, atol=1e-9, rtol=0,
                                       err_msg=mask.describe())

    def test_prefix_then_step_matches_longer_prefix(self):
        m = make_model(PARALLEL)
        toks = tokens_for(PARALLEL, 9)
        _, state = m.forward_prefix(toks[:-1])
        step_logits = m.decode_step(state, toks[-1])
        batch, _ = m.forward_prefix(toks)
        np.testing.assert_allclose(step_logits, batch[-1], atol=1e-9, rtol=0)

    def test_restored_snapshot_steps_identically(self):
        m = make_model(SEQUENTIAL)
        _, state = m.forward_prefix(tokens_for(SEQUENTIAL, 8))
        snap = state.snapshot()
        la = m.decode_step(state, 3)
        state.restore(snap)
        lb = m.decode_step(state, 3)
        np.testing.assert_array_equal(la, lb)

    def test_ssm_only_mask_has_no_kv_cache(self):
        m = make_model(PARALLEL)
        state = m.new_state(ssm_only_mask(PARALLEL))
        assert all(c is None for c in state.kv)
        for t in tokens_for(PARALLEL, 10):
            m.decode_step(state, t)
        assert all(c is None for c in state.kv)

    def test_draft_state_is_constant_size_full_state_grows(self):
        m = make_model(PARALLEL)
        draft = m.new_state(ssm_only_mask(PARALLEL))
        full = m.new_state(None)
        sizes_d, sizes_f = [], []
        for t in tokens_for(PARALLEL, 12):
            m.decode_step(draft, t)
            m.decode_step(full, t)
            sizes_d.append(live_cache_elements(draft))
            sizes_f.append(live_cache_elements(full))
        assert len(set(sizes_d)) == 1
        assert sizes_f == sorted(sizes_f) and sizes_f[0] < sizes_f[-1]

    def test_state_from_other_model_rejected(self):
        m1, m2 = make_model(PARALLEL, 0), make_model(PARALLEL, 1)
        state = m1.new_state()
        with pytest.raises(ValueError):
            m2.decode_step(state, 1)

    def test_restore_rewinds_position_and_state(self):
        m = make_model(PARALLEL)
        toks = tokens_for(PARALLEL, 10)
        _, state = m.forward_prefix(toks[:6])
        snap = state.snapshot()
        # wander off on a different continuation, then rewind
        for t in (1, 2, 3):
            m.decode_step(state, t)
        state.restore(snap)
        assert state.pos == 6
        replay = [m.decode_step(state, t) for t in toks[6:]]
        batch, _ = m.forward_prefix(toks)
        np.testing.assert_allclose(np.stack(replay), batch[6:], atol=1e-9, rtol=0)


def watch_scan_outputs(monkeypatch):
    """Wrap ``ssm_block`` so that each call records a weakref to the scan
    output it returns and, on entry, whether the previous call's output was
    still alive."""
    refs, alive_on_entry = [], []
    real = model_module.ssm_block

    def watched(*args, **kwargs):
        if refs:
            alive_on_entry.append(refs[-1]() is not None)
        out, states = real(*args, **kwargs)
        refs.append(weakref.ref(states))
        return out, states

    monkeypatch.setattr(model_module, "ssm_block", watched)
    return refs, alive_on_entry


class TestMemoryContract:
    """A forward keeps a layer's scan history only while that layer runs,
    unless per-row states are recorded; a decode state owns its states."""

    @pytest.mark.parametrize("cfg", [PARALLEL, SEQUENTIAL], ids=lambda c: c.arch)
    def test_decode_state_owns_its_recurrent_states(self, cfg):
        m = make_model(cfg)
        _, state = m.forward_prefix(tokens_for(cfg, cfg.context_limit))
        held = [s for s in state.ssm if s is not None]
        assert held
        for s in held:
            assert s.base is None and s.shape == (cfg.d_model, cfg.d_state)

    @pytest.mark.parametrize("cfg", [PARALLEL, SEQUENTIAL], ids=lambda c: c.arch)
    @pytest.mark.parametrize("entry", ["forward_prefix", "forward_masks"])
    def test_forward_drops_each_scan_output_before_the_next_layer(
            self, monkeypatch, cfg, entry):
        m = make_model(cfg)
        toks = tokens_for(cfg, 40)
        refs, alive_on_entry = watch_scan_outputs(monkeypatch)
        if entry == "forward_prefix":
            m.forward_prefix(toks)
        else:
            m.forward_masks(toks, [ComponentMask.full(cfg.n_layers)])
        assert len(refs) == sum(cfg.has_alt(i) for i in range(cfg.n_layers))
        assert not any(alive_on_entry)
        assert all(r() is None for r in refs)

    @pytest.mark.parametrize("cfg", [PARALLEL, SEQUENTIAL], ids=lambda c: c.arch)
    def test_recorded_states_keep_every_scan_output(self, monkeypatch, cfg):
        m = make_model(cfg)
        state = m.new_state()
        refs, alive_on_entry = watch_scan_outputs(monkeypatch)
        _, history = m.forward_chunk(state, tokens_for(cfg, 5),
                                     record_states=True)
        assert alive_on_entry and all(alive_on_entry)
        # the state itself still owns copies, so a rollback point and the
        # stream never share memory
        for j, s in enumerate(state.ssm):
            if s is not None:
                assert s.base is None
                np.testing.assert_array_equal(s, history[-1].states[j])

    @pytest.mark.parametrize("B, T", [(1, 256), (2, 255)])
    def test_ssm_block_peak_is_at_most_twice_its_history(self, B, T):
        # the acceptance toys' recurrent layer in float64; the scan writes
        # its states over the chunk-padded outer products, so besides the
        # history the call holds only row-sized arrays and chunk temporaries
        cfg = ModelConfig("parallel_hybrid", n_layers=1, d_model=64,
                          d_state=8)
        lp = layer_plan(cfg, init_weights(cfg, 7), ComponentMask.full(1))[0]
        h = np.random.default_rng(T).normal(0, 1, (B, T, cfg.d_model))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, states = ssm_block(lp.ssm, lp.decay, h, 0.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        history = B * T * cfg.d_model * cfg.d_state * 8
        assert states.shape == (B, T, cfg.d_model, cfg.d_state)
        assert peak <= 2 * history, peak / history


def taped_forward(model, mask, toks):
    """Decode-path forward over ``toks`` on a fresh stream, with a tape:
    its ``(plan entry, input rows, FFN input rows)`` per layer, and the
    residual stream out of each layer (the next layer's input, and the
    head's rows after the last)."""
    state = model.new_state(mask)
    tape = []
    forward(model.cfg, model.weights, state.plan, toks[None], state, tape)
    tokens, *layers, final = tape
    np.testing.assert_array_equal(tokens, toks[None])
    assert [id(lp) for lp, _, _ in layers] == [id(lp) for lp in state.plan]
    return layers, [h for _, h, _ in layers[1:]] + [final]


class TestStructuralProbes:
    def test_parallel_layer_is_sum_of_branches(self):
        # reconstruct each layer output from branch calls on the same input
        m = make_model(PARALLEL)
        layers, outs = taped_forward(m, None, tokens_for(PARALLEL, 8))
        assert [lp.index for lp, _, _ in layers] == list(range(PARALLEL.n_layers))
        bias = np.triu(np.full((8, 8), -np.inf), 1)
        for (lp, h, h_ffn), h_out in zip(layers, outs):
            probe = m.new_state()
            s_out, _ = ssm_block(lp.ssm, lp.decay, h, probe.ssm[lp.index])
            a_out = attn_block(lp.attn, h, PARALLEL.n_heads, bias,
                               probe.kv[lp.index], 0)
            mixed = h + s_out + a_out
            np.testing.assert_array_equal(h_ffn, mixed)
            np.testing.assert_array_equal(h_out, mixed + ffn_block(lp.ffn, mixed))

    def test_sequential_linear_only_leaves_attn_layers_untouched(self):
        m = make_model(SEQUENTIAL)
        layers, outs = taped_forward(m, ssm_only_mask(SEQUENTIAL),
                                     tokens_for(SEQUENTIAL, 8))
        # skipped attention layers are not run; each linear layer's output
        # reaches the next linear layer (or the final norm) unchanged
        assert [lp.index for lp, _, _ in layers] == [
            i for i in range(SEQUENTIAL.n_layers)
            if SEQUENTIAL.has_alt(i)]
        for (lp, h, h_ffn), h_out in zip(layers, outs):
            mixed = h + ssm_block(lp.ssm, lp.decay, h, 0.0)[0]
            np.testing.assert_array_equal(h_ffn, mixed)
            np.testing.assert_array_equal(h_out, mixed + ffn_block(lp.ffn, mixed))
            assert not np.array_equal(h_out, h)


def tiny_ssm_params(d=4, s=3, seed=0, decay_raw=None):
    rng = np.random.default_rng(seed)
    return SsmParams(
        norm_g=np.ones(d),
        w_in=rng.normal(0, 0.5, (d, d)),
        w_b=rng.normal(0, 0.5, (d, s)),
        w_c=rng.normal(0, 0.5, (d, s)),
        decay_raw=np.full(d, 0.3) if decay_raw is None else decay_raw,
        skip_gain=np.ones(d),
        w_out=rng.normal(0, 0.5, (d, d)),
    )


def ssm_step(p, state, h):
    """One recurrence step: a one-row block. Returns (out, new_state)."""
    h = np.asarray(h, dtype=float)[None, None]
    out, states = ssm_block(p, ssm_decay(p), h, state)
    return out[0, 0], states[0, -1]


class TestSsmStep:
    def test_zero_input_zero_state_gives_zero_output(self):
        p = tiny_ssm_params()
        out, new_state = ssm_step(p, np.zeros((4, 3)), np.zeros(4))
        np.testing.assert_array_equal(out, np.zeros(4))
        np.testing.assert_array_equal(new_state, np.zeros((4, 3)))

    def test_zero_decay_is_memoryless(self):
        # sigmoid(-1000) underflows to exactly 0: state history is erased
        p = tiny_ssm_params(decay_raw=np.full(4, -1000.0))
        x = np.array([0.3, -0.2, 0.8, 0.1])
        out_a, st_a = ssm_step(p, np.zeros((4, 3)), x)
        out_b, st_b = ssm_step(p, np.full((4, 3), 9.9), x)
        np.testing.assert_array_equal(out_a, out_b)
        np.testing.assert_array_equal(st_a, st_b)

    def test_constant_input_matches_geometric_closed_form(self):
        from scipy.special import logit, expit
        d_val = 0.85
        p = tiny_ssm_params(decay_raw=np.full(4, logit(d_val)))
        d_eff = expit(logit(d_val))
        x = np.array([0.5, -0.1, 0.2, 0.9])
        xs, _ = rmsnorm(x, p.norm_g)
        u = (xs @ p.w_in) * expit(xs @ p.w_in)
        b = xs @ p.w_b
        proj = u[:, None] * b[None, :]
        state = np.zeros((4, 3))
        for t in range(1, 25):
            _, state = ssm_step(p, state, x)
            closed = proj * (1.0 - d_eff ** t) / (1.0 - d_eff)
            np.testing.assert_allclose(state, closed, rtol=1e-12, atol=1e-14)

    def test_state_shape_is_invariant(self):
        p = tiny_ssm_params()
        state = np.zeros((4, 3))
        for _ in range(5):
            _, state = ssm_step(p, state, np.ones(4))
            assert state.shape == (4, 3)

    def test_chunk_agrees_with_iterated_steps(self):
        p = tiny_ssm_params(seed=3)
        h = np.random.default_rng(2).normal(0, 1, (6, 4))
        out_chunk, states = ssm_block(p, ssm_decay(p), h[None], np.zeros((4, 3)))
        out_chunk, final = out_chunk[0], states[0, -1]
        state = np.zeros((4, 3))
        outs = []
        for t in range(6):
            o, state = ssm_step(p, state, h[t])
            outs.append(o)
        np.testing.assert_allclose(out_chunk, np.stack(outs), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(final, state, rtol=1e-12, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        p = tiny_ssm_params()
        with pytest.raises(ValueError):
            ssm_step(p, np.zeros((4, 3)), np.zeros(5))
        with pytest.raises(ValueError):
            ssm_step(p, np.zeros((3, 3)), np.zeros(4))


def scan_rows(decay, inputs, s0):
    """The recurrence row by row: the reference for ``_linear_scan``."""
    s = np.broadcast_to(s0, inputs[:, 0].shape)
    out = []
    for t in range(inputs.shape[1]):
        s = decay[:, None] * s + inputs[:, t]
        out.append(s)
    return np.stack(out, axis=1)


def spread(decay, d_state):
    """A (d,) decay spread over the state axis, as :func:`ssm_decay` lays it."""
    return np.repeat(decay[:, None], d_state, axis=1)


def scan_copy(decay, inputs, s0):
    """``_linear_scan`` over a copy of ``inputs`` padded with zero rows to
    whole chunks, as :func:`_scan_inputs` lays its buffers; the first T rows
    of the states. ``inputs`` itself is left as it was."""
    B, T, d, s = inputs.shape
    C = min(_SCAN_CHUNK, T)
    buf = np.zeros((B, -(-T // C) * C, d, s), inputs.dtype)
    buf[:, :T] = inputs
    return _linear_scan(decay, buf, s0)[:, :T]


class TestLinearScan:
    @staticmethod
    def case(T, seed=0):
        rng = np.random.default_rng(seed)
        decay = rng.uniform(0.5, 0.99, 5)
        return decay, rng.normal(0, 1, (2, T, 5, 3)), rng.normal(0, 1, (5, 3))

    @pytest.mark.parametrize("T", [1, 2, 7, 16])
    def test_seeded_single_chunk_is_the_row_recurrence_bitwise(self, T):
        decay, inputs, s0 = self.case(T)
        np.testing.assert_array_equal(scan_copy(spread(decay, 3), inputs, s0),
                                      scan_rows(decay, inputs, s0))

    def test_seeded_scan_over_several_chunks(self):
        decay, inputs, s0 = self.case(40, seed=1)
        np.testing.assert_allclose(scan_copy(spread(decay, 3), inputs, s0),
                                   scan_rows(decay, inputs, s0),
                                   rtol=1e-12, atol=1e-12)

    def test_keeps_float32(self):
        decay, inputs, s0 = (a.astype(np.float32) for a in self.case(16))
        assert scan_copy(spread(decay, 3), inputs, s0).dtype == np.float32
        assert scan_copy(spread(decay, 3), inputs, 0.0).dtype == np.float32

    @pytest.mark.parametrize("T", [1, 7, 16, 40])
    def test_states_are_written_over_the_inputs(self, T):
        decay, inputs, s0 = self.case(T, seed=2)
        u = np.random.default_rng(T).normal(0, 1, (2, T, 5))
        buf = _scan_inputs(u, inputs[:, :, 0])
        assert buf.shape[1] == (T if T <= 16 else 48)
        assert not buf[:, T:].any()
        states = _linear_scan(spread(decay, 3), buf, s0)
        assert np.shares_memory(states, buf) and states.shape == buf.shape
        np.testing.assert_array_equal(
            states[:, :T], scan_copy(spread(decay, 3),
                                     u[..., None] * inputs[:, :, None, 0],
                                     s0))

    def test_ragged_rows_rejected(self):
        decay, inputs, s0 = self.case(17)
        with pytest.raises(ValueError):
            _linear_scan(spread(decay, 3), inputs, s0)


BROADCAST_T = [1, 5, 16, 17, 40]


class TestContiguousStateRows:
    """The recurrent branch on contiguous (d, s) state rows computes the
    bits of its broadcast form (``broadcast_form``): one chunk and several,
    a ragged last chunk, zero and non-zero start states, float32 and
    float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("T", BROADCAST_T)
    def test_scan_equals_the_broadcast_scan(self, T, B, dtype):
        rng = np.random.default_rng(T * 10 + B)
        d, s = PARALLEL.d_model, PARALLEL.d_state
        decay = rng.uniform(0.5, 0.99, d).astype(dtype)
        inputs = rng.normal(0, 1, (B, T, d, s)).astype(dtype)
        for s0 in (0.0, rng.normal(0, 1, (d, s)).astype(dtype)):
            broadcast_form.assert_same_bits(
                scan_copy(spread(decay, s), inputs, s0),
                broadcast_form.linear_scan(decay, inputs, s0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("T", BROADCAST_T)
    @pytest.mark.parametrize("cfg", [PARALLEL, SEQUENTIAL], ids=lambda c: c.arch)
    def test_block_equals_the_broadcast_block(self, cfg, T, B, dtype):
        w = {n: a.astype(dtype) for n, a in make_model(cfg).weights.items()}
        rng = np.random.default_rng(T * 10 + B)
        plan = [lp for lp in layer_plan(cfg, w, ComponentMask.full(cfg.n_layers))
                if lp.ssm is not None]
        assert plan
        for lp in plan:
            assert lp.decay.dtype == dtype and lp.decay.flags.c_contiguous
            h = rng.normal(0, 1, (B, T, cfg.d_model)).astype(dtype)
            for s0 in (0.0, rng.normal(0, 1, (cfg.d_model, cfg.d_state)).astype(dtype)):
                out, states = ssm_block(lp.ssm, lp.decay, h, s0)
                ref_out, ref_states = broadcast_form.ssm_block(lp.ssm, None, h, s0)
                broadcast_form.assert_same_bits(out, ref_out)
                broadcast_form.assert_same_bits(states, ref_states)
