import json
import tracemalloc

import numpy as np
import pytest

from speclab.checkpoint import (
    load_checkpoint,
    manifest_path,
    save_checkpoint,
)
from speclab.model import ModelConfig, init_weights

CFG = ModelConfig("sequential_hybrid", n_layers=4, d_model=16, n_heads=2,
                  d_state=4, vocab_size=32, context_limit=48)


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the checkpoint at ``path``."""
    raw = path.read_bytes()
    hlen = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    header = json.loads(raw[12:12 + hlen])
    edit(header)
    new_header = json.dumps(header).encode()
    path.write_bytes(raw[:8] + np.uint32(len(new_header)).tobytes()
                     + new_header + raw[12 + hlen:])


@pytest.fixture
def weights():
    return init_weights(CFG, 21)


class TestRoundTrip:
    def test_bitwise_round_trip(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, weights)
        loaded = load_checkpoint(path)
        assert loaded.cfg == CFG
        for name, arr in weights.items():
            np.testing.assert_array_equal(arr, loaded[name])

    def test_loaded_blocks_are_aligned_writeable_float64(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, weights)
        for name, arr in load_checkpoint(path).items():
            assert arr.dtype == np.float64, name
            assert arr.flags.c_contiguous and arr.flags.aligned, name
            assert arr.flags.writeable, name

    def test_writing_a_block_leaves_its_neighbours_unchanged(self, tmp_path,
                                                             weights):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, weights)
        loaded = load_checkpoint(path)
        for name in loaded.names:
            loaded[name][...] = -1.0
            for other, arr in loaded.items():
                expect = -1.0 if other == name else weights[other]
                np.testing.assert_array_equal(arr, expect, err_msg=other)
            loaded[name][...] = weights[name]

    def test_load_holds_the_payload_about_once(self, tmp_path):
        cfg = ModelConfig("parallel_hybrid", n_layers=4, d_model=64, d_state=8)
        w = init_weights(cfg, 3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, w)
        payload = sum(a.nbytes for _, a in w.items())
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for _, a in loaded.items()) == payload
        assert peak < 1.25 * payload, (peak, payload)

    def test_manifest_mirrors_config(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, weights)
        manifest = json.loads(manifest_path(path).read_text())
        assert ModelConfig.from_dict(manifest) == CFG

    def test_header_is_self_describing_little_endian(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, weights)
        raw = path.read_bytes()
        assert raw[:8] == b"SPECLAB1"
        hlen = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
        header = json.loads(raw[12:12 + hlen])
        assert header["endianness"] == "little"
        assert all(b["dtype"] == "<f8" for b in header["blocks"])
        names = [b["name"] for b in header["blocks"]]
        assert names == list(weights.names)
        total = sum(b["nbytes"] for b in header["blocks"])
        assert len(raw) == 12 + hlen + total


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, weights)
        rewrite_header(path, lambda h: h.update(format_version=99))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("config"),
        lambda h: h.pop("blocks"),
        lambda h: h["blocks"][0].pop("offset"),
        lambda h: h["config"].update(mystery_field=1),
        lambda h: h["config"].pop("arch"),
        lambda h: h["blocks"][-1].update(offset=h["blocks"][-1]["offset"] + 8),
        lambda h: h["blocks"][0].update(offset=-8),
        lambda h: h["blocks"][0].update(offset=0.0),
        lambda h: h["blocks"][0].update(nbytes=h["blocks"][0]["nbytes"] - 8),
        lambda h: h["blocks"][0].update(dtype="<f4"),
        lambda h: h["blocks"][0].update(dtype=">f8"),
    ], ids=["no_config", "no_blocks", "block_without_offset",
            "unknown_config_field", "config_without_arch",
            "offset_past_payload", "negative_offset", "float_offset",
            "nbytes_not_shape", "dtype_f4", "dtype_big_endian"])
    def test_malformed_header_rejected(self, tmp_path, weights, edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, weights)
        rewrite_header(path, edit)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("layout", ["overlapping", "out_of_order", "gapped",
                                        "trailing_bytes"])
    def test_blocks_must_tile_the_payload(self, tmp_path, weights, layout):
        # every layout here keeps each block inside the payload; only the
        # tiling rule rejects it (an overlap would alias two weights)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, weights)

        def edit(h):
            blocks = h["blocks"]
            if layout == "overlapping":
                blocks[1]["offset"] -= 8
            elif layout == "out_of_order":
                wq, wk = (next(b for b in blocks if b["name"] == f"layers.3.attn.{n}")
                          for n in ("wq", "wk"))
                wq["offset"], wk["offset"] = wk["offset"], wq["offset"]
            elif layout == "gapped":
                blocks[-1]["offset"] += 8

        rewrite_header(path, edit)
        if layout in ("gapped", "trailing_bytes"):
            path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_header_length_past_end_of_file_rejected(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, weights)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + np.uint32(len(raw)).tobytes() + raw[12:])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, weights)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_non_finite_payload_rejected(self, tmp_path, weights):
        weights["head_w"][0, 0] = np.inf
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, weights)
        with pytest.raises(ValueError):
            load_checkpoint(path)
