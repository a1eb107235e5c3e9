"""Self-describing binary checkpoint container.

Layout (see docs/checkpoint_format.md):

    bytes 0..7    magic  b"SPECLAB1"
    bytes 8..11   header length N, uint32 little-endian
    bytes 12..12+N  header, UTF-8 JSON
    remainder     weight payload, named blocks concatenated in header order

The header carries the format version, the model config, and one entry per
block with name, shape, dtype and byte offset into the payload. All numeric
payload is little-endian float64 in C order regardless of platform, and
the blocks tile the payload: each block's offset is the sum of the sizes of
the blocks before it. A checkpoint loads into one float64 buffer, and every
block of the loaded :class:`Weights` is a reshaped view of it. A JSON
manifest mirroring the config is written next to the checkpoint for human
inspection. Every file the lab writes goes through :func:`write_atomic`.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .model import ModelConfig, Weights

MAGIC = b"SPECLAB1"
FORMAT_VERSION = 1
_DTYPE = "<f8"


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it
    into place, so no reader or later run sees a partly written file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data if isinstance(data, bytes) else data.encode())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, weights: Weights) -> None:
    """Write weights plus config header; also emits ``<path>.manifest.json``."""
    path = Path(path)
    blocks = []
    offset = 0
    for name, arr in weights.items():
        nbytes = arr.size * 8
        blocks.append({"name": name, "shape": list(arr.shape),
                       "dtype": _DTYPE, "offset": offset, "nbytes": nbytes})
        offset += nbytes
    header = {
        "format_version": FORMAT_VERSION,
        "endianness": "little",
        "config": weights.cfg.to_dict(),
        "blocks": blocks,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    write_atomic(path, b"".join(
        [MAGIC, np.uint32(len(header_bytes)).tobytes(), header_bytes]
        + [np.ascontiguousarray(arr, dtype=_DTYPE).tobytes()
           for _, arr in weights.items()]))
    write_atomic(manifest_path(path), json.dumps(
        weights.cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def manifest_path(path) -> Path:
    return Path(str(path) + ".manifest.json")


def load_checkpoint(path) -> Weights:
    """Read a checkpoint; validates magic, version, header, block layout,
    dtype, shapes and finiteness. Malformed content raises ValueError.

    The payload is read straight into one float64 buffer and every block is
    a reshaped view of it, so a load holds the payload once. Views require
    the blocks to tile the payload: each block starts where the one before
    it in the header ends, so no two blocks can alias."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        lead = f.read(12)
        if len(lead) < 12 or lead[:8] != MAGIC:
            raise ValueError(f"{path} is not a speclab checkpoint (bad magic)")
        header_len = int.from_bytes(lead[8:12], "little")
        if 12 + header_len > size:
            raise ValueError(f"{path}: header length {header_len} runs past the "
                             f"end of the file ({size} bytes)")
        header = json.loads(f.read(header_len).decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is not a JSON object")
        if header.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version "
                             f"{header.get('format_version')}")
        payload_len = size - 12 - header_len
        try:
            cfg = ModelConfig.from_dict(header["config"])
            layout, names = [], set()
            end = 0
            for spec in header["blocks"]:
                name, shape, start, nbytes = (spec[k] for k in
                                              ("name", "shape", "offset", "nbytes"))
                if spec["dtype"] != _DTYPE:
                    raise ValueError(f"block {name} has dtype {spec['dtype']!r}, "
                                     f"expected {_DTYPE!r}")
                if not all(type(v) is int for v in (start, nbytes, *shape)):
                    raise ValueError(f"block {name}: offset, nbytes and shape "
                                     f"must be integers")
                if nbytes != math.prod(shape) * 8:
                    raise ValueError(f"block {name}: {nbytes} bytes do not hold "
                                     f"shape {shape}")
                if name in names:   # a TypeError if a name is not hashable
                    raise ValueError(f"block {name} is named twice")
                names.add(name)
                if start != end:
                    raise ValueError(f"block {name} starts at byte {start}; blocks "
                                     f"must tile the payload in header order, so "
                                     f"it must start at byte {end}")
                layout.append((name, tuple(shape), start // 8, nbytes // 8))
                end += nbytes
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed header: {exc!r}") from exc
        if end != payload_len:
            raise ValueError(f"{path}: the blocks cover {end} bytes, the payload "
                             f"holds {payload_len}")
        data = np.fromfile(f, dtype=_DTYPE, count=end // 8)
    data = data.astype(np.float64, copy=False)
    blocks = {name: data[first:first + n].reshape(shape)
              for name, shape, first, n in layout}
    weights = Weights(cfg, blocks)
    weights.validate_finite()
    return weights
