"""Named trainable parameters and the on-disk checkpoint format.

Checkpoint format (text, versioned, stable):

    arrangerank-checkpoint v1
    meta <one json object, single line>
    param <name> <d1,d2,...> <hex float> <hex float> ...
    ...
    end

Values are written with ``float.hex()`` in row-major order, so a
save/load round trip is bitwise exact.
"""
from __future__ import annotations

import json
import math
from typing import Iterator

import numpy as np

from .autodiff import ShapeError, Tensor

FORMAT_TAG = "arrangerank-checkpoint"
FORMAT_VERSION = "v1"


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint file."""


class ParamStore:
    """Ordered name -> trainable Tensor table."""

    def __init__(self):
        self._table: dict[str, Tensor] = {}

    def create(self, name: str, values: np.ndarray) -> Tensor:
        if name in self._table:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
        self._table[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._table[name]

    def names(self) -> list[str]:
        return list(self._table)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._table.items())

    def zero_grads(self) -> None:
        for t in self._table.values():
            t.grad = None


def save_checkpoint(params: ParamStore, path, meta: dict | None = None) -> None:
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}"]
    lines.append("meta " + json.dumps(meta or {}, sort_keys=True))
    for name, t in params.items():
        dims = ",".join(str(d) for d in t.values.shape) or "scalar"
        flat = " ".join(v.hex() for v in t.values.reshape(-1).tolist())
        lines.append(f"param {name} {dims} {flat}".rstrip())
    lines.append("end")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _finite_hex(tok: str) -> bool:
    try:
        return math.isfinite(float.fromhex(tok))
    except ValueError:
        return False


def load_checkpoint(path, expect_shapes: dict[str, tuple] | None = None) -> tuple[ParamStore, dict]:
    """Read a checkpoint; optionally validate parameter shapes against a config.

    Returns (params, meta). Raises CheckpointError on version/format problems
    and ShapeError when ``expect_shapes`` disagrees with the file.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(FORMAT_TAG):
        raise CheckpointError(f"{path}: not a {FORMAT_TAG} file")
    version = lines[0][len(FORMAT_TAG):].strip()
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version!r}, expected {FORMAT_VERSION}")
    if len(lines) < 3 or not lines[1].startswith("meta ") or lines[-1] != "end":
        raise CheckpointError(f"{path}: malformed checkpoint body")
    try:
        meta = json.loads(lines[1][5:])
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}:2: malformed meta line: {e}") from None
    params = ParamStore()
    for lineno, line in enumerate(lines[2:-1], start=3):
        fields = line.split(" ")
        if fields[0] != "param" or len(fields) < 3:
            raise CheckpointError(f"{path}:{lineno}: malformed parameter line: {line[:60]!r}")
        name, dims = fields[1], fields[2]
        try:
            shape = () if dims == "scalar" else tuple(int(d) for d in dims.split(","))
        except ValueError:
            raise CheckpointError(
                f"{path}:{lineno}: parameter {name}: bad shape {dims!r}") from None
        try:
            vals = np.array([float.fromhex(tok) for tok in fields[3:]], dtype=np.float64)
        except ValueError:
            vals = np.array([np.nan])
        if not np.isfinite(vals).all():
            bad = next(tok for tok in fields[3:] if not _finite_hex(tok))
            raise CheckpointError(f"{path}:{lineno}: parameter {name}: value {bad!r} is not a "
                                  "finite hex float")
        expected = int(np.prod(shape)) if shape else 1
        if vals.size != expected:
            raise CheckpointError(f"{path}:{lineno}: value count does not match shape for {name}")
        params.create(name, vals.reshape(shape))
    if expect_shapes is not None:
        got = {name: t.values.shape for name, t in params.items()}
        if got != dict(expect_shapes):
            missing = sorted(set(expect_shapes) ^ set(got))
            detail = f"names differ: {missing}" if missing else \
                f"shapes differ: " + ", ".join(
                    f"{n} {got[n]} != {expect_shapes[n]}" for n in got if got[n] != expect_shapes[n])
            raise ShapeError(f"{path}: checkpoint does not match requested architecture ({detail})")
    return params, meta
