"""Bit-exact JSON serialization of named float64 arrays.

A checkpoint is one JSON document mapping each array name to an object
with two keys: "shape" (list of non-negative ints) and "data", the
base64 text of the array's C-order little-endian float64 bytes ("<f8").
Those bytes are the IEEE doubles themselves, so save followed by load
reproduces every bit, including -0.0 and subnormals, and neither side
formats or parses a decimal per value.  Keys are sorted and separators
compact, so the same arrays always give the same bytes.  Non-finite
values are rejected on save and on load, and so is a key repeated in
one object.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .tensor import Tensor

__all__ = [
    "dumps_arrays",
    "loads_arrays",
    "save_arrays",
    "load_arrays",
    "tensors_to_arrays",
    "arrays_to_tensors",
]


def dumps_arrays(arrays: dict[str, np.ndarray]) -> str:
    doc = {}
    for name, arr in arrays.items():
        a = np.asarray(arr, dtype=np.float64)
        if not np.all(np.isfinite(a)):
            raise FloatingPointError(f"non-finite values in array {name}")
        data = base64.b64encode(a.astype("<f8", copy=False).tobytes(order="C"))
        doc[name] = {"shape": list(a.shape), "data": data.decode("ascii")}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key}")
        doc[key] = value
    return doc


def loads_arrays(text: str) -> dict[str, np.ndarray]:
    doc = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(doc, dict):
        raise ValueError("checkpoint document must be a JSON object")
    arrays: dict[str, np.ndarray] = {}
    for name, entry in doc.items():
        try:
            shape, data = entry["shape"], entry["data"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed checkpoint entry for {name}") from exc
        # type(s) is int: a bool is an int subclass, not an extent
        if not isinstance(shape, list) or any(type(s) is not int or s < 0 for s in shape):
            raise ValueError(f"array {name}: shape must be a list of non-negative ints, "
                             f"got {shape!r}")
        if not isinstance(data, str):
            raise ValueError(f"array {name}: data must be a base64 string, "
                             f"not {type(data).__name__}")
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError as exc:  # binascii.Error, or non-ASCII text
            raise ValueError(f"array {name}: data is not base64 ({exc})") from None
        n = math.prod(shape)
        if len(raw) != 8 * n:
            raise ValueError(f"array {name}: shape {tuple(shape)} expects {8 * n} bytes, "
                             f"got {len(raw)}")
        # astype copies, so the array is native-endian and writable
        a = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        if not np.all(np.isfinite(a)):
            raise ValueError(f"array {name}: non-finite values")
        arrays[name] = a.reshape(shape)
    return arrays


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    Path(path).write_text(dumps_arrays(arrays), encoding="utf-8")


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a checkpoint file; a malformed file raises ``ValueError``
    naming ``path``."""
    try:
        return loads_arrays(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # includes JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from exc


def tensors_to_arrays(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in params.items()}


def arrays_to_tensors(
    arrays: dict[str, np.ndarray], requires_grad: bool = True
) -> dict[str, Tensor]:
    return {name: Tensor(a, requires_grad=requires_grad)
            for name, a in arrays.items()}
