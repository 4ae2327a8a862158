"""Bit-exact JSON serialization of named float64 arrays.

A checkpoint is one JSON document mapping each array name to an object
with two keys: "shape" (list of non-negative ints) and "data", the
base64 text of the array's C-order little-endian float64 bytes ("<f8").
Those bytes are the IEEE doubles themselves, so save followed by load
reproduces every bit, including -0.0 and subnormals, and neither side
formats or parses a decimal per value.  Keys are sorted and separators compact, so the same
arrays always give the same bytes.

Documents written before this format hold "data" as a flat row-major
list of float literals (Python's repr, which also round-trips doubles
exactly); ``loads_arrays`` still reads them, and accepts only JSON
numbers in such a list.  Non-finite values are rejected on save and,
in either form, on load.
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


def _decode_data(name: str, shape: tuple[int, ...], n: int, data) -> np.ndarray:
    if isinstance(data, str):
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError as exc:  # binascii.Error, or non-ASCII text
            raise ValueError(f"array {name}: data is not base64 ({exc})") from None
        if len(raw) != 8 * n:
            raise ValueError(f"array {name}: shape {shape} expects {8 * n} bytes, "
                             f"got {len(raw)}")
        # astype copies, so the array is native-endian and writable
        a = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    elif isinstance(data, list):
        try:
            a = np.asarray(data, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"array {name}: data is not a list of numbers ({exc})") from None
        if a.shape != (n,):
            raise ValueError(f"array {name}: shape {shape} expects {n} values, "
                             f"got {len(data)}")
        # numpy also converts numeric strings and booleans; JSON numbers
        # parse to int or float only
        odd = {type(v) for v in data} - {int, float}
        if odd:
            raise ValueError(f"array {name}: data is not a list of numbers "
                             f"(holds {', '.join(sorted(t.__name__ for t in odd))})")
    else:
        raise ValueError(f"array {name}: data must be a base64 string or a list, "
                         f"not {type(data).__name__}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"array {name}: non-finite values")
    return a.reshape(shape)


def loads_arrays(text: str) -> dict[str, np.ndarray]:
    doc = json.loads(text)
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
        arrays[name] = _decode_data(name, tuple(shape), math.prod(shape), data)
    return arrays


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    Path(path).write_text(dumps_arrays(arrays), encoding="utf-8")


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a checkpoint file in either form; a malformed file raises
    ``ValueError`` naming ``path``."""
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
