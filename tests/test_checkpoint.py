"""Checkpoint format: bit-exact float64 round trips, stable bytes."""

import base64
import json

import numpy as np
import pytest

from slowcaps import checkpoint as C
from slowcaps.tensor import Tensor


def awkward_arrays(rng):
    return {
        "w": rng.normal(size=(3, 4)),
        "b": np.array([1.0 / 3.0, -0.0, 1e-308, 1e308, -1e-17, 5e-324,
                       np.finfo(float).max, -np.finfo(float).max]),
        "s": np.asarray(np.pi),
        "t": rng.normal(size=(2, 2, 2)) * 1e-9,
    }


def test_round_trip_bit_exact(rng):
    arrays = awkward_arrays(rng)
    back = C.loads_arrays(C.dumps_arrays(arrays))
    assert set(back) == set(arrays)
    for name, a in arrays.items():
        assert back[name].shape == a.shape
        assert back[name].dtype == np.float64
        # bit-exact, including negative zero and subnormals
        assert np.array_equal(
            a.view(np.uint64).ravel(), back[name].view(np.uint64).ravel()
        )
        assert back[name].flags.writeable


def test_data_is_base64_of_little_endian_doubles(rng):
    arrays = awkward_arrays(rng)
    doc = json.loads(C.dumps_arrays(arrays))
    for name, a in arrays.items():
        assert isinstance(doc[name]["data"], str)
        raw = base64.b64decode(doc[name]["data"], validate=True)
        assert raw == a.astype("<f8").tobytes(order="C")


def test_dumps_is_deterministic_and_sorted(rng):
    arrays = awkward_arrays(rng)
    a = C.dumps_arrays(arrays)
    b = C.dumps_arrays(dict(reversed(list(arrays.items()))))
    assert a == b
    names = list(json.loads(a).keys())
    assert names == sorted(names)


def test_file_round_trip(tmp_path, rng):
    arrays = awkward_arrays(rng)
    path = tmp_path / "ck.json"
    C.save_arrays(path, arrays)
    back = C.load_arrays(path)
    for name, a in arrays.items():
        np.testing.assert_array_equal(a, back[name])
    # text file ends with a newline and is valid JSON
    text = path.read_text()
    assert text.endswith("\n")
    json.loads(text)


def test_non_finite_rejected():
    with pytest.raises(FloatingPointError):
        C.dumps_arrays({"bad": np.array([1.0, np.inf])})


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def test_malformed_documents_rejected():
    with pytest.raises(ValueError):
        C.loads_arrays("[1, 2, 3]")
    doc = {"w": {"shape": [2, 2], "data": _b64([1.0, 2.0, 3.0])}}
    with pytest.raises(ValueError):
        C.loads_arrays(json.dumps(doc))
    doc = {"w": {"shape": [2]}}
    with pytest.raises(ValueError):
        C.loads_arrays(json.dumps(doc))
    # shapes that are not a list of non-negative ints, each with data
    # that a lenient reading of it would accept
    for shape, data in [
        ("22", [1.5, 2.0, 1.0, 4.0]),   # a string is not a list of extents
        ([2.9], [1.0, 2.0]),            # nor is a float truncated to one
        ([2.0, 2], [1.5, 2.0, 1.0, 4.0]),
        ([True, 2], [1.0, 2.0]),
        ([2, -1], []),
        ({"0": 2}, [1.0, 2.0]),
        (2, [1.0, 2.0]),
        (None, [1.0, 2.0]),
    ]:
        with pytest.raises(ValueError, match="shape must be a list of non-negative ints"):
            C.loads_arrays(json.dumps({"w": {"shape": shape, "data": _b64(data)}}))
    # (data of a shape-(2,) entry, what the message must say)
    for data, match in [
        (_b64([1.0, 2.0])[:-4] + "AA*=", "not base64"),
        (_b64([1.0, 2.0, 3.0]), "expects 16 bytes, got 24"),
        (_b64([1.0])[:-1], "not base64"),
        (base64.b64encode(b"\0" * 12).decode("ascii"), "expects 16 bytes, got 12"),
        (1.5, "data must be a base64 string, not float"),
        ({"x": 1}, "data must be a base64 string, not dict"),
        (None, "data must be a base64 string, not NoneType"),
        # the decimal form, which no writer emits
        ([1.0, 2.0], "data must be a base64 string, not list"),
        (_b64([1.0, np.nan]), "non-finite"),
        (_b64([np.inf, 1.0]), "non-finite"),
    ]:
        with pytest.raises(ValueError, match=match) as info:
            C.loads_arrays(json.dumps({"w": {"shape": [2], "data": data}}))
        assert "array w" in str(info.value)


def test_repeated_key_rejected():
    entry = {"shape": [1], "data": _b64([1.0])}
    # json.loads alone keeps the last of two entries that share a name
    text = '{"b":%s,"a":%s,"b":%s}' % (json.dumps(entry), json.dumps(entry),
                                      json.dumps({"shape": [1], "data": _b64([2.0])}))
    with pytest.raises(ValueError, match="^duplicate key b$"):
        C.loads_arrays(text)
    with pytest.raises(ValueError, match="^duplicate key shape$"):
        C.loads_arrays('{"a":{"shape":[1],"shape":[1],"data":"%s"}}' % _b64([1.0]))


def test_tensor_bridges(rng):
    params = {"a": Tensor(rng.normal(size=(2, 3)), requires_grad=True)}
    arrays = C.tensors_to_arrays(params)
    np.testing.assert_array_equal(arrays["a"], params["a"].data)
    back = C.arrays_to_tensors(arrays)
    assert back["a"].requires_grad and back["a"].grad is not None
    frozen = C.arrays_to_tensors(arrays, requires_grad=False)
    assert not frozen["a"].requires_grad
