"""Run configuration: defaults, JSON files, and dotted overrides.

Precedence is defaults < config file < ``--set key=value`` overrides.
The document layout mirrors the published protocol tables (epoch,
window length, filters, kernel size, strides, basic/advanced capsule
blocks, LSTM units, FNN widths and dropout) so a protocol run is a
plain JSON file.  Validation collects every problem before failing.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import math
from typing import Any

from .data import SyntheticSpec
from .network import ModelConfig, _is_int
from .pipeline import FeatureSettings
from .training import TrainConfig

__all__ = [
    "ConfigError",
    "default_config",
    "load_config",
    "apply_overrides",
    "validate_config",
    "feature_settings_from",
    "train_config_from",
    "synthetic_spec_from",
    "resolve_model_config",
    "config_digest",
]

log = logging.getLogger("slowcaps.config")


class ConfigError(ValueError):
    """Raised with the full list of validation problems."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


_DEFAULTS: dict[str, Any] = {
    "dataset": "synthetic",
    "rul_max": 125.0,
    "features": {
        "num_slow": None,
        "per_condition": False,
    },
    "model": {
        "epoch": 50,
        "window_length": None,
        "filters": 64,
        "kernel_size": [1, 2],
        "strides": [1, 2],
        "basic_capsule": {
            "dimensions": None,
            "channels": None,
            "kernel_size": None,
            "strides": [1, 1],
        },
        "advanced_capsule": {"number": None, "dimensions": None},
        "routing_iterations": 3,
        "lstm_units": 16,
        "sequence_length": 5,
        "fnn": {"widths": [200, 100, 1], "dropout": 0.2},
    },
    "training": {
        "batch_size": 64,
        "learning_rate": 1e-3,
        "patience": 10,
        "validation_fraction": 0.1,
    },
    "tune": {
        "filter_candidates": [16, 32, 64],
        "lstm_candidates": [8, 16, 32],
        "explore": "greedy",
        "epochs": 10,
    },
    "synthetic": {
        "channels": 6,
        "units": 20,
        "test_units": 10,
        "length_range": [280, 320],
        "rul_max": 120.0,
    },
}

_DATASETS = ("synthetic", "FD001", "FD002", "FD003", "FD004", "milling")


def default_config() -> dict:
    return copy.deepcopy(_DEFAULTS)


def _deep_merge(base: dict, over: dict, path: str, problems: list[str]) -> None:
    for key, value in over.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            problems.append(f"unknown config key {here!r}")
            continue
        if isinstance(base[key], dict) and isinstance(value, dict):
            _deep_merge(base[key], value, here, problems)
        elif isinstance(base[key], dict):
            problems.append(f"{here!r} must be an object")
        else:
            base[key] = value


def load_config(path: str | None = None) -> dict:
    """Defaults merged with an optional JSON file; unknown keys rejected."""
    cfg = default_config()
    if path is None:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config file {path}: invalid JSON ({exc})"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([f"config file {path}: top level must be an object"])
    problems: list[str] = []
    _deep_merge(cfg, doc, "", problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply dotted ``key.path=value`` assignments; values parse as JSON."""
    problems: list[str] = []
    for item in assignments:
        if "=" not in item:
            problems.append(f"override {item!r} is not of the form key=value")
            continue
        dotted, raw = item.split("=", 1)
        keys = dotted.strip().split(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        ok = True
        for k in keys[:-1]:
            if not isinstance(node, dict) or k not in node:
                problems.append(f"override {item!r}: unknown key {dotted!r}")
                ok = False
                break
            node = node[k]
        if not ok:
            continue
        leaf = keys[-1]
        if not isinstance(node, dict) or leaf not in node:
            problems.append(f"override {item!r}: unknown key {dotted!r}")
            continue
        if isinstance(node[leaf], dict):
            problems.append(f"override {item!r}: {dotted!r} is an object")
            continue
        node[leaf] = value
    if problems:
        raise ConfigError(problems)
    return cfg


def _is_num(x) -> bool:
    """A finite number: JSON parses ``NaN``, ``Infinity`` and ``1e999``
    to floats that are not, and an int may not fit a float."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check_pair(value, name, problems) -> None:
    if value is None:
        return
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is_int(v) and v >= 1 for v in value)):
        problems.append(f"{name} must be a pair of positive integers")


def validate_config(cfg: dict) -> None:
    """Check every field; raise ConfigError listing all problems."""
    p: list[str] = []
    if cfg.get("dataset") not in _DATASETS:
        p.append(f"dataset must be one of {_DATASETS}")
    if not _is_num(cfg.get("rul_max")) or cfg["rul_max"] <= 0:
        p.append("rul_max must be a positive number")

    f = cfg.get("features", {})
    if f.get("num_slow") is not None and (not _is_int(f["num_slow"]) or f["num_slow"] < 1):
        p.append("features.num_slow must be null or a positive integer")
    if not isinstance(f.get("per_condition"), bool):
        p.append("features.per_condition must be a boolean")

    m = cfg.get("model", {})
    for key in ("epoch", "filters", "routing_iterations", "lstm_units", "sequence_length"):
        if not _is_int(m.get(key)) or m[key] < 1:
            p.append(f"model.{key} must be a positive integer")
    if m.get("window_length") is not None and (
            not _is_int(m["window_length"]) or m["window_length"] < 1):
        p.append("model.window_length must be null or a positive integer")
    _check_pair(m.get("kernel_size"), "model.kernel_size", p)
    _check_pair(m.get("strides"), "model.strides", p)
    bc = m.get("basic_capsule", {})
    for key in ("dimensions", "channels"):
        v = bc.get(key)
        if v is not None and (not _is_int(v) or v < 1):
            p.append(f"model.basic_capsule.{key} must be null or a positive integer")
    _check_pair(bc.get("kernel_size"), "model.basic_capsule.kernel_size", p)
    _check_pair(bc.get("strides"), "model.basic_capsule.strides", p)
    ac = m.get("advanced_capsule", {})
    for key in ("number", "dimensions"):
        v = ac.get(key)
        if v is not None and (not _is_int(v) or v < 1):
            p.append(f"model.advanced_capsule.{key} must be null or a positive integer")
    fnn = m.get("fnn", {})
    widths = fnn.get("widths")
    if (not isinstance(widths, (list, tuple)) or not widths
            or not all(_is_int(w) and w >= 1 for w in widths)
            or widths[-1] != 1):
        p.append("model.fnn.widths must be positive integers ending in 1")
    if not _is_num(fnn.get("dropout")) or not 0 <= fnn["dropout"] < 1:
        p.append("model.fnn.dropout must be in [0, 1)")

    t = cfg.get("training", {})
    for key in ("batch_size", "patience"):
        if not _is_int(t.get(key)) or t[key] < 1:
            p.append(f"training.{key} must be a positive integer")
    if not _is_num(t.get("learning_rate")) or t["learning_rate"] <= 0:
        p.append("training.learning_rate must be a positive number")
    if not _is_num(t.get("validation_fraction")) or not 0 < t["validation_fraction"] < 1:
        p.append("training.validation_fraction must be in (0, 1)")

    tu = cfg.get("tune", {})
    for key in ("filter_candidates", "lstm_candidates"):
        v = tu.get(key)
        if (not isinstance(v, (list, tuple)) or not v
                or not all(_is_int(x) and x >= 1 for x in v)):
            p.append(f"tune.{key} must be a non-empty list of positive integers")
    if tu.get("explore") not in ("greedy", "full"):
        p.append("tune.explore must be 'greedy' or 'full'")
    if not _is_int(tu.get("epochs")) or tu["epochs"] < 1:
        p.append("tune.epochs must be a positive integer")

    s = cfg.get("synthetic", {})
    if not _is_int(s.get("channels")) or s["channels"] < SyntheticSpec.latents:
        p.append(f"synthetic.channels must be an integer >= {SyntheticSpec.latents}, "
                 "the generator's latent count")
    for key in ("units", "test_units"):
        if not _is_int(s.get(key)) or s[key] < 1:
            p.append(f"synthetic.{key} must be a positive integer")
    lr = s.get("length_range")
    if (not isinstance(lr, (list, tuple)) or len(lr) != 2
            or not all(_is_int(x) and x >= 2 for x in lr) or lr[0] > lr[1]):
        p.append("synthetic.length_range must be [lo, hi] integers with lo <= hi")
    if not _is_num(s.get("rul_max")) or s["rul_max"] <= 0:
        p.append("synthetic.rul_max must be a positive number")
    elif s["rul_max"] >= 2**63:
        # synth draws each test unit's residual life as an int64 up to 0.8 * rul_max
        p.append("synthetic.rul_max must be below 2**63, the int64 range of a unit's cycles")

    if p:
        raise ConfigError(p)


def feature_settings_from(cfg: dict) -> FeatureSettings:
    f = cfg["features"]
    return FeatureSettings(
        rul_max=float(cfg["rul_max"]),
        num_slow=f["num_slow"],
        window=cfg["model"]["window_length"],
        per_condition=f["per_condition"],
    )


def train_config_from(cfg: dict, seed: int, epochs: int | None = None) -> TrainConfig:
    t = cfg["training"]
    return TrainConfig(
        epochs=int(epochs if epochs is not None else cfg["model"]["epoch"]),
        batch_size=int(t["batch_size"]),
        learning_rate=float(t["learning_rate"]),
        patience=int(t["patience"]),
        validation_fraction=float(t["validation_fraction"]),
        label_scale=float(cfg["rul_max"]),
        seed=int(seed),
    )


def synthetic_spec_from(cfg: dict) -> tuple[SyntheticSpec, int]:
    """Spec covering train + test units, and the train-unit count."""
    s = cfg["synthetic"]
    spec = SyntheticSpec(
        channels=int(s["channels"]),
        units=int(s["units"]) + int(s["test_units"]),
        length_range=(int(s["length_range"][0]), int(s["length_range"][1])),
        rul_max=float(s["rul_max"]),
    )
    return spec, int(s["units"])


def resolve_model_config(
    cfg: dict,
    frame_channels: int,
    num_slow: int,
    plain_channels: int,
    window: int,
    use_lstm: bool = True,
) -> ModelConfig:
    """Fill the architecture from the config, deriving unset fields.

    ``frame_channels`` is the input width of each frame.  With P slow
    features (``num_slow``) over J retained sensor channels
    (``plain_channels``), unset fields follow the coupling rules: basic
    capsule dimension floor((P+J)/2), at least 1; P advanced capsules of
    dimension J+P; filters // dimension basic capsule channels.  Explicit
    config values win.  Filters that the capsule dimension in use does
    not divide are bumped to its next multiple, and a pinned capsule
    kernel wider than the convolution output is narrowed to that width.
    """
    p, j = int(num_slow), int(plain_channels)
    if p < 1 or j < 1:
        raise ValueError("num_slow and plain_channels must be positive")
    m = cfg["model"]
    bc = m["basic_capsule"]
    ac = m["advanced_capsule"]
    caps_dim = int(bc["dimensions"]) if bc["dimensions"] is not None else max((p + j) // 2, 1)
    filters = int(m["filters"])
    if filters % caps_dim != 0:
        bumped = -(-filters // caps_dim) * caps_dim
        log.info("bumping conv filters %d -> %d to divide capsule dim %d",
                 filters, bumped, caps_dim)
        filters = bumped
    caps_channels = int(bc["channels"]) if bc["channels"] is not None \
        else filters // caps_dim
    caps_kernel = bc["kernel_size"]
    if None not in (caps_kernel, m["kernel_size"], m["strides"]):
        # a kernel pinned to the full width of the frame with slow columns
        # is too wide for the variants that drop them
        conv_w = (int(frame_channels) - m["kernel_size"][1]) // m["strides"][1] + 1
        if 1 <= conv_w < caps_kernel[1]:
            log.info("clamping capsule kernel width %d -> %d to fit the conv output",
                     caps_kernel[1], conv_w)
            caps_kernel = (caps_kernel[0], conv_w)
    try:
        config = ModelConfig(
            window_length=int(window),
            in_channels=int(frame_channels),
            conv_filters=filters,
            conv_kernel=m["kernel_size"],
            conv_stride=m["strides"],
            caps_dim=caps_dim,
            caps_channels=caps_channels,
            caps_kernel=caps_kernel,
            caps_stride=bc["strides"],
            num_advanced=int(ac["number"]) if ac["number"] is not None else p,
            advanced_dim=int(ac["dimensions"]) if ac["dimensions"] is not None
            else j + p,
            routing_iterations=int(m["routing_iterations"]),
            lstm_units=int(m["lstm_units"]),
            sequence_length=int(m["sequence_length"]) if use_lstm else 1,
            use_lstm=use_lstm,
            fnn_widths=m["fnn"]["widths"],
            dropout=float(m["fnn"]["dropout"]),
        )
    except ValueError as exc:
        raise ConfigError([f"model: {exc}"]) from None
    return config


def config_digest(cfg: dict) -> str:
    text = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
