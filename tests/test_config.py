"""Config documents: defaults, file merge, overrides, resolution rules."""

import json
from pathlib import Path

import pytest

from slowcaps import config as C
from slowcaps import data as D

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_defaults_validate():
    cfg = C.default_config()
    C.validate_config(cfg)
    assert cfg["dataset"] == "synthetic"
    assert cfg["model"]["filters"] == 64
    # defaults are a fresh copy every call
    cfg["rul_max"] = -1
    assert C.default_config()["rul_max"] == 125.0


def test_load_config_merges_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"rul_max": 100.0, "model": {"epoch": 5}}))
    cfg = C.load_config(p)
    assert cfg["rul_max"] == 100.0
    assert cfg["model"]["epoch"] == 5
    assert cfg["model"]["filters"] == 64  # untouched default
    assert C.load_config(None)["rul_max"] == 125.0


def test_load_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "c.json"
    # `evaluate --no-clip` is the one clip switch and the histogram bands
    # are fixed, so there is no evaluation section
    p.write_text(json.dumps({"modle": {}, "model": {"floof": 3},
                             "evaluation": {"clip": False}}))
    with pytest.raises(C.ConfigError) as err:
        C.load_config(p)
    assert any("'modle'" in q for q in err.value.problems)
    assert any("'model.floof'" in q for q in err.value.problems)
    assert "unknown config key 'evaluation'" in err.value.problems


def test_load_config_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(C.ConfigError, match="invalid JSON"):
        C.load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(C.ConfigError, match="object"):
        C.load_config(arr)


def _leaf_keys(doc: dict, path: str = "") -> list[str]:
    keys = []
    for key, value in doc.items():
        here = f"{path}.{key}" if path else key
        keys += _leaf_keys(value, here) if isinstance(value, dict) else [here]
    return keys


def test_default_config_has_33_settable_keys():
    assert _leaf_keys(C.default_config()) == [
        "dataset", "rul_max",
        "features.num_slow", "features.per_condition",
        "model.epoch", "model.window_length", "model.filters", "model.kernel_size",
        "model.strides", "model.basic_capsule.dimensions", "model.basic_capsule.channels",
        "model.basic_capsule.kernel_size", "model.basic_capsule.strides",
        "model.advanced_capsule.number", "model.advanced_capsule.dimensions",
        "model.routing_iterations", "model.lstm_units", "model.sequence_length",
        "model.fnn.widths", "model.fnn.dropout",
        "training.batch_size", "training.learning_rate", "training.patience",
        "training.validation_fraction",
        "tune.filter_candidates", "tune.lstm_candidates", "tune.explore", "tune.epochs",
        "synthetic.channels", "synthetic.units", "synthetic.test_units",
        "synthetic.length_range", "synthetic.rul_max",
    ]


def test_apply_overrides_typed_values():
    cfg = C.default_config()
    C.apply_overrides(cfg, [
        "model.epoch=3",
        "features.per_condition=true",
        "dataset=FD001",
        "model.fnn.widths=[50, 1]",
        "training.learning_rate=0.01",
    ])
    assert cfg["model"]["epoch"] == 3
    assert cfg["features"]["per_condition"] is True
    assert cfg["dataset"] == "FD001"  # bare string falls back to text
    assert cfg["model"]["fnn"]["widths"] == [50, 1]
    assert cfg["training"]["learning_rate"] == 0.01
    C.validate_config(cfg)


def test_apply_overrides_rejects_bad_assignments():
    cfg = C.default_config()
    with pytest.raises(C.ConfigError) as err:
        C.apply_overrides(cfg, ["model.epoch", "model.nope=1", "model.fnn=3"])
    probs = err.value.problems
    assert len(probs) == 3
    assert any("key=value" in q for q in probs)
    assert any("unknown key" in q for q in probs)
    assert any("is an object" in q for q in probs)


def test_validate_collects_every_problem():
    cfg = C.default_config()
    cfg["dataset"] = "bogus"
    cfg["model"]["epoch"] = 0
    cfg["model"]["fnn"]["dropout"] = 1.5
    cfg["training"]["validation_fraction"] = 2.0
    with pytest.raises(C.ConfigError) as err:
        C.validate_config(cfg)
    probs = err.value.problems
    assert len(probs) == 4
    assert any("dataset" in q for q in probs)
    assert any("epoch" in q for q in probs)
    assert any("dropout" in q for q in probs)
    assert any("validation_fraction" in q for q in probs)


def test_validate_bounds_synthetic_channels_by_the_latent_count():
    cfg = C.default_config()
    cfg["synthetic"]["channels"] = D.SyntheticSpec.latents
    C.validate_config(cfg)
    cfg["synthetic"]["channels"] = D.SyntheticSpec.latents - 1
    with pytest.raises(C.ConfigError) as err:
        C.validate_config(cfg)
    assert len(err.value.problems) == 1
    assert err.value.problems[0].startswith("synthetic.channels must be an integer >= ")


# ------------------------------------------------------------ extraction


def test_feature_settings_from_document():
    cfg = C.default_config()
    cfg["rul_max"] = 100.0
    cfg["features"]["num_slow"] = 3
    cfg["features"]["per_condition"] = True
    cfg["model"]["window_length"] = 40
    fs = C.feature_settings_from(cfg)
    assert fs.rul_max == 100.0
    assert fs.num_slow == 3
    assert fs.window == 40
    assert fs.per_condition is True


def test_train_config_from_document():
    cfg = C.default_config()
    tc = C.train_config_from(cfg, seed=7)
    assert tc.epochs == cfg["model"]["epoch"]
    assert tc.seed == 7
    assert tc.label_scale == cfg["rul_max"]
    tc2 = C.train_config_from(cfg, seed=7, epochs=3)
    assert tc2.epochs == 3


def test_synthetic_spec_from_document():
    cfg = C.default_config()
    cfg["synthetic"]["units"] = 5
    cfg["synthetic"]["test_units"] = 2
    spec, n_train = C.synthetic_spec_from(cfg)
    assert spec.units == 7 and n_train == 5


# ------------------------------------------------------------- resolution


def test_resolve_model_config_derives_unset_fields():
    cfg = C.default_config()
    mc = C.resolve_model_config(
        cfg, frame_channels=16, num_slow=2, plain_channels=14, window=30
    )
    assert mc.caps_dim == 8            # floor((2 + 14) / 2)
    assert mc.caps_channels == 8
    assert mc.num_advanced == 2
    assert mc.advanced_dim == 16
    assert mc.conv_filters == 64       # already divisible
    assert mc.window_length == 30 and mc.in_channels == 16
    assert mc.use_lstm and mc.sequence_length == 5
    assert mc.lstm_units == 16


def test_resolve_model_config_small_dims_and_invalid_counts():
    cfg = C.default_config()
    mc = C.resolve_model_config(
        cfg, frame_channels=3, num_slow=1, plain_channels=2, window=8
    )
    assert mc.caps_dim == 1
    assert mc.caps_channels == mc.conv_filters
    with pytest.raises(ValueError):
        C.resolve_model_config(
            cfg, frame_channels=5, num_slow=0, plain_channels=5, window=8
        )


def test_resolve_model_config_table_values_win():
    cfg = C.default_config()
    cfg["model"]["basic_capsule"]["dimensions"] = 4
    cfg["model"]["basic_capsule"]["channels"] = 16
    cfg["model"]["advanced_capsule"]["number"] = 3
    cfg["model"]["advanced_capsule"]["dimensions"] = 12
    mc = C.resolve_model_config(
        cfg, frame_channels=16, num_slow=2, plain_channels=14, window=30
    )
    assert mc.caps_dim == 4 and mc.caps_channels == 16
    assert mc.num_advanced == 3 and mc.advanced_dim == 12


def test_resolve_model_config_bumps_indivisible_filters():
    cfg = C.default_config()
    cfg["model"]["filters"] = 30
    mc = C.resolve_model_config(
        cfg, frame_channels=16, num_slow=2, plain_channels=14, window=30
    )
    assert mc.caps_dim == 8
    assert mc.conv_filters == 32       # next multiple of 8 above 30
    assert mc.caps_channels == 4
    # the bump follows the capsule dimension in use, not the derived one
    cfg["model"]["filters"] = 20
    cfg["model"]["basic_capsule"]["dimensions"] = 3
    mc = C.resolve_model_config(
        cfg, frame_channels=16, num_slow=2, plain_channels=14, window=30
    )
    assert mc.caps_dim == 3 and mc.conv_filters == 21
    assert mc.caps_channels == 7


def test_resolve_model_config_without_lstm():
    cfg = C.default_config()
    mc = C.resolve_model_config(
        cfg, frame_channels=16, num_slow=2, plain_channels=14, window=30,
        use_lstm=False,
    )
    assert not mc.use_lstm and mc.sequence_length == 1


def test_resolve_model_config_reports_geometry_problems():
    cfg = C.default_config()
    cfg["model"]["basic_capsule"]["kernel_size"] = [99, 1]
    with pytest.raises(C.ConfigError) as err:
        C.resolve_model_config(
            cfg, frame_channels=16, num_slow=2, plain_channels=14, window=30
        )
    assert any(q.startswith("model:") for q in err.value.problems)


def test_config_digest_is_order_insensitive():
    a = C.config_digest({"x": 1, "y": 2})
    b = C.config_digest({"y": 2, "x": 1})
    assert a == b and len(a) == 16
    assert C.config_digest({"x": 1, "y": 3}) != a


# ------------------------------------------------------- shipped configs


def test_all_shipped_configs_load_and_validate():
    files = sorted(CONFIG_DIR.glob("*.json"))
    assert len(files) == 6
    for path in files:
        cfg = C.load_config(path)
        C.validate_config(cfg)


def test_shipped_turbofan_configs_pin_protocol_values():
    fd001 = C.load_config(CONFIG_DIR / "fd001.json")
    assert fd001["dataset"] == "FD001"
    assert fd001["model"]["window_length"] == 28
    assert fd001["model"]["basic_capsule"]["dimensions"] == 8
    assert fd001["model"]["basic_capsule"]["kernel_size"] == [1, 8]
    assert fd001["model"]["advanced_capsule"] == {"number": 2, "dimensions": 16}
    fd002 = C.load_config(CONFIG_DIR / "fd002.json")
    assert fd002["features"]["per_condition"] is True
    assert fd002["model"]["lstm_units"] == 32
    mc = C.resolve_model_config(
        fd001, frame_channels=16, num_slow=2, plain_channels=14, window=28
    )
    assert mc.conv_out_hw == (28, 8)
    assert mc.caps_out_hw == (28, 1)
    assert mc.num_basic_capsules == 224


def test_every_variant_of_the_turbofan_configs_resolves(caplog):
    # the pinned (1, 8) capsule kernel spans the whole conv output of a
    # frame with slow columns; variants without them narrow it to fit
    from slowcaps.pipeline import ABLATION_VARIANTS, variant_flags

    for name in ("fd001", "fd002", "fd003", "fd004"):
        cfg = C.load_config(CONFIG_DIR / f"{name}.json")
        p = cfg["features"]["num_slow"]
        for variant in ABLATION_VARIANTS:
            include_slow, use_lstm = variant_flags(variant)
            with caplog.at_level("INFO", logger="slowcaps.config"):
                caplog.clear()
                mc = C.resolve_model_config(
                    cfg, frame_channels=14 + (p if include_slow else 0), num_slow=p,
                    plain_channels=14, window=cfg["model"]["window_length"],
                    use_lstm=use_lstm,
                )
            assert mc.caps_kernel == ((1, 8) if include_slow else (1, 7)), (name, variant)
            assert mc.caps_out_hw[1] == 1
            assert any("clamping" in r.message for r in caplog.records) != include_slow
