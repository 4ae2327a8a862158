"""Fitting loop, hyper-parameter derivation rules, sensitivity search."""

from dataclasses import asdict

import numpy as np
import pytest

from slowcaps import config as C
from slowcaps import network as N
from slowcaps import training as TR
from slowcaps.checkpoint import dumps_arrays
from slowcaps.features import FrameBatch

import oracles


def tiny_config(**kw):
    base = dict(
        window_length=12, in_channels=6, conv_filters=8,
        conv_kernel=(1, 2), conv_stride=(1, 2), caps_dim=4,
        num_advanced=2, advanced_dim=6, routing_iterations=2,
        lstm_units=5, sequence_length=3, fnn_widths=(7, 1), dropout=0.1,
    )
    base.update(kw)
    return N.ModelConfig(**base)


def make_batch(seed=0, n_units=4, n_frames=20):
    """Frames drifting along a fixed direction as the label ramps down."""
    rng = np.random.default_rng(seed)
    frames, labels, uids = [], [], []
    direction = rng.normal(size=(12, 6))
    direction /= np.linalg.norm(direction)
    for u in range(n_units):
        base = rng.normal(size=(12, 6)) * 0.1
        for t in range(n_frames):
            lab = 1.0 - t / (n_frames - 1)
            frames.append(
                base + (1.0 - lab) * direction + 0.05 * rng.normal(size=(12, 6))
            )
            labels.append(lab)
            uids.append(f"u{u}")
    return FrameBatch(np.array(frames), np.array(labels), np.array(uids))


# ------------------------------------------------------------- validation


def test_train_config_validation():
    assert TR.TrainConfig().epochs == 50
    with pytest.raises(ValueError, match=r"epochs.*batch_size"):
        TR.TrainConfig(epochs=0, batch_size=0)
    with pytest.raises(ValueError, match="validation_fraction"):
        TR.TrainConfig(validation_fraction=1.0)
    with pytest.raises(ValueError, match="label_scale"):
        TR.TrainConfig(label_scale=0.0)


# -------------------------------------------------------------- sequences


def test_build_sequences_hand_layout():
    frames = np.arange(6 * 2 * 3, dtype=float).reshape(6, 2, 3)
    labels = np.array([10.0, 11.0, 12.0, 20.0, 21.0, 30.0])
    uids = np.array(["a", "a", "a", "b", "b", "c"])
    x, y, u = TR.build_sequences(frames, labels, uids, 2)
    # unit a gives two runs, unit b one, unit c is too short
    assert x.shape == (3, 2, 2, 3)
    np.testing.assert_array_equal(x[0], frames[[0, 1]])
    np.testing.assert_array_equal(x[1], frames[[1, 2]])
    np.testing.assert_array_equal(x[2], frames[[3, 4]])
    np.testing.assert_array_equal(y, [11.0, 12.0, 21.0])  # last frame labels
    np.testing.assert_array_equal(u, ["a", "a", "b"])


def test_sequence_index_is_the_build_sequences_rule():
    uids = np.array(["a"] * 4 + ["b"] * 2 + ["c"] * 3)
    idx = TR.sequence_index(uids, 3)
    # unit b is too short; every row is a run within one unit
    np.testing.assert_array_equal(idx, [[0, 1, 2], [1, 2, 3], [6, 7, 8]])
    assert idx.dtype == np.int64
    frames = np.arange(9 * 2.0).reshape(9, 2, 1)
    x, y, u = TR.build_sequences(frames, np.arange(9.0), uids, 3)
    np.testing.assert_array_equal(x, frames[idx])
    np.testing.assert_array_equal(y, [2.0, 3.0, 8.0])
    np.testing.assert_array_equal(u, ["a", "a", "c"])
    with pytest.raises(ValueError, match="consecutive"):
        TR.sequence_index(uids, 5)


def test_build_sequences_unit_length_one():
    frames = np.zeros((4, 2, 2))
    labels = np.arange(4.0)
    uids = np.array(["a", "a", "b", "b"])
    x, y, u = TR.build_sequences(frames, labels, uids, 1)
    assert x.shape == (4, 1, 2, 2)
    np.testing.assert_array_equal(y, labels)


def test_build_sequences_validation():
    frames = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        TR.build_sequences(frames, np.zeros(2), np.array(["a", "b"]), 0)
    with pytest.raises(ValueError, match="consecutive"):
        TR.build_sequences(frames, np.zeros(2), np.array(["a", "b"]), 3)


def test_split_unit_ids():
    rng = np.random.default_rng(5)
    units = [f"u{i}" for i in range(10)]
    tr, va = TR.split_unit_ids(units, 0.3, rng)
    assert len(va) == 3 and len(tr) == 7
    assert sorted(tr + va) == sorted(units)
    # at least one unit on each side regardless of rounding
    tr2, va2 = TR.split_unit_ids(["a", "b"], 0.01, np.random.default_rng(0))
    assert len(va2) == 1 and len(tr2) == 1
    tr3, va3 = TR.split_unit_ids(["a", "b"], 0.99, np.random.default_rng(0))
    assert len(va3) == 1 and len(tr3) == 1
    with pytest.raises(ValueError):
        TR.split_unit_ids(["a"], 0.5, rng)
    # same rng seed, same split
    a = TR.split_unit_ids(units, 0.3, np.random.default_rng(7))
    b = TR.split_unit_ids(units, 0.3, np.random.default_rng(7))
    assert a == b


# --------------------------------------------------------------- training


def test_train_decreases_loss_and_counts_sequences():
    cfg = tiny_config()
    batch = make_batch()
    tc = TR.TrainConfig(epochs=8, batch_size=16, learning_rate=5e-3,
                        validation_fraction=0.25, seed=11)
    params, rep = TR.train(cfg, batch, tc)
    assert rep.train_loss[-1] < 0.6 * rep.train_loss[0]
    assert min(rep.val_loss) < 0.6 * rep.val_loss[0]
    # 4 units x (20 - 3 + 1) sequences, one unit held out
    assert rep.train_sequences == 54
    assert rep.val_sequences == 18
    assert rep.parameter_count == N.parameter_count(params)
    assert len(rep.train_loss) == len(rep.val_loss) == 8
    # returned parameters are the best-validation snapshot
    assert rep.val_loss[rep.best_epoch - 1] <= min(rep.val_loss) + tc.min_delta


def test_train_is_bit_deterministic():
    cfg = tiny_config()
    tc = TR.TrainConfig(epochs=3, batch_size=16, learning_rate=5e-3,
                        validation_fraction=0.25, seed=11)
    p1, r1 = TR.train(cfg, make_batch(), tc)
    p2, r2 = TR.train(cfg, make_batch(), tc)
    assert dumps_arrays({k: t.data for k, t in p1.items()}) == dumps_arrays(
        {k: t.data for k, t in p2.items()}
    )
    assert r1.train_loss == r2.train_loss
    assert r1.val_loss == r2.val_loss


def test_train_early_stopping_and_best_snapshot():
    cfg = tiny_config()
    tc = TR.TrainConfig(epochs=30, batch_size=16, learning_rate=5e-3,
                        validation_fraction=0.25, patience=2, min_delta=10.0,
                        seed=11)
    _, rep = TR.train(cfg, make_batch(), tc)
    # nothing can improve on the first epoch by 10 whole units of MSE
    assert rep.stopped_early
    assert rep.best_epoch == 1
    assert len(rep.val_loss) == 1 + tc.patience


def test_train_respects_explicit_validation_units():
    cfg = tiny_config()
    tc = TR.TrainConfig(epochs=2, batch_size=16, validation_fraction=0.25,
                        seed=11)
    _, rep = TR.train(cfg, make_batch(), tc, val_units=["u0", "u1"])
    assert rep.val_sequences == 36
    assert rep.train_sequences == 36
    with pytest.raises(ValueError, match="split"):
        TR.train(cfg, make_batch(), tc, val_units=["u0", "u1", "u2", "u3"])


def test_train_label_scaling_equivalence():
    cfg = tiny_config()
    base = make_batch()
    # power-of-two scale keeps y * 32 / 32 bit-exact
    scaled = FrameBatch(base.frames, base.labels * 32.0, base.unit_ids)
    tc1 = TR.TrainConfig(epochs=3, batch_size=16, learning_rate=5e-3,
                         validation_fraction=0.25, seed=11, label_scale=1.0)
    tc32 = TR.TrainConfig(epochs=3, batch_size=16, learning_rate=5e-3,
                          validation_fraction=0.25, seed=11, label_scale=32.0)
    p1, r1 = TR.train(cfg, base, tc1)
    p32, r32 = TR.train(cfg, scaled, tc32)
    # training sees identical scaled labels, so runs are bit-identical
    assert r1.train_loss == r32.train_loss
    for k in p1:
        np.testing.assert_array_equal(p1[k].data, p32[k].data)
    assert r32.label_scale == 32.0
    frames = base.frames[:3][None]
    np.testing.assert_allclose(
        N.predict(frames, p32, cfg, label_scale=32.0),
        N.predict(frames, p1, cfg, label_scale=1.0) * 32.0,
        atol=1e-12,
    )


def test_train_report_json_dict():
    rep = TR.TrainReport(
        train_loss=[1.0], val_loss=[2.0], best_epoch=1, stopped_early=False,
        parameter_count=10, train_sequences=5, val_sequences=2,
        label_scale=1.0,
    )
    doc = asdict(rep)
    assert "wall_seconds" not in doc
    assert doc["best_epoch"] == 1


# ------------------------------------------------- hyper-parameter rules


def test_derive_hyperparams_from_feature_dims():
    # 2 slow features over 14 sensor channels: the architecture the fitting
    # loop instantiates follows the coupling rules of the resolver
    cfg = C.resolve_model_config(
        C.default_config(), frame_channels=16, num_slow=2, plain_channels=14,
        window=30,
    )
    assert cfg.caps_dim == 8            # floor((2 + 14) / 2)
    assert cfg.conv_filters == 64       # already divisible
    assert cfg.caps_channels == 8
    assert cfg.in_channels == 16        # raw channels + slow features
    assert cfg.num_advanced == 2
    assert cfg.advanced_dim == 16
    assert cfg.window_length == 30
    assert cfg.lstm_units == 16
    params = N.init_parameters(cfg, np.random.default_rng(0))
    assert params["conv.kernel"].data.shape[-1] == 64
    assert params["caps.kernel"].data.shape[-1] == 8 * 8
    assert params["route.transform"].data.shape[1:] == (2, 16, 8)


def test_derive_hyperparams_bumps_filters():
    doc = C.default_config()
    doc["model"]["filters"] = 30
    cfg = C.resolve_model_config(
        doc, frame_channels=16, num_slow=2, plain_channels=14, window=30
    )
    assert cfg.caps_dim == 8
    assert cfg.conv_filters == 32       # next multiple of 8 above 30
    assert cfg.caps_channels == 4
    params = N.init_parameters(cfg, np.random.default_rng(0))
    assert params["conv.kernel"].data.shape[-1] == 32
    assert params["caps.kernel"].data.shape[-1] == 4 * 8


# ------------------------------------------------------ sensitivity grid


def test_cell_seed_is_deterministic_and_distinct():
    assert TR._cell_seed(1, 8, 16) == TR._cell_seed(1, 8, 16)
    assert TR._cell_seed(1, 8, 16) != TR._cell_seed(1, 16, 8)
    assert TR._cell_seed(1, 8, 16) != TR._cell_seed(2, 8, 16)


def grid_config(filters, lstm_units):
    return tiny_config(conv_filters=filters, lstm_units=lstm_units)


def test_sensitivity_grid_full_tiny_run():
    batch = make_batch()
    tc = TR.TrainConfig(epochs=2, batch_size=16, validation_fraction=0.25,
                        seed=11)
    res = TR.sensitivity_grid([8], [4, 5], batch, grid_config, tc, explore="full")
    assert [(c.conv_filters, c.lstm_units) for c in res.cells] == [(8, 4), (8, 5)]
    assert res.best in res.cells
    assert all(np.isfinite(c.rmse) and np.isfinite(c.score) for c in res.cells)
    assert res.best.rmse == min(c.rmse for c in res.cells)
    rows = [asdict(c) for c in res.cells]
    assert rows[0].keys() == {
        "conv_filters", "lstm_units", "rmse", "score", "seed", "best_epoch"
    }


def _patch_grid_costs(monkeypatch, rmse_map):
    """Replace the inner training with a table lookup for policy tests."""

    def fake_train(config, batch, cell_cfg, val_units=None):
        rep = TR.TrainReport(
            train_loss=[0.0], val_loss=[0.0], best_epoch=1,
            stopped_early=False, parameter_count=0, train_sequences=1,
            val_sequences=1, label_scale=1.0,
        )
        return {"cfg": config}, rep

    def fake_predict(x, params, config, label_scale=1.0, chunk=512, index=None):
        key = (params["cfg"].conv_filters, params["cfg"].lstm_units)
        return np.full(len(x if index is None else index), float(rmse_map[key]))

    monkeypatch.setattr(TR, "train", fake_train)
    monkeypatch.setattr(TR.network, "predict", fake_predict)


def test_sensitivity_grid_greedy_stopping_rules(monkeypatch):
    # constant-offset predictions against zero labels: rmse == offset
    rmse_map = {
        (8, 4): 5.0, (8, 8): 6.0, (8, 16): 4.0,      # row stops before 16
        (16, 4): 7.0, (16, 8): 6.5, (16, 16): 8.0,   # improves row, not global
        (24, 4): 1.0, (24, 8): 1.0, (24, 16): 1.0,   # never reached
    }
    _patch_grid_costs(monkeypatch, rmse_map)
    batch = FrameBatch(
        np.zeros((8, 12, 6)), np.zeros(8),
        np.array(["a"] * 4 + ["b"] * 4),
    )
    tc = TR.TrainConfig(epochs=1, validation_fraction=0.5, seed=0)
    res = TR.sensitivity_grid([8, 16, 24], [4, 8, 16], batch, grid_config, tc,
                              explore="greedy")
    assert [(c.conv_filters, c.lstm_units) for c in res.cells] == [
        (8, 4), (8, 8), (16, 4), (16, 8), (16, 16)
    ]
    assert (res.best.conv_filters, res.best.lstm_units) == (8, 4)
    # full mode scans everything and finds the far corner
    res_full = TR.sensitivity_grid([8, 16, 24], [4, 8, 16], batch, grid_config, tc,
                                   explore="full")
    assert len(res_full.cells) == 9
    assert res_full.best.conv_filters == 24


def test_sensitivity_grid_rows_keep_the_candidates(monkeypatch):
    # the config may adjust a candidate (here: bump 10 filters to 12);
    # rows and seeds still name the candidate
    _patch_grid_costs(monkeypatch, {(12, 4): 2.0, (12, 5): 1.0})
    batch = FrameBatch(
        np.zeros((8, 12, 6)), np.zeros(8),
        np.array(["a"] * 4 + ["b"] * 4),
    )
    tc = TR.TrainConfig(epochs=1, validation_fraction=0.5, seed=3)
    asked = []

    def bumped(filters, lstm_units):
        asked.append((filters, lstm_units))
        return grid_config(12 if filters == 10 else filters, lstm_units)

    res = TR.sensitivity_grid([10], [4, 5], batch, bumped, tc, explore="full")
    assert asked == [(10, 4), (10, 5)]
    assert [(c.conv_filters, c.lstm_units, c.rmse) for c in res.cells] == [
        (10, 4, 2.0), (10, 5, 1.0)]
    assert [c.seed for c in res.cells] == [TR._cell_seed(3, 10, u) for u in (4, 5)]


def test_sensitivity_grid_validation():
    batch = make_batch()
    tc = TR.TrainConfig(seed=0, validation_fraction=0.25)
    with pytest.raises(ValueError, match="nonempty"):
        TR.sensitivity_grid([], [4], batch, grid_config, tc)
    with pytest.raises(ValueError, match="exploration"):
        TR.sensitivity_grid([8], [4], batch, grid_config, tc, explore="beam")
