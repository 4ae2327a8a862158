"""Metrics, error histograms, report artifacts, prediction helpers."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from slowcaps import data as D
from slowcaps import evaluation as E
from slowcaps import features as F
from slowcaps import network as N
from slowcaps.pipeline import FeatureSettings, build_frames, fit_features

import oracles


# ---------------------------------------------------------------- metrics


def test_rmse_unit_values(rng):
    truth = np.array([10.0, 20.0, 30.0, 40.0])
    pred = truth + np.array([1.0, -2.0, 2.0, -1.0])
    assert E.rmse(pred, truth) == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert E.rmse(truth, truth) == 0.0
    d = rng.normal(size=50) * 20
    assert E.rmse(d + 5.0, np.full(50, 5.0)) == pytest.approx(
        oracles.rmse_oracle(d), rel=1e-12
    )


def test_score_unit_values(rng):
    # ten cycles late costs e - 1; thirteen cycles early costs the same
    assert E.scoring_function([20.0], [10.0]) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert E.scoring_function([10.0], [23.0]) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert E.scoring_function([7.0], [7.0]) == 0.0
    # late predictions are penalized harder than early ones of equal size
    late = E.scoring_function([20.0], [10.0])
    early = E.scoring_function([10.0], [20.0])
    assert late > early > 0.0
    d = rng.normal(size=40) * 15
    assert E.scoring_function(d, np.zeros(40)) == pytest.approx(
        oracles.score_oracle(d), rel=1e-12
    )


def test_metrics_validation():
    with pytest.raises(ValueError, match="mismatch"):
        E.rmse([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="no predictions"):
        E.scoring_function([], [])


# -------------------------------------------------------- error histogram


def test_error_distribution_hand_case():
    out = E.error_distribution([-1.0, 0.0, 1.0], edges=(-10.0, 0.0, 10.0))
    assert out["counts"] == [1, 2]  # [-10, 0) holds -1; [0, 10] holds 0 and 1
    assert out["underflow"] == 0 and out["overflow"] == 0
    assert out["edges"] == [-10.0, 0.0, 10.0]


def test_error_distribution_boundaries():
    out = E.error_distribution(
        [-10.0, 10.0, -10.5, 10.5], edges=(-10.0, 0.0, 10.0)
    )
    # first edge closed, last interior band closed on the right
    assert out["counts"] == [1, 1]
    assert out["underflow"] == 1 and out["overflow"] == 1


def test_error_distribution_validation():
    with pytest.raises(ValueError, match="edges"):
        E.error_distribution([1.0], edges=(0.0,))
    with pytest.raises(ValueError, match="increasing"):
        E.error_distribution([1.0], edges=(0.0, 0.0, 1.0))


# ---------------------------------------------------------------- reports


def test_build_report_clips_predictions():
    rep = E.build_report(
        ["a", "b", "c"], [0.0, 125.0, 50.0], [-5.0, 130.0, 60.0],
        rul_max=125.0,
    )
    assert [r["predicted_rul"] for r in rep.rows] == [0.0, 125.0, 60.0]
    assert [r["error"] for r in rep.rows] == [0.0, 0.0, 10.0]
    assert rep.rmse == pytest.approx(math.sqrt(100.0 / 3.0), rel=1e-12)
    assert rep.clipped and rep.rul_max == 125.0
    raw = E.build_report(
        ["a", "b", "c"], [0.0, 125.0, 50.0], [-5.0, 130.0, 60.0], clip=False
    )
    assert [r["error"] for r in raw.rows] == [-5.0, 5.0, 10.0]
    with pytest.raises(ValueError, match="rul_max"):
        E.build_report(["a"], [1.0], [2.0], clip=True, rul_max=None)
    with pytest.raises(ValueError, match="disagree"):
        E.build_report(["a", "b"], [1.0], [2.0], rul_max=10.0)


def test_report_roundtrip_and_determinism(tmp_path):
    rep = E.build_report(
        ["u1", "u2"], [30.0, 60.0], [28.0, 66.0],
        variant="full", seed=3, rul_max=125.0, extra={"note": 1},
    )
    paths = E.emit_report(rep, tmp_path / "a", stem="eval")
    again = E.emit_report(rep, tmp_path / "b", stem="eval")
    assert paths["json"].read_bytes() == again["json"].read_bytes()
    assert paths["csv"].read_bytes() == again["csv"].read_bytes()
    loaded = json.loads(paths["json"].read_text())
    assert loaded == asdict(rep)
    assert loaded["schema_version"] == E.SCHEMA_VERSION
    assert loaded["variant"] == "full" and loaded["seed"] == 3
    assert loaded["extra"] == {"note": 1}
    csv_text = paths["csv"].read_text()
    assert csv_text.splitlines()[0] == "unit,true_rul,predicted_rul,error"
    assert csv_text.splitlines()[1] == "u1,30.0,28.0,-2.0"


# ------------------------------------------------ model-facing evaluation


@pytest.fixture(scope="module")
def fitted():
    spec = D.SyntheticSpec(units=4, channels=4, latents=2,
                           periods=(41.0, 13.0), length_range=(60, 70),
                           rul_max=25.0)
    series = D.generate_synthetic(spec, seed=21)["series"]
    settings = FeatureSettings(rul_max=25.0, num_slow=2, window=5)
    pipe, _, _ = fit_features(series, settings)
    cfg = N.ModelConfig(
        window_length=5, in_channels=pipe.frame_channels, conv_filters=8,
        conv_kernel=(1, 2), conv_stride=(1, 2), caps_dim=4,
        num_advanced=2, advanced_dim=6, routing_iterations=2,
        lstm_units=5, sequence_length=3, fnn_widths=(7, 1),
    )
    params = N.init_parameters(cfg, np.random.default_rng(0))
    return series, pipe, cfg, params


def test_final_sequence_tail_alignment(fitted):
    series, pipe, cfg, _ = fitted
    raw = series[0].sensors
    seq = E.final_sequence(raw, pipe, 3)
    hybrid = pipe.transform(raw)
    assert seq.shape == (3, 5, pipe.frame_channels)
    np.testing.assert_array_equal(seq[-1], hybrid[-5:])
    np.testing.assert_array_equal(seq[-2], hybrid[-6:-1])
    with pytest.raises(ValueError):
        E.final_sequence(raw, pipe, 0)


def test_final_sequence_pads_short_series(fitted):
    series, pipe, cfg, _ = fitted
    raw = series[0].sensors[:4]  # needs window + seq - 1 = 7 rows
    hybrid = pipe.transform(raw)
    seq = E.final_sequence(raw, pipe, 3)
    padded = np.vstack([np.repeat(hybrid[:1], 3, axis=0), hybrid])
    np.testing.assert_array_equal(seq[0], padded[0:5])
    np.testing.assert_array_equal(seq[2], padded[2:7])
    np.testing.assert_array_equal(seq[2][-1], hybrid[-1])  # ends at last row
    assert seq.flags.c_contiguous
    assert seq.tobytes() == np.stack([padded[s : s + 5] for s in range(3)]).tobytes()


def test_last_point_predictions_alignment(fitted):
    series, pipe, cfg, params = fitted
    ids, preds = E.last_point_predictions(params, cfg, pipe, series,
                                          label_scale=25.0)
    assert ids == [s.unit_id for s in series]
    assert preds.shape == (len(series),)
    seqs = np.stack([E.final_sequence(s.sensors, pipe, 3) for s in series])
    np.testing.assert_allclose(preds, N.predict(seqs, params, cfg, 25.0),
                               atol=1e-12)
    # a per-condition pipeline standardizes each unit by its own settings
    cond = F.ConditionNormalizer(
        centers=np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]]),
        means=np.array([[0.5] * 4, [-3.0] * 4]),
        stds=np.array([[2.0] * 4, [0.5] * 4]),
    )
    mixed = list(series)
    mixed[1] = D.RunToFailureSeries(
        unit_id=series[1].unit_id, sensors=series[1].sensors,
        change_point=series[1].change_point,
        settings=np.full_like(series[1].settings, 10.0),
    )
    _, shifted = E.last_point_predictions(
        params, cfg, replace(pipe, condition=cond), mixed, label_scale=25.0,
    )
    seqs = np.stack([E.final_sequence(cond.apply(s.sensors, s.settings), pipe, 3)
                     for s in mixed])
    np.testing.assert_allclose(shifted, N.predict(seqs, params, cfg, 25.0),
                               atol=1e-12)
    assert not np.allclose(preds, shifted)
    with pytest.raises(ValueError, match="units"):
        E.last_point_predictions(params, cfg, pipe, [])


def test_sequence_predictions_dense(fitted):
    series, pipe, cfg, params = fitted
    batch = build_frames(series[:2], pipe, rul_max=25.0)
    preds, y, uids = E.sequence_predictions(
        params, cfg, batch.frames, batch.labels, batch.unit_ids, 3,
        label_scale=25.0, chunk=7,
    )
    assert preds.shape == y.shape == uids.shape
    from slowcaps.training import build_sequences

    x, y2, _ = build_sequences(batch.frames, batch.labels, batch.unit_ids, 3)
    np.testing.assert_array_equal(y, y2)
    for i in (0, 5, len(y) - 1):  # spot-check chunked vs direct
        np.testing.assert_allclose(
            preds[i], N.predict(x[i][None], params, cfg, 25.0)[0], atol=1e-12
        )
