"""Feature-chain orchestration, per-condition normalization, milling
adapters, and the architecture ablation driver."""

import dataclasses
import logging

import numpy as np
import pytest

from slowcaps import checkpoint as ckpt
from slowcaps import data as D
from slowcaps import features as F
from slowcaps import network as N
from slowcaps import pipeline as P
from slowcaps.training import TrainConfig


def planted_series(seed=17, units=8):
    spec = D.SyntheticSpec(units=units, channels=5, latents=2,
                           periods=(430.0, 170.0), drift_slope=0.02,
                           noise_scale=0.1, length_range=(260, 300),
                           rul_max=100.0)
    return D.generate_synthetic(spec, seed)["series"]


# ---------------------------------------------------------- feature chain


def test_fit_features_recovers_planted_structure():
    series = planted_series()
    pipe, diag, condition = P.fit_features(
        series, P.FeatureSettings(rul_max=100.0)
    )
    assert condition is None
    # two slow sinusoidal latents against three fast noise directions
    assert pipe.num_slow == 2
    assert np.all(pipe.sfa.lambdas[:2] < 0.1)
    assert np.all(pipe.sfa.lambdas[2:] > 1.5)
    assert pipe.window == 24
    assert diag.acf is not None
    # ~100 degradation rows per unit: band 2 / sqrt(100)
    assert diag.acf_band == pytest.approx(0.2, abs=0.02)
    assert np.flatnonzero(pipe.channel_mask).tolist() == [0, 1, 2, 3, 4]
    assert pipe.sfa.ridge > 0.0
    assert pipe.frame_channels == 7  # five channels + two slow features


def test_fit_features_noise_band_uses_mean_degradation_length():
    series = planted_series(units=4)
    keep = [s.change_point + n for s, n in zip(series, (40, 61, 100, 100))]
    cut = [D.RunToFailureSeries(unit_id=s.unit_id, sensors=s.sensors[:k],
                                change_point=s.change_point, settings=s.settings[:k])
           for s, k in zip(series, keep)]
    _, diag, _ = P.fit_features(cut, P.FeatureSettings(rul_max=100.0, num_slow=2))
    assert diag.acf_band == 2.0 / np.sqrt(75)  # round(mean(40, 61, 100, 100))
    assert diag.acf.size == 39  # the shortest stage bounds the averaged lags


def test_fit_features_pinned_settings():
    series = planted_series(units=4)
    pipe, diag, _ = P.fit_features(
        series, P.FeatureSettings(rul_max=100.0, num_slow=1, window=9)
    )
    assert pipe.sfa.num_slow == 1 and pipe.num_slow == 1
    assert pipe.window == 9
    assert diag.acf is None and diag.acf_band is None
    with pytest.raises(ValueError, match="num_slow"):
        P.fit_features(series, P.FeatureSettings(num_slow=99))
    with pytest.raises(ValueError, match="window"):
        P.fit_features(series, P.FeatureSettings(num_slow=1, window=0))
    with pytest.raises(ValueError, match="units"):
        P.fit_features([], P.FeatureSettings())


def test_fit_features_drops_constant_channels():
    series = planted_series(units=4)
    widened = [
        D.RunToFailureSeries(
            unit_id=s.unit_id,
            sensors=np.hstack([s.sensors[:, :3], np.full((s.length, 1), 7.5),
                               s.sensors[:, 3:]]),
            change_point=s.change_point,
            settings=s.settings,
        )
        for s in series
    ]
    pipe, _, _ = P.fit_features(
        widened, P.FeatureSettings(rul_max=100.0, num_slow=2, window=6)
    )
    assert np.flatnonzero(pipe.channel_mask).tolist() == [0, 1, 2, 4, 5]
    assert pipe.frame_channels == 5 + 2
    hybrid = pipe.transform(widened[0].sensors)
    assert hybrid.shape == (widened[0].length, 7)


def test_build_frames_layout(caplog):
    series = planted_series(units=3)
    settings = P.FeatureSettings(rul_max=8.0, num_slow=2, window=4)
    pipe, _, _ = P.fit_features(series, settings)
    batch = P.build_frames(series, pipe, rul_max=8.0)
    s0 = series[0]
    cp, k = s0.change_point, s0.length
    sel = np.flatnonzero(batch.unit_ids == s0.unit_id)
    n0 = (k - cp) - 4 + 1
    np.testing.assert_array_equal(sel, np.arange(n0))
    # frame content matches the hybrid rows ending at rows cp + 4 .. k
    hybrid = pipe.transform(s0.sensors)
    for end, frame in zip(range(cp + 4, k + 1), batch.frames[sel]):
        np.testing.assert_allclose(frame, hybrid[end - 4 : end], atol=1e-12)
    # labels follow the capped countdown from the change point; the first
    # frame already spans four degradation rows, so its label is 8 - 4
    expected = F.piecewise_rul_labels(k, cp, 8.0)[cp:][3:]
    np.testing.assert_array_equal(batch.labels[sel], expected)
    assert batch.labels[sel][0] == 4.0 and batch.labels[sel][-1] == 0.0


def test_build_frames_skips_too_short_units(caplog):
    series = planted_series(units=3)
    settings = P.FeatureSettings(rul_max=100.0, num_slow=1, window=4)
    pipe, _, _ = P.fit_features(series, settings)
    stub = D.RunToFailureSeries(
        unit_id="stub", sensors=series[0].sensors[:52],
        change_point=50, settings=series[0].settings[:52],
    )
    with caplog.at_level(logging.WARNING, logger="slowcaps.features"):
        batch = P.build_frames(series + [stub], pipe, rul_max=100.0)
    assert "stub" not in set(batch.unit_ids)
    assert any("stub" in r.message for r in caplog.records)


def test_build_frames_rejects_a_window_no_unit_fills(caplog):
    series = planted_series(units=3)
    pipe, _, _ = P.fit_features(series, P.FeatureSettings(num_slow=1, window=4))
    longest = max(s.length - s.change_point for s in series)
    wide = dataclasses.replace(pipe, window=longest + 1)
    with caplog.at_level(logging.WARNING, logger="slowcaps.features"):
        with pytest.raises(ValueError, match=f"window {longest + 1} is longer than every "
                           f"unit's degradation stage \\(at most {longest} rows\\)"):
            P.build_frames(series, wide, rul_max=8.0)
    assert not caplog.records  # no warning per unit first
    assert len(P.build_frames(series, dataclasses.replace(pipe, window=longest), 8.0)) >= 1
    cuts = [P.milling_run_series(r) for r in milling_runs()]
    cut_pipe, _, _ = P.fit_features(cuts, P.FeatureSettings(num_slow=2, window=61))
    with pytest.raises(ValueError, match="window 61 is longer than every unit's cut "
                       "\\(at most 60 rows\\)"):
        P.build_frames_milling(cuts, cut_pipe)


# --------------------------------------------- per-condition normalization


def condition_series(n=4, rows=40):
    """Alternating operating conditions with very different sensor scales."""
    rng = np.random.default_rng(100)
    out = []
    for u in range(n):
        settings = np.zeros((rows, 3))
        sensors = np.empty((rows, 2))
        for i in range(rows):
            if i % 2 == 0:
                settings[i] = (0.0, 0.0, 100.0)
                sensors[i] = rng.normal(0.0, 1.0, size=2)
            else:
                settings[i] = (20.0, 0.7, 100.0)
                sensors[i] = rng.normal(50.0, 5.0, size=2)
        out.append(D.RunToFailureSeries(
            unit_id=f"u{u}", sensors=sensors, change_point=rows - 10,
            settings=settings,
        ))
    return out


def test_condition_normalizer_fit_and_apply():
    series = condition_series()
    norm = F.fit_condition_normalizer(series)
    assert norm.centers.shape == (2, 3)
    np.testing.assert_array_equal(norm.centers[0], (0.0, 0.0, 100.0))
    np.testing.assert_array_equal(norm.centers[1], (20.0, 0.7, 100.0))
    s = series[0]
    z = norm.apply(s.sensors, s.settings)
    # both condition groups land near zero mean, unit scale
    for r in (0, 1):
        grp = z[r::2]
        assert np.all(np.abs(grp.mean(axis=0)) < 0.5)
        assert np.all(grp.std(axis=0) < 2.0)
    # without normalization the groups sit fifty units apart
    assert abs(s.sensors[1::2].mean() - s.sensors[0::2].mean()) > 40.0
    assert abs(z[1::2].mean() - z[0::2].mean()) < 1.0
    # rows are matched to the nearest center, not an exact key
    z2 = norm.apply(s.sensors[:2], s.settings[:2] + 0.04)
    np.testing.assert_allclose(z2, z[:2], atol=1e-12)
    with pytest.raises(ValueError, match="settings"):
        norm.apply(s.sensors, None)


def test_condition_normalizer_validation():
    bare = D.RunToFailureSeries("x", np.zeros((4, 2)) + np.arange(4)[:, None],
                                change_point=3)
    with pytest.raises(ValueError, match="settings"):
        F.fit_condition_normalizer([bare])
    lone = D.RunToFailureSeries(
        "y", np.random.default_rng(0).normal(size=(3, 2)), change_point=3,
        settings=np.array([[0.0, 0, 0], [0.0, 0, 0], [9.0, 9, 9]]),
    )
    with pytest.raises(ValueError, match="fewer than two"):
        F.fit_condition_normalizer([lone])


def test_fit_features_per_condition():
    series = condition_series()
    pipe, _, condition = P.fit_features(
        series, P.FeatureSettings(rul_max=10.0, num_slow=1, window=3,
                                  per_condition=True)
    )
    assert condition is not None and condition is pipe.condition
    assert condition.centers.shape == (2, 3)
    # the fitted chain standardizes by condition before the shared z-score
    s = series[0]
    z = F.apply_normalizer(condition.apply(s.sensors, s.settings)[:, pipe.channel_mask],
                           pipe.stats)
    slow = pipe.sfa.project(z, pipe.num_slow)
    assert z.shape == (40, 2) and slow.shape == (40, 1)
    bare = F.FeaturePipeline(channel_mask=pipe.channel_mask, stats=pipe.stats,
                             sfa=pipe.sfa, window=pipe.window)
    np.testing.assert_array_equal(bare.transform(condition.apply(s.sensors, s.settings)),
                                  np.hstack([z, slow]))
    np.testing.assert_array_equal(pipe.transform(s.sensors, s.settings),
                                  np.hstack([z, slow]))
    with pytest.raises(ValueError, match="settings"):
        pipe.transform(s.sensors)
    batch = P.build_frames(series, pipe, rul_max=10.0)
    np.testing.assert_array_equal(batch.frames[0], np.hstack([z, slow])[30:33])


def test_per_condition_pipeline_round_trip_and_variant():
    series = condition_series()
    pipe, _, _ = P.fit_features(
        series, P.FeatureSettings(rul_max=10.0, num_slow=1, window=3,
                                  per_condition=True)
    )
    s = series[1]
    z = F.apply_normalizer(
        pipe.condition.apply(s.sensors, s.settings)[:, pipe.channel_mask], pipe.stats)
    slow = pipe.sfa.project(z, pipe.num_slow)
    np.testing.assert_array_equal(pipe.transform(s.sensors, s.settings),
                                  np.hstack([z, slow]))
    text = ckpt.dumps_arrays(F.pipeline_to_arrays(pipe))
    back = F.pipeline_from_arrays(ckpt.loads_arrays(text))
    np.testing.assert_array_equal(back.condition.centers, pipe.condition.centers)
    np.testing.assert_array_equal(back.transform(s.sensors, s.settings),
                                  np.hstack([z, slow]))
    plain = pipe.without_slow()
    assert plain.condition is pipe.condition
    cols = plain.transform(s.sensors, s.settings)
    np.testing.assert_array_equal(cols, z)
    assert cols.shape == (40, plain.frame_channels) == (40, 2)
    # a pipeline fitted without conditions stores none
    flat, _, _ = P.fit_features(series, P.FeatureSettings(num_slow=1, window=3))
    assert not any(k.startswith("condition_") for k in F.pipeline_to_arrays(flat))
    assert F.pipeline_from_arrays(F.pipeline_to_arrays(flat)).condition is None


# ----------------------------------------------------------- milling path


def milling_runs(cases=3, runs_per_case=3, samples=60):
    rng = np.random.default_rng(7)
    out = []
    for c in range(1, cases + 1):
        for r in range(1, runs_per_case + 1):
            t = np.arange(samples)
            base = np.stack([
                np.sin(2 * np.pi * t / (20.0 + 3 * ch)) for ch in range(4)
            ], axis=1)
            sensors = base + rng.normal(0, 0.3, size=(samples, 4))
            out.append(D.MillingRun(
                case_id=c, run_id=r, material=1 + (c % 2),
                params=np.array([1.5, 0.5, 200.0]), sensors=sensors,
                wear=0.1 * r, wear_filled=0.1 * r,
                rul=float(runs_per_case - r), is_normal=r == 1,
            ))
    return out


def test_fit_features_milling_and_frames():
    runs = milling_runs()
    series = [P.milling_run_series(r) for r in runs]
    pipe, _, _ = P.fit_features(series, P.FeatureSettings(num_slow=2, window=10))
    assert pipe.num_slow == 2 and pipe.window == 10
    assert pipe.frame_channels == 4 + 2
    # only the first cut of each case feeds the normal-stage statistics
    stats = F.fit_normalizer([r.sensors for r in runs if r.is_normal])
    np.testing.assert_allclose(pipe.stats.mean, stats.mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pipe.stats.std, stats.std, rtol=0, atol=1e-12)
    batch = P.build_frames_milling(series, pipe)
    assert set(batch.unit_ids) == {r.unit_id for r in runs}
    for r in runs[:3]:
        # every row of the cut, the normal first cut included
        sel = np.flatnonzero(batch.unit_ids == r.unit_id)
        assert sel.size == 60 - 10 + 1
        np.testing.assert_array_equal(batch.labels[sel], r.rul)
        hybrid = pipe.transform(r.sensors)
        for end, frame in zip(range(10, 61), batch.frames[sel]):
            np.testing.assert_allclose(frame, hybrid[end - 10 : end], rtol=0, atol=1e-12)
    # automatic window selection from the degraded cuts stays sane and
    # reports its noise band like any series fit
    pipe_auto, diag_auto, _ = P.fit_features(series, P.FeatureSettings(num_slow=2))
    assert 1 <= pipe_auto.window <= 60
    assert diag_auto.acf is not None
    assert diag_auto.acf_band == 2.0 / np.sqrt(60)


def test_fit_features_milling_validation():
    runs = milling_runs()
    with pytest.raises(ValueError, match="window"):
        P.fit_features([P.milling_run_series(r) for r in runs],
                       P.FeatureSettings(num_slow=1, window=0))
    for r in runs:
        r.is_normal = False
    with pytest.raises(ValueError, match="normal"):
        P.fit_features([P.milling_run_series(r) for r in runs],
                       P.FeatureSettings(num_slow=1, window=5))


def test_milling_run_series_wrapper():
    first, run = milling_runs()[:2]
    assert first.is_normal and not run.is_normal
    s = P.milling_run_series(run)
    assert s.unit_id == run.unit_id
    assert s.change_point == 0  # a worn cut is all degradation
    assert s.true_rul == run.rul
    assert P.milling_run_series(first).change_point == first.sensors.shape[0]


# --------------------------------------------------------------- ablation


def test_variant_flags():
    assert P.variant_flags("full") == (True, True)
    assert P.variant_flags("no-sfa") == (False, True)
    assert P.variant_flags("no-lstm") == (True, False)
    assert P.variant_flags("plain-capsnet") == (False, False)
    with pytest.raises(ValueError, match="variant"):
        P.variant_flags("half")


def ablation_inputs():
    series = planted_series(seed=23, units=6)
    train, test = series[:4], []
    for s in series[4:]:
        keep = s.length - 15
        test.append(D.RunToFailureSeries(
            unit_id=s.unit_id, sensors=s.sensors[:keep],
            change_point=min(s.change_point, keep),
            settings=s.settings[:keep], true_rul=15.0,
        ))
    settings = P.FeatureSettings(rul_max=20.0, num_slow=2, window=6)

    def make_config(pipe, variant):
        _, use_lstm = P.variant_flags(variant)
        return N.ModelConfig(
            window_length=pipe.window, in_channels=pipe.frame_channels,
            conv_filters=8, conv_kernel=(1, 2), conv_stride=(1, 2),
            caps_dim=4, num_advanced=2, advanced_dim=6,
            routing_iterations=2, lstm_units=5,
            sequence_length=3 if use_lstm else 1, use_lstm=use_lstm,
            fnn_widths=(7, 1), dropout=0.1,
        )

    cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=5e-3,
                      validation_fraction=0.25, seed=5)
    return train, test, settings, make_config, cfg


def test_ablation_run_serial():
    train, test, settings, make_config, cfg = ablation_inputs()
    variants = ("full", "no-sfa", "no-lstm")
    result = P.ablation_run(train, test, settings, make_config, cfg,
                            variants=variants)
    assert list(result.reports) == list(variants)
    assert [row["variant"] for row in result.summary_rows] == list(variants)
    for v in variants:
        rep = result.reports[v]
        assert rep.variant == v
        assert len(rep.rows) == len(test)
        assert np.isfinite(rep.rmse)
        assert result.summary_rows[list(variants).index(v)]["parameters"] == \
            result.train_reports[v].parameter_count
    # slow-feature columns change the input width, hence the size
    assert result.train_reports["full"].parameter_count != \
        result.train_reports["no-sfa"].parameter_count


def test_ablation_run_dense_mode_and_validation():
    train, test, settings, make_config, cfg = ablation_inputs()
    result = P.ablation_run(train, test, settings, make_config, cfg,
                            variants=("full",), eval_mode="dense")
    # dense scoring yields one row per frame sequence, not per unit
    assert len(result.reports["full"].rows) > len(test)
    with pytest.raises(ValueError, match="eval mode"):
        P.ablation_run(train, test, settings, make_config, cfg,
                       variants=("full",), eval_mode="sparse")

    def bad_config(pipe, variant):
        cfgm = make_config(pipe, "full")  # always claims an LSTM head
        return cfgm

    with pytest.raises(ValueError, match="disagrees"):
        P.ablation_run(train, test, settings, bad_config, cfg,
                       variants=("no-lstm",))
