"""Feature-chain orchestration, per-condition normalization, milling
adapters, and the ablation variants' flags."""

import dataclasses
import logging

import numpy as np
import pytest

from slowcaps import checkpoint as ckpt
from slowcaps import data as D
from slowcaps import features as F
from slowcaps import pipeline as P

from test_data import milling_csv


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
    cuts = milling_runs()
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


def test_condition_normalizer_error_prints_plain_settings():
    # two units whose normal rows all sit at (0, 0, 0) except one row at
    # (10, 0.3, 100): that condition has one sample
    rng = np.random.default_rng(1)
    units = []
    for u in range(2):
        settings = np.zeros((6, 3))
        if u == 1:
            settings[2] = (10.0, 0.3, 100.0)
        units.append(D.RunToFailureSeries(f"u{u}", rng.normal(size=(6, 2)),
                                          change_point=6, settings=settings))
    with pytest.raises(ValueError) as info:
        F.fit_condition_normalizer(units)
    assert str(info.value) == \
        "operating condition (10.0, 0.3, 100.0) has fewer than two normal samples"


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
    """Cuts as ``data.load_milling`` returns them: the first cut of each
    case all normal stage, every later cut all wear."""
    rng = np.random.default_rng(7)
    out = []
    for c in range(1, cases + 1):
        for r in range(1, runs_per_case + 1):
            t = np.arange(samples)
            base = np.stack([
                np.sin(2 * np.pi * t / (20.0 + 3 * ch)) for ch in range(4)
            ], axis=1)
            sensors = base + rng.normal(0, 0.3, size=(samples, 4))
            out.append(D.RunToFailureSeries(
                unit_id=f"c{c:02d}r{r:02d}", sensors=sensors,
                change_point=samples if r == 1 else 0,
                true_rul=float(runs_per_case - r),
            ))
    return out


def test_fit_features_milling_and_frames():
    series = milling_runs()
    pipe, _, _ = P.fit_features(series, P.FeatureSettings(num_slow=2, window=10))
    assert pipe.num_slow == 2 and pipe.window == 10
    assert pipe.frame_channels == 4 + 2
    # only the first cut of each case feeds the normal-stage statistics
    stats = F.fit_normalizer([s.sensors for s in series if s.change_point])
    np.testing.assert_allclose(pipe.stats.mean, stats.mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pipe.stats.std, stats.std, rtol=0, atol=1e-12)
    batch = P.build_frames_milling(series, pipe)
    assert set(batch.unit_ids) == {s.unit_id for s in series}
    for s in series[:3]:
        # every row of the cut, the normal first cut included
        sel = np.flatnonzero(batch.unit_ids == s.unit_id)
        assert sel.size == 60 - 10 + 1
        np.testing.assert_array_equal(batch.labels[sel], s.true_rul)
        hybrid = pipe.transform(s.sensors)
        for end, frame in zip(range(10, 61), batch.frames[sel]):
            np.testing.assert_allclose(frame, hybrid[end - 10 : end], rtol=0, atol=1e-12)
    # automatic window selection from the degraded cuts stays sane and
    # reports its noise band like any series fit
    pipe_auto, diag_auto, _ = P.fit_features(series, P.FeatureSettings(num_slow=2))
    assert 1 <= pipe_auto.window <= 60
    assert diag_auto.acf is not None
    assert diag_auto.acf_band == 2.0 / np.sqrt(60)


def test_fit_features_milling_validation():
    series = milling_runs()
    with pytest.raises(ValueError, match="window"):
        P.fit_features(series, P.FeatureSettings(num_slow=1, window=0))
    worn = [dataclasses.replace(s, change_point=0) for s in series]
    with pytest.raises(ValueError, match="normal"):
        P.fit_features(worn, P.FeatureSettings(num_slow=1, window=5))


def test_milling_run_series_wrapper(tmp_path):
    """The cuts ``data.load_milling`` returns feed the feature chain as
    they are: the first cut of a case is all normal stage, a worn cut
    all degradation, and every frame of a cut carries its residual
    life."""
    train = D.load_milling(milling_csv(tmp_path))["train"]
    first, worn = train[:2]
    assert (first.unit_id, worn.unit_id) == ("c01r01", "c01r02")
    assert first.change_point == first.length and worn.change_point == 0
    assert (first.true_rul, worn.true_rul) == (2.0, 1.0)
    pipe, _, _ = P.fit_features(train, P.FeatureSettings(num_slow=2, window=10))
    stats = F.fit_normalizer([s.sensors[:, pipe.channel_mask] for s in train
                              if s.unit_id.endswith("r01")])
    np.testing.assert_allclose(pipe.stats.mean, stats.mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pipe.stats.std, stats.std, rtol=0, atol=1e-12)
    batch = P.build_frames_milling([first, worn], pipe)
    for s in (first, worn):
        sel = np.flatnonzero(batch.unit_ids == s.unit_id)
        assert sel.size == s.length - 10 + 1
        np.testing.assert_array_equal(batch.labels[sel], s.true_rul)


def test_build_frames_cuts_each_unit_in_order():
    """Both builders cut each unit's rows, from its first framed row on,
    into stride-1 frames labeled at their last row, one unit after the
    other in the order given."""
    cuts = milling_runs()[:4]
    pipe, _, _ = P.fit_features(cuts, P.FeatureSettings(num_slow=2, window=7))
    series = planted_series(units=3)
    order = [series[2], series[0], series[1]]
    series_pipe, _, _ = P.fit_features(series, P.FeatureSettings(rul_max=30.0, num_slow=1,
                                                                 window=5))
    for batch, units, firsts, labels, p in (
        (P.build_frames_milling(cuts[::-1], pipe), cuts[::-1], [0] * 4,
         [np.full(s.length, s.true_rul) for s in cuts[::-1]], pipe),
        (P.build_frames(order, series_pipe, 30.0), order, [s.change_point for s in order],
         [F.piecewise_rul_labels(s.length, s.change_point, 30.0) for s in order],
         series_pipe),
    ):
        assert batch.units() == [s.unit_id for s in units]
        lo = 0
        for s, first, y in zip(units, firsts, labels):
            n = s.length - first - p.window + 1
            np.testing.assert_array_equal(np.flatnonzero(batch.unit_ids == s.unit_id),
                                          np.arange(lo, lo + n))
            cols = p.transform(s.sensors, s.settings)
            for i in range(n):
                np.testing.assert_array_equal(batch.frames[lo + i],
                                              cols[first + i : first + i + p.window])
            np.testing.assert_array_equal(batch.labels[lo : lo + n], y[first + p.window - 1 :])
            lo += n
        assert len(batch) == lo and batch.frames.shape[1:] == (p.window, p.frame_channels)
    # a pipeline's window is at least one row
    with pytest.raises(ValueError, match="window must be >= 1"):
        dataclasses.replace(pipe, window=0)


def test_build_frames_milling_skips_a_short_cut(caplog):
    cuts = milling_runs()
    pipe, _, _ = P.fit_features(cuts, P.FeatureSettings(num_slow=2, window=10))
    stub = dataclasses.replace(cuts[1], unit_id="stub", sensors=cuts[1].sensors[:9])
    with caplog.at_level(logging.WARNING):
        batch = P.build_frames_milling(cuts[:1] + [stub] + cuts[1:], pipe)
    assert batch.units() == [s.unit_id for s in cuts]
    assert [r.getMessage() for r in caplog.records] == [
        "unit stub: segment of 9 samples is shorter than window 10; skipped"]


# --------------------------------------------------------------- variants


def test_variant_flags():
    assert P.variant_flags("full") == (True, True)
    assert P.variant_flags("no-sfa") == (False, True)
    assert P.variant_flags("no-lstm") == (True, False)
    assert P.variant_flags("plain-capsnet") == (False, False)
    with pytest.raises(ValueError, match="variant"):
        P.variant_flags("half")
