"""Feature chain: slow directions vs oracle, ACF window rule, framing."""

import logging

import numpy as np
import pytest

from slowcaps import features as F

import oracles


def make_mixed_segments(rng, n_segments=3, length=400, channels=5):
    """Segments mixing AR(1) latents of clearly different smoothness."""
    phis = [0.98, 0.9, 0.6, 0.3, 0.0][:channels]
    mixing = rng.normal(size=(channels, channels))
    segs = []
    for _ in range(n_segments):
        latents = np.stack(
            [oracles.ar1_series(phi, length, int(rng.integers(1 << 30)))
             for phi in phis], axis=1
        )
        segs.append(latents @ mixing)
    pooled = np.vstack(segs)
    mean, std = pooled.mean(axis=0), pooled.std(axis=0)
    return [(s - mean) / std for s in segs]


# ---------------------------------------------------------------- channels


def test_drop_constant_channels():
    a = np.column_stack([np.arange(5.0), np.full(5, 3.0), np.ones(5)])
    b = np.column_stack([np.arange(5.0) * 2, np.full(5, 3.0), np.ones(5) * 4])
    mask = F.drop_constant_channels([a, b])
    # channel 1 is flat everywhere; channel 2 varies across segments
    np.testing.assert_array_equal(mask, [True, False, True])
    with pytest.raises(ValueError):
        F.drop_constant_channels([np.ones((4, 2))])


def test_drop_constant_tolerance():
    a = np.column_stack([np.arange(4.0), 1.0 + 1e-13 * np.arange(4.0)])
    mask = F.drop_constant_channels([a], tol=1e-10)
    np.testing.assert_array_equal(mask, [True, False])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_drop_constant_rejects_non_finite(value):
    a = np.column_stack([np.arange(5.0), np.arange(5.0) ** 2, np.ones(5)])
    a[3, 1] = value
    with pytest.raises(ValueError, match=r"non-finite values in channel\(s\) \[1\]"):
        F.drop_constant_channels([a])


# ------------------------------------------------------------- normalizer


def test_normalizer_pooled_stats(rng):
    segs = [rng.normal(2.0, 3.0, size=(30, 4)), rng.normal(2.0, 3.0, size=(50, 4))]
    stats = F.fit_normalizer(segs)
    pooled = np.vstack(segs)
    np.testing.assert_allclose(stats.mean, pooled.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(stats.std, pooled.std(axis=0), atol=1e-12)
    z = F.apply_normalizer(pooled, stats)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_fits_do_not_depend_on_segment_memory_layout(rng):
    # boolean column masks return Fortran-ordered copies; the pooled
    # statistics must come out bit for bit as from C-ordered rows
    segs = [rng.normal(size=(n, 6)) * [1, 2, 3, 4, 5, 6] + [1e3, -2, 7, 0.1, 5, 9]
            for n in (57, 80, 131)]
    f_segs = [np.asfortranarray(s) for s in segs]
    assert not f_segs[0].flags.c_contiguous
    c_stats, f_stats = F.fit_normalizer(segs), F.fit_normalizer(f_segs)
    assert c_stats.mean.tobytes() == f_stats.mean.tobytes()
    assert c_stats.std.tobytes() == f_stats.std.tobytes()
    c_sfa, f_sfa = F.fit_sfa(segs), F.fit_sfa(f_segs)
    assert c_sfa.weights.tobytes() == f_sfa.weights.tobytes()
    assert c_sfa.lambdas.tobytes() == f_sfa.lambdas.tobytes()


def test_normalizer_rejects_flat_channel():
    seg = np.column_stack([np.arange(10.0), np.full(10, 2.0)])
    with pytest.raises(ValueError):
        F.fit_normalizer([seg])


def test_normalizer_channel_mismatch():
    stats = F.fit_normalizer([np.random.default_rng(0).normal(size=(10, 3))])
    with pytest.raises(ValueError):
        F.apply_normalizer(np.zeros((5, 4)), stats)


# ------------------------------------------------------------------- SFA


def test_sfa_matches_generalized_eig_oracle(rng):
    segs = make_mixed_segments(rng)
    model = F.fit_sfa(segs)
    w_oracle, lam_oracle = oracles.sfa_oracle(segs)
    np.testing.assert_allclose(model.lambdas, lam_oracle, rtol=1e-8)
    for i in range(model.n_channels):
        got = model.weights[:, i]
        want = w_oracle[i]
        np.testing.assert_allclose(got, want, atol=1e-6 * np.abs(want).max())


def test_sfa_constraint_identities(rng):
    segs = make_mixed_segments(rng)
    model = F.fit_sfa(segs)
    w = model.weights
    j = model.n_channels
    # directions whiten the ridged static covariance
    np.testing.assert_allclose(w.T @ model.cov_static @ w, np.eye(j), atol=1e-8)
    # and diagonalize the difference covariance with the slowness values
    d = w.T @ model.cov_diff @ w
    np.testing.assert_allclose(d, np.diag(model.lambdas), atol=1e-8)
    # slowness sorted ascending: slowest direction first
    assert np.all(np.diff(model.lambdas) >= -1e-12)
    # each slowness equals the mean squared step of its projected feature
    for i in range(j):
        diffs = np.concatenate([np.diff(seg @ w[:, i]) for seg in segs])
        np.testing.assert_allclose(np.mean(diffs**2), model.lambdas[i], rtol=1e-10)


def test_sfa_unit_variance_and_decorrelation(rng):
    # ridge off: the identity is then exact up to float error (the default
    # ridge perturbs the constraint at the documented 1e-8 scale)
    segs = make_mixed_segments(rng)
    model = F.fit_sfa(segs, ridge_scale=0.0)
    feats = np.vstack(segs) @ model.weights
    cov = np.cov(feats, rowvar=False, ddof=1)
    np.testing.assert_allclose(cov, np.eye(model.n_channels), atol=1e-9)


def test_sfa_refit_on_own_output_is_decoupled(rng):
    segs = make_mixed_segments(rng)
    model = F.fit_sfa(segs, ridge_scale=0.0)
    slow_segs = [seg @ model.weights for seg in segs]
    refit = F.fit_sfa(slow_segs, ridge_scale=0.0)
    np.testing.assert_allclose(refit.lambdas, model.lambdas, rtol=1e-8)
    # already-decoupled input: directions reduce to the identity
    np.testing.assert_allclose(np.abs(refit.weights), np.eye(model.n_channels),
                               atol=1e-9)


def test_sfa_sign_canonicalization(rng):
    segs = make_mixed_segments(rng)
    w = F.fit_sfa(segs).weights
    for i in range(w.shape[1]):
        assert w[np.argmax(np.abs(w[:, i])), i] > 0


def test_sfa_input_validation(rng):
    with pytest.raises(ValueError):
        F.fit_sfa([rng.normal(size=(50, 1))])  # one channel
    with pytest.raises(ValueError):
        F.fit_sfa([rng.normal(size=(3, 4))])  # too few samples
    with pytest.raises(ValueError):
        F.fit_sfa([rng.normal(size=(30, 3)), rng.normal(size=(30, 4))])


def test_project(rng):
    segs = make_mixed_segments(rng)
    model = F.fit_sfa(segs)
    x = segs[0]
    np.testing.assert_allclose(model.project(x, 2), x @ model.weights[:, :2])
    np.testing.assert_allclose(model.project(x, 4), x @ model.weights[:, :4])
    with pytest.raises(ValueError):
        model.project(x, 9)


# ------------------------------------------------------- spectrum gap rule


def test_select_num_slow_largest_gap():
    assert F.select_num_slow_features([0.1, 0.2, 5.0, 6.0, 7.0, 8.0]) == 2
    assert F.select_num_slow_features([0.01, 3.0, 3.1, 3.2]) == 1
    # scan stops at floor(J/2)=3: the huge gap at index 5 is out of range,
    # and among the in-range ratios 1.1, 1.09, 1.08 the first wins
    assert F.select_num_slow_features([1.0, 1.1, 1.2, 1.3, 1.4, 100.0]) == 1


def test_select_num_slow_tie_breaks_low():
    assert F.select_num_slow_features([1.0, 2.0, 4.0, 8.0]) == 1


def test_select_num_slow_validation():
    with pytest.raises(ValueError):
        F.select_num_slow_features([1.0])
    with pytest.raises(ValueError):
        F.select_num_slow_features([1.0, 0.0])


# ------------------------------------------------------------ ACF window


def test_sample_acf_matches_oracle(rng):
    x = oracles.ar1_series(0.7, 500, 42)
    acf = F.sample_acf(x, 40)
    np.testing.assert_allclose(acf, oracles.biased_acf_oracle(x, 40), atol=1e-12)
    assert acf[0] == 1.0


def test_sample_acf_validation():
    with pytest.raises(ValueError):
        F.sample_acf(np.ones(50), 5)  # constant
    with pytest.raises(ValueError):
        F.sample_acf(np.arange(5.0), 5)  # too short
    with pytest.raises(ValueError):
        F.sample_acf(np.arange(5.0), 0)


def test_select_window_first_band_entry():
    acf = np.array([1.0, 0.5, 0.3, 0.1, 0.01])
    assert F.select_window_from_acf(acf, 400) == 4  # band 0.1, strict
    assert F.select_window_from_acf(acf, 100) == 3  # band 0.2
    # negative lobes count by magnitude
    acf2 = np.array([1.0, -0.5, -0.05])
    assert F.select_window_from_acf(acf2, 400) == 2


def test_select_window_no_crossing_warns(caplog):
    acf = np.array([1.0, 0.9, 0.8])
    with caplog.at_level(logging.WARNING, logger="slowcaps.features"):
        assert F.select_window_from_acf(acf, 10000) == 2
    assert any("band" in r.message for r in caplog.records)


def test_window_rule_ar1_hits_theory_band():
    # a single realization's sample ACF is far too noisy near the band
    # (+-0.03 noise against a 0.02 threshold), so average the ACF over many
    # independent realizations -- exactly what the fitting stage does across
    # units -- before applying the crossing rule
    n = 10_000
    acfs = [oracles.biased_acf_oracle(oracles.ar1_series(0.9, n, s), 200)
            for s in range(32)]
    got = F.select_window_from_acf(np.mean(acfs, axis=0), n)
    expected = oracles.ar1_window_crossing(0.9, n)
    assert expected == 38
    assert abs(got - expected) <= 3


# ----------------------------------------------------------------- labels


def test_piecewise_labels_hand_values():
    np.testing.assert_array_equal(
        F.piecewise_rul_labels(8, 5, 4.0),
        [4, 4, 4, 4, 4, 3, 2, 1],
    )
    # floor at zero once the target is exhausted
    np.testing.assert_array_equal(
        F.piecewise_rul_labels(7, 2, 3.0),
        [3, 3, 2, 1, 0, 0, 0],
    )


def test_piecewise_labels_match_loop_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(1, 50))
        cp = int(rng.integers(0, n + 1))
        rmax = float(rng.uniform(0.5, 30.0))
        np.testing.assert_array_equal(
            F.piecewise_rul_labels(n, cp, rmax),
            oracles.piecewise_labels_oracle(n, cp, rmax),
        )


def test_piecewise_labels_validation():
    with pytest.raises(ValueError):
        F.piecewise_rul_labels(0, 0, 5.0)
    with pytest.raises(ValueError):
        F.piecewise_rul_labels(5, 6, 5.0)
    with pytest.raises(ValueError):
        F.piecewise_rul_labels(5, 2, 0.0)


# ---------------------------------------------------------------- framing


def test_fuse_and_slice_layout():
    k = 6
    x = np.arange(k * 2, dtype=np.float64).reshape(k, 2)
    s = np.arange(k, dtype=np.float64).reshape(k, 1) * 10
    labels = np.arange(k, dtype=np.float64) + 100
    hybrid = np.hstack([x, s])
    batch = F.fuse_and_slice(hybrid, window=3, labels=labels, unit_id="u7")
    assert batch.frames.shape == (4, 3, 3)
    np.testing.assert_array_equal(batch.frames[0], hybrid[0:3])
    np.testing.assert_array_equal(batch.frames[3], hybrid[3:6])
    # the label follows each frame's last row
    np.testing.assert_array_equal(batch.labels, labels[[2, 3, 4, 5]])
    assert set(batch.unit_ids) == {"u7"}


def test_fuse_and_slice_short_segment_returns_none(caplog):
    with caplog.at_level(logging.WARNING, logger="slowcaps.features"):
        out = F.fuse_and_slice(np.hstack([np.zeros((2, 3)), np.zeros((2, 1))]), window=5,
                               labels=np.zeros(2), unit_id="tiny")
    assert out is None
    assert any("tiny" in r.message for r in caplog.records)


def test_fuse_and_slice_validation():
    with pytest.raises(ValueError, match="2-D"):
        F.fuse_and_slice(np.zeros((5, 2, 1)), 3, np.zeros(5))
    with pytest.raises(ValueError):
        F.fuse_and_slice(np.hstack([np.zeros((5, 2)), np.zeros((5, 1))]), 3, np.zeros(4))
    with pytest.raises(ValueError):
        F.fuse_and_slice(np.hstack([np.zeros((5, 2)), np.zeros((5, 1))]), 0, np.zeros(5))


def test_concat_batches(rng):
    x = rng.normal(size=(6, 2))
    s = rng.normal(size=(6, 1))
    y = np.arange(6.0)
    b1 = F.fuse_and_slice(np.hstack([x, s]), 3, y, unit_id="a")
    b2 = F.fuse_and_slice(np.hstack([x + 1, s]), 3, y, unit_id="b")
    merged = F.concat_batches([b1, None, b2])
    assert len(merged) == 8
    assert merged.units() == ["a", "b"]
    np.testing.assert_array_equal(np.flatnonzero(merged.unit_ids == "b"), np.arange(4, 8))
    np.testing.assert_array_equal(merged.frames[4:], b2.frames)
    with pytest.raises(ValueError):
        F.concat_batches([None])


# ----------------------------------------------------- pipeline round trip


def fitted_pipeline(rng):
    segs = make_mixed_segments(rng, channels=4)
    raw_segs = [np.column_stack([s, np.full(s.shape[0], 7.0)]) for s in segs]
    mask = F.drop_constant_channels(raw_segs)
    stats = F.fit_normalizer([s[:, mask] for s in raw_segs])
    model = F.fit_sfa([F.apply_normalizer(s[:, mask], stats) for s in raw_segs])
    model.num_slow = 2
    return F.FeaturePipeline(channel_mask=mask, stats=stats, sfa=model, window=6)


def test_pipeline_transform_and_hybrid_width(rng):
    pipe = fitted_pipeline(rng)
    raw = np.column_stack([rng.normal(size=(20, 4)), np.full(20, 7.0)])
    z = F.apply_normalizer(raw[:, pipe.channel_mask], pipe.stats)
    slow = pipe.sfa.project(z, pipe.num_slow)
    assert z.shape == (20, 4) and slow.shape == (20, 2)
    assert pipe.frame_channels == 6
    np.testing.assert_array_equal(pipe.transform(raw), np.hstack([z, slow]))
    thin = pipe.without_slow()
    assert thin.frame_channels == 4
    cols = thin.transform(raw)
    np.testing.assert_array_equal(cols, z)
    assert cols.shape == (20, thin.frame_channels)


def test_pipeline_array_round_trip(rng):
    pipe = fitted_pipeline(rng)
    back = F.pipeline_from_arrays(F.pipeline_to_arrays(pipe))
    raw = np.column_stack([rng.normal(size=(15, 4)), np.full(15, 7.0)])
    np.testing.assert_array_equal(pipe.transform(raw), back.transform(raw))
    assert back.window == pipe.window
    assert back.num_slow == pipe.num_slow
    assert back.include_slow == pipe.include_slow
