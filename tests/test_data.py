"""Dataset loaders, synthetic generator, exports, unit splits."""

import logging
import math

import numpy as np
import pytest

from slowcaps import data as D

import oracles


# ------------------------------------------------------------ series type


def test_series_accessors():
    s = D.RunToFailureSeries(
        unit_id="u1", sensors=np.arange(12.0).reshape(6, 2), change_point=4
    )
    assert s.length == 6


def test_series_validation():
    with pytest.raises(ValueError, match="nonempty"):
        D.RunToFailureSeries("u", np.zeros((0, 3)), 0)
    with pytest.raises(ValueError, match="settings"):
        D.RunToFailureSeries("u", np.zeros((4, 3)), 2, settings=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="change point"):
        D.RunToFailureSeries("u", np.zeros((4, 3)), 5)


# --------------------------------------------------------- turbofan files


def write_cmapss(path, rows):
    path.write_text("\n".join(" ".join(str(v) for v in r) for r in rows) + "\n")


def simple_unit_rows(uid, n, n_sensors=4, settings=(0.0, 0.0, 100.0)):
    rng = np.random.default_rng(uid * 1000 + n)
    return [
        [uid, c + 1, *settings, *np.round(rng.normal(size=n_sensors), 4)]
        for c in range(n)
    ]


def test_load_cmapss_round_trip(tmp_path):
    spec = D.SyntheticSpec(units=3, length_range=(40, 44), rul_max=20.0,
                           channels=4, latents=2, periods=(37.0, 11.0))
    made = D.generate_synthetic(spec, seed=5)
    D.export_cmapss_format(made["series"], tmp_path, tag="t")
    D.export_cmapss_format(
        made["series"], tmp_path, tag="t", truncate_for_test=True,
        rng=np.random.default_rng(9), rul_max=20.0,
    )
    out = D.load_cmapss(
        tmp_path / "train_t.txt", tmp_path / "test_t.txt",
        tmp_path / "RUL_t.txt", rul_max=20.0, n_sensors=4,
    )
    assert [s.unit_id for s in out["train"]] == ["1", "2", "3"]
    for loaded, orig in zip(out["train"], made["series"]):
        assert loaded.length == orig.length
        # text round trip is exact to the printed precision
        np.testing.assert_allclose(loaded.sensors, orig.sensors, atol=5e-7)
        assert loaded.change_point == orig.length - 20
    file_ruls = [
        int(line) for line in (tmp_path / "RUL_t.txt").read_text().split()
    ]
    for loaded, orig, r in zip(out["test"], made["series"], file_ruls):
        assert loaded.true_rul == float(r)
        assert loaded.change_point == loaded.length  # truncated: all normal
        assert loaded.length == orig.length - r
        np.testing.assert_allclose(
            loaded.sensors, orig.sensors[: loaded.length], atol=5e-7
        )


def test_export_truncation_stays_inside_degradation(tmp_path):
    spec = D.SyntheticSpec(units=6, length_range=(60, 80), rul_max=30.0,
                           channels=3, latents=1, periods=(29.0,))
    made = D.generate_synthetic(spec, seed=2)
    D.export_cmapss_format(
        made["series"], tmp_path, tag="x", truncate_for_test=True,
        rng=np.random.default_rng(3), rul_max=30.0,
    )
    ruls = [int(v) for v in (tmp_path / "RUL_x.txt").read_text().split()]
    assert len(ruls) == 6
    assert all(0 <= r <= int(0.8 * 30.0) for r in ruls)
    for s, r in zip(made["series"], ruls):
        assert s.length - r > s.change_point  # keeps degradation samples


AWKWARD = [-0.0, 5e-324, 1e308, 0.1 + 0.2, 4e-7, -4e-7, 0.12345678901234568,
           -2.2250738585072014e-308, 123456.7890123456, 0.0000005, -1e-300]


def test_export_writes_the_per_value_text(tmp_path):
    """Each row is ``f"{v:.6f}"`` of every setting and sensor value
    after the unit and cycle, as written one value at a time: signed
    zeros, ``-0.000000`` from -4e-7, 309 digits of 1e308."""
    rng = np.random.default_rng(4)
    sensors = np.asarray(AWKWARD)[rng.permutation(len(AWKWARD) * 6) % len(AWKWARD)]
    series = [
        D.RunToFailureSeries("a", sensors.reshape(11, 6), 3,
                             settings=sensors[::-1].reshape(11, 6)[:, :3]),
        D.RunToFailureSeries("b", sensors[:30].reshape(5, 6)[::-1], 1),
    ]
    train = D.export_cmapss_format(series, tmp_path, tag="w")["data"]
    test = D.export_cmapss_format(series, tmp_path, tag="w", truncate_for_test=True,
                                  rng=np.random.default_rng(2), rul_max=10.0)
    residuals = [int(v) for v in test["rul"].read_text().split()]
    assert residuals != [0, 0]
    for path, cut in ((train, [0, 0]), (test["data"], residuals)):
        lines = []
        for idx, (s, r) in enumerate(zip(series, cut), start=1):
            settings = s.settings if s.settings is not None else np.zeros((s.length, 3))
            for row in range(s.length - r):
                vals = [f"{idx:d}", f"{row + 1:d}"]
                vals += [f"{v:.6f}" for v in settings[row]]
                vals += [f"{v:.6f}" for v in s.sensors[row]]
                lines.append(" ".join(vals))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert b" -0.000000 " in train.read_bytes()


def test_load_cmapss_change_point_clamp_warns(tmp_path, caplog):
    p = tmp_path / "train.txt"
    write_cmapss(p, simple_unit_rows(1, 5))
    with caplog.at_level(logging.WARNING, logger="slowcaps.data"):
        out = D.load_cmapss(p, rul_max=125.0, n_sensors=4)
    assert out["train"][0].change_point == 1
    assert any("rul_max" in r.message for r in caplog.records)


def test_load_cmapss_validation(tmp_path):
    ok = tmp_path / "ok.txt"
    write_cmapss(ok, simple_unit_rows(1, 12))

    bad_tok = tmp_path / "tok.txt"
    bad_tok.write_text("1 1 0 0 0 1 2 x 4\n")
    with pytest.raises(ValueError, match="malformed"):
        D.load_cmapss(bad_tok, n_sensors=4)

    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 1 0 0 0 1 2 3 4\n1 2 0 0 0 1 2 3\n")
    with pytest.raises(ValueError, match="column counts"):
        D.load_cmapss(ragged, n_sensors=4)

    with pytest.raises(ValueError, match="columns"):
        D.load_cmapss(ok, n_sensors=7)  # declared width disagrees

    gap = tmp_path / "gap.txt"
    write_cmapss(gap, [r for r in simple_unit_rows(1, 12) if r[1] != 5])
    with pytest.raises(ValueError, match="contiguous"):
        D.load_cmapss(gap, n_sensors=4)

    with pytest.raises(ValueError, match="residual-life"):
        D.load_cmapss(ok, test_path=ok, rul_path=None, n_sensors=4)

    short_rul = tmp_path / "rul.txt"
    short_rul.write_text("3\n4\n")
    with pytest.raises(ValueError, match="entries"):
        D.load_cmapss(ok, test_path=ok, rul_path=short_rul, n_sensors=4)

    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="no data"):
        D.load_cmapss(empty, n_sensors=4)


def mask_group(arr, path, n_sensors):
    """Reference: the unit grouping as one full-array mask per unit and a
    stable sort of its cycles, as the loader grouped before the one-sort
    grouping existed."""
    units = []
    for uid in np.unique(arr[:, 0]).astype(int):
        block = arr[arr[:, 0] == uid]
        block = block[np.argsort(block[:, 1], kind="stable")]
        if not np.array_equal(block[:, 1].astype(int), np.arange(1, len(block) + 1)):
            raise ValueError(f"{path}: unit {uid} cycles are not contiguous from 1")
        units.append((uid, block[:, 2:5], block[:, 5:]))
    return units


def test_unit_grouping_matches_the_per_unit_masks():
    """100 units of 1-40 cycles in shuffled rows (units interleaved, ids
    not in order, a unit id -0.0 beside 0): the same units, order, arrays
    and id types as one mask per unit; with a cycle gap or a repeated
    cycle, the same first bad unit in the message."""
    rng = np.random.default_rng(20)
    rows = [[uid, c, *rng.normal(size=7)] for uid in rng.permutation(100) + 1
            for c in range(1, rng.integers(2, 42))]
    rows += [[-0.0, 1, *rng.normal(size=7)], [0.0, 2, *rng.normal(size=7)]]
    arr = np.array(rows)[rng.permutation(len(rows))]
    got, want = D._group_cmapss_units(arr, "t.txt", 4), mask_group(arr, "t.txt", 4)
    assert [u for u, _, _ in got] == [u for u, _, _ in want] == list(range(101))
    for (gu, gs, gx), (wu, ws, wx) in zip(got, want):
        assert type(gu) is type(wu)
        assert gs.tobytes() == ws.tobytes() and gx.tobytes() == wx.tobytes()
    for unit, bad in ((37, 5.0), (12, 1.0)):  # a gap at cycle 5; cycle 1 twice
        cut = arr[~((arr[:, 0] == unit) & (arr[:, 1] == 5.0))] if bad == 5.0 else \
            np.vstack([arr, [[unit, 1.0, *rng.normal(size=7)]]])
        broken = np.vstack([cut, [[60, 3, *rng.normal(size=7)]]])  # unit 60 repeats cycle 3
        messages = []
        for group in (D._group_cmapss_units, mask_group):
            with pytest.raises(ValueError, match="contiguous") as exc:
                group(broken, "t.txt", 4)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == f"t.txt: unit {unit} cycles are not contiguous from 1"


# ------------------------------------------------ text table differential


def line_walk(path):
    """Reference: the loader's line-by-line parse, as it read every
    table before the one-pass parse existed."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                row = [float(tok) for tok in stripped.split()]
            except ValueError as exc:
                raise ValueError(f"{path}: malformed row at line {ln}") from exc
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{ln}: non-finite value")
            if row and max(map(abs, row)) > 1e150:
                raise ValueError(f"{path}:{ln}: value of magnitude above {1e150:g}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts {sorted(widths)}")
    return np.asarray(rows, dtype=np.float64)


_RNG = np.random.default_rng(19)
_REPRS = " ".join(map(repr, (_RNG.normal(size=8) * 10.0 ** _RNG.integers(-300, 140, 8)).tolist()))
_FIXED = " ".join(f"{v:.6f}" for v in (_RNG.normal(size=8) * 1e3).tolist())

# name -> file bytes: what the C parser reads alike, what only float()
# reads, and what neither reads
TABLES = {
    "crlf": b"1 2\r\n3 4\r\n",
    "lone_cr": b"1 2\r3 4\r",
    "hash_in_row": b"1 2\n3 # 4\n",
    "hash_at_end": b"1 2\n3 4 # 5\n",
    "underscore_digits": b"1_0 2\n3 4\n",
    "vt": b"1\x0b2\n3 4\n",
    "nbsp": "1\u00a02\n3 4\n".encode(),
    "ff": b"1\x0c2\n\x0c\n3 4\n",
    "line_separator": "1 2\u20283 4\n5 6\u00857 8\n".encode(),
    "signs": b"+1 -0.0\n-1 +0\n",
    "arabic_digits": "\u0661 2\n3 \u0664\n".encode(),
    "empty": b"",
    "blank_only": b"\n  \n\t\n",
    "blank_lines": b"\n1 2\n\n   \n3 4\n\n",
    "ragged": b"1 2 3\n4 5\n",
    "nan": b"1 2\n3 nan\n",
    "above_1e150": b"1 2\n3 1e151\n",
    "no_final_newline": b"1 2\n3 4",
    "bom": "\ufeff1 2\n3 4\n".encode(),
    "inf": b"1 2\ninf 4\n",
    "overflow": b"1 2\n1e999 4\n",
    "hex": b"0x10 2\n3 4\n",
    "tabs": b"1\t2\t3\n4\t5\t6\n",
    "one_column": b"75\n40\n84\n",
    "underflow": b"1e-400 5e-324\n2 3\n",
    "not_utf8": b"1 2\n3 \xff\n",
    "reprs": (_REPRS + "\n" + _REPRS + "\n").encode(),
    "fixed": (_FIXED + "\n" + _FIXED + "\n").encode(),
}


def _outcome(read, path):
    try:
        table = read(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return table.shape, table.dtype, table.tobytes()


@pytest.mark.parametrize("name", sorted(TABLES))
def test_space_table_parse_matches_the_line_walk(tmp_path, name):
    """Each file gives the line walk's array, to the bit, or its error
    message."""
    path = tmp_path / f"{name}.txt"
    path.write_bytes(TABLES[name])
    assert _outcome(D._read_space_table, path) == _outcome(line_walk, path)


def test_space_table_cases_reach_both_paths(tmp_path, monkeypatch):
    """The one-pass parse reads the plain files; the walk runs for what
    only ``float()`` reads and for every error, so the table compares
    both paths."""
    walked = []
    walk = D._walk_space_table
    monkeypatch.setattr(D, "_walk_space_table",
                        lambda fh, path: walked.append(path.stem) or walk(fh, path))
    for name, raw in TABLES.items():
        path = tmp_path / f"{name}.txt"
        path.write_bytes(raw)
        _outcome(D._read_space_table, path)
    assert {"crlf", "lone_cr", "nbsp", "tabs", "reprs", "fixed"}.isdisjoint(walked)
    assert {"underscore_digits", "arabic_digits", "hash_at_end", "nan", "empty",
            "ragged", "not_utf8"} <= set(walked)


# ------------------------------------------------------ synthetic builder


def test_generate_synthetic_is_seed_deterministic():
    spec = D.SyntheticSpec(units=4, length_range=(50, 60))
    a = D.generate_synthetic(spec, seed=7)
    b = D.generate_synthetic(spec, seed=7)
    for sa, sb in zip(a["series"], b["series"]):
        np.testing.assert_array_equal(sa.sensors, sb.sensors)
        assert sa.change_point == sb.change_point
    c = D.generate_synthetic(spec, seed=8)
    assert not np.array_equal(a["series"][0].sensors, c["series"][0].sensors)


def test_generate_synthetic_truth_and_geometry():
    spec = D.SyntheticSpec(
        units=5, channels=2, latents=2, periods=(43.0, 17.0),
        length_range=(90, 110), rul_max=40.0, noise_scale=0.0,
        mixing=np.eye(2), drift_slope=0.05,
    )
    made = D.generate_synthetic(spec, seed=3)
    np.testing.assert_array_equal(made["truth"]["mixing"], np.eye(2))
    for s, tu in zip(made["series"], made["truth"]["units"]):
        assert s.unit_id == tu["unit_id"]
        assert 90 <= s.length <= 110
        assert s.change_point == max(int(s.length - 40.0), 1)
        assert s.settings.shape == (s.length, 3)
        np.testing.assert_array_equal(s.settings, 0.0)
        # identity mixing, zero noise: sensors are exactly the latents
        np.testing.assert_allclose(s.sensors, tu["latents"], atol=1e-12)
        # subtracting the planted ramp leaves a bounded sine, so the ramp
        # accounts for everything above amplitude one
        t = np.arange(1, s.length + 1, dtype=float)
        ramp = np.maximum(t - s.change_point, 0.0) * 0.05
        assert ramp[-1] == pytest.approx(0.05 * (s.length - s.change_point))
        assert np.max(np.abs(s.sensors[:, 0] - ramp)) <= 1.0 + 1e-9
        assert np.max(np.abs(s.sensors[:, 1])) <= 1.0 + 1e-9  # no drift here
    assert [s.unit_id for s in made["series"]] == [
        "s001", "s002", "s003", "s004", "s005"
    ]


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        D.SyntheticSpec(latents=3, channels=2, periods=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        D.SyntheticSpec(periods=(10.0,))  # one period for two latents
    with pytest.raises(ValueError):
        D.SyntheticSpec(drift_latent=5)
    with pytest.raises(ValueError):
        D.SyntheticSpec(length_range=(10, 5))
    with pytest.raises(ValueError):
        D.generate_synthetic(D.SyntheticSpec(mixing="hadamard"), 0)
    with pytest.raises(ValueError, match="shape"):
        D.generate_synthetic(D.SyntheticSpec(mixing=np.zeros((3, 3))), 0)


# ----------------------------------------------------------- milling data


def milling_csv(tmp_path):
    """Thirteen cases of three cuts at the protocol's 90 samples per cut:
    cases 1-10 of the first material and 11-13 of the second, so the
    protocol split trains on cases 1-9, 11 and 12.  Cases 1-4 have gaps
    in the wear column."""
    rng = np.random.default_rng(0)
    lines = [",".join(D.MILLING_COLUMNS)]
    wear_plan = {
        1: [0.1, None, 0.5],
        2: [0.2, 0.3, 0.4],          # never exceeds the threshold
        3: [None, 0.5, None],
        4: [0.2, None, 0.8],
    }
    for case in range(1, 14):
        wears = wear_plan.get(case, [0.1, 0.2 + 0.01 * case, 0.6])
        for run, wear in enumerate(wears, start=1):
            for k in range(D.MILLING_SAMPLES_PER_RUN):
                row = [case, run, 1 if case <= 10 else 2, 1.5, 0.5, 200]
                row += list(np.round(rng.normal(size=6), 4))
                row.append("" if (wear is None or k > 0) else wear)
                lines.append(",".join(str(v) for v in row))
    p = tmp_path / "mill.csv"
    p.write_text("\n".join(lines) + "\n")
    return p


def test_load_milling_fills_wear_and_labels(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="slowcaps.data"):
        out = D.load_milling(milling_csv(tmp_path))
    cuts = sorted(out["train"] + out["test"], key=lambda s: s.unit_id)
    assert len(cuts) == 39
    assert cuts[0].unit_id == "c01r01"
    assert all(s.sensors.shape == (90, 6) and s.settings is None for s in cuts)
    by_case = {}
    for s in cuts:
        by_case.setdefault(int(s.unit_id[1:3]), []).append(s)
    assert [s.unit_id for s in by_case[2]] == ["c02r01", "c02r02", "c02r03"]
    # interpolated wear 0.1, 0.3, 0.5 exceeds at cut 3; filling the gap
    # backward from 0.5 would exceed at cut 2
    assert [s.true_rul for s in by_case[1]] == [2.0, 1.0, 0.0]
    # interpolated wear 0.2, 0.5, 0.8 exceeds at cut 2; filling the gap
    # forward from 0.2 would exceed at cut 3
    assert [s.true_rul for s in by_case[4]] == [1.0, 0.0, 0.0]
    # clamped flat interpolation from a single measurement
    assert [s.true_rul for s in by_case[3]] == [0.0, 0.0, 0.0]
    # a case that never exceeds the threshold labels from the end and warns
    assert [s.true_rul for s in by_case[2]] == [3.0, 2.0, 1.0]
    assert any("never exceeds" in r.message for r in caplog.records)
    # the first cut of a case is all normal stage, a later cut all wear
    assert [s.change_point for s in by_case[1]] == [90, 0, 0]
    assert all(s.change_point == (90 if s.unit_id.endswith("r01") else 0) for s in cuts)


def test_load_milling_validation(tmp_path):
    lines = milling_csv(tmp_path).read_text().splitlines()
    short_cut = tmp_path / "c.csv"
    short_cut.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match="case 1 run 1 has 89 samples, expected 90"):
        D.load_milling(short_cut)

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="header"):
        D.load_milling(bad_header)

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        D.load_milling(empty)

    short_row = tmp_path / "s.csv"
    short_row.write_text(",".join(D.MILLING_COLUMNS) + "\n1,1,1,1.5\n")
    with pytest.raises(ValueError, match="column count"):
        D.load_milling(short_row)

    bad_val = tmp_path / "v.csv"
    bad_val.write_text(
        ",".join(D.MILLING_COLUMNS) + "\n1,1,1,1.5,0.5,200,a,2,3,4,5,6,0.1\n"
    )
    with pytest.raises(ValueError, match="malformed"):
        D.load_milling(bad_val)


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_loaders_reject_non_finite_values(tmp_path, token):
    rows = simple_unit_rows(1, 12)
    rows[6][7] = token
    turbofan = tmp_path / "train.txt"
    write_cmapss(turbofan, rows)
    with pytest.raises(ValueError, match=f"{turbofan}:7: non-finite"):
        D.load_cmapss(turbofan, rul_max=5.0, n_sensors=4)

    milling = tmp_path / "m.csv"
    milling.write_text(",".join(D.MILLING_COLUMNS) + "\n"
                       f"1,1,1,1.5,0.5,200,1,2,{token},4,5,6,0.1\n")
    with pytest.raises(ValueError, match=f"{milling}:2: non-finite"):
        D.load_milling(milling)
    milling.write_text(",".join(D.MILLING_COLUMNS) + "\n"
                       f"1,1,1,1.5,0.5,200,1,2,3,4,5,6,{token}\n")
    with pytest.raises(ValueError, match=f"{milling}:2: non-finite"):
        D.load_milling(milling)


def _milling_cases(path, keep):
    """Copy of the milling CSV at ``path`` holding the cases ``keep``
    picks."""
    header, *rows = path.read_text().splitlines()
    out = path.with_name("kept.csv")
    out.write_text("\n".join([header] + [r for r in rows if keep(int(r.split(",")[0]))]) + "\n")
    return out


def test_milling_protocol_split(tmp_path):
    path = milling_csv(tmp_path)
    out = D.load_milling(path)
    assert [s.unit_id for s in out["train"]] == [
        f"c{c:02d}r{r:02d}" for c in (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12) for r in (1, 2, 3)]
    assert [s.unit_id for s in out["test"]] == [
        f"c{c:02d}r{r:02d}" for c in (10, 13) for r in (1, 2, 3)]
    assert [s.change_point for s in out["test"]] == [90, 0, 0, 90, 0, 0]
    assert [s.true_rul for s in out["test"]] == [2.0, 1.0, 0.0] * 2
    # 8 cases of the first material, or 1 of the second
    for keep, message in ((lambda c: c > 2, "material 1 has 8 cases, fewer than the 9"),
                          (lambda c: c < 12, "material 2 has 1 cases, fewer than the 2")):
        with pytest.raises(ValueError, match=message):
            D.load_milling(_milling_cases(path, keep))
    with pytest.raises(ValueError, match="two materials, got \\[1\\]"):
        D.load_milling(_milling_cases(path, lambda c: c <= 10))


def test_load_milling_rejects_a_case_of_two_materials(tmp_path):
    """A case counted toward both materials' quotas used to move case 12
    from the training side to the test side without a word."""
    lines = milling_csv(tmp_path).read_text().splitlines()
    # case 1's second cut starts at line 92 of the file
    relabelled = [line.replace(",1,1.5,", ",2,1.5,", 1) if 91 <= i < 181 else line
                  for i, line in enumerate(lines)]
    path = tmp_path / "two.csv"
    path.write_text("\n".join(relabelled) + "\n")
    with pytest.raises(ValueError, match=f"{path}:92: case 1 is material 2 here, "
                       "material 1 at line 2"):
        D.load_milling(path)
    # one row is enough
    lines[149] = lines[149].replace(",1,1.5,", ",2,1.5,", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{path}:150: case 1 is material 2"):
        D.load_milling(path)
