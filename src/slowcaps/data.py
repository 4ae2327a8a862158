"""Dataset access: turbofan text files, milling CSV, synthetic generator.

All loaders are pure: they read files (or an RNG) and return in-memory
structures, never writing anything.  Both file loaders return the
"train" and "test" lists of :class:`RunToFailureSeries`: turbofan units
and milling cuts alike come back sorted by id with cycle-ordered
samples, and every series records its change point, the sample index
where the degradation stage begins.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "RunToFailureSeries",
    "SyntheticSpec",
    "load_cmapss",
    "load_milling",
    "generate_synthetic",
    "export_cmapss_format",
    "csv_cell",
    "csv_line",
]

log = logging.getLogger("slowcaps.data")

CMAPSS_SETTINGS = 3
CMAPSS_SENSORS = 21
MILLING_SAMPLES_PER_RUN = 90
MILLING_WEAR_THRESHOLD = 0.45
MILLING_COLUMNS = [
    "case", "run", "material", "doc", "feed", "speed",
    "smcac", "smcdc", "vib_table", "vib_spindle", "ae_table", "ae_spindle",
    "vb",
]


@dataclass
class RunToFailureSeries:
    """One unit's multivariate sensor history.

    ``change_point`` is the 1-based index of the last normal-stage
    sample; samples after it belong to the degradation stage.  For
    truncated evaluation units the residual life at the final cycle is
    stored in ``true_rul`` and the change point is informational only.
    """

    unit_id: str
    sensors: np.ndarray
    change_point: int
    settings: np.ndarray | None = None
    true_rul: float | None = None

    def __post_init__(self):
        self.sensors = np.asarray(self.sensors, dtype=np.float64)
        if self.sensors.ndim != 2 or self.sensors.shape[0] < 1:
            raise ValueError(f"unit {self.unit_id}: sensors must be a nonempty matrix")
        if self.settings is not None:
            self.settings = np.asarray(self.settings, dtype=np.float64)
            if self.settings.shape[0] != self.sensors.shape[0]:
                raise ValueError(f"unit {self.unit_id}: settings rows do not match sensors")
        if not 0 <= self.change_point <= self.length:
            raise ValueError(
                f"unit {self.unit_id}: change point {self.change_point} outside "
                f"series of length {self.length}"
            )

    @property
    def length(self) -> int:
        return self.sensors.shape[0]


# the feature fit sums squared deviations from channel means: beyond
# this magnitude those float64 sums can overflow
_MAX_ABS = 1e150


def _check_values(values: list[float], path, ln: int) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}:{ln}: non-finite value")
    if values and max(map(abs, values)) > _MAX_ABS:
        raise ValueError(f"{path}:{ln}: value of magnitude above {_MAX_ABS:g}")


def _read_space_table(path) -> np.ndarray:
    """The whitespace-separated numbers of ``path`` as a float64 (rows,
    columns) array; blank lines are skipped.

    numpy's C parser reads the file in one pass.  If it refuses the file
    or a value fails ``_check_values``' tests, ``_walk_space_table``
    reads it again line by line: the walk accepts what ``float()``
    accepts and names the offending line, so it is the source of every
    error message.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            with warnings.catch_warnings():
                # an empty file is the walk's error, not numpy's warning
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            table = None
        # the max of a table holding a nan is nan, which fails the test too
        if table is not None and table.size and np.abs(table).max() <= _MAX_ABS:
            return table
        fh.seek(0)
        return _walk_space_table(fh, path)


def _walk_space_table(fh, path) -> np.ndarray:
    rows = []
    for ln, line in enumerate(fh, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            row = [float(tok) for tok in stripped.split()]
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row at line {ln}") from exc
        _check_values(row, path, ln)
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts {sorted(widths)}")
    return np.asarray(rows, dtype=np.float64)


def _group_cmapss_units(arr: np.ndarray, path, n_sensors: int):
    width = arr.shape[1]
    expected = 2 + CMAPSS_SETTINGS + n_sensors
    if width != expected:
        raise ValueError(
            f"{path}: expected {expected} columns "
            f"(unit, cycle, {CMAPSS_SETTINGS} settings, {n_sensors} sensors), got {width}"
        )
    keys = arr[:, :2]
    whole = ((keys == np.floor(keys)) & (np.abs(keys) < 2**31)).all(axis=1)
    if not whole.all():
        r = int(np.argmin(whole))
        raise ValueError(f"{path}: row {r + 1}: unit id and cycle must be whole numbers, "
                         f"got {float(keys[r, 0])!r} and {float(keys[r, 1])!r}")
    # one stable sort by (unit, cycle), cut where the unit id changes
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    starts = np.flatnonzero(np.diff(arr[:, 0])) + 1
    units = []
    for uid, block in zip(arr[np.r_[0, starts], 0].astype(int), np.split(arr, starts)):
        cycles = block[:, 1].astype(int)
        if not np.array_equal(cycles, np.arange(1, len(cycles) + 1)):
            raise ValueError(
                f"{path}: unit {uid} cycles are not contiguous from 1"
            )
        units.append((uid, block[:, 2 : 2 + CMAPSS_SETTINGS],
                      block[:, 2 + CMAPSS_SETTINGS :]))
    return units


def load_cmapss(
    train_path,
    test_path=None,
    rul_path=None,
    rul_max: float = 125.0,
    n_sensors: int = CMAPSS_SENSORS,
) -> dict:
    """Load a turbofan dataset in the standard whitespace text layout.

    Rows are: unit id, cycle, three operational settings, then the
    sensor columns.  Training units run to failure, so the change point
    is placed rul_max cycles before the end.  Test units are truncated;
    their residual life comes from the companion file of one integer per
    unit.  Returns a dict with the "train" and "test" series lists; a
    None path leaves its list empty.
    """
    train_units = [] if train_path is None else \
        _group_cmapss_units(_read_space_table(train_path), train_path, n_sensors)
    train = []
    for uid, settings, sensors in train_units:
        k = sensors.shape[0]
        cp = int(k - rul_max)
        if cp < 1:
            log.warning(
                "unit %s: length %d does not exceed rul_max %s; "
                "treating the first sample as the only normal one", uid, k, rul_max
            )
            cp = 1
        train.append(RunToFailureSeries(
            unit_id=str(uid), sensors=sensors, change_point=cp, settings=settings,
        ))
    test = []
    if test_path is not None:
        if rul_path is None:
            raise ValueError("test data requires the residual-life file")
        test_units = _group_cmapss_units(_read_space_table(test_path), test_path, n_sensors)
        table = _read_space_table(rul_path)
        if table.shape[1] != 1:
            raise ValueError(f"{rul_path}: expected one residual life per row, "
                             f"got {table.shape[1]} values")
        ruls = table[:, 0].tolist()
        for i, rul in enumerate(ruls):
            if rul < 0 or rul != math.floor(rul):
                raise ValueError(f"{rul_path}: entry {i + 1}: residual life must be "
                                 f"a whole number >= 0, got {rul!r}")
        if len(ruls) != len(test_units):
            raise ValueError(
                f"residual-life file has {len(ruls)} entries for "
                f"{len(test_units)} test units"
            )
        for (uid, settings, sensors), rul in zip(test_units, ruls):
            test.append(RunToFailureSeries(
                unit_id=str(uid), sensors=sensors, change_point=sensors.shape[0],
                settings=settings, true_rul=float(rul),
            ))
    return {"train": train, "test": test}


def csv_cell(value, end: str = "\r\n") -> str:
    """One cell of a CSV row of several, as the csv module writes it with
    line ending ``end``: booleans as true/false, integers by ``str``,
    other numbers by the ``repr`` of a float, and other values as text,
    quoted when it holds a comma, a quote or a character of ``end``."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if any(c in text for c in ',"' + end):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_line(cells, end: str = "\r\n") -> str:
    """One CSV row of several cells, each written by :func:`csv_cell`."""
    return ",".join([csv_cell(c, end) for c in cells]) + end


def load_milling(csv_path) -> dict:
    """Load the milling CSV (one row per sample, ``MILLING_SAMPLES_PER_RUN``
    per cut) as one series per cut.

    Columns: case, run, material, three cutting parameters, six sensor
    channels, and the measured flank wear (may be empty on unmeasured
    cuts).  Every row of a case must name the same material.  Missing
    wear values are filled by linear interpolation over cut order within
    each case, clamped at the ends; a cut's ``true_rul`` counts the cuts
    remaining until wear first exceeds ``MILLING_WEAR_THRESHOLD``.  A
    cut's unit id is ``cCCrRR``; the first cut of each case is all normal
    stage (change point at its end), every later cut all degradation
    (change point 0).  Materials are taken in ascending id: the first 9
    cases of the first material and the first 2 of the second train, the
    rest test.  Returns a dict with the "train" and "test" series lists,
    in case and cut order.
    """
    path = Path(csv_path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if [h.strip() for h in header] != MILLING_COLUMNS:
            raise ValueError(
                f"{path}: unexpected header; want {','.join(MILLING_COLUMNS)}"
            )
        # case -> (material, its first line, run -> [sensor rows, wear])
        cases: dict[int, tuple[int, int, dict]] = {}
        for ln, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(MILLING_COLUMNS):
                raise ValueError(f"{path}: wrong column count at line {ln}")
            try:
                case = int(row[0])
                run = int(row[1])
                material = int(row[2])
                params = [float(x) for x in row[3:6]]
                sensors = [float(x) for x in row[6:12]]
                wear = float(row[12]) if row[12].strip() else None
            except ValueError as exc:
                raise ValueError(f"{path}: malformed row at line {ln}") from exc
            _check_values(params + sensors + ([] if wear is None else [wear]), path, ln)
            first, first_ln, runs = cases.setdefault(case, (material, ln, {}))
            if material != first:
                raise ValueError(f"{path}:{ln}: case {case} is material {material} here, "
                                 f"material {first} at line {first_ln}")
            cut = runs.setdefault(run, [[], None])
            cut[0].append(sensors)
            if wear is not None:
                cut[1] = wear
    if not cases:
        raise ValueError(f"{path}: no runs found")
    by_material: dict[int, list[int]] = {}
    for case in sorted(cases):
        by_material.setdefault(cases[case][0], []).append(case)
    materials = sorted(by_material)
    if len(materials) != 2:
        raise ValueError(f"{path}: protocol split expects two materials, got {materials}")
    train_cases = set()
    for m, quota in zip(materials, (9, 2)):
        if len(by_material[m]) < quota:
            raise ValueError(f"{path}: material {m} has {len(by_material[m])} cases, fewer "
                             f"than the {quota} requested for training")
        train_cases.update(by_material[m][:quota])
    split = {"train": [], "test": []}
    for case in sorted(cases):
        cuts = sorted(cases[case][2].items())
        for run, (rows, _) in cuts:
            if len(rows) != MILLING_SAMPLES_PER_RUN:
                raise ValueError(f"{path}: case {case} run {run} has {len(rows)} samples, "
                                 f"expected {MILLING_SAMPLES_PER_RUN}")
        measured = [(i, wear) for i, (_, (_, wear)) in enumerate(cuts) if wear is not None]
        if not measured:
            raise ValueError(f"{path}: case {case}: no wear measurements at all")
        filled = np.interp(np.arange(len(cuts), dtype=np.float64),
                           np.asarray([m[0] for m in measured], dtype=np.float64),
                           np.asarray([m[1] for m in measured], dtype=np.float64))
        exceed = np.flatnonzero(filled > MILLING_WEAR_THRESHOLD)
        if exceed.size:
            fail_at = int(exceed[0])
        else:
            fail_at = len(cuts)
            log.warning(
                "case %s never exceeds wear threshold %.2f; labeling from end of record",
                case, MILLING_WEAR_THRESHOLD,
            )
        side = split["train" if case in train_cases else "test"]
        for i, (run, (rows, _)) in enumerate(cuts):
            side.append(RunToFailureSeries(
                unit_id=f"c{case:02d}r{run:02d}",
                sensors=np.asarray(rows, dtype=np.float64),
                change_point=MILLING_SAMPLES_PER_RUN if i == 0 else 0,
                true_rul=float(max(fail_at - i, 0)),
            ))
    return split


@dataclass
class SyntheticSpec:
    """Generator settings for run-to-failure series with planted structure.

    Hidden slow latents are low-frequency sinusoids; after each unit's
    change point the designated latent also drifts linearly, so the
    label is driven by the slowest structure in the data.  Channels are
    a fixed random mixing of the latents plus white noise.
    """

    channels: int = 6
    latents: int = 2
    periods: tuple[float, ...] = (430.0, 170.0)
    drift_latent: int = 0
    drift_slope: float = 0.02
    noise_scale: float = 0.1
    units: int = 20
    length_range: tuple[int, int] = (280, 320)
    rul_max: float = 120.0
    mixing: np.ndarray | None = None

    def __post_init__(self):
        if self.channels < 1 or self.latents < 1:
            raise ValueError("channels and latents must be positive")
        if self.latents > self.channels:
            raise ValueError("cannot mix more latents than channels")
        if len(self.periods) != self.latents:
            raise ValueError("need one period per latent")
        if not 0 <= self.drift_latent < self.latents:
            raise ValueError("drift latent index out of range")
        if self.noise_scale < 0:
            raise ValueError("noise scale must be >= 0")
        if self.units < 1:
            raise ValueError("need at least one unit")
        lo, hi = self.length_range
        if lo < 2 or hi < lo:
            raise ValueError(f"bad length range {self.length_range}")
        if self.rul_max <= 0:
            raise ValueError("rul_max must be positive")


def generate_synthetic(spec: SyntheticSpec, seed: int) -> dict:
    """Generate units under ``spec``; fully determined by ``seed``.

    Returns {"series": [...], "truth": {...}} where truth carries the
    mixing matrix, per-unit latent paths and change points for oracle
    checks.
    """
    root = np.random.SeedSequence(seed)
    mix_ss, unit_ss = root.spawn(2)
    rng_mix = np.random.default_rng(mix_ss)
    if spec.mixing is not None:
        mixing = np.asarray(spec.mixing, dtype=np.float64)
        if mixing.shape != (spec.latents, spec.channels):
            raise ValueError(
                f"mixing must have shape ({spec.latents}, {spec.channels})"
            )
    else:
        mixing = rng_mix.normal(0.0, 1.0, size=(spec.latents, spec.channels))
        mixing /= np.sqrt(spec.latents)
    rng = np.random.default_rng(unit_ss)
    lo, hi = spec.length_range
    series = []
    truth_units = []
    for u in range(spec.units):
        k_c = int(rng.integers(lo, hi + 1))
        cp = max(int(k_c - spec.rul_max), 1)
        t = np.arange(1, k_c + 1, dtype=np.float64)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=spec.latents)
        latents = np.stack(
            [np.sin(2.0 * np.pi * t / p + ph) for p, ph in zip(spec.periods, phases)],
            axis=1,
        )
        drift = np.maximum(t - cp, 0.0) * spec.drift_slope
        latents[:, spec.drift_latent] += drift
        noise = rng.normal(0.0, spec.noise_scale, size=(k_c, spec.channels)) \
            if spec.noise_scale > 0 else np.zeros((k_c, spec.channels))
        sensors = latents @ mixing + noise
        uid = f"s{u + 1:03d}"
        series.append(RunToFailureSeries(
            unit_id=uid, sensors=sensors, change_point=cp,
            settings=np.zeros((k_c, CMAPSS_SETTINGS)),
        ))
        truth_units.append({"unit_id": uid, "change_point": cp, "latents": latents})
    return {
        "series": series,
        "truth": {"mixing": mixing, "units": truth_units, "spec": spec},
    }


def export_cmapss_format(
    series: list[RunToFailureSeries],
    out_dir,
    tag: str = "synthetic",
    truncate_for_test: bool = False,
    rng: np.random.Generator | None = None,
    rul_max: float | None = None,
) -> dict[str, Path]:
    """Write series in the turbofan text layout so loaders stay uniform.

    With ``truncate_for_test`` each unit is cut short of failure by a
    uniform number of cycles (at most 80 percent of ``rul_max``) and the
    residual-life file is emitted alongside.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if truncate_for_test:
        if rng is None or rul_max is None:
            raise ValueError("test export needs an rng and rul_max")
        data_path = out / f"test_{tag}.txt"
        rul_path = out / f"RUL_{tag}.txt"
    else:
        data_path = out / f"train_{tag}.txt"
        rul_path = None
    lines = []
    ruls = []
    for idx, s in enumerate(series, start=1):
        k = s.length
        if truncate_for_test:
            residual = int(rng.integers(0, int(0.8 * rul_max) + 1))
            residual = min(residual, k - max(s.change_point, 1) - 1)
            residual = max(residual, 0)
            end = k - residual
            ruls.append(residual)
        else:
            end = k
        settings = s.settings if s.settings is not None else np.zeros((k, CMAPSS_SETTINGS))
        values = np.hstack([settings[:end], s.sensors[:end]])
        fmt = "%d %d " + " ".join(["%.6f"] * values.shape[1])
        lines += [fmt % (idx, row, *vals) for row, vals in enumerate(values.tolist(), start=1)]
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths = {"data": data_path}
    if rul_path is not None:
        rul_path.write_text("\n".join(str(r) for r in ruls) + "\n", encoding="utf-8")
        paths["rul"] = rul_path
    return paths
