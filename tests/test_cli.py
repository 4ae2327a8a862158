"""Command-line workflow: artifact layout, exit codes, determinism."""

import base64
import csv
import io
import json
import logging
import math
import os
import re
import shutil
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from slowcaps import checkpoint as ckpt
from slowcaps import cli
from slowcaps import config as C
from slowcaps import data as D
from slowcaps import evaluation as E
from slowcaps import features as F
from slowcaps import network as N
from slowcaps.cli import main

SET = [
    "--set", "synthetic.units=6",
    "--set", "synthetic.test_units=3",
    "--set", "synthetic.length_range=[80,100]",
    "--set", "synthetic.rul_max=40",
    "--set", "rul_max=40",
    "--set", "features.num_slow=2",
    "--set", "model.window_length=8",
    "--set", "model.filters=8",
    "--set", "model.lstm_units=4",
    "--set", "model.sequence_length=3",
    "--set", "model.epoch=2",
    "--set", "model.fnn.widths=[16,1]",
    "--set", "training.batch_size=32",
    "--set", "training.validation_fraction=0.25",
    "--set", "tune.filter_candidates=[8]",
    "--set", "tune.lstm_candidates=[4,8]",
    "--set", "tune.epochs=1",
    "--set", "tune.explore=full",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    steps = [
        ["synth", "--out", str(ws / "data"), "--seed", "3", *SET],
        ["fit-features", "--out", str(ws / "feat"),
         "--data-dir", str(ws / "data"), "--seed", "3", *SET],
        ["train", "--out", str(ws / "model"), "--data-dir", str(ws / "data"),
         "--features", str(ws / "feat"), "--seed", "3", *SET],
        ["evaluate", "--out", str(ws / "eval"), "--data-dir", str(ws / "data"),
         "--model", str(ws / "model"),
         "--features", str(ws / "feat" / "features.json"),
         "--seed", "3", *SET],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    return ws


def test_synth_artifacts(workspace):
    data = workspace / "data"
    for name in ("train_synthetic.txt", "test_synthetic.txt",
                 "RUL_synthetic.txt", "truth.json", "manifest.json",
                 "timing.json"):
        assert (data / name).exists(), name
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["dataset"] == "synthetic"
    assert manifest["seed"] == 3
    assert manifest["train_units"] == 6 and manifest["test_units"] == 3
    assert manifest["artifacts"] == sorted(manifest["artifacts"])
    assert len(manifest["config_digest"]) == 16
    # the exported text round-trips through the standard loader
    loaded = D.load_cmapss(
        data / "train_synthetic.txt", data / "test_synthetic.txt",
        data / "RUL_synthetic.txt", rul_max=40.0, n_sensors=6,
    )
    assert len(loaded["train"]) == 6 and len(loaded["test"]) == 3


def test_fit_features_artifacts(workspace):
    feat = workspace / "feat"
    for name in ("features.json", "features_meta.json", "slowness.csv",
                 "features_dump.csv", "manifest.json"):
        assert (feat / name).exists(), name
    meta = json.loads((feat / "features_meta.json").read_text())
    assert meta["num_slow"] == 2
    assert meta["window"] == 8
    assert len(meta["lambdas"]) == 6
    assert meta["per_condition"] is False
    dump_header = (feat / "features_dump.csv").read_text().splitlines()[0]
    assert dump_header.startswith("unit,cycle,stage,")
    assert dump_header.endswith("slow1,slow2")


def test_features_meta_records_the_saved_chain(workspace, tmp_path):
    """features_meta.json and slowness.csv hold the values of the chain
    saved in features.json; sensor 2 is flat, so one channel is dropped."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "train_synthetic.txt").write_bytes(
        (workspace / "data" / "train_synthetic.txt").read_bytes())
    _edit_rows(data / "train_synthetic.txt", _set_column(7, "1.5"))
    feat = tmp_path / "feat"
    assert main(["fit-features", "--out", str(feat), "--data-dir", str(data),
                 "--seed", "3", *SET]) == 0
    pipe = F.pipeline_from_arrays(ckpt.load_arrays(feat / "features.json"))
    meta = json.loads((feat / "features_meta.json").read_text())
    retained = np.flatnonzero(pipe.channel_mask).tolist()
    assert retained == [0, 1, 3, 4, 5]
    assert meta["num_slow"] == pipe.num_slow == pipe.sfa.num_slow
    assert meta["window"] == pipe.window
    assert meta["ridge"] == pipe.sfa.ridge
    assert meta["lambdas"] == pipe.sfa.lambdas.tolist()
    assert meta["retained_channels"] == retained
    rows = list(csv.reader(io.StringIO((feat / "slowness.csv").read_text())))
    assert rows[0] == ["index", "lambda"]
    assert [int(r[0]) for r in rows[1:]] == list(range(1, len(retained) + 1))
    assert [float(r[1]) for r in rows[1:]] == pipe.sfa.lambdas.tolist()
    dump_header = (feat / "features_dump.csv").read_text().splitlines()[0]
    assert dump_header == "unit,cycle,stage,z00,z01,z03,z04,z05,slow1,slow2"


def test_features_dump_writes_the_per_value_text(tmp_path):
    """``features_dump.csv`` holds what ``csv.writer`` writes when each
    value goes through the repr of a float, one cell at a time: signed
    zeros, subnormals, 17-digit reprs and ids that need quotes."""
    awkward = np.array([-0.0, 5e-324, 1e308, 0.1 + 0.2, 4e-7, -4e-7, 0.12345678901234568,
                        -2.2250738585072014e-308, 1e16, 1e-5, 123456789.12345679, 0.0])
    rng = np.random.default_rng(8)
    units = [(uid, cp, awkward[rng.integers(0, len(awkward), size=(n, 5))])
             for uid, cp, n in (("7", 2, 4), ("c01r01", 0, 2), ("a,b", 3, 3),
                                ('q"t', 1, 2), ("l\nf", 1, 1), ("c\rr", 0, 1))]
    header = ["unit", "cycle", "stage", "z00", "z03", "z04", "slow1", "slow2"]
    cli._write_features_dump(tmp_path / "dump.csv", header, units)

    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for uid, cp, values in units:
            for k in range(values.shape[0]):
                stage = "normal" if k < cp else "degradation"
                w.writerow([fmt(v) for v in [uid, k + 1, stage] + list(values[k])])
    assert (tmp_path / "dump.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


CSV_TEXTS = ["7", "c01r01", "a,b", 'q"t', "l\nf", "c\rr", "crlf\r\n", " ", ""]
CSV_NUMBERS = [-0.0, 5e-324, 1e308, 0.1 + 0.2, np.float64(-2.5e-308), np.float32(0.1),
               np.int64(-7), np.uint8(255), 12, True, np.bool_(False)]


def _csv_writer_bytes(rows, end="\r\n") -> bytes:
    """What ``csv.writer`` writes for ``rows`` whose cells were turned into
    text by the CLI's rule: booleans as true/false, integers by ``str``,
    other numbers by the ``repr`` of a float."""
    def text(value):
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    buf = io.StringIO()
    csv.writer(buf, lineterminator=end).writerows([[text(v) for v in row] for row in rows])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name, header", [
    ("slowness.csv", ["index", "lambda"]),
    ("acf.csv", ["lag", "acf"]),
    ("history.csv", ["epoch", "train_loss", "val_loss"]),
    ("grid.csv", ["conv_filters", "lstm_units", "rmse", "score", "seed", "best_epoch"]),
    ("ablation_summary.csv", ["variant", "rmse", "score", "parameters", "best_epoch"]),
])
def test_csv_tables_are_the_csv_writers_bytes(tmp_path, name, header):
    """Every table the CLI writes through ``_write_csv`` holds the bytes
    ``csv.writer`` writes, for awkward numbers and for text that needs
    quotes (a unit id or a variant name), in every column."""
    cells = CSV_NUMBERS + CSV_TEXTS
    rows = [[cells[(r + c) % len(cells)] for c in range(len(header))]
            for r in range(len(cells))]
    cli._write_csv(tmp_path / name, header, rows)
    assert (tmp_path / name).read_bytes() == _csv_writer_bytes([header, *rows])


def test_report_predictions_are_the_csv_writers_bytes(tmp_path):
    ids = [*CSV_TEXTS, 3, np.int64(4)]
    truths = np.array([0.0, 5e-324, 1e308, 0.3, 1.5, 2.0, 7.0, 8.0, 9.0, 10.0, 11.0])
    preds = np.array([-0.0, 0.0, 1e308, 0.1 + 0.2, 1e-5, 2.0, 6.5, 8.25, 9.0, 4e-7, 11.5])
    report = E.build_report(ids, truths, preds, clip=False)
    paths = E.emit_report(report, tmp_path)
    want = [["unit", "true_rul", "predicted_rul", "error"]]
    want += [[str(u), t, p, p - t] for u, t, p in zip(ids, truths, preds)]
    assert paths["csv"].read_bytes() == _csv_writer_bytes(want, "\n")


def test_workspace_csvs_read_back_as_they_were_written(workspace):
    """Each CSV of a CLI run, read by ``csv.reader`` and written again by
    ``csv.writer`` with the file's line ending, gives the same bytes."""
    paths = sorted(workspace.rglob("*.csv"))
    assert {p.name for p in paths} >= {"slowness.csv", "features_dump.csv", "history.csv",
                                       "report_predictions.csv"}
    for path in paths:
        raw = path.read_bytes()
        end = "\n" if path.name == "report_predictions.csv" else "\r\n"
        assert raw.endswith(end.encode()) and raw.count(b"\n") > 1, path.name
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert _csv_writer_bytes(rows, end) == raw, path.name


def test_train_artifacts(workspace):
    model = workspace / "model"
    for name in ("checkpoint.json", "model_config.json", "train_report.json",
                 "history.csv", "manifest.json"):
        assert (model / name).exists(), name
    doc = json.loads((model / "model_config.json").read_text())
    arch = doc["architecture"]
    assert arch["window_length"] == 8
    assert arch["in_channels"] == 8  # six channels plus two slow features
    assert doc["variant"] == "full"
    assert doc["label_scale"] == 40.0
    report = json.loads((model / "train_report.json").read_text())
    assert len(report["train_loss"]) == 2
    assert "wall_seconds" not in report  # timing lives in timing.json
    history = (model / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_loss"
    assert len(history) == 3


def test_evaluate_artifacts_and_determinism(workspace):
    out = workspace / "eval"
    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) == 3
    assert np.isfinite(report["rmse"]) and np.isfinite(report["score"])
    assert all(0.0 <= r["predicted_rul"] <= 40.0 for r in report["rows"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rmse"] == report["rmse"]
    assert manifest["units"] == 3
    csv_head = (out / "report_predictions.csv").read_text().splitlines()[0]
    assert csv_head == "unit,true_rul,predicted_rul,error"
    # a rerun of the same evaluation is byte-identical
    rc = main([
        "evaluate", "--out", str(workspace / "eval2"),
        "--data-dir", str(workspace / "data"),
        "--model", str(workspace / "model"),
        "--features", str(workspace / "feat" / "features.json"),
        "--seed", "3", *SET,
    ])
    assert rc == 0
    assert (workspace / "eval2" / "report.json").read_bytes() == \
        (out / "report.json").read_bytes()


def test_tune_smoke(workspace):
    out = workspace / "tune"
    rc = main([
        "tune", "--out", str(out), "--data-dir", str(workspace / "data"),
        "--features", str(workspace / "feat"), "--seed", "3", *SET,
    ])
    assert rc == 0
    grid = (out / "grid.csv").read_text().splitlines()
    assert grid[0] == "conv_filters,lstm_units,rmse,score,seed,best_epoch"
    assert len(grid) == 3  # full exploration of 1 x 2 candidates
    best = json.loads((out / "best.json").read_text())
    assert best["conv_filters"] == 8 and best["lstm_units"] in (4, 8)
    assert any(str(best["lstm_units"]) == line.split(",")[1] for line in grid[1:])


def test_tune_cells_are_the_models_train_builds(workspace, tmp_path, monkeypatch):
    """With ``basic_capsule.channels`` pinned, each cell keeps the pinned
    count, exactly as ``train --set model.filters=f`` resolves it."""
    pinned = SET + ["--set", "model.basic_capsule.channels=3",
                    "--set", "tune.filter_candidates=[8,16]"]
    seen = []
    real_train = cli.T.train

    def recording_train(config, *args, **kwargs):
        seen.append(config)
        return real_train(config, *args, **kwargs)

    monkeypatch.setattr(cli.T, "train", recording_train)
    data, feat = str(workspace / "data"), str(workspace / "feat")
    assert main(["tune", "--out", str(tmp_path / "tune"), "--data-dir", data,
                 "--features", feat, "--seed", "3", *pinned]) == 0
    monkeypatch.setattr(cli.T, "train", real_train)
    pipe = cli._load_features(feat)
    cells = [(f, u) for f in (8, 16) for u in (4, 8)]
    assert len(seen) == len(cells)
    for (f, u), config in zip(cells, seen):
        cfg = C.load_config(None)
        C.apply_overrides(cfg, pinned[1::2] + [f"model.filters={f}", f"model.lstm_units={u}"])
        assert config == C.resolve_model_config(
            cfg, frame_channels=pipe.frame_channels, num_slow=pipe.sfa.num_slow,
            plain_channels=pipe.sfa.n_channels, window=pipe.window)
        assert (config.conv_filters, config.caps_channels, config.lstm_units) == (f, 3, u)
    grid = (tmp_path / "tune" / "grid.csv").read_text().splitlines()[1:]
    assert [tuple(int(v) for v in row.split(",")[:2]) for row in grid] == cells
    # the 16 x 8 cell is the architecture train writes for those values
    model = tmp_path / "model"
    assert main(["train", "--out", str(model), "--data-dir", data, "--features", feat,
                 "--seed", "3", "--epochs", "1", *pinned,
                 "--set", "model.filters=16", "--set", "model.lstm_units=8"]) == 0
    arch = json.loads((model / "model_config.json").read_text())["architecture"]
    assert arch == json.loads(json.dumps(asdict(seen[-1])))


def test_ablate_smoke(workspace):
    out = workspace / "ablate"
    rc = main([
        "ablate", "--out", str(out), "--data-dir", str(workspace / "data"),
        "--variant", "full", "--variant", "no-sfa", "--epochs", "1",
        "--seed", "3", *SET,
    ])
    assert rc == 0
    summary = (out / "ablation_summary.csv").read_text().splitlines()
    assert summary[0] == "variant,rmse,score,parameters,best_epoch"
    rows = [line.split(",") for line in summary[1:]]
    assert [row[0] for row in rows] == ["full", "no-sfa"]
    test_units = json.loads((workspace / "data" / "manifest.json").read_text())["test_units"]
    counts = {}
    for variant, row in zip(("full", "no-sfa"), rows):
        report = json.loads((out / variant / "report.json").read_text())
        assert report["variant"] == variant
        assert len(report["rows"]) == test_units
        counts[variant] = json.loads(
            (out / variant / "train_report.json").read_text())["parameter_count"]
        assert int(row[3]) == counts[variant]
    # slow-feature columns change the input width, hence the size
    assert counts["full"] != counts["no-sfa"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["variants"] == ["full", "no-sfa"]


def test_ablate_refuses_a_repeated_variant(workspace, tmp_path, capsys):
    """A variant named twice would be trained twice and listed twice in
    the summary and the manifest: exit 2 naming it, before any file."""
    out = tmp_path / "ablate"
    capsys.readouterr()
    assert main(["ablate", "--out", str(out), "--data-dir", str(workspace / "data"),
                 "--variant", "full", "--variant", "no-sfa", "--variant", "full",
                 "--epochs", "1", *SET]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err == {"error": "config", "problems": ["--variant full is given more than once"]}
    assert not out.exists()


def test_ablate_scores_like_train_and_evaluate(workspace, tmp_path):
    """Each ablation variant writes the report, predictions and train
    report that ``train --variant`` followed by ``evaluate`` write."""
    variants = ("full", "no-lstm", "no-sfa")
    data, feat = str(workspace / "data"), str(workspace / "feat")
    run = ["--epochs", "1", "--seed", "3", *SET]
    argv = ["ablate", "--out", str(tmp_path / "ablate"), "--data-dir", data, *run]
    for variant in variants:
        argv += ["--variant", variant]
    assert main(argv) == 0
    for variant in variants:
        model, ev = tmp_path / variant / "model", tmp_path / variant / "eval"
        assert main(["train", "--out", str(model), "--data-dir", data, "--features", feat,
                     "--variant", variant, *run]) == 0
        assert main(["evaluate", "--out", str(ev), "--data-dir", data, "--features", feat,
                     "--model", str(model), "--seed", "3", *SET]) == 0
        for got, want in (("report.json", ev), ("report_predictions.csv", ev),
                          ("train_report.json", model)):
            assert (tmp_path / "ablate" / variant / got).read_bytes() == \
                (want / got).read_bytes(), (variant, got)


def test_evaluate_no_clip_reports_the_raw_predictions(workspace, tmp_path):
    model = tmp_path / "model"
    model.mkdir()
    (model / "checkpoint.json").write_bytes((workspace / "model" / "checkpoint.json").read_bytes())
    doc = json.loads((workspace / "model" / "model_config.json").read_text())
    doc["label_scale"] = 1000.0  # predictions far outside [0, rul_max]
    (model / "model_config.json").write_text(json.dumps(doc))
    for out, flags in (("clipped", []), ("raw", ["--no-clip"])):
        assert main(["evaluate", "--out", str(tmp_path / out), "--data-dir",
                     str(workspace / "data"), "--model", str(model), "--features",
                     str(workspace / "feat"), *flags, *SET]) == 0
    data = workspace / "data"
    units = D.load_cmapss(None, data / "test_synthetic.txt", data / "RUL_synthetic.txt",
                          rul_max=40.0, n_sensors=6)["test"]
    ids, preds = E.last_point_predictions(
        ckpt.arrays_to_tensors(ckpt.load_arrays(model / "checkpoint.json")),
        N.ModelConfig(**doc["architecture"]),
        F.pipeline_from_arrays(ckpt.load_arrays(workspace / "feat" / "features.json")),
        units, 1000.0)
    assert np.any((preds < 0.0) | (preds > 40.0))
    raw = json.loads((tmp_path / "raw" / "report.json").read_text())
    assert raw["clipped"] is False and raw["rul_max"] is None
    assert [r["unit"] for r in raw["rows"]] == ids
    assert [r["predicted_rul"] for r in raw["rows"]] == preds.tolist()
    clipped = json.loads((tmp_path / "clipped" / "report.json").read_text())
    assert clipped["clipped"] is True and clipped["rul_max"] == 40.0
    assert [r["predicted_rul"] for r in clipped["rows"]] == np.clip(preds, 0.0, 40.0).tolist()


# -------------------------------------------------------------- exit codes


def test_config_problem_exits_2(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path), "--set", "model.epoch=0"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert any("epoch" in q for q in err["problems"])


def test_unknown_override_exits_2(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path), "--set", "model.nope=1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"


@pytest.mark.parametrize("rul_max", ["1e19", "1e300"])
def test_synthetic_rul_max_beyond_int64_exits_2(tmp_path, capsys, rul_max):
    """A test unit's residual life is an int64 draw up to 0.8 * rul_max;
    a rul_max of 2**63 or more is refused before anything is written."""
    out = tmp_path / "o"
    out.mkdir()
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--seed", "3", *SET,
                 "--set", f"synthetic.rul_max={rul_max}"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert len(err["problems"]) == 1 and err["problems"][0].startswith("synthetic.rul_max")
    assert list(out.iterdir()) == []


def test_synthetic_rul_max_within_int64_succeeds(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "o"), "--seed", "3", *SET,
                 "--set", "synthetic.rul_max=1e18"]) == 0
    assert (tmp_path / "o" / "RUL_synthetic.txt").is_file()


# settings whose one value is fixed in the code (README, Configuration)
REMOVED_KEYS = [
    "features.ridge_scale", "features.constant_tol", "features.max_lag",
    "training.beta1", "training.beta2", "training.eps", "training.min_delta",
    "training.scale_labels", "training.shuffle",
    "synthetic.latents", "synthetic.periods", "synthetic.drift_latent",
    "synthetic.drift_slope", "synthetic.noise_scale", "synthetic.mixing",
]


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_unknown(tmp_path, capsys, key):
    section, leaf = key.split(".")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({section: {leaf: 1}}))
    with pytest.raises(C.ConfigError) as exc:
        C.load_config(path)
    assert exc.value.problems == [f"unknown config key {key!r}"]
    capsys.readouterr()
    assert main(["synth", "--out", str(tmp_path / "o"), "--set", f"{key}=1"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert err["problems"] == [f"override '{key}=1': unknown key {key!r}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc,section", [
    ({"training": None}, "training"),
    ({"features": None}, "features"),
    ({"model": {"fnn": None}}, "model.fnn"),
    ({"model": {"basic_capsule": None}}, "model.basic_capsule"),
], ids=["training", "features", "model.fnn", "model.basic_capsule"])
def test_null_section_exits_2(tmp_path, capsys, doc, section):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(C.ConfigError) as exc:
        C.load_config(path)
    assert exc.value.problems == [f"{section!r} must be an object"]
    capsys.readouterr()
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0]) == {"error": "config",
                                    "problems": [f"{section!r} must be an object"]}


def test_fewer_synthetic_channels_than_latents_exits_2(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "o"), "--set", "synthetic.channels=1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert err["problems"] == [
        f"synthetic.channels must be an integer >= {D.SyntheticSpec.latents}, "
        "the generator's latent count"]
    assert not (tmp_path / "o").exists()


def test_missing_data_exits_1(tmp_path, capsys):
    rc = main([
        "fit-features", "--out", str(tmp_path / "o"),
        "--data-dir", str(tmp_path / "nowhere"), *SET,
    ])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "FileNotFoundError"
    assert "train_synthetic.txt" in err["message"]


@pytest.mark.parametrize("command", ["evaluate", "ablate"])
def test_missing_rul_file_exits_1_naming_it(workspace, tmp_path, capsys, command):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("train", "test"):
        src = workspace / "data" / f"{name}_synthetic.txt"
        (data / src.name).write_bytes(src.read_bytes())
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--data-dir", str(data), "--seed", "3", *SET]
    if command == "evaluate":
        argv += ["--features", str(workspace / "feat"), "--model", str(workspace / "model")]
    else:
        argv += ["--epochs", "1"]
    capsys.readouterr()
    assert main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0]) == {
        "error": "FileNotFoundError",
        "message": f"missing residual-life data {data / 'RUL_synthetic.txt'}",
    }
    assert not (out / "report.json").exists()
    assert not (out / "ablation_summary.csv").exists()


def test_non_finite_training_data_exits_1(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    lines = (workspace / "data" / "train_synthetic.txt").read_text().splitlines()
    tokens = lines[4].split()
    tokens[7] = "nan"  # sensor 2 of the fifth row
    lines[4] = " ".join(tokens)
    (data / "train_synthetic.txt").write_text("\n".join(lines) + "\n")
    rc = main(["fit-features", "--out", str(tmp_path / "feat"),
               "--data-dir", str(data), *SET])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert "train_synthetic.txt:5: non-finite" in err["message"]
    assert not (tmp_path / "feat" / "features.json").exists()


@pytest.mark.parametrize("case", ["unknown_key", "string_int", "null_scale", "int_beyond_int64"])
def test_malformed_model_config_exits_1(workspace, tmp_path, capsys, case):
    model = tmp_path / "model"
    model.mkdir()
    for name in ("checkpoint.json", "model_config.json"):
        (model / name).write_bytes((workspace / "model" / name).read_bytes())
    doc = json.loads((model / "model_config.json").read_text())
    if case == "unknown_key":
        doc["architecture"]["kernel"] = 3
    elif case == "string_int":
        doc["architecture"]["window_length"] = "8"
    elif case == "int_beyond_int64":
        # found by test_seeded_corruption_sweep: the last-point pass's
        # padding ended in an OverflowError traceback
        doc["architecture"]["sequence_length"] = 10**20
    else:
        doc["label_scale"] = None
    (model / "model_config.json").write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["evaluate", "--out", str(tmp_path / "eval"),
               "--data-dir", str(workspace / "data"), "--model", str(model),
               "--features", str(workspace / "feat"), *SET])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert str(model / "model_config.json") in err["message"]
    assert not (tmp_path / "eval" / "report.json").exists()


@pytest.mark.parametrize("case,named", [
    ("short_bias", "fnn.0.bias has shape (1,), expected (16,)"),
    ("extra_array", "unexpected extra.weight"),
    ("missing_array", "missing lstm.w_ho"),
])
def test_checkpoint_not_matching_model_config_exits_1(workspace, tmp_path, capsys,
                                                       case, named):
    model = tmp_path / "model"
    model.mkdir()
    (model / "model_config.json").write_bytes(
        (workspace / "model" / "model_config.json").read_bytes())
    doc = json.loads((workspace / "model" / "checkpoint.json").read_text())
    if case == "short_bias":
        doc["fnn.0.bias"] = _entry(np.array([0.5]))
    elif case == "extra_array":
        doc["extra.weight"] = _entry(np.array([1.0, 2.0]))
    else:
        del doc["lstm.w_ho"]
    (model / "checkpoint.json").write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["evaluate", "--out", str(tmp_path / "eval"),
               "--data-dir", str(workspace / "data"), "--model", str(model),
               "--features", str(workspace / "feat"), *SET])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert str(model / "checkpoint.json") in err["message"]
    assert named in err["message"]
    assert not (tmp_path / "eval" / "report.json").exists()


def _entry(a) -> dict:
    """One array entry as the checkpoint format writes it: base64 of the
    raw <f8 bits, so unlike ``ckpt.dumps_arrays`` it also writes NaN."""
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def test_decimal_artifacts_are_refused(workspace, tmp_path, capsys):
    """Array files with "data" as a list of float literals, a form no
    command writes, exit 1 naming the file."""
    model, feat = tmp_path / "model", tmp_path / "feat"
    for rel in ("model/checkpoint.json", "model/model_config.json", "feat/features.json"):
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_bytes((workspace / rel).read_bytes())
    for command, path in (("evaluate", model / "checkpoint.json"),
                          ("train", feat / "features.json")):
        saved = path.read_bytes()
        arrays = ckpt.load_arrays(path)
        path.write_text(json.dumps(
            {k: {"shape": list(a.shape), "data": a.ravel().tolist()} for k, a in arrays.items()},
            sort_keys=True, separators=(",", ":")) + "\n")
        out = tmp_path / command
        argv = [command, "--out", str(out), "--data-dir", str(workspace / "data"),
                "--features", str(feat), "--seed", "3", *SET]
        if command == "evaluate":
            argv += ["--model", str(model)]
        capsys.readouterr()
        assert main(argv) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{path}: array ")
        assert "data must be a base64 string, not list" in err["message"]
        for name in ("checkpoint.json", "report.json"):
            assert not (out / name).exists(), name
        path.write_bytes(saved)


def _nan_in_cov_diff(text: str) -> str:
    doc = json.loads(text)
    a = ckpt.loads_arrays(json.dumps({"x": doc["sfa_cov_diff"]}))["x"]
    a.flat[1] = np.nan
    doc["sfa_cov_diff"] = _entry(a)
    return json.dumps(doc)


def _truncated(text: str) -> str:
    return text[: len(text) // 2]


def _set_scalar(name: str, value: float):
    def edit(text: str) -> str:
        doc = json.loads(text)
        doc[name] = _entry(value)
        return json.dumps(doc)
    return edit


def _set_array(name: str, edit):
    def apply(text: str) -> str:
        doc = json.loads(text)
        a = edit(ckpt.loads_arrays(json.dumps({"x": doc[name]}))["x"])
        doc[name] = _entry(a)
        return json.dumps(doc)
    return apply


def _repeat(name: str):
    """Name ``name`` a second time, last, with zeros of the same shape."""
    def edit(text: str) -> str:
        second = json.dumps(_entry(np.zeros_like(ckpt.loads_arrays(text)[name])))
        return text.rstrip().removesuffix("}") + f',"{name}":{second}}}\n'
    return edit


def _add(name: str):
    """Add an array ``name``, a copy of ``sfa_ridge``."""
    def edit(text: str) -> str:
        doc = json.loads(text)
        doc[name] = doc["sfa_ridge"]
        return json.dumps(doc)
    return edit


def _drop(name: str):
    def edit(text: str) -> str:
        doc = json.loads(text)
        del doc[name]
        return json.dumps(doc)
    return edit


def _set_model(key: str, value):
    """Set a field of model_config.json: ``label_scale`` or an
    architecture field."""
    def edit(text: str) -> str:
        doc = json.loads(text)
        (doc if key == "label_scale" else doc["architecture"])[key] = value
        return json.dumps(doc)
    return edit


# (case, command, file edited, edit, reason)
ARTIFACT_CORRUPTIONS = [
    ("nan_in_features", "train", "features.json", _nan_in_cov_diff,
     "array sfa_cov_diff: non-finite"),
    ("truncated_features", "train", "features.json", _truncated, "line 1 column"),
    ("truncated_checkpoint", "evaluate", "checkpoint.json", _truncated,
     "line 1 column"),
    ("fractional_window", "evaluate", "features.json", _set_scalar("window", 8.7),
     "window must be a whole number in [1, inf], got [8.7]"),
    ("zero_window", "train", "features.json", _set_scalar("window", 0.0),
     "window must be a whole number"),
    ("num_slow_above_channels", "train", "features.json", _set_scalar("num_slow", 99.0),
     "num_slow must be a whole number in [1, "),
    ("fractional_num_slow", "evaluate", "features.json", _set_scalar("num_slow", 1.5),
     "num_slow must be a whole number"),
    # whole and in range, but not the frames the model was trained on;
    # a window of 1e12 used to end in a MemoryError traceback
    ("huge_window", "evaluate", "features.json", _set_scalar("window", 1e12),
     "1000000000000x8 frames do not match model_config.json (8x8)"),
    ("fewer_slow_features", "evaluate", "features.json", _set_scalar("num_slow", 1.0),
     "8x7 frames do not match model_config.json (8x8)"),
    # a window no training unit can fill used to end in "no frames to
    # concatenate", naming neither the file nor the window
    ("huge_window_train", "train", "features.json", _set_scalar("window", 1e12),
     "window 1000000000000 is longer than every unit's degradation stage"),
    ("huge_window_tune", "tune", "features.json", _set_scalar("window", 1e12),
     "window 1000000000000 is longer than every unit's degradation stage"),
    # arrays of the wrong shape or missing used to end in a TypeError,
    # IndexError or KeyError naming no file
    ("ridge_of_two", "train", "features.json", _set_array("sfa_ridge", lambda a: a.repeat(2)),
     "sfa_ridge has shape (2,), expected ()"),
    ("include_slow_of_two", "evaluate", "features.json",
     _set_array("include_slow", lambda a: a.repeat(2)), "include_slow has shape (2,), expected ()"),
    ("channel_mask_2d", "train", "features.json", _set_array("channel_mask", lambda a: a[None]),
     "channel_mask must be 1-D, got shape (1, 6)"),
    ("missing_ridge", "evaluate", "features.json", _drop("sfa_ridge"),
     "missing array sfa_ridge"),
    # an array the chain does not define used to be ignored, and train
    # and evaluate exited 0
    ("extra_array_train", "train", "features.json", _add("sfa_ridge_old"),
     "unexpected array sfa_ridge_old"),
    ("extra_array_evaluate", "evaluate", "features.json", _add("sfa_ridge_old"),
     "unexpected array sfa_ridge_old"),
    # json.loads alone keeps the last entry, and evaluate exited 0
    ("duplicate_bias", "evaluate", "checkpoint.json", _repeat("fnn.0.bias"),
     "duplicate key fnn.0.bias"),
    # whole-number floats used to end in a TypeError traceback at
    # initialization; a string use_lstm and a zero label_scale exited 0
    ("float_window_length", "evaluate", "model_config.json", _set_model("window_length", 8.0),
     "window_length must be an integer, got 8.0"),
    ("float_conv_filters", "evaluate", "model_config.json", _set_model("conv_filters", 8.0),
     "conv_filters must be an integer, got 8.0"),
    ("string_use_lstm", "evaluate", "model_config.json", _set_model("use_lstm", "no"),
     "use_lstm must be a boolean, got 'no'"),
    ("zero_label_scale", "evaluate", "model_config.json", _set_model("label_scale", 0),
     "label_scale must be a positive number, got 0.0"),
    # a billion-frame sequence per unit is refused before any frame is built
    ("huge_sequence_length", "evaluate", "model_config.json",
     _set_model("sequence_length", 10**9),
     "GiB for the last-point sequences of 3 units, 1000000000 frames each"),
]


@pytest.mark.parametrize("case,command,artifact,edit,reason", ARTIFACT_CORRUPTIONS,
                         ids=[c[0] for c in ARTIFACT_CORRUPTIONS])
def test_corrupt_artifact_exits_1(workspace, tmp_path, capsys, case, command, artifact,
                                  edit, reason):
    model, feat = tmp_path / "model", tmp_path / "feat"
    for rel in ("model/checkpoint.json", "model/model_config.json", "feat/features.json"):
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_bytes((workspace / rel).read_bytes())
    path = (feat if artifact == "features.json" else model) / artifact
    path.write_text(edit(path.read_text()))
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--data-dir", str(workspace / "data"),
            "--features", str(feat), *SET]
    if command == "evaluate":
        argv += ["--model", str(model)]
    capsys.readouterr()
    assert main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["error"] == ("MemoryError" if case == "huge_sequence_length" else "ValueError")
    assert err["message"].startswith(f"{path}: ")
    assert reason in err["message"]
    for name in ("checkpoint.json", "report.json"):
        assert not (out / name).exists(), name


def _edit_rows(path: Path, edit) -> None:
    rows = [line.split() for line in path.read_text().splitlines()]
    path.write_text("\n".join(" ".join(r) for r in edit(rows)) + "\n")


def _truncate_row(rows):
    rows[4] = rows[4][:-2]
    return rows


def _skip_cycle(rows):
    rows[3][1] = str(int(rows[3][1]) + 5)
    return rows


def _constant_channels(rows):
    for r in rows:
        r[5:] = ["1.5"] * len(r[5:])
    return rows


def _set_column(col, value):
    def edit(rows):
        for r in rows:
            r[col] = value
        return rows
    return edit


def _first_unit_only(rows):
    return [r for r in rows if r[0] == rows[0][0]]


def _set_field(row, col, value):
    def edit(rows):
        rows[row][col] = value
        return rows
    return edit


# (case, command, file edited, edit, extra arguments, exit code, reason)
CORRUPTIONS = [
    ("truncated_row", "fit-features", "train", _truncate_row, [], 1,
     "train_synthetic.txt: inconsistent column counts"),
    ("non_contiguous_cycles", "fit-features", "train", _skip_cycle, [], 1,
     "train_synthetic.txt: unit 1 cycles are not contiguous"),
    ("rul_count_mismatch", "evaluate", "RUL", lambda rows: rows[:-1], [], 1,
     "residual-life file has 2 entries for 3 test units"),
    ("ten_channels_against_six", "train", None, None, ["--set", "synthetic.channels=10"], 1,
     "raw channel count 10 does not match"),
    ("all_constant_channels", "fit-features", "train", _constant_channels, [], 1,
     "all channels are constant"),
    ("one_training_unit", "train", "train", _first_unit_only, [], 1,
     "need at least two units"),
    ("batch_size_not_int", "train", None, None, ["--set", "training.batch_size=abc"], 2,
     "training.batch_size must be a positive integer"),
    ("per_condition_not_bool", "train", None, None, ["--set", "features.per_condition=1"], 2,
     "features.per_condition must be a boolean"),
    # ablate fits its own features: its frames used to end in "no frames
    # to concatenate" after one warning per unit
    ("huge_window_ablate", "ablate", None, None, ["--set", "model.window_length=100000"], 1,
     "window 100000 is longer than every unit's degradation stage (at most 40 rows)"),
    # found by test_seeded_corruption_sweep: each used to end in a
    # traceback, a numpy warning line or a report with an infinite score
    ("infinite_rul_max", "fit-features", None, None, ["--set", "rul_max=1e999"], 2,
     "rul_max must be a positive number"),
    ("fractional_unit_id", "fit-features", "train", _set_field(3, 0, "1.5"), [], 1,
     "row 4: unit id and cycle must be whole numbers, got 1.5 and 4.0"),
    ("huge_sensor_value", "fit-features", "train", _set_field(3, 7, "1e160"), [], 1,
     "train_synthetic.txt:4: value of magnitude above 1e+150"),
    ("fractional_rul", "evaluate", "RUL", _set_field(1, 0, "12.5"), [], 1,
     "entry 2: residual life must be a whole number >= 0, got 12.5"),
    ("score_overflow", "evaluate", "RUL", _set_field(0, 0, "99999999999999999999"), [], 1,
     "the score overflows"),
    # a second value per row used to be dropped without a word
    ("rul_two_values_per_row", "evaluate", "RUL", lambda rows: [r + ["999"] for r in rows],
     [], 1, "RUL_synthetic.txt: expected one residual life per row, got 2 values"),
]


@pytest.mark.parametrize("case,command,target,edit,extra,code,reason", CORRUPTIONS,
                         ids=[c[0] for c in CORRUPTIONS])
def test_corrupt_input_fails_at_the_boundary(workspace, tmp_path, capsys, case, command,
                                             target, edit, extra, code, reason):
    """Bad data or overrides end in exit 1 or 2 with one JSON line on
    stderr naming the problem, no traceback and no features, checkpoint
    or report."""
    data = tmp_path / "data"
    if case == "ten_channels_against_six":
        assert main(["synth", "--out", str(data), "--seed", "3", *SET, *extra]) == 0
    else:
        data.mkdir()
        for name in ("train", "test", "RUL"):
            src = workspace / "data" / f"{name}_synthetic.txt"
            (data / src.name).write_bytes(src.read_bytes())
    if edit is not None:
        _edit_rows(data / f"{target}_synthetic.txt", edit)
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--data-dir", str(data), *SET, *extra]
    if command == "train":
        argv += ["--features", str(workspace / "feat")]
    elif command == "evaluate":
        argv += ["--features", str(workspace / "feat"), "--model", str(workspace / "model")]
    capsys.readouterr()
    assert main(argv) == code
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["error"] == ("config" if code == 2 else "ValueError")
    assert reason in (err["problems"][0] if code == 2 else err["message"])
    for name in ("features.json", "checkpoint.json", "report.json"):
        assert not (out / name).exists(), name


# (workspace file mutated, command that reads it); None mutates a --set value
SWEEP_TARGETS = [
    ("feat/features.json", "evaluate"),
    ("model/checkpoint.json", "evaluate"),
    ("model/model_config.json", "evaluate"),
    ("data/train_synthetic.txt", "fit-features"),
    ("data/test_synthetic.txt", "evaluate"),
    ("data/RUL_synthetic.txt", "evaluate"),
    (None, "fit-features"),
    (None, "evaluate"),
]
SWEEP_DRAWS = 160
SWEEP_TOKENS = ["0", "-1", "2.5", "1e308", "1e999", "-1e999", "1e-320", "nan", "NaN",
                "Infinity", "99999999999999999999", "null", "true", '""', '"x"', "[]",
                "{}", "[1,2]", "x", ""]
# a JSON string, a run of number or word characters, or one other character
_TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|[-+.\w]+|\S')
_LOG_LINE = re.compile(r"^(DEBUG|INFO|WARNING|ERROR|CRITICAL) ")


def _mutate(raw: bytes, rng) -> bytes:
    """One seeded token- or byte-level mutation of ``raw``: a token
    replaced, a byte overwritten, a span deleted or duplicated, bytes
    inserted, or the tail cut."""
    kind = int(rng.integers(6))
    pos = int(rng.integers(len(raw) + 1))
    span = int(rng.integers(1, 9))
    if kind == 0:
        tokens = list(_TOKEN.finditer(raw))
        if tokens:
            m = tokens[int(rng.integers(len(tokens)))]
            new = SWEEP_TOKENS[int(rng.integers(len(SWEEP_TOKENS)))].encode()
            return raw[: m.start()] + new + raw[m.end() :]
    if kind == 1 and pos < len(raw):
        return raw[:pos] + bytes([int(rng.integers(256))]) + raw[pos + 1 :]
    if kind == 2:
        return raw[:pos] + raw[pos + span :]
    if kind == 3:
        return raw[:pos] + raw[pos : pos + span] + raw[pos:]
    if kind == 4:
        alphabet = b'0123456789-+.eE"[]{},: x\n'
        return raw[:pos] + bytes(rng.choice(list(alphabet), size=span).tolist()) + raw[pos:]
    return raw[:pos]


def test_seeded_corruption_sweep(workspace, tmp_path, capsys):
    """Seeded mutations of each CLI input (the features, checkpoint and
    model config, the data files, a --set value) exit 0 with finite
    outputs, or 1 or 2 with one JSON error line; none raises or warns."""
    for k in range(SWEEP_DRAWS):
        rng = np.random.default_rng(np.random.SeedSequence([2024, k]))
        target, command = SWEEP_TARGETS[k % len(SWEEP_TARGETS)]
        run = tmp_path / f"draw{k}"
        for name in ("data", "feat", "model"):
            shutil.copytree(workspace / name, run / name)
        overrides = list(SET)
        if target is None:
            i = 2 * int(rng.integers(len(SET) // 2)) + 1
            key, value = overrides[i].split("=", 1)
            overrides[i] = key + "=" + _mutate(value.encode(), rng).decode("utf-8", "replace")
            what = overrides[i]
        else:
            path = run / target
            path.write_bytes(_mutate(path.read_bytes(), rng))
            what = target
        out = run / "out"
        argv = [command, "--out", str(out), "--data-dir", str(run / "data"), *overrides]
        if command == "evaluate":
            argv += ["--features", str(run / "feat"), "--model", str(run / "model")]
        capsys.readouterr()
        with warnings.catch_warnings():
            # a numpy warning would print lines beside the JSON error
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        err = [line for line in capsys.readouterr().err.splitlines()
               if line.strip() and not _LOG_LINE.match(line)]
        if code == 0:
            if command == "evaluate":
                report = json.loads((out / "report.json").read_text())
                values = [report["rmse"], report["score"]]
                values += [r["predicted_rul"] for r in report["rows"]]
            else:
                values = [v for a in ckpt.load_arrays(out / "features.json").values()
                          for v in a.ravel()]
            assert all(math.isfinite(v) for v in values), (k, what)
            continue
        assert code in (1, 2), (k, what, code)
        assert len(err) == 1, (k, what, err)
        assert "error" in json.loads(err[0]), (k, what, err)
        for name in ("features.json", "report.json"):
            assert not (out / name).exists(), (k, what, name)


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_huge_model_fails_at_the_boundary(workspace, tmp_path, capsys, command):
    """A capsule count whose routing transforms would take 2 EiB, more
    than any address space: ``train`` refuses it before allocating, and
    ``evaluate`` checks the checkpoint's shapes without allocating the
    model.  Both used to end in a MemoryError traceback."""
    arch = json.loads((workspace / "model" / "model_config.json").read_text())["architecture"]
    cfg = N.ModelConfig(**arch)
    number = 2**61 // (cfg.num_basic_capsules * cfg.advanced_dim * cfg.caps_dim * 8)
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--data-dir", str(workspace / "data"),
            "--features", str(workspace / "feat"), *SET]
    if command == "train":
        argv += ["--set", f"model.advanced_capsule.number={number}"]
        error, reason = "MemoryError", "Unable to allocate"
    else:
        model = tmp_path / "model"
        model.mkdir()
        (model / "checkpoint.json").write_bytes(
            (workspace / "model" / "checkpoint.json").read_bytes())
        doc = json.loads((workspace / "model" / "model_config.json").read_text())
        doc["architecture"]["num_advanced"] = number
        (model / "model_config.json").write_text(json.dumps(doc))
        argv += ["--model", str(model)]
        error = "ValueError"
        reason = (f"route.transform has shape ({cfg.num_basic_capsules}, {cfg.num_advanced}, "
                  f"{cfg.advanced_dim}, {cfg.caps_dim}), expected ({cfg.num_basic_capsules}, "
                  f"{number}, {cfg.advanced_dim}, {cfg.caps_dim})")
    capsys.readouterr()
    assert main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["error"] == error
    assert reason in err["message"]
    for name in ("checkpoint.json", "report.json"):
        assert not (out / name).exists(), name


@pytest.mark.parametrize("command", ["train", "tune", "ablate"])
def test_model_larger_than_host_memory_exits_1(workspace, tmp_path, capsys, monkeypatch,
                                               command):
    """A model whose float64 values, gradients and two Adam moments
    exceed the host's physical memory is refused before anything is
    allocated.  The memory figure is patched: one byte short of the
    workspace model's 4 x 8 bytes per parameter."""
    arch = json.loads((workspace / "model" / "model_config.json").read_text())["architecture"]
    need = 32 * sum(math.prod(s) for s in N.parameter_shapes(N.ModelConfig(**arch)).values())
    monkeypatch.setattr(cli, "_host_memory_bytes", lambda: need - 1)

    def no_allocation(*args):
        raise AssertionError("parameters allocated")

    monkeypatch.setattr(N, "init_parameters", no_allocation)
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--data-dir", str(workspace / "data"), *SET]
    if command != "ablate":
        argv += ["--features", str(workspace / "feat")]
    capsys.readouterr()
    assert main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["error"] == "MemoryError"
    assert f"{need / 2**30:.1f} GiB" in err["message"] and "the host has" in err["message"]
    assert not (out / "manifest.json").exists()
    if command == "train":
        # exactly enough memory trains
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_host_memory_bytes", lambda: need)
        assert main(argv) == 0
        assert (out / "checkpoint.json").exists()


def test_train_no_sfa_on_fd001_geometry(tmp_path):
    # configs/fd001.json pins a (1, 8) capsule kernel, the full conv output
    # width of 14 sensors + 2 slow features; without the slow columns the
    # output is 7 wide and the kernel is narrowed to match
    fd001 = Path(__file__).resolve().parent.parent / "configs" / "fd001.json"
    fleet = ["--config", str(fd001), "--set", "dataset=synthetic",
             "--set", "synthetic.channels=14", "--set", "synthetic.units=3",
             "--set", "synthetic.test_units=1", "--set", "synthetic.length_range=[80,90]",
             "--set", "synthetic.rul_max=40", "--set", "rul_max=40"]
    data, feat, model = tmp_path / "data", tmp_path / "feat", tmp_path / "model"
    assert main(["synth", "--out", str(data), *fleet]) == 0
    assert main(["fit-features", "--out", str(feat), "--data-dir", str(data), *fleet]) == 0
    rc = main(["train", "--out", str(model), "--data-dir", str(data),
               "--features", str(feat), "--variant", "no-sfa", "--epochs", "1", *fleet])
    assert rc == 0
    arch = json.loads((model / "model_config.json").read_text())["architecture"]
    assert arch["in_channels"] == 14 and arch["window_length"] == 28
    assert arch["caps_kernel"] == [1, 7]
    assert arch["conv_filters"] == 64 and arch["caps_dim"] == 8
    # the checkpoint holds base64 doubles, about 10.7 bytes a value; decimal
    # literals (about 18-24 bytes a value) would fail here
    doc = json.loads((model / "checkpoint.json").read_text())
    assert all(isinstance(entry["data"], str) for entry in doc.values())
    values = sum(int(np.prod(entry["shape"])) for entry in doc.values())
    assert (model / "checkpoint.json").stat().st_size < 1.4 * 8 * values


def test_per_condition_chain(workspace, tmp_path):
    pc = SET + ["--set", "features.per_condition=true"]
    data = str(workspace / "data")
    steps = [
        ["fit-features", "--out", str(tmp_path / "feat"), "--data-dir", data,
         "--seed", "3", *pc],
        ["train", "--out", str(tmp_path / "model"), "--data-dir", data,
         "--features", str(tmp_path / "feat"), "--seed", "3", *pc],
        ["evaluate", "--out", str(tmp_path / "eval"), "--data-dir", data,
         "--model", str(tmp_path / "model"),
         "--features", str(tmp_path / "feat"), "--seed", "3", *pc],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    meta = json.loads((tmp_path / "feat" / "features_meta.json").read_text())
    assert meta["per_condition"] is True
    saved = json.loads((tmp_path / "feat" / "features.json").read_text())
    assert {"condition_centers", "condition_means", "condition_stds"} <= set(saved)
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert len(report["rows"]) == 3 and np.isfinite(report["rmse"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    from slowcaps import __version__

    assert capsys.readouterr().out.strip() == __version__


@pytest.mark.parametrize("env, level", [
    ({"SLOWCAPS_LOG": "debug"}, logging.DEBUG),
    ({"SLOWCAPS_LOG": " info "}, logging.INFO),
    ({"SLOWCAPS_LOG": "Error"}, logging.ERROR),
    ({}, logging.WARNING),
    ({"SLOWCAPS_LOG": "loud"}, logging.WARNING),
])
def test_log_level_from_environment(monkeypatch, env, level):
    seen = {}
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: seen.update(kw))
    monkeypatch.delenv("SLOWCAPS_LOG", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    cli._setup_logging()
    assert seen["level"] == level


def test_manifests_record_the_runtime(workspace, tmp_path, monkeypatch):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    for stage in ("data", "feat", "model", "eval"):
        doc = json.loads((workspace / stage / "manifest.json").read_text())
        assert doc["runtime"] == {
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "threads": dict(sorted(threads.items())),
        }
    # a thread setting is recorded, and reruns stay byte-identical
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    texts = []
    for k in range(2):
        out = tmp_path / f"run{k}"
        assert main(["synth", "--out", str(out), "--seed", "3", *SET]) == 0
        texts.append((out / "manifest.json").read_text())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["runtime"]["threads"]["OMP_NUM_THREADS"] == "1"


# ----------------------------------------------------------- milling path


def write_milling_csv(path, cases_material=((1, 9), (2, 2)), runs_per_case=3,
                      samples=90):
    rng = np.random.default_rng(1)
    lines = [",".join(D.MILLING_COLUMNS)]
    case_id = 0
    for material, n_cases in cases_material:
        for _ in range(n_cases):
            case_id += 1
            for run in range(1, runs_per_case + 1):
                wear = 0.1 + 0.2 * (run - 1)  # exceeds 0.45 on the third cut
                for k in range(samples):
                    row = [case_id, run, material, 1.5, 0.5, 200]
                    row += list(np.round(rng.normal(size=6), 4))
                    row.append(wear if k == 0 else "")
                    lines.append(",".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def test_fit_features_milling(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    write_milling_csv(data / "milling.csv")
    args = [
        "fit-features", "--out", str(tmp_path / "feat"),
        "--data-dir", str(data),
        "--set", "dataset=milling", "--set", "rul_max=25",
        "--set", "features.num_slow=3", "--set", "model.window_length=10",
    ]
    assert main(args) == 0
    meta = json.loads((tmp_path / "feat" / "features_meta.json").read_text())
    assert meta["num_slow"] == 3 and meta["window"] == 10
    assert meta["per_condition"] is False
    dump = (tmp_path / "feat" / "features_dump.csv").read_text().splitlines()[1:]
    stages = {}
    for line in dump:
        unit, _, stage = line.split(",")[:3]
        stages.setdefault(unit, set()).add(stage)
    # the first cut of each case is the normal stage, every later cut wears
    assert stages["c01r01"] == {"normal"} and stages["c11r01"] == {"normal"}
    assert stages["c01r02"] == {"degradation"} and stages["c01r03"] == {"degradation"}
    assert sum(1 for line in dump if ",normal," in line) == 11 * 90
    # per-condition normalization is a turbofan-only feature
    rc = main(args + ["--set", "features.per_condition=true"])
    assert rc == 2
    # an automatic window reports its noise band like a series fit
    auto = args[:-2]  # without the pinned window
    auto[2] = str(tmp_path / "auto")
    assert main(auto) == 0
    meta = json.loads((tmp_path / "auto" / "features_meta.json").read_text())
    assert meta["acf_band"] == 2.0 / np.sqrt(90)
    manifest = json.loads((tmp_path / "auto" / "manifest.json").read_text())
    assert "acf.csv" in manifest["artifacts"]
    acf = (tmp_path / "auto" / "acf.csv").read_text().splitlines()
    assert acf[0] == "lag,acf" and acf[1] == "0,1.0"


def test_milling_case_without_wear_exits_1_naming_the_file(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    path = data / "milling.csv"
    write_milling_csv(path, cases_material=((1, 10), (2, 3)))
    lines = path.read_text().splitlines()
    lines = [line if line.split(",")[0] != "5" else line.rsplit(",", 1)[0] + ","
             for line in lines]  # case 5's wear column left blank
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "feat"
    capsys.readouterr()
    assert main(["fit-features", "--out", str(out), "--data-dir", str(data),
                 "--set", "dataset=milling"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert json.loads(err[0]) == {
        "error": "ValueError", "message": f"{path}: case 5: no wear measurements at all"}
    assert not (out / "features.json").exists()


def test_milling_chain(tmp_path):
    """fit-features, train, evaluate and tune on milling cuts split by
    case: ten plus three cases give 9 + 2 training and 1 + 1 test cases."""
    data = tmp_path / "data"
    data.mkdir()
    write_milling_csv(data / "milling.csv", cases_material=((1, 10), (2, 3)))
    milling = Path(__file__).resolve().parent.parent / "configs" / "milling.json"
    common = ["--config", str(milling), "--data-dir", str(data), "--seed", "3",
              "--set", "model.window_length=10", "--set", "features.num_slow=3",
              "--set", "model.epoch=1", "--set", "model.sequence_length=3",
              "--set", "model.fnn.widths=[16,1]"]
    feat, model = str(tmp_path / "feat"), str(tmp_path / "model")
    assert main(["fit-features", "--out", feat, *common]) == 0
    assert main(["train", "--out", model, "--features", feat, *common]) == 0
    arch = json.loads((tmp_path / "model" / "model_config.json").read_text())["architecture"]
    assert (arch["window_length"], arch["conv_filters"], arch["caps_channels"]) == (10, 24, 8)
    history = (tmp_path / "model" / "history.csv").read_text().splitlines()
    assert len(history) == 2
    assert main(["evaluate", "--out", str(tmp_path / "eval"), "--model", model,
                 "--features", feat, *common]) == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert [row["unit"] for row in report["rows"]] == [
        f"c{c:02d}r{r:02d}" for c in (10, 13) for r in (1, 2, 3)]
    assert np.isfinite(report["rmse"])
    # the default filter candidates 16, 32, 64 do not divide the pinned
    # capsule dimension 3: each cell bumps them as train would, and the
    # grid keeps the candidate values
    assert main(["tune", "--out", str(tmp_path / "tune"), "--features", feat, *common,
                 "--set", "tune.epochs=1", "--set", "tune.lstm_candidates=[8]"]) == 0
    grid = (tmp_path / "tune" / "grid.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in grid][:2] == [16, 32]
