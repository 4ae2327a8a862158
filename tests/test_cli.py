"""Command-line workflow: artifact layout, exit codes, determinism."""

import json
import logging
import os
from pathlib import Path

import numpy as np
import pytest

from slowcaps import cli
from slowcaps import data as D
from slowcaps import evaluation as E
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
    report = E.load_report(out / "report.json")
    assert len(report.rows) == 3
    assert np.isfinite(report.rmse) and np.isfinite(report.score)
    assert all(0.0 <= r["predicted_rul"] <= 40.0 for r in report.rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rmse"] == report.rmse
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
    assert [line.split(",")[0] for line in summary[1:]] == ["full", "no-sfa"]
    for variant in ("full", "no-sfa"):
        assert (out / variant / "report.json").exists()
        assert (out / variant / "train_report.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["variants"] == ["full", "no-sfa"]


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


def test_missing_data_exits_1(tmp_path, capsys):
    rc = main([
        "fit-features", "--out", str(tmp_path / "o"),
        "--data-dir", str(tmp_path / "nowhere"), *SET,
    ])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "FileNotFoundError"
    assert "train_synthetic.txt" in err["message"]


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


@pytest.mark.parametrize("case", ["unknown_key", "string_int", "null_scale"])
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
        doc["fnn.0.bias"] = {"shape": [1], "data": [0.5]}
    elif case == "extra_array":
        doc["extra.weight"] = {"shape": [2], "data": [1.0, 2.0]}
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
    report = E.load_report(tmp_path / "eval" / "report.json")
    assert len(report.rows) == 3 and np.isfinite(report.rmse)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    from slowcaps import __version__

    assert capsys.readouterr().out.strip() == __version__


@pytest.mark.parametrize("env, level", [
    ({"SLOWCAPS_LOG": "debug"}, logging.DEBUG),
    ({"SDTC_LOG": "info"}, logging.INFO),
    ({"SLOWCAPS_LOG": "error", "SDTC_LOG": "debug"}, logging.ERROR),
    ({}, logging.WARNING),
])
def test_log_level_from_environment(monkeypatch, env, level):
    seen = {}
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: seen.update(kw))
    for name in ("SLOWCAPS_LOG", "SDTC_LOG"):
        monkeypatch.delenv(name, raising=False)
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
