"""tools/ab_pairs.py: alternation, statistics and the claim's verdict."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

SPEC = {"name": "chain_s", "unit": "s", "better": "lower", "bound": 0.25}


def test_summary_uses_numpy_percentiles():
    xs = [0.47, 0.44, 0.52, 0.45, 0.43, 0.61, 0.46]
    got = ab_pairs.summary(xs)
    assert [got["q1"], got["median"], got["q3"]] == \
        np.percentile(xs, [25, 50, 75]).tolist()


def test_judge_needs_nine_wins_in_ten_and_a_gap_above_the_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [p - 0.1 for p in parent]
    m = ab_pairs.judge(SPEC, parent, faster)
    assert m["wins"] == 10 and m["gain_holds"] and m["within_bound"]
    assert abs(m["relative_worsening"] + 0.1) < 1e-12
    # eight wins of ten is not a gain, however large the gap
    m = ab_pairs.judge(SPEC, parent, faster[:8] + [2.0, 2.0])
    assert m["wins"] == 8 and not m["gain_holds"]
    # ten wins inside the parent's own spread are not a gain either
    m = ab_pairs.judge(SPEC, parent, [p - 0.001 for p in parent])
    assert m["wins"] == 10 and not m["gain_holds"]
    # higher-is-better metrics count the other way; 40% worse breaks the bound
    m = ab_pairs.judge(dict(SPEC, better="higher"), parent, [0.6 * p for p in parent])
    assert m["wins"] == 0 and not m["within_bound"]


FAKE_RUN = """
import json, os, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(os.path.join(LOGS, "runs.log"), "a") as fh:
    fh.write(f"{seed}\\n")
with open(os.path.join(LOGS, "env.log"), "a") as fh:
    fh.write(json.dumps([os.environ.get("PYTHONDONTWRITEBYTECODE"), os.getcwd(),
                         os.path.exists("__pycache__")]) + "\\n")
value = SCALE * (1.0 + 0.01 * seed)
walls = [RAW * (1.0 + 0.01 * seed) + d for d in (0.02, -0.01, 0.0)]
print(json.dumps({"environment": {"numpy": "x"},
                  "samples": {"setup_s": [0.2, 0.3], "chain_s": walls, "seq_per_s": [9.0]},
                  "probes_s": {"setup": [1.0], "loop": [PROBE, 2 * PROBE, 0.5 * PROBE]}}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"chain_s": {"value": value, "unit": "s"}}}))
"""


def fake_pairs(tmp_path, monkeypatch, change_raw, change_probe):
    """Three stubbed pairs: the change's scaled ``chain_s`` is 10% below
    the parent's; its raw walls and probe times are as given, against a
    parent at 1.0 and a 0.06 s probe."""
    for side, raw, probe in (("parent", 1.0, 0.06), ("change", change_raw, change_probe)):
        root = tmp_path / side
        root.mkdir()
        scale = 1.0 if side == "parent" else 0.9
        (root / "fake_run.py").write_text(FAKE_RUN.replace("SCALE", str(scale))
                                          .replace("RAW", str(raw)).replace("PROBE", str(probe))
                                          .replace("LOGS", repr(str(root))))
        (root / "__pycache__").mkdir()  # bytecode a run must not see
        (root / "__pycache__" / "stale.pyc").write_bytes(b"")
        (root / "BENCHMARK.json").write_text(json.dumps(
            {"command": [sys.executable, "fake_run.py"], "end_to_end": [SPEC]}))
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    assert ab_pairs.main(["--parent", str(tmp_path / "parent"),
                          "--change", str(tmp_path / "change"), "--workload", "w",
                          "--pairs", "3", "--seconds", "1", "--seeds", "5"]) == 0
    return json.loads((out / "BENCH_w.json").read_text())


def test_runs_alternate_and_write_the_bench_file(tmp_path, monkeypatch):
    doc = fake_pairs(tmp_path, monkeypatch, change_raw=0.9, change_probe=0.06)
    assert doc["order"] == ["parent,change", "change,parent", "parent,change"]
    assert doc["seeds"] == [5, 6, 7]
    assert doc["environment"] == {"numpy": "x"}
    m = doc["metrics"]["chain_s"]
    assert m["parent"]["samples"] == [1.05, 1.06, 1.07]
    assert m["wins"] == 3 and m["gain_holds"]
    # each run's raw wall is the median of its samples line's chain_s
    raw = m["raw"]
    assert [round(x, 12) for x in raw["parent"]["samples"]] == [1.05, 1.06, 1.07]
    assert raw["wins"] == 3 and raw["gain_holds"]
    assert doc["probe_loop_s"]["parent"]["samples"] == [0.06, 0.06, 0.06]
    copies = []
    for side in ("parent", "change"):
        root = tmp_path / side
        assert (root / "runs.log").read_text().split() == ["5", "6", "7"]
        # every run writes no bytecode, in a copy of the checkout without
        # its __pycache__, which is gone after the run
        env = [json.loads(line) for line in (root / "env.log").read_text().splitlines()]
        assert [(flag, cache) for flag, _, cache in env] == [("1", False)] * 3
        copies += [Path(cwd) for _, cwd, _ in env]
        assert sorted(p.name for p in root.iterdir()) == [
            "BENCHMARK.json", "__pycache__", "env.log", "fake_run.py", "runs.log"]
    assert len(set(copies)) == 6
    assert not any(p.exists() for p in copies)


def test_a_scaled_gain_needs_a_raw_gain_too(tmp_path, monkeypatch, capsys):
    """The scaled chain_s is 10% better in every pair, but the raw walls
    did not move and the probe slowed: only the scale changed, so no
    gain is claimed."""
    doc = fake_pairs(tmp_path, monkeypatch, change_raw=1.0, change_probe=0.08)
    m = doc["metrics"]["chain_s"]
    assert m["wins"] == 3 and m["median_gain"] > m["parent_iqr"]
    assert m["raw"]["wins"] == 0 and not m["raw"]["gain_holds"]
    assert not m["gain_holds"]
    probe = doc["probe_loop_s"]
    assert probe["change"]["median"] == 0.08 and probe["parent"]["median"] == 0.06
    out = capsys.readouterr().out
    assert "chain_s (lower is better)" in out and "no gain" in out and "raw wall" in out


def test_no_pairs_and_no_seconds_are_refused_before_any_run(tmp_path, capsys):
    """``--pairs`` below 1 or ``--seconds`` not above 0 exits 2 with the
    argument named, before any checkout is run."""
    base = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--seeds", "5"]
    for bad, named in ((["--pairs", "0", "--seconds", "1"], "--pairs"),
                       (["--pairs", "-3", "--seconds", "1"], "--pairs"),
                       (["--seconds", "0"], "--seconds"),
                       (["--seconds", "-1"], "--seconds"),
                       (["--seconds", "nan"], "--seconds")):
        with pytest.raises(SystemExit) as exc:
            ab_pairs.main(base + bad)
        assert exc.value.code == 2
        assert f"argument {named}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
