"""Self-test of the benchmark harness.

Runs every workload of ``workloads.NAMES`` (``desk-chain`` too, which
``BENCHMARK.json`` does not list) at a tiny size, untraced and traced,
and checks that each result line names every metric of
``BENCHMARK.json`` with its unit, that the checks passed, that the
untraced run installed no wrappers, and that ``fd001-infer`` made no
backward or Adam calls.  Last, it copies only ``BENCHMARK.json`` and the
benchmark's directories to an empty directory and checks that the
benchmark fails there without printing a result.  Run from the
repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import NAMES

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace)]
    if cwd == ROOT:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {info['failures']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(result["metrics"]) != names:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ names)}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {m['name']} is {value}, not positive")
    if trace == 0 and info["wrappers_installed"] != 0:
        problems.append(f"{where}: untraced run installed {info['wrappers_installed']} wrappers")
    if trace == 1 and workload == "fd001-infer":
        for name in ("tensor.backward_calls", "optim.adam_calls"):
            if result["metrics"][name]["value"] != 0:
                problems.append(f"{where}: {name} = {result['metrics'][name]['value']}")
    return problems


def check_without_program(spec: dict) -> list[str]:
    """In a directory with only the benchmark, it must fail and print no result."""
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare benchmark: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in NAMES:
        for trace in (0, 1):
            found = check_workload(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    found = check_without_program(spec)
    print(f"without the program: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    try:
        (ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass  # a benchmark run elsewhere still uses it
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
