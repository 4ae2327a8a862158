"""Alternating A/B pairs of the benchmark between two checkouts.

Run from anywhere::

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload fd001-train --pairs 10 --seconds 58 --seeds 8601

Each checkout runs its own ``BENCHMARK.json`` command (``python3
perfbench/run.py``) with ``--workload W --seed S --seconds T --trace 0``
in a fresh copy of the checkout without ``.git`` and ``__pycache__``,
with ``PYTHONDONTWRITEBYTECODE=1``: as on a host that runs each commit
in a new directory, every run compiles the checkout's sources, and no
run leaves bytecode behind.  Pair i uses seed S0 + i on both sides; the
parent runs first in even pairs and the change first in odd ones, so a
drift of the host's speed falls on both sides alike.

``BENCH_<workload>.json`` in the current directory records, per
end-to-end metric of the change's ``BENCHMARK.json``: both sides'
samples, medians and quartiles, the pairs the change wins, and how far
the change's median moved against the metric's bound.  The metrics are
scaled by perfbench's host-speed probe, so for ``setup_s``, ``chain_s``
and ``seq_per_s`` it records the same for the raw walls as well: each
run's median of the wall-clock samples on perfbench's samples line
(the set-up samples leave out the import time that ``setup_s`` adds).
It also records each run's median ``probes_s.loop``, the probe time
itself.  The script prints the verdict a speed claim needs: the change
wins at least 9 of 10 pairs, and its median beats the parent's by more
than the parent's interquartile range, on the scaled metric and, where
there is one, on its raw wall too: a change in the program's allocator
state can slow the probe and so make a scaled metric look better.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# the end-to-end metrics perfbench derives from wall-clock samples
RAW_WALLS = ("setup_s", "chain_s", "seq_per_s")


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, the raw walls (with the probe's median
    time as ``probe_s``) and the environment of one benchmark run in
    ``checkout``."""
    command = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    # a checkout holding a warm __pycache__ would skip compiling and read a
    # lower setup_s; a fresh PYTHONPYCACHEPREFIX would compile numpy and
    # the standard library too (about 0.6 s a process)
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        root = shutil.copytree(checkout, Path(tmp) / checkout.name,
                               ignore=shutil.ignore_patterns(".git", "__pycache__"))
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_pairs: {' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        raise SystemExit(f"ab_pairs: seed {seed} in {checkout} failed its checks: {result}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    record = json.loads(lines[-2])
    raw = {name: statistics.median(record["samples"][name]) for name in RAW_WALLS}
    raw["probe_s"] = statistics.median(record["probes_s"]["loop"])
    return metrics, raw, record["environment"]


def summary(samples: list[float]) -> dict:
    """Median and quartiles by linear interpolation (numpy's default)."""
    q1, median, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                      if len(samples) > 1 else samples * 3)
    return {"samples": samples, "median": median, "q1": q1, "q3": q3}


def judge(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Both sides of one metric, the change's wins and the claim's test."""
    sign = -1.0 if spec["better"] == "lower" else 1.0
    a, b = summary(parent), summary(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (b["median"] - a["median"])
    iqr = a["q3"] - a["q1"]
    worse_by = -gap / abs(a["median"]) if a["median"] else 0.0
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": a, "change": b,
        "wins": wins, "pairs": len(parent),
        "median_gain": gap, "parent_iqr": iqr,
        "gain_holds": 10 * wins >= 9 * len(parent) and gap > iqr,
        "relative_worsening": worse_by,
        "within_bound": worse_by <= spec["bound"],
    }


def _positive(kind):
    """An argparse type: finite ``kind`` values above 0."""
    def parse(text: str):
        value = kind(text)
        if not (0 < value < float("inf")):
            raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
        return value
    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=_positive(int), default=10)
    parser.add_argument("--seconds", type=_positive(float), required=True,
                        help="length of each run")
    parser.add_argument("--seeds", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    specs = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    runs = {"parent": [], "change": []}
    raws = {"parent": [], "change": []}
    order = []
    for i in range(args.pairs):
        seed = args.seeds + i
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            metrics, raw, environment = run_once(parent if side == "parent" else change,
                                                 args.workload, seed, args.seconds)
            runs[side].append(metrics)
            raws[side].append(raw)
        order.append(",".join(sides))
        print(f"pair {i + 1}/{args.pairs} seed {seed}: "
              + "  ".join(f"{s['name']} {runs['parent'][-1][s['name']]:.4g} -> "
                          f"{runs['change'][-1][s['name']]:.4g}" for s in specs)
              + f"  probe {raws['parent'][-1]['probe_s']:.4g} -> "
                f"{raws['change'][-1]['probe_s']:.4g} s",
              file=sys.stderr, flush=True)

    metrics = {}
    for s in specs:
        name = s["name"]
        m = judge(s, [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]])
        if name in RAW_WALLS:
            m["raw"] = judge(s, [r[name] for r in raws["parent"]],
                             [r[name] for r in raws["change"]])
            m["gain_holds"] = m["gain_holds"] and m["raw"]["gain_holds"]
        metrics[name] = m
    probe = {side: summary([r["probe_s"] for r in raws[side]]) for side in raws}
    doc = {
        "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
        "seeds": [args.seeds + i for i in range(args.pairs)], "order": order,
        "environment": environment, "metrics": metrics, "probe_loop_s": probe,
    }
    out = Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload}: {args.pairs} alternating pairs of {args.seconds:g} s, "
          f"seeds {args.seeds}-{args.seeds + args.pairs - 1}; written to {out}")
    for name, m in metrics.items():
        a, b = m["parent"], m["change"]
        verdict = "gain holds" if m["gain_holds"] else "no gain"
        bound = "within bound" if m["within_bound"] else "WORSE THAN BOUND"
        print(f"  {name} ({m['better']} is better): change {b['median']:.4g} "
              f"[{b['q1']:.4g}, {b['q3']:.4g}] against {a['median']:.4g} "
              f"[{a['q1']:.4g}, {a['q3']:.4g}] {m['unit']}; better in {m['wins']} of "
              f"{m['pairs']}; median gain {m['median_gain']:.3g} against parent IQR "
              f"{m['parent_iqr']:.3g}: {verdict}; {bound} "
              f"({m['relative_worsening']:+.1%} against {m['bound']:.0%})")
        if "raw" in m:
            r = m["raw"]
            print(f"    raw wall: change {r['change']['median']:.4g} [{r['change']['q1']:.4g}, "
                  f"{r['change']['q3']:.4g}] against {r['parent']['median']:.4g} "
                  f"[{r['parent']['q1']:.4g}, {r['parent']['q3']:.4g}]; better in "
                  f"{r['wins']} of {r['pairs']}; median gain {r['median_gain']:.3g} against "
                  f"parent IQR {r['parent_iqr']:.3g}")
    print(f"  probe (probes_s.loop medians): change {probe['change']['median']:.4g} "
          f"[{probe['change']['q1']:.4g}, {probe['change']['q3']:.4g}] against "
          f"{probe['parent']['median']:.4g} [{probe['parent']['q1']:.4g}, "
          f"{probe['parent']['q3']:.4g}] s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
