"""slowcaps benchmark: one workload in one process, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload fd001-train --seed 1 --seconds 35 --trace 0

``--trace 0`` installs no wrappers and prints the end-to-end metrics;
``--trace 1`` wraps slowcaps' public functions (``spans.py``) and prints
the per-layer metrics (``layers.py``).  Timed work is scaled to a
reference host speed by probes around it (``hostspeed.py``).  The last
line on stdout is the result ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment, the wall-clock
samples, the probe times and any failures.  Without a
slowcaps source tree under ``src/`` the script exits 1 and prints no
result.
"""

import time

T_START = time.perf_counter()

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

import numpy as np

import hostspeed
from layers import layer_metrics
from spans import Tracer
from stats import median
from workloads import NAMES, Chain, make

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "config", "data", "pipeline", "network", "tensor", "training",
           "optim", "evaluation", "checkpoint")
E2E_UNITS = {"setup_s": "s", "chain_s": "s", "seq_per_s": "seq/s", "peak_rss_mb": "MB"}


def load_program() -> dict:
    """Import slowcaps from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "slowcaps" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise SystemExit(f"perfbench: no slowcaps checkout at {ROOT}")
    sys.path.insert(0, str(src))
    sc = {name: importlib.import_module(f"slowcaps.{name}") for name in MODULES}
    found = Path(sc["cli"].__file__).resolve().parent
    if found != (src / "slowcaps").resolve():
        raise SystemExit(f"perfbench: imported slowcaps from {found}, not {src}")
    return sc


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "l3": l3,
    }


def measure(args, sc, tracer, work: Path) -> int:
    import_s = time.perf_counter() - T_START
    # every timed piece of work lies between two host probes (hostspeed.py)
    hostspeed.probe()  # allocates the probe's buffers
    probes = [hostspeed.probe()]
    wl = make(args.workload, sc, work, args.seed, tracer, args.tiny)
    setups = []
    for k in range(1 if args.tiny else wl.setup_repeats):
        setups.append(wl.setup(k))
        probes.append(hostspeed.probe())
    setup_scales = hostspeed.scales(probes)

    # warm-up: one checked repetition, not timed
    with tracer.paused():
        wl.run_once(0)

    # closed loop: start another repetition only while it fits the budget
    results = []
    t0 = time.perf_counter()
    loop_probes = [hostspeed.probe()]
    k = 1
    while True:
        t = time.perf_counter()
        result = wl.run_once(k)
        loop_probes.append(hostspeed.probe())
        k += 1
        if result is not None:
            result["probe"] = len(loop_probes) - 2  # ran after this probe
            results.append(result)
        now = time.perf_counter()
        if now - t0 + (now - t) > args.seconds:
            break
    measured_s = time.perf_counter() - t0
    loop_scales = hostspeed.scales(loop_probes)
    for r in results:
        r["scale"] = loop_scales[r["probe"]]
    for failure in wl.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    if not results:
        print("perfbench: every repetition failed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(sc, tracer, results, isinstance(wl, Chain))
    else:
        metrics = {
            "setup_s": import_s * setup_scales[0]
                       + median([wall * f for wall, f in zip(setups, setup_scales)]),
            "chain_s": median([r["chain_s"] * r["scale"] for r in results]),
            "seq_per_s": median([r["seq_per_s"] / r["scale"] for r in results]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wrappers_installed": tracer.installed,
        "environment": environment(), "import_s": import_s, "measured_s": measured_s,
        # wall-clock samples and the scale that turns each into reference time
        "samples": {
            "setup_s": setups,
            "setup_scale": setup_scales,
            "chain_s": [r["chain_s"] for r in results],
            "seq_per_s": [r["seq_per_s"] for r in results],
            "scale": [r["scale"] for r in results],
        },
        "probes_s": {"setup": probes, "loop": loop_probes},
        "failures": wl.failures,
    }))
    print(json.dumps({
        "correct": not wl.failures,
        "attempted": wl.attempted,
        "failed": len(wl.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny fleets, one set-up: for the harness self-test")
    args = parser.parse_args(argv)

    sc = load_program()
    os.chdir(ROOT)
    tracer = Tracer()
    if args.trace:
        tracer.install_slowcaps(sc)
        tracer.active = True
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, sc, tracer, work)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
