"""Benchmark of moebius-kit: one workload per run, one process, a closed loop.

    python3 perfbench/run.py --workload pair_kernels --seed 0 --seconds 30 --trace 0

Run from the repository root (any directory holding ``src/moebius_kit``
and ``BENCHMARK.json``).  Operations run one at a time, each starting when
the previous one returns; the program's own BLAS threads are left at
their default.  With ``--trace 0`` the workload's operations are repeated
in passes for about ``--seconds`` and the end-to-end metrics are printed.
With ``--trace 1`` one plain pass of the workload is followed by one
traced pass of every workload, and the per-layer metrics are printed.
The last line of standard output is the result as one JSON object;
perfbench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_PASSES = 2                 # the recovery study's CSV/JSON are compared across passes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pair_kernels", "recovery_trefoil", "descent_small_n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library(times: int) -> list:
    """Import moebius_kit from this checkout's src/ ``times`` times; returns the seconds of each.

    The first import also loads numpy and scipy.  Each later one drops the
    package's modules from ``sys.modules`` and imports them again, which
    repeats the package's own import work.
    """
    src = ROOT / "src"
    if not (src / "moebius_kit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no moebius_kit sources under {src}")
    sys.path.insert(0, str(src))
    seconds = []
    for _ in range(times):
        for name in [m for m in sys.modules if m == "moebius_kit" or m.startswith("moebius_kit.")]:
            del sys.modules[name]
        start = time.perf_counter()
        package = importlib.import_module("moebius_kit")
        importlib.import_module("moebius_kit.cli")
        seconds.append(time.perf_counter() - start)
    if Path(package.__file__).resolve().parent != (src / "moebius_kit").resolve():
        raise SystemExit(f"perfbench: imported moebius_kit from {package.__file__}, not {src}")
    return seconds


def blas_record() -> dict:
    """BLAS library, version and thread count as numpy sees them."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                record["threads"] = getter()
                break
    return record


def environment_record() -> dict:
    import moebius_kit
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas_record(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "moebius_kit": moebius_kit.__version__,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
    }


def quartiles(values) -> dict:
    values = list(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run_pass(workload, tracer=None) -> list:
    """Run every operation once; returns (name, seconds, values, problems) per operation."""
    timed = []
    with tracer.installed() if tracer else nullcontext():
        for op in workload.ops():
            start = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, and the pass goes on
                result, error = None, "".join(traceback.format_exception_only(exc)).strip()
            timed.append((op, time.perf_counter() - start, result, error))
    records = []
    for op, seconds, result, error in timed:
        values, problems = None, [error] if error else []
        if not error:
            try:
                values = op.values(result)
                problems = op.check(values)
            except Exception as exc:  # a check that cannot read the output fails the operation
                problems = ["".join(traceback.format_exception_only(exc)).strip()]
        records.append((op.name, seconds, values, problems))
    return records


def compare_passes(reference: list, other: list, label: str) -> list:
    """Add a problem to each operation of ``other`` whose values differ from ``reference``."""
    expected = {name: values for name, _, values, _ in reference}
    out = []
    for name, seconds, values, problems in other:
        if values != expected.get(name):
            problems = problems + [f"values differ from the {label}"]
        out.append((name, seconds, values, problems))
    return out


def setup_workload(workload, workdir: Path, tracer=None) -> float:
    with tracer.installed() if tracer else nullcontext():
        start = time.perf_counter()
        workload.setup(Path(tempfile.mkdtemp(prefix="setup-", dir=workdir)))
        return time.perf_counter() - start


def plain_run(workload, seconds: float, workdir: Path, imports: list) -> tuple:
    setups = [setup_workload(workload, workdir) for _ in range(SETUP_REPEATS)]
    passes = []
    measured = 0.0
    while True:
        passes.append(run_pass(workload))
        measured += sum(r[1] for r in passes[-1])
        # Another pass only if, at the mean pass time, it ends within half a
        # pass of --seconds.  Three passes of up to 12 s fit in 30 s, so the
        # median can drop a pass that a burst of host load slowed.
        if len(passes) >= MIN_PASSES and measured * (len(passes) + 0.5) / len(passes) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    passes = [passes[0]] + [compare_passes(passes[0], p, "first pass") for p in passes[1:]]
    per_op = {}
    for records in passes:
        for name, op_seconds, _, _ in records:
            per_op.setdefault(name, []).append(op_seconds)
    # the fixed set of operations, each at its median over the passes
    wall_s = sum(statistics.median(times) for times in per_op.values())
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": quartiles(sum(s for _, s, _, _ in records) for records in passes),
        "op_median_s": {name: statistics.median(times) for name, times in per_op.items()},
        "import_s": imports,
        "setup_repeats_s": setups,
    }
    return metrics, [r for records in passes for r in records], detail


def traced_run(workload_cls, seed: int, workdir: Path, workloads: dict) -> tuple:
    from tracing import Tracer

    plain_workload = workload_cls(seed)
    setup_workload(plain_workload, workdir)
    plain = run_pass(plain_workload)
    metrics, records, detail = {}, list(plain), {}
    for name, cls in workloads.items():
        workload, tracer = cls(seed), Tracer()
        # twice: the first set-up runs under tracemalloc, the second is timed
        for _ in range(2):
            setup_workload(workload, workdir, tracer)
        traced = run_pass(workload, tracer)
        if cls is workload_cls:
            traced = compare_passes(plain, traced, "plain pass")
            overhead = sum(r[1] for r in traced) - sum(r[1] for r in plain)
            metrics["trace_overhead_s"] = overhead
        records += traced
        values = {op_name: v for op_name, _, v, problems in traced if not problems}
        if len(values) == len(traced):
            layer = workload.layer_metrics(tracer, values)
            metrics.update({f"{cls.tag}.{key}": value for key, value in layer.items()})
        detail[name] = {"traced_wall_s": sum(r[1] for r in traced), "spans": len(tracer.spans)}
    detail["plain_wall_s"] = sum(r[1] for r in plain)
    return metrics, records, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    imports = import_library(1 if args.trace else SETUP_REPEATS)
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            metrics, records, detail = traced_run(WORKLOADS[args.workload], args.seed, workdir, WORKLOADS)
        else:
            workload = WORKLOADS[args.workload](args.seed)
            metrics, records, detail = plain_run(workload, args.seconds, workdir, imports)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failures = [(name, problems) for name, _, _, problems in records if problems]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        error_rate=len(failures) / attempted,
        failures=failures[:20],
        missing_metrics=missing,
        environment=environment_record(),
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']} {metrics[m['name']]!r} {m['unit']}")
    print(f"error_rate {len(failures) / attempted!r} ({len(failures)}/{attempted} operations failed)")
    result = {
        "correct": not failures and not missing,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
