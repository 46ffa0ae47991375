"""Runs one workload, then prints and records its metrics."""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy
import scipy

import voxseg
import workloads

FACTORS = {"train-s222": (2, 2, 2), "train-s111": (1, 1, 1)}


def blas() -> dict:
    """BLAS library numpy was built against, and its thread count if it reports one."""
    dep = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": f"{dep.get('name')} {dep.get('version')}", "threads": threads,
            "threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11], "samples": n}


def end_to_end(outcome: workloads.Outcome) -> dict[str, tuple[float, str]]:
    ops = outcome.op_s
    return {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "op_s.p50": (statistics.median(ops), "s"),
        "voxels_per_s": (outcome.op_voxels * len(ops) / sum(ops), "voxel/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def run(args, work_root: Path, nproc: int) -> int:
    work = work_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    started = time.perf_counter()
    try:
        if args.workload in FACTORS:
            factors = FACTORS[args.workload]
            outcome = (workloads.trace_train(factors, args.seed, work) if args.trace
                       else workloads.run_train(factors, args.seed, args.seconds, work))
        elif args.trace:
            outcome = workloads.trace_infer_eval(args.seed, work)
        else:
            outcome = workloads.run_infer_eval(args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = outcome.layer
        complete = bool(metrics)
    else:
        complete = bool(outcome.op_s and outcome.setup_s)
        metrics = end_to_end(outcome) if complete else {}
    if not complete:
        outcome.fail("no operation completed")

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": time.perf_counter() - started,
        "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas(),
        "voxseg": voxseg.__version__, "operations": len(outcome.op_s),
        "op_s_tail": tail(outcome.op_s), "problems": outcome.problems, **outcome.info,
    }
    result = {
        "correct": not outcome.problems,
        "attempted": max(outcome.attempted, 1),
        "failed": min(outcome.failed, max(outcome.attempted, 1)),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"info": info, **result, "op_s": outcome.op_s, "setup_s": outcome.setup_s}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if outcome.tracer is not None:
        outcome.tracer.write_spans(results / f"{stem}.spans.jsonl")

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value!r} {unit}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0

