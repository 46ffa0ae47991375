"""Cost table across (patch, factors) rows: train-step time, traced memory, backbone size.

Element counts are exact; seconds and traced MiB (``tracemalloc`` peaks above
what was live before the call) depend on the machine.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import statistics
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from ..nn import ShuffleUNet3d, backward, ce_dice_loss
from ..tensor import Rng, Shape4, Tensor4
from .config import TrainConfig

# the same backbone counts at 1x, 8x and 64x the context, then smaller backbones
DEFAULT_ROWS = ("32,32,32:1,1,1;64,64,64:2,2,2;128,128,128:4,4,4;"
                "32,32,32:2,2,2;64,64,64:4,4,2;32,32,32:4,4,2")


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS behind scipy's ``dgemm``, None if it does not say."""
    for path in (Path(scipy.__file__).parent.parent / "scipy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads", None) or getattr(
            lib, "openblas_get_num_threads", None)
        return get and get()
    return None


def traced_peak_mib(run) -> float:
    """Peak traced memory that ``run()`` holds above what was live before it. Garbage
    is collected first, which empties the interpreter's free lists, so they count in no row."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def bench_row(cfg: TrainConfig, repetitions: int) -> dict:
    """Median forward and backward seconds of a train step at ``cfg.patch`` and
    ``cfg.factors``, its traced peak and that of ``predict``, and the backbone
    activation counts."""
    rng = Rng(cfg.seed)
    net = ShuffleUNet3d(cfg.backbone_spec(), rng.spawn(7))
    px, py, pz = cfg.patch
    image = Tensor4.gaussian(Shape4(px, py, pz, 1), 0.0, 1.0, rng.spawn(13))
    label_values = rng.spawn(17).randint(0, cfg.class_count, px * py * pz)
    labels = Tensor4(label_values.reshape(pz, py, px, 1).astype(np.uint8))

    def step() -> tuple[float, float]:
        net.zero_grad()
        t0 = time.perf_counter()
        loss = ce_dice_loss(net.forward(image), labels, cfg.lambda_ce, cfg.lambda_dice)
        t1 = time.perf_counter()
        backward(loss)
        return t1 - t0, time.perf_counter() - t1

    times = [step() for _ in range(repetitions)]
    counts = [n for _, n in net.last_activation_counts]
    return {
        "patch": list(cfg.patch),
        "factors": list(cfg.factors),
        "forward_s": statistics.median(f for f, _ in times),
        "backward_s": statistics.median(b for _, b in times),
        "step_peak_mib": traced_peak_mib(step),
        "predict_peak_mib": traced_peak_mib(lambda: net.predict(image)),
        "backbone_elements_total": sum(counts),
        "backbone_elements_peak": max(counts),
    }


def bench_report(cfg: TrainConfig, rows: list[tuple[tuple, tuple]], repetitions: int) -> dict:
    """The machine, the net and one ``bench_row`` per (patch, factors) row; every
    row's config is validated before the first one runs."""
    row_cfgs = [replace(cfg, patch=patch, extents=patch, factors=factors,
                        initial_lr=1e-3).validate() for patch, factors in rows]
    return {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "blas_threads": _blas_threads()},
        "net": {"k": cfg.k, "widths": list(cfg.widths), "pool": list(cfg.pool),
                "class_count": cfg.class_count, "repetitions": repetitions},
        "rows": [bench_row(row_cfg, repetitions) for row_cfg in row_cfgs],
    }
