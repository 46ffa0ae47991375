"""Cost benchmark across shuffle factors: train-step time and backbone size.

Element counts are exact; wall times are medians over the requested
repetitions and depend on the machine.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

from ..nn import backward, build_backbone, ce_dice_loss
from ..tensor import Rng, Shape4, Tensor4
from .config import TrainConfig
from .train import one_hot_labels


def bench_factors(cfg: TrainConfig, factors: tuple[int, int, int],
                  repetitions: int) -> dict:
    """One benchmark row: median train-step time and backbone activation counts."""
    run_cfg = replace(cfg, factors=tuple(factors), initial_lr=1e-3)
    run_cfg.validate()
    rng = Rng(cfg.seed)
    net = build_backbone(run_cfg.backbone_spec(), rng.spawn(7))
    px, py, pz = cfg.patch
    patch = Tensor4.gaussian(Shape4(px, py, pz, 1), 0.0, 1.0, rng.spawn(13))
    label_values = rng.spawn(17).randint(0, cfg.class_count, px * py * pz)
    labels = one_hot_labels(Tensor4(label_values.reshape(pz, py, px, 1)), cfg.class_count)

    step_times = []
    for _ in range(repetitions):
        net.zero_grad()
        t0 = time.perf_counter()
        probs = net.forward(patch)
        loss = ce_dice_loss(probs, labels, cfg.lambda_ce, cfg.lambda_dice)
        backward(loss)
        step_times.append(time.perf_counter() - t0)

    counts = [n for _, n in net.last_activation_counts]
    return {
        "nx": factors[0],
        "ny": factors[1],
        "nz": factors[2],
        "fwd_bwd_seconds": statistics.median(step_times),
        "backbone_elements_total": sum(counts),
        "backbone_elements_peak": max(counts),
    }


def bench_csv(rows: list[dict]) -> str:
    lines = ["nx,ny,nz,fwd_bwd_seconds,backbone_elements_total,backbone_elements_peak"]
    for r in rows:
        lines.append(
            f"{r['nx']},{r['ny']},{r['nz']},{r['fwd_bwd_seconds']!r},"
            f"{r['backbone_elements_total']},{r['backbone_elements_peak']}"
        )
    return "\n".join(lines) + "\n"
