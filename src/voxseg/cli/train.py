"""Training loop: patch sampling, SGD, learning-curve logging, checkpointing."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..atomic import write_atomic
from ..inference import decode_labels, predict_volume
from ..metrics import BinaryMask, dice
from ..nn import Node, ShuffleUNet3d, backward, ce_dice_loss, save_checkpoint
from ..optim import SgdState, sgd_step
from ..tensor import Rng
from ..volume import augment_dataset, load_manifest_volumes, normalize_patch, sample_patch
from .config import TrainConfig


class NumericError(Exception):
    """Training hit a non-finite loss."""


@dataclass
class RunResult:
    checkpoint_path: Path
    log_path: Path
    iterations_run: int
    final_train_loss: float
    final_val_loss: float
    final_val_dice: list[float]
    wall_seconds: float


def _fmt(value: float) -> str:
    return repr(float(value))


def evaluate(net, val_pairs, cfg: TrainConfig) -> tuple[float, list[float]]:
    """Validation loss on center patches plus per-class Dice on tiled predictions."""
    losses = []
    dices = [[] for _ in range(cfg.class_count - 1)]
    for image, labels in val_pairs:
        origin = tuple((e - p) // 2 for e, p in zip(image.extents, cfg.patch))
        img = image.tensor.crop(origin, cfg.patch)
        lab = labels.tensor.crop(origin, cfg.patch)
        probs = Node(net.predict(normalize_patch(img)))
        loss = ce_dice_loss(probs, lab, cfg.lambda_ce, cfg.lambda_dice)
        losses.append(loss.value.at(0, 0, 0, 0))

        prob_vol = predict_volume(net, image, cfg.patch, cfg.resolved_stride())
        pred = decode_labels(prob_vol)
        for cls in range(1, cfg.class_count):
            pm = BinaryMask.from_labels(pred, cls)
            rm = BinaryMask.from_labels(labels, cls)
            dices[cls - 1].append(dice(pm, rm))
    mean_loss = float(np.mean(losses))
    mean_dice = [float(np.mean(d)) for d in dices]
    return mean_loss, mean_dice


def run_training(cfg: TrainConfig, *, dice_target: float | None = None,
                 quiet: bool = True) -> RunResult:
    """Train per config; returns paths and final stats.

    ``dice_target`` stops at the first validation whose mean foreground Dice
    reaches the target. It is off by default and excluded from the
    determinism contract.
    """
    cfg.validate()
    data_dir = Path(cfg.data_dir)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    train_pairs = load_manifest_volumes(data_dir / "train.manifest", cfg.patch, cfg.class_count)
    val_pairs = load_manifest_volumes(data_dir / "test.manifest", cfg.patch, cfg.class_count)

    root = Rng(cfg.seed)
    if cfg.augment_count:
        train_pairs = augment_dataset(train_pairs, cfg.augment_count,
                                      root.spawn(3), sigma=cfg.augment_sigma)

    net = ShuffleUNet3d(cfg.backbone_spec(), root.spawn(7))
    params = net.parameters()
    state = SgdState(params, cfg.resolved_initial_lr(), cfg.momentum, cfg.weight_decay,
                     cfg.lr_halving_period)
    sampler = root.spawn(11)

    log_rows: list[str] = []
    dice_cols = ",".join(f"dice_{c}" for c in range(1, cfg.class_count))
    log_rows.append(f"record,iteration,lr,loss,{dice_cols}")
    empty_dice = "," * (cfg.class_count - 2) if cfg.class_count > 2 else ""

    started = time.perf_counter()
    last_train_loss = math.nan
    last_val_loss = math.nan
    last_val_dice = [math.nan] * (cfg.class_count - 1)
    iterations_run = 0

    for it in range(1, cfg.iterations + 1):
        lr = state.lr  # the rate this iteration's step applies
        net.zero_grad()
        batch_losses = []
        for _ in range(cfg.batch_size):
            vol_idx = sampler.randint(0, len(train_pairs))
            image, labels = train_pairs[vol_idx]
            img, lab = sample_patch(image, labels, cfg.patch, sampler)
            probs = net.forward(img)
            loss = ce_dice_loss(probs, lab, cfg.lambda_ce, cfg.lambda_dice)
            loss_value = loss.value.at(0, 0, 0, 0)
            if not math.isfinite(loss_value):
                raise NumericError(f"non-finite training loss at iteration {it}")
            batch_losses.append(loss_value)
            backward(loss, 1.0 / cfg.batch_size)
        sgd_step(params, state)
        last_train_loss = float(np.mean(batch_losses))
        iterations_run = it
        log_rows.append(
            f"train,{it},{_fmt(lr)},{_fmt(last_train_loss)},{empty_dice}"
        )

        if it % cfg.val_interval == 0 or it == cfg.iterations:
            last_val_loss, last_val_dice = evaluate(net, val_pairs, cfg)
            dice_str = ",".join(_fmt(d) for d in last_val_dice)
            log_rows.append(
                f"val,{it},{_fmt(lr)},{_fmt(last_val_loss)},{dice_str}"
            )
            if not quiet:
                print(f"iter {it}: train {last_train_loss:.4f} "
                      f"val {last_val_loss:.4f} dice {last_val_dice}")
            if dice_target is not None and float(np.mean(last_val_dice)) >= dice_target:
                break

    checkpoint_path = out_dir / "model.vckp"
    save_checkpoint(checkpoint_path, params)
    log_path = out_dir / "runlog.csv"
    write_atomic(log_path, [("\n".join(log_rows) + "\n").encode("utf-8")])

    return RunResult(
        checkpoint_path=checkpoint_path,
        log_path=log_path,
        iterations_run=iterations_run,
        final_train_loss=last_train_loss,
        final_val_loss=last_val_loss,
        final_val_dice=last_val_dice,
        wall_seconds=time.perf_counter() - started,
    )
