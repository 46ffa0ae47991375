"""Whole-volume prediction by tiling overlapped patches and averaging probabilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor4
from .volume import Volume, normalize_patch


@dataclass
class TilingPlan:
    """Patch origins covering a volume; the union of patches hits every voxel."""

    patch: tuple[int, int, int]
    origins: list[tuple[int, int, int]]


def _axis_origins(extent: int, patch: int, stride: int) -> list[int]:
    last = extent - patch
    origins = list(range(0, last + 1, stride))
    if origins[-1] != last:
        origins.append(last)  # clamp the final patch to the boundary
    return origins


def plan_tiling(extents: tuple[int, int, int], patch: tuple[int, int, int],
                stride: tuple[int, int, int] | None = None) -> TilingPlan:
    """Origins at stride multiples plus one boundary-clamped origin per axis.

    Default stride is half the patch extent (at least 1); a stride longer
    than the patch would leave voxels uncovered and is rejected.
    """
    for name, e, p in zip("xyz", extents, patch):
        if p < 1:
            raise ValueError(f"patch extent {name}={p} must be >= 1")
        if p > e:
            raise ValueError(f"patch extent {name}={p} exceeds volume extent {e}")
    if stride is None:
        stride = tuple(max(1, p // 2) for p in patch)
    if min(stride) < 1 or any(s > p for s, p in zip(stride, patch)):
        raise ValueError(f"stride {stride} must be >= 1 and at most patch {tuple(patch)}")
    per_axis = [_axis_origins(e, p, s) for e, p, s in zip(extents, patch, stride)]
    origins = [
        (ox, oy, oz)
        for oz in per_axis[2]
        for oy in per_axis[1]
        for ox in per_axis[0]
    ]
    return TilingPlan(tuple(patch), origins)


def predict_volume(net, volume: Volume, patch: tuple[int, int, int],
                   stride: tuple[int, int, int] | None = None) -> Volume:
    """Average per-patch class probabilities over all covering patches.

    ``net`` needs ``predict(Tensor4) -> Tensor4`` returning per-voxel class
    distributions and a ``spec.class_count``. Volumes smaller than the patch
    are zero-padded for prediction and the padding is cropped from the output.
    Each patch is normalized with the training-time rule.
    """
    X, Y, Z = volume.extents
    pad = [max(0, p - e) for p, e in zip(patch, (X, Y, Z))]
    work = volume
    if any(pad):
        padded = np.pad(volume.tensor.zyxc, ((0, pad[2]), (0, pad[1]), (0, pad[0]), (0, 0)))
        work = Volume(Tensor4(padded), volume.spacing, volume.class_count)
    plan = plan_tiling(work.extents, patch, stride)

    wx, wy, wz = work.extents
    classes = net.spec.class_count
    prob_sum = np.zeros((wz, wy, wx, classes))
    px, py, pz = plan.patch
    for ox, oy, oz in plan.origins:
        probs = net.predict(normalize_patch(work.tensor.crop((ox, oy, oz), plan.patch)))
        prob_sum[oz : oz + pz, oy : oy + py, ox : ox + px, :] += probs.zyxc
    # the origins are a Cartesian product, so a voxel's cover is the (exact)
    # product of the tile counts along each axis
    cx, cy, cz = (np.zeros(e) for e in work.extents)
    for axis_cover, p, axis in zip((cx, cy, cz), plan.patch, range(3)):
        for o in {origin[axis] for origin in plan.origins}:
            axis_cover[o : o + p] += 1.0
    if min(cx.min(), cy.min(), cz.min()) < 1.0:
        raise AssertionError("tiling plan left voxels uncovered")
    cover_yx = np.multiply.outer(cy, cx)[..., None]
    for z, slab in enumerate(prob_sum):  # in place, one z slab of the cover at a time
        slab /= cz[z] * cover_yx
    return Volume(Tensor4(prob_sum[:Z, :Y, :X, :]), volume.spacing)


def decode_labels(prob_volume: Volume) -> Volume:
    """Per-voxel argmax over channels as a uint8 label volume; ties go to the lowest
    class index. More than 256 channels raise ``Volume``'s class-count ValueError."""
    probs = prob_volume.tensor.zyxc
    labels = np.empty((*probs.shape[:3], 1), np.uint8)
    for z, slab in enumerate(probs):  # no full-volume integer temporary
        labels[z, :, :, 0] = slab.argmax(axis=2)
    return Volume(Tensor4(labels), prob_volume.spacing, probs.shape[3])
