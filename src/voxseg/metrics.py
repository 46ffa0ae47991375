"""Segmentation metrics: Dice overlap, average surface distance, Hausdorff distance.

Surfaces are foreground voxels with at least one background voxel among their
6-neighbors; the volume boundary counts as background. Distances are Euclidean
between voxel centers in mm: integer index deltas scaled by the per-axis
spacing, measured surface to surface. Sums of distances are exactly rounded
(math.fsum), so results do not depend on enumeration order.

Nearest-surface distances are exact, not approximated. A kd-tree over the
other surface bounds each one; the minimum is then taken over the few surface
voxels within that bound, in the same arithmetic as a comparison of every
pair, so the results equal the all-pairs values bit for bit. The cost grows
about as n log n in the surface size instead of n squared.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .volume import Volume


class EmptyMaskError(ValueError):
    """Surface distances are undefined for an empty mask."""


@dataclass
class BinaryMask:
    """Boolean voxel grid, axes (z, y, x), with mm spacing along (x, y, z)."""

    voxels: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=bool)
        if self.voxels.ndim != 3:
            raise ValueError(f"mask must have 3 axes, got {self.voxels.ndim}")
        self.spacing = tuple(float(s) for s in self.spacing)

    @classmethod
    def from_labels(cls, volume: Volume, cls_index: int) -> "BinaryMask":
        """One-vs-rest binarization of a label volume."""
        if volume.tensor.shape.c != 1:
            raise ValueError("label volume must be single channel")
        return cls(volume.tensor.zyxc[..., 0] == cls_index, volume.spacing)

    def _check_compatible(self, other: "BinaryMask") -> None:
        if self.voxels.shape != other.voxels.shape:
            raise ValueError(
                f"extent mismatch: {self.voxels.shape} vs {other.voxels.shape}"
            )
        if self.spacing != other.spacing:
            raise ValueError(f"spacing mismatch: {self.spacing} vs {other.spacing}")


def dice(a: BinaryMask, b: BinaryMask) -> float:
    """2 |A n B| / (|A| + |B|); two empty masks compare as 1.0."""
    a._check_compatible(b)
    na, nb = int(a.voxels.sum()), int(b.voxels.sum())
    if na == 0 and nb == 0:
        return 1.0
    inter = int((a.voxels & b.voxels).sum())
    return 2.0 * inter / (na + nb)


def extract_surface(mask: BinaryMask) -> np.ndarray:
    """Surface voxel coordinates as an (n, 3) int array in (x, y, z) order."""
    m = mask.voxels
    padded = np.pad(m, 1)
    interior = m.copy()
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    surface = m & ~interior
    zz, yy, xx = np.nonzero(surface)
    return np.stack([xx, yy, zz], axis=1)


def _directed_distances(src: np.ndarray, dst: np.ndarray,
                        spacing: tuple[float, float, float]) -> np.ndarray:
    """Nearest-surface distance in mm for each source voxel.

    A kd-tree over the destination surface bounds each nearest distance. The
    minimum is then taken over the destination voxels within that bound, in
    the all-pairs arithmetic: integer index deltas scaled by spacing, squared,
    summed per pair, minimized, then square-rooted. The bound is widened by a
    relative 1e-9 and an absolute 1e-12, more than the tree's own rounding, so
    the all-pairs argmin is always among the candidates.
    """
    # imported here: scipy.spatial's Python modules take a process from 27 MiB
    # (numpy alone) to 64 MiB and add ~0.3 s, and training measures no surface distance
    from scipy.spatial import cKDTree

    sp = np.asarray(spacing)
    tree = cKDTree(dst * sp)
    src_mm = src * sp
    bound, _ = tree.query(src_mm)
    near = tree.query_ball_point(src_mm, bound * (1.0 + 1e-9) + 1e-12)
    rows = np.repeat(np.arange(len(src)), [len(n) for n in near])
    cols = np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp,
                       count=len(rows))
    delta = (src[rows] - dst[cols]).astype(np.float64) * sp
    d2 = np.full(len(src), np.inf)
    np.minimum.at(d2, rows, (delta * delta).sum(axis=1))
    return np.sqrt(d2)


def _surface_distances(a: BinaryMask, b: BinaryMask) -> tuple[float, float]:
    """(ASD, HD): the mean and the maximum of the nearest-surface distances both ways."""
    a._check_compatible(b)
    sa, sb = extract_surface(a), extract_surface(b)
    if len(sa) == 0 or len(sb) == 0:
        raise EmptyMaskError("mask has no foreground voxels")
    d_ab, d_ba = _directed_distances(sa, sb, a.spacing), _directed_distances(sb, sa, a.spacing)
    return (math.fsum(d_ab.tolist() + d_ba.tolist()) / (len(d_ab) + len(d_ba)),
            float(max(d_ab.max(), d_ba.max())))


def asd(a: BinaryMask, b: BinaryMask) -> float:
    """Symmetric mean nearest-surface distance in mm."""
    return _surface_distances(a, b)[0]


def hausdorff(a: BinaryMask, b: BinaryMask) -> float:
    """Maximum nearest-surface distance over both directions, in mm (100th percentile)."""
    return _surface_distances(a, b)[1]


def per_class_metrics(prediction: Volume, reference: Volume) -> list[dict]:
    """One-vs-rest DOC/ASD/HD per foreground class.

    ASD and HD are reported as NaN when either surface is empty for a class.
    """
    if prediction.extents != reference.extents:
        raise ValueError(
            f"extent mismatch: {prediction.extents} vs {reference.extents}"
        )
    if prediction.spacing != reference.spacing:
        raise ValueError(
            f"spacing mismatch: {prediction.spacing} vs {reference.spacing}"
        )
    classes = max(prediction.class_count, reference.class_count)
    rows = []
    for cls in range(1, classes):
        pm = BinaryMask.from_labels(prediction, cls)
        rm = BinaryMask.from_labels(reference, cls)
        row = {"class": cls, "dice": dice(pm, rm)}
        try:
            row["asd"], row["hausdorff"] = _surface_distances(pm, rm)
        except EmptyMaskError:
            row["asd"] = float("nan")
            row["hausdorff"] = float("nan")
        rows.append(row)
    return rows
