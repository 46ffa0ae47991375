"""Volume type, VVOL serialization, synthetic data, patches, elastic deformation.

Elastic deformation displaces the eight volume corners by random vectors and
warps by the trilinear field they span.

VVOL file layout (all little-endian):

    magic   4 bytes  "VVOL"
    version u32      1
    dtype   u32      0 = float64 image, 1 = uint8 labels
    classes u32      class count for labels, 0 for images
    extents 4 x u32  x, y, z, c
    spacing 3 x f64  mm per voxel along x, y, z
    payload          tensor buffer in layout order (c fastest, z slowest)

Round trips are bit-exact for both dtypes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import map_coordinates

from .atomic import write_atomic
from .tensor import Rng, Shape4, Tensor4

_VVOL_MAGIC = b"VVOL"
_VVOL_VERSION = 1
_DTYPE_IMAGE = 0
_DTYPE_LABELS = 1
MAX_LABEL_CLASSES = 256  # labels are stored as uint8


class VvolError(Exception):
    """Malformed or inconsistent VVOL file."""


@dataclass
class Volume:
    """A 3-D image or label map with voxel spacing in mm.

    Images may carry any channel count (probability maps are multi-channel);
    label maps are integer-coded and must stay inside [0, class_count).
    """

    tensor: Tensor4
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    kind: str = "image"
    class_count: int = 0

    def __post_init__(self):
        if self.kind not in ("image", "labels"):
            raise ValueError(f"kind must be 'image' or 'labels', got {self.kind!r}")
        self.spacing = tuple(float(s) for s in self.spacing)
        if not all(0 < s < math.inf for s in self.spacing):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        if self.kind == "labels":
            if self.class_count < 1:
                raise ValueError("label volumes need class_count >= 1")
            vals = self.tensor.zyxc  # floored one z slab at a time, not as a whole copy
            if not (all((s == np.floor(s)).all() for s in vals) and vals.min() >= 0
                    and vals.max() < self.class_count):
                raise ValueError(
                    f"label values must be integers in [0, {self.class_count})"
                )

    @property
    def extents(self) -> tuple[int, int, int]:
        return self.tensor.shape.spatial


def write_vvol(volume: Volume, path) -> None:
    t = volume.tensor
    dtype = _DTYPE_LABELS if volume.kind == "labels" else _DTYPE_IMAGE
    if dtype == _DTYPE_LABELS and volume.class_count > MAX_LABEL_CLASSES:
        raise VvolError(f"uint8 label payload supports at most {MAX_LABEL_CLASSES} classes")
    write_atomic(path, [
        _VVOL_MAGIC,
        struct.pack("<III", _VVOL_VERSION, dtype, volume.class_count),
        struct.pack("<4I", *t.shape),
        struct.pack("<3d", *volume.spacing),
        t.flat.astype("<u1" if dtype == _DTYPE_LABELS else "<f8", copy=False),
    ])


def read_vvol(path) -> Volume:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise VvolError(f"cannot read volume: {exc}") from exc
    if raw[:4] != _VVOL_MAGIC:
        raise VvolError(f"{path}: bad magic {raw[:4]!r}")
    try:
        version, dtype, class_count = struct.unpack_from("<III", raw, 4)
        if version != _VVOL_VERSION:
            raise ValueError(f"unsupported version {version}")
        if dtype not in (_DTYPE_IMAGE, _DTYPE_LABELS):
            raise ValueError(f"unknown dtype code {dtype}")
        shape = Shape4(*struct.unpack_from("<4I", raw, 16)).validate()
        spacing = struct.unpack_from("<3d", raw, 32)
        labels = dtype == _DTYPE_LABELS
        size = shape.element_count * (1 if labels else 8)
        if len(raw) - 56 != size:
            raise ValueError(f"payload is {len(raw) - 56} bytes, header implies {size}")
        data = np.frombuffer(raw, "<u1" if labels else "<f8", offset=56)
        if not (labels or np.isfinite(data).all()):
            raise ValueError("image payload holds NaN or infinite values")
        return Volume(Tensor4.from_flat(shape, data), spacing,
                      "labels" if labels else "image", class_count)
    except (struct.error, ValueError) as exc:
        raise VvolError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# synthetic dataset
# ---------------------------------------------------------------------------

def gen_synthetic(seed: int, n_volumes: int, extents: tuple[int, int, int],
                  class_count: int, noise_sigma: float = 0.08,
                  fg_bounds: tuple[float, float] = (0.01, 0.35),
                  spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
                  ) -> list[tuple[Volume, Volume]]:
    """Random ellipsoid/box phantoms: one blob per foreground class.

    Labels are the exact generating masks; the image is a per-class intensity
    ramp plus Gaussian noise. Each foreground class's voxel fraction is kept
    inside ``fg_bounds`` (redrawn deterministically when a draw lands outside).
    """
    if class_count < 2:
        raise ValueError("need at least one foreground class")
    X, Y, Z = extents
    master = Rng(seed)
    xs = np.arange(X)[None, None, :, None]
    ys = np.arange(Y)[None, :, None, None]
    zs = np.arange(Z)[:, None, None, None]
    levels = np.linspace(0.2, 0.8, class_count)
    dataset = []
    for vi in range(n_volumes):
        rng = master.spawn(vi)
        for _attempt in range(200):
            labels = np.zeros((Z, Y, X, 1))
            for cls in range(1, class_count):
                cx = X * (0.3 + 0.4 * rng.uniform(1)[0])
                cy = Y * (0.3 + 0.4 * rng.uniform(1)[0])
                cz = Z * (0.3 + 0.4 * rng.uniform(1)[0])
                rx = X * (0.12 + 0.16 * rng.uniform(1)[0])
                ry = Y * (0.12 + 0.16 * rng.uniform(1)[0])
                rz = Z * (0.12 + 0.16 * rng.uniform(1)[0])
                if rng.uniform(1)[0] < 0.5:
                    inside = (((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2
                              + ((zs - cz) / rz) ** 2) <= 1.0
                else:
                    inside = ((np.abs(xs - cx) <= rx) & (np.abs(ys - cy) <= ry)
                              & (np.abs(zs - cz) <= rz))
                labels[inside] = float(cls)
            fracs = [(labels == c).mean() for c in range(1, class_count)]
            if all(fg_bounds[0] <= f <= fg_bounds[1] for f in fracs):
                break
        else:
            raise RuntimeError("could not draw foreground fractions inside bounds")
        image = levels[labels.astype(np.int64)]
        image = image + noise_sigma * rng.normal(image.size).reshape(image.shape)
        dataset.append((
            Volume(Tensor4(image), spacing, "image"),
            Volume(Tensor4(labels), spacing, "labels", class_count),
        ))
    return dataset


# ---------------------------------------------------------------------------
# patch sampling
# ---------------------------------------------------------------------------

_SIGMA_FLOOR = 1e-8


def normalize_patch(patch: Tensor4) -> Tensor4:
    """Shift to zero mean and scale to unit variance.

    Degenerate (constant) patches divide by the 1e-8 floor and come out all zero.
    """
    a = patch.zyxc
    mean = a.mean()
    std = a.std()
    return Tensor4((a - mean) / max(std, _SIGMA_FLOOR))


def sample_patch(image: Volume, labels: Volume, extents: tuple[int, int, int], rng: Rng,
                 ) -> tuple[Tensor4, Tensor4]:
    """Crop an aligned (image, labels) patch pair at a uniform random origin.

    The image patch is normalized with ``normalize_patch``; labels are not.
    """
    if image.extents != labels.extents:
        raise ValueError(f"extents differ: {image.extents} vs {labels.extents}")
    px, py, pz = extents
    X, Y, Z = image.extents
    if min(extents) < 1 or px > X or py > Y or pz > Z:
        raise ValueError(f"patch {extents} must be >= 1 and fit volume {image.extents}")
    ox = rng.randint(0, X - px + 1)
    oy = rng.randint(0, Y - py + 1)
    oz = rng.randint(0, Z - pz + 1)
    img = image.tensor.crop((ox, oy, oz), extents)
    lab = labels.tensor.crop((ox, oy, oz), extents)
    return normalize_patch(img), lab


# ---------------------------------------------------------------------------
# elastic deformation
# ---------------------------------------------------------------------------

def random_deformation(rng: Rng, sigma: float = 15.0) -> np.ndarray:
    """I.i.d. normal displacements (voxels) of the eight volume corners.

    The result is indexed (z, y, x, axis) with corner indices 0/1 for the
    low/high end of each spatial axis and axis order (x, y, z).
    """
    return rng.normal(24, mu=0.0, sigma=sigma).reshape(2, 2, 2, 3)


def elastic_augment(image: Volume, labels: Volume, corners: np.ndarray
                    ) -> tuple[Volume, Volume]:
    """Warp an aligned pair by a trilinear field spanned by eight corner vectors.

    ``corners`` is a (2, 2, 2, 3) array as ``random_deformation`` returns.
    Output voxel v samples the input at v + displacement(v): the image with
    trilinear interpolation, labels with nearest neighbor; reads outside the
    volume clamp to the edge. Zero displacement is the exact identity.
    """
    if image.extents != labels.extents:
        raise ValueError(f"extents differ: {image.extents} vs {labels.extents}")
    if image.tensor.shape.c != 1 or labels.tensor.shape.c != 1:
        raise ValueError("deformation expects single-channel volumes")
    if np.shape(corners) != (2, 2, 2, 3):
        raise ValueError(f"corners must have shape (2, 2, 2, 3), got {np.shape(corners)}")
    X, Y, Z = image.extents
    # separable lerp a + f*(b - a) of the (z, y, x) components, so constant corners densify
    # exactly: x gives (axis, 2, 2, X), then y gives (axis, 2, Y, X), then z (axis, Z, Y, X)
    d = np.moveaxis(np.asarray(corners, dtype=np.float64)[..., ::-1], 3, 0)
    for dim, n in ((3, X), (2, Y), (1, Z)):
        ramp = np.arange(n) * (1.0 / (n - 1)) if n > 1 else np.zeros(1)
        a, b = np.split(d, 2, axis=dim)
        d = a + ramp.reshape((n,) + (1,) * (3 - dim)) * (b - a)
    d[0] += np.arange(Z)[:, None, None]  # displacement to source coordinate, in place
    d[1] += np.arange(Y)[:, None]
    d[2] += np.arange(X)
    src = d.reshape(3, -1)
    img_out = map_coordinates(image.tensor.zyxc[..., 0], src, order=1, mode="nearest")
    lab_out = map_coordinates(labels.tensor.zyxc[..., 0], src, order=0, mode="nearest")
    return (
        Volume(Tensor4(img_out.reshape(Z, Y, X, 1)), image.spacing, "image"),
        Volume(Tensor4(lab_out.reshape(Z, Y, X, 1)), labels.spacing, "labels",
               labels.class_count),
    )


def augment_dataset(dataset: list[tuple[Volume, Volume]], per_sample_count: int,
                    rng: Rng, sigma: float = 15.0) -> list[tuple[Volume, Volume]]:
    """Original samples plus ``per_sample_count`` deformed copies of each."""
    if per_sample_count < 0:
        raise ValueError("per_sample_count must be >= 0")
    out = []
    for idx, (image, labels) in enumerate(dataset):
        out.append((image, labels))
        for a in range(per_sample_count):
            corners = random_deformation(rng.spawn(idx * 1000 + a), sigma=sigma)
            out.append(elastic_augment(image, labels, corners))
    return out


# ---------------------------------------------------------------------------
# dataset manifests
# ---------------------------------------------------------------------------

def write_manifest(path, pairs: list[tuple[str, str]]) -> None:
    """One tab-separated "image<TAB>labels" line per pair, paths as given; atomic."""
    write_atomic(path, ["".join(f"{img}\t{lab}\n" for img, lab in pairs).encode("utf-8")])


def read_manifest(path) -> list[tuple[str, str]]:
    pairs = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise VvolError(f"cannot read manifest: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise VvolError(f"{path}: manifest is not UTF-8: {exc}") from exc
    for ln, line in enumerate(lines, 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise VvolError(f"{path}:{ln}: expected 'image<TAB>labels'")
        pairs.append((parts[0], parts[1]))
    return pairs


def load_manifest_volumes(path, patch) -> list[tuple[Volume, Volume]]:
    """Read every pair in a manifest; relative paths resolve against it. An image
    smaller than ``patch`` along any axis is a ``VvolError``."""
    base = Path(path).parent
    out = []
    for img_rel, lab_rel in read_manifest(path):
        img = read_vvol(base / img_rel)
        lab = read_vvol(base / lab_rel)
        if img.kind != "image" or lab.kind != "labels":
            raise VvolError(f"manifest pair ({img_rel}, {lab_rel}) has wrong kinds")
        if any(e < p for e, p in zip(img.extents, patch)):
            raise VvolError(f"{base / img_rel}: extents {img.extents} are smaller than "
                            f"patch {tuple(patch)}")
        out.append((img, lab))
    return out
