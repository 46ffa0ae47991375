"""Volume type, VVOL serialization, synthetic data, patches, elastic deformation.

Elastic deformation displaces the eight volume corners by random vectors and
warps by the trilinear field they span.

VVOL file layout (all little-endian):

    magic   4 bytes  "VVOL"
    version u32      1
    dtype   u32      0 = float64 image, 1 = uint8 labels
    classes u32      class count: 0 for an image, 1 to 256 for labels
    extents 4 x u32  x, y, z, c
    spacing 3 x f64  mm per voxel along x, y, z
    payload          tensor buffer in layout order (c fastest, z slowest)

Round trips are bit-exact for both dtypes.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import map_coordinates

from .atomic import write_atomic
from .tensor import SLAB_VOXELS, Rng, Shape4, Tensor4

_VVOL_MAGIC = b"VVOL"
_VVOL_VERSION = 1
_DTYPE_IMAGE = 0
_DTYPE_LABELS = 1
MAX_LABEL_CLASSES = 256  # labels are stored as uint8


class VvolError(Exception):
    """Malformed or inconsistent VVOL file."""


def check_label_values(zyxc: np.ndarray, class_count: int) -> None:
    """The label rule: every value is an integer in [0, class_count). NaN fails it.
    uint8 is integral by type; a float array is floored one z slab at a time."""
    if not ((zyxc.dtype == np.uint8 or all((s == np.floor(s)).all() for s in zyxc))
            and zyxc.min() >= 0 and zyxc.max() < class_count):
        raise ValueError(f"label values must be integers in [0, {class_count})")


@dataclass
class Volume:
    """A 3-D image or label map with voxel spacing in mm; ``class_count`` tells which.

    Images (class_count 0) hold float64 and may carry any channel count (probability
    maps are multi-channel). Label maps (class_count in [1, 256]) hold uint8 class
    indices in [0, class_count); float-coded labels are checked, then converted once.
    """

    tensor: Tensor4
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    class_count: int = 0

    def __post_init__(self):
        self.spacing = tuple(float(s) for s in self.spacing)
        if not all(0 < s < math.inf for s in self.spacing):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        a = self.tensor.zyxc
        if self.class_count:
            if not 1 <= self.class_count <= MAX_LABEL_CLASSES:
                raise ValueError(f"label volumes need class_count in [1, {MAX_LABEL_CLASSES}], "
                                 f"got {self.class_count}")
            check_label_values(a, self.class_count)
            if a.dtype != np.uint8:
                self.tensor = Tensor4(a.astype(np.uint8))
        elif a.dtype != np.float64:
            self.tensor = Tensor4(a.astype(np.float64))

    @property
    def extents(self) -> tuple[int, int, int]:
        return self.tensor.shape.spatial


def read_payload(f, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """Read a C-order ``shape`` array of ``dtype`` from binary file ``f`` straight into
    the array returned; ValueError, before any allocation, if the rest is too short."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size > left:
        raise ValueError(f"payload of {size} bytes runs past the file's {left} remaining")
    data = np.empty(shape, dtype)
    if f.readinto(data) != size:
        raise ValueError(f"payload ended before the {size} bytes the header implies")
    return data


def write_vvol(volume: Volume, path) -> None:
    t, dtype = volume.tensor, _DTYPE_LABELS if volume.class_count else _DTYPE_IMAGE
    write_atomic(path, [
        _VVOL_MAGIC,
        struct.pack("<III", _VVOL_VERSION, dtype, volume.class_count),
        struct.pack("<4I", *t.shape),
        struct.pack("<3d", *volume.spacing),
        t.flat.astype("<u1" if volume.class_count else "<f8", copy=False),
    ])


def read_vvol(path) -> Volume:
    """Read a VVOL file; the payload goes straight into the array the Volume keeps."""
    try:
        with open(path, "rb") as f:
            head = f.read(56)
            if head[:4] != _VVOL_MAGIC:
                raise VvolError(f"{path}: bad magic {head[:4]!r}")
            version, dtype, class_count = struct.unpack_from("<III", head, 4)
            if version != _VVOL_VERSION:
                raise ValueError(f"unsupported version {version}")
            if dtype not in (_DTYPE_IMAGE, _DTYPE_LABELS):
                raise ValueError(f"unknown dtype code {dtype}")
            labels = dtype == _DTYPE_LABELS
            if labels != (class_count > 0):
                raise ValueError(f"dtype code {dtype} disagrees with class count {class_count}")
            shape = Shape4(*struct.unpack_from("<4I", head, 16)).validate()
            spacing = struct.unpack_from("<3d", head, 32)
            data = read_payload(f, (shape.z, shape.y, shape.x, shape.c),
                                "<u1" if labels else "<f8")
            if f.read(1):
                raise ValueError("file runs on past the payload the header implies")
        # min and max propagate NaN and meet any infinity, with no boolean temporary
        if not (labels or math.isfinite(data.min()) and math.isfinite(data.max())):
            raise ValueError("image payload holds NaN or infinite values")
        return Volume(Tensor4(data), spacing, class_count)
    except OSError as exc:
        raise VvolError(f"cannot read volume: {exc}") from exc
    except (struct.error, ValueError) as exc:
        raise VvolError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# synthetic dataset
# ---------------------------------------------------------------------------

def z_slabs(z_count: int, plane: int) -> list[slice]:
    """``range(z_count)`` cut into runs of whole z planes of ``plane`` voxels each,
    at most SLAB_VOXELS voxels per run but at least one plane."""
    step = max(1, SLAB_VOXELS // plane)
    return [slice(z, min(z + step, z_count)) for z in range(0, z_count, step)]


def gen_synthetic(seed: int, n_volumes: int, extents: tuple[int, int, int],
                  class_count: int, noise_sigma: float = 0.08,
                  fg_bounds: tuple[float, float] = (0.01, 0.35),
                  spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
                  ) -> list[tuple[Volume, Volume]]:
    """Random ellipsoid/box phantoms: one blob per foreground class.

    Labels are the exact generating masks; the image is a per-class intensity
    ramp plus Gaussian noise. Each foreground class's voxel fraction is kept
    inside ``fg_bounds`` (redrawn deterministically when a draw lands outside).
    Both are built one ``z_slabs`` slab at a time.
    """
    if not 2 <= class_count <= MAX_LABEL_CLASSES:
        raise ValueError(f"class_count {class_count} must be in [2, {MAX_LABEL_CLASSES}]: "
                         "background, at least one foreground class, and uint8 labels")
    X, Y, Z = extents
    master = Rng(seed)
    xs = np.arange(X)[None, None, :, None]
    ys = np.arange(Y)[None, :, None, None]
    levels = np.linspace(0.2, 0.8, class_count)
    slabs = z_slabs(Z, X * Y)
    dataset = []
    for vi in range(n_volumes):
        rng = master.spawn(vi)
        labels = np.empty((Z, Y, X, 1), np.uint8)
        for _attempt in range(200):
            # per foreground class: centre and half-extent fractions along x, y, z, then
            # ellipsoid or box; all drawn before any voxel is written
            u = rng.uniform(7 * (class_count - 1)).reshape(-1, 7)
            centres = np.array(extents) * (0.3 + 0.4 * u[:, :3])
            radii = np.array(extents) * (0.12 + 0.16 * u[:, 3:6])
            counts = np.zeros(class_count - 1, dtype=np.int64)
            for sl in slabs:
                zs = np.arange(sl.start, sl.stop)[:, None, None, None]
                slab = labels[sl]
                slab.fill(0)
                for cls, ((cx, cy, cz), (rx, ry, rz), ellipsoid) in enumerate(
                        zip(centres, radii, u[:, 6] < 0.5), 1):
                    if ellipsoid:
                        inside = (((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2
                                  + ((zs - cz) / rz) ** 2) <= 1.0
                    else:
                        inside = ((np.abs(xs - cx) <= rx) & (np.abs(ys - cy) <= ry)
                                  & (np.abs(zs - cz) <= rz))
                    slab[inside] = cls
                counts += [np.count_nonzero(slab == c) for c in range(1, class_count)]
            if all(fg_bounds[0] <= f <= fg_bounds[1] for f in counts / labels.size):
                break
        else:
            raise RuntimeError("could not draw foreground fractions inside bounds")
        image = rng.normal(labels.size).reshape(labels.shape)
        image *= noise_sigma
        for sl in slabs:  # levels[labels] + noise_sigma * noise, in place
            image[sl] += levels[labels[sl]]
        dataset.append((
            Volume(Tensor4(image), spacing),
            Volume(Tensor4(labels), spacing, class_count),
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


def _lerp_ramp(n: int) -> np.ndarray:
    """Lerp fractions 0 .. 1 over n samples (a single sample takes the low end)."""
    return np.arange(n) * (1.0 / (n - 1)) if n > 1 else np.zeros(1)


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
    # exactly: x gives (axis, 2, 2, X), then y gives (axis, 2, Y, X), then z one slab of
    # (axis, slab, Y, X) at a time; map_coordinates at order <= 1 reads each point alone
    d = np.moveaxis(np.asarray(corners, dtype=np.float64)[..., ::-1], 3, 0)
    for dim, n in ((3, X), (2, Y)):
        a, b = np.split(d, 2, axis=dim)
        d = a + _lerp_ramp(n).reshape((n,) + (1,) * (3 - dim)) * (b - a)
    a, b = np.split(d, 2, axis=1)
    b = b - a
    ramp = _lerp_ramp(Z)
    img_out, lab_out = np.empty((Z, Y, X, 1)), np.empty((Z, Y, X, 1), np.uint8)
    for sl in z_slabs(Z, X * Y):
        src = ramp[sl, None, None] * b
        src += a
        src[0] += np.arange(sl.start, sl.stop)[:, None, None]  # displacement to source coordinate
        src[1] += np.arange(Y)[:, None]
        src[2] += np.arange(X)
        map_coordinates(image.tensor.zyxc[..., 0], src, output=img_out[sl, ..., 0],
                        order=1, mode="nearest")
        map_coordinates(labels.tensor.zyxc[..., 0], src, output=lab_out[sl, ..., 0],
                        order=0, mode="nearest")
    return (
        Volume(Tensor4(img_out), image.spacing),
        Volume(Tensor4(lab_out), labels.spacing, labels.class_count),
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


def load_manifest_volumes(path, patch, class_count: int) -> list[tuple[Volume, Volume]]:
    """Read every pair in a non-empty manifest; relative paths resolve against it.
    Each pair must be a single-channel image at least ``patch`` along every axis and
    single-channel labels of the same extents whose values are in [0, class_count);
    else ``VvolError``."""
    base = Path(path).parent
    pairs = read_manifest(path)
    if not pairs:
        raise VvolError(f"{path}: manifest lists no volume pairs")
    out = []
    for img_rel, lab_rel in pairs:
        img_path, lab_path = base / img_rel, base / lab_rel
        img, lab = read_vvol(img_path), read_vvol(lab_path)
        if img.class_count or not lab.class_count:
            raise VvolError(f"manifest pair ({img_rel}, {lab_rel}) has wrong kinds")
        if img.tensor.shape.c != 1:
            raise VvolError(f"{img_path}: image has {img.tensor.shape.c} channels, not one")
        if any(e < p for e, p in zip(img.extents, patch)):
            raise VvolError(f"{img_path}: extents {img.extents} are smaller than "
                            f"patch {tuple(patch)}")
        if lab.tensor.shape != (*img.extents, 1):
            raise VvolError(f"{lab_path}: shape {tuple(lab.tensor.shape)} is not "
                            f"{img_path}'s extents with one channel, {(*img.extents, 1)}")
        try:
            check_label_values(lab.tensor.zyxc, class_count)
        except ValueError as exc:
            raise VvolError(f"{lab_path}: {exc}") from exc
        out.append((img, lab))
    return out
