"""Volume type, VVOL serialization, synthetic data, patches, elastic deformation.

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
            vals = self.tensor.zyxc
            if not ((vals == np.floor(vals)).all() and vals.min() >= 0
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
    if dtype == _DTYPE_LABELS and volume.class_count > 256:
        raise VvolError("uint8 label payload supports at most 256 classes")
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
    if len(raw) < 4 + 12 + 16 + 24:
        raise VvolError(f"{path}: file shorter than the fixed header")
    if raw[:4] != _VVOL_MAGIC:
        raise VvolError(f"{path}: bad magic {raw[:4]!r}")
    version, dtype, class_count = struct.unpack_from("<III", raw, 4)
    if version != _VVOL_VERSION:
        raise VvolError(f"{path}: unsupported version {version}")
    if dtype not in (_DTYPE_IMAGE, _DTYPE_LABELS):
        raise VvolError(f"{path}: unknown dtype code {dtype}")
    shape = Shape4(*struct.unpack_from("<4I", raw, 16))
    if min(shape) < 1:
        raise VvolError(f"{path}: extents {tuple(shape)} must all be >= 1")
    spacing = struct.unpack_from("<3d", raw, 32)
    payload = raw[56:]
    count = shape.element_count
    unit = 1 if dtype == _DTYPE_LABELS else 8
    if len(payload) != count * unit:
        raise VvolError(
            f"{path}: payload is {len(payload)} bytes, header implies {count * unit}"
        )
    if dtype == _DTYPE_LABELS:
        data = np.frombuffer(payload, dtype="<u1").astype(np.float64)
        kind = "labels"
    else:
        data = np.frombuffer(payload, dtype="<f8")
        kind = "image"
        if not np.isfinite(data).all():
            raise VvolError(f"{path}: image payload holds NaN or infinite values")
    tensor = Tensor4.from_flat(shape, data)
    try:
        return Volume(tensor, spacing, kind, class_count)
    except ValueError as exc:
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
            Volume(Tensor4.from_zyxc(image), spacing, "image"),
            Volume(Tensor4.from_zyxc(labels), spacing, "labels", class_count),
        ))
    return dataset


# ---------------------------------------------------------------------------
# patch sampling
# ---------------------------------------------------------------------------

@dataclass
class PatchSpec:
    """Fixed patch extents, uniform random origins, optional normalization."""

    extents: tuple[int, int, int]
    normalize: bool = True

    def __post_init__(self):
        if min(self.extents) < 1:
            raise ValueError(f"patch extents must be >= 1, got {self.extents}")


def normalize_patch(patch: Tensor4, sigma_floor: float = 1e-8) -> Tensor4:
    """Shift to zero mean and scale to unit variance.

    Degenerate (constant) patches divide by the floor and come out all zero.
    """
    a = patch.zyxc
    mean = a.mean()
    std = a.std()
    return Tensor4.from_zyxc((a - mean) / max(std, sigma_floor), copy=False)


def sample_patch(image: Volume, labels: Volume, spec: PatchSpec, rng: Rng,
                 ) -> tuple[Tensor4, Tensor4]:
    """Crop an aligned (image, labels) patch pair at a uniform random origin."""
    if image.extents != labels.extents:
        raise ValueError(f"extents differ: {image.extents} vs {labels.extents}")
    px, py, pz = spec.extents
    X, Y, Z = image.extents
    if px > X or py > Y or pz > Z:
        raise ValueError(f"patch {spec.extents} larger than volume {image.extents}")
    ox = rng.randint(0, X - px + 1)
    oy = rng.randint(0, Y - py + 1)
    oz = rng.randint(0, Z - pz + 1)
    img = image.tensor.crop((ox, oy, oz), spec.extents)
    lab = labels.tensor.crop((ox, oy, oz), spec.extents)
    if spec.normalize:
        img = normalize_patch(img)
    return img, lab


# ---------------------------------------------------------------------------
# elastic deformation
# ---------------------------------------------------------------------------

@dataclass
class DeformationField:
    """Displacement vectors (in voxels) on a coarse control grid.

    ``displacements`` is indexed (gz, gy, gx, axis) with axis order (x, y, z).
    Densified with degree-1 B-spline (trilinear) interpolation; a 2x2x2 grid
    spans the volume corners.
    """

    grid: tuple[int, int, int]
    displacements: np.ndarray

    def __post_init__(self):
        gx, gy, gz = self.grid
        if min(self.grid) < 2:
            raise ValueError(f"control grid extents must be >= 2, got {self.grid}")
        if self.displacements.shape != (gz, gy, gx, 3):
            raise ValueError(
                f"displacements shape {self.displacements.shape} does not match "
                f"grid {self.grid}"
            )


def random_deformation(rng: Rng, grid: tuple[int, int, int] = (2, 2, 2),
                       sigma: float = 15.0) -> DeformationField:
    """I.i.d. normal control-point displacements with the given std in voxels."""
    gx, gy, gz = grid
    disp = rng.normal(gx * gy * gz * 3, mu=0.0, sigma=sigma).reshape(gz, gy, gx, 3)
    return DeformationField(grid, disp)


def _axis_lattice(extent: int, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower control index and fractional offset for each voxel along one axis."""
    if extent == 1:
        coords = np.zeros(1)
    else:
        coords = np.arange(extent) * ((grid_points - 1) / (extent - 1))
    lo = np.minimum(coords.astype(np.int64), grid_points - 2)
    return lo, coords - lo


def _lerp(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    # a + f*(b - a) so constant control fields densify exactly
    return a + f * (b - a)


def _dense_displacement(field: DeformationField, extents: tuple[int, int, int]
                        ) -> list[np.ndarray]:
    """Per-axis dense displacement arrays, each indexed (z, y, x).

    Degree-1 B-spline (trilinear) interpolation of the control grid, written
    in lerp form.
    """
    X, Y, Z = extents
    gx, gy, gz = field.grid
    ix, fx = _axis_lattice(X, gx)
    iy, fy = _axis_lattice(Y, gy)
    iz, fz = _axis_lattice(Z, gz)
    iz3, iy3, ix3 = iz[:, None, None], iy[None, :, None], ix[None, None, :]
    fz3, fy3, fx3 = fz[:, None, None], fy[None, :, None], fx[None, None, :]
    dense = []
    for axis in range(3):
        grid = field.displacements[..., axis]
        c00 = _lerp(grid[iz3, iy3, ix3], grid[iz3, iy3, ix3 + 1], fx3)
        c10 = _lerp(grid[iz3, iy3 + 1, ix3], grid[iz3, iy3 + 1, ix3 + 1], fx3)
        c01 = _lerp(grid[iz3 + 1, iy3, ix3], grid[iz3 + 1, iy3, ix3 + 1], fx3)
        c11 = _lerp(grid[iz3 + 1, iy3 + 1, ix3], grid[iz3 + 1, iy3 + 1, ix3 + 1], fx3)
        c0 = _lerp(c00, c10, fy3)
        c1 = _lerp(c01, c11, fy3)
        dense.append(_lerp(c0, c1, fz3))
    return dense


def elastic_augment(image: Volume, labels: Volume, field: DeformationField
                    ) -> tuple[Volume, Volume]:
    """Warp an aligned pair by one displacement field.

    Output voxel v samples the input at v + displacement(v): the image with
    trilinear interpolation, labels with nearest neighbor; reads outside the
    volume clamp to the edge. Zero displacement is the exact identity.
    """
    if image.extents != labels.extents:
        raise ValueError(f"extents differ: {image.extents} vs {labels.extents}")
    if image.tensor.shape.c != 1 or labels.tensor.shape.c != 1:
        raise ValueError("deformation expects single-channel volumes")
    X, Y, Z = image.extents
    dx, dy, dz = _dense_displacement(field, image.extents)
    zz, yy, xx = np.meshgrid(np.arange(Z), np.arange(Y), np.arange(X), indexing="ij")
    src = [(zz + dz).reshape(-1), (yy + dy).reshape(-1), (xx + dx).reshape(-1)]
    img_out = map_coordinates(image.tensor.zyxc[..., 0], src, order=1, mode="nearest")
    lab_out = map_coordinates(labels.tensor.zyxc[..., 0], src, order=0, mode="nearest")
    img_t = Tensor4.from_zyxc(img_out.reshape(Z, Y, X, 1), copy=False)
    lab_t = Tensor4.from_zyxc(lab_out.reshape(Z, Y, X, 1), copy=False)
    return (
        Volume(img_t, image.spacing, "image"),
        Volume(lab_t, labels.spacing, "labels", labels.class_count),
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
            field = random_deformation(rng.spawn(idx * 1000 + a), sigma=sigma)
            out.append(elastic_augment(image, labels, field))
    return out


# ---------------------------------------------------------------------------
# dataset manifests
# ---------------------------------------------------------------------------

def write_manifest(path, pairs: list[tuple[str, str]]) -> None:
    """One tab-separated "image<TAB>labels" line per pair, paths as given."""
    with open(path, "w", encoding="utf-8") as fh:
        for img, lab in pairs:
            fh.write(f"{img}\t{lab}\n")


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


def load_manifest_volumes(path) -> list[tuple[Volume, Volume]]:
    """Read every pair in a manifest; relative paths resolve against it."""
    base = Path(path).parent
    out = []
    for img_rel, lab_rel in read_manifest(path):
        img = read_vvol(base / img_rel)
        lab = read_vvol(base / lab_rel)
        if img.kind != "image" or lab.kind != "labels":
            raise VvolError(f"manifest pair ({img_rel}, {lab_rel}) has wrong kinds")
        out.append((img, lab))
    return out
