import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import FUZZ, FailsHalfway, full, mutated
import voxseg.atomic as atomic
from voxseg.cli.main import EXIT_DATA, main
from voxseg.nn import Node, save_checkpoint
from voxseg.tensor import Rng, Shape4, Tensor4
from voxseg.volume import (Volume, VvolError, augment_dataset, elastic_augment,
                           gen_synthetic, load_manifest_volumes, normalize_patch,
                           random_deformation, read_manifest, read_vvol, sample_patch,
                           write_manifest, write_vvol)


def random_image(seed, extents=(6, 5, 4)):
    x, y, z = extents
    t = Tensor4.gaussian(Shape4(x, y, z, 1), 0, 1, Rng(seed))
    return Volume(t, (0.5, 1.0, 2.0), "image")


def random_labels(seed, extents=(6, 5, 4), classes=3):
    x, y, z = extents
    vals = Rng(seed).randint(0, classes, x * y * z).astype(np.float64)
    t = Tensor4.from_flat(Shape4(x, y, z, 1), vals)
    return Volume(t, (0.5, 1.0, 2.0), "labels", classes)


class TestVolumeType:
    def test_label_range_enforced(self):
        t = full(Shape4(2, 2, 2, 1), 3.0)
        with pytest.raises(ValueError):
            Volume(t, (1, 1, 1), "labels", 2)

    def test_non_integer_labels_rejected(self):
        t = full(Shape4(2, 2, 2, 1), 0.5)
        with pytest.raises(ValueError):
            Volume(t, (1, 1, 1), "labels", 2)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Volume(Tensor4.zeros(Shape4(1, 1, 1, 1)), (1, 1, 1), "mask")


class TestVvolRoundTrip:
    def test_image_bit_exact(self, tmp_path):
        vol = random_image(1)
        path = tmp_path / "img.vvol"
        write_vvol(vol, path)
        back = read_vvol(path)
        assert back.kind == "image"
        assert back.spacing == vol.spacing
        assert back.tensor.equal(vol.tensor)

    def test_labels_bit_exact(self, tmp_path):
        vol = random_labels(2)
        path = tmp_path / "lab.vvol"
        write_vvol(vol, path)
        back = read_vvol(path)
        assert back.kind == "labels"
        assert back.class_count == 3
        assert back.tensor.equal(vol.tensor)

    def test_write_is_deterministic(self, tmp_path):
        vol = random_image(3)
        a, b = tmp_path / "a.vvol", tmp_path / "b.vvol"
        write_vvol(vol, a)
        write_vvol(vol, b)
        assert a.read_bytes() == b.read_bytes()


def vvol_bytes(dtype, classes, extents, spacing, values):
    """A VVOL file assembled field by field, without write_vvol's checks."""
    payload = np.asarray(values, dtype="<u1" if dtype == 1 else "<f8").tobytes()
    return (b"VVOL" + struct.pack("<III", 1, dtype, classes)
            + struct.pack("<4I", *extents) + struct.pack("<3d", *spacing) + payload)


WELL_FORMED_VVOL = vvol_bytes(0, 0, (2, 1, 1, 1), (1, 1, 1), [0.0, 1.0])

MALFORMED_VVOL = {
    "bad_magic": b"XXXX" + WELL_FORMED_VVOL[4:],
    "bad_version": WELL_FORMED_VVOL[:4] + struct.pack("<I", 2) + WELL_FORMED_VVOL[8:],
    "unknown_dtype": WELL_FORMED_VVOL[:8] + struct.pack("<I", 9) + WELL_FORMED_VVOL[12:],
    "header_cut_in_version": WELL_FORMED_VVOL[:5],
    "header_cut_in_spacing": WELL_FORMED_VVOL[:50],
    "payload_one_byte_short": WELL_FORMED_VVOL[:-1],
    "payload_one_byte_long": WELL_FORMED_VVOL + b"\0",
    "zero_extent": vvol_bytes(0, 0, (0, 2, 2, 1), (1, 1, 1), []),
    "zero_channel_labels": vvol_bytes(1, 2, (2, 2, 2, 0), (1, 1, 1), []),
    "zero_channel_image": vvol_bytes(0, 0, (2, 2, 2, 0), (1, 1, 1), []),
    "nan_spacing": vvol_bytes(0, 0, (2, 1, 1, 1), (math.nan, 1, 1), [0.0, 1.0]),
    "infinite_spacing": vvol_bytes(0, 0, (2, 1, 1, 1), (1, math.inf, 1), [0.0, 1.0]),
    "nan_image_payload": vvol_bytes(0, 0, (2, 1, 1, 1), (1, 1, 1), [0.0, math.nan]),
    "infinite_image_payload": vvol_bytes(0, 0, (2, 1, 1, 1), (1, 1, 1), [-math.inf, 1.0]),
    "label_out_of_range": vvol_bytes(1, 2, (2, 1, 1, 1), (1, 1, 1), [0, 2]),
}


class TestVvolMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED_VVOL))
    def test_typed_error(self, tmp_path, case):
        path = tmp_path / "bad.vvol"
        path.write_bytes(MALFORMED_VVOL[case])
        with pytest.raises(VvolError):
            read_vvol(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_VVOL))
    def test_cli_exits_with_data_error(self, tmp_path, case):
        path = tmp_path / "bad.vvol"
        path.write_bytes(MALFORMED_VVOL[case])
        out = tmp_path / "out.vvol"
        assert main(["shuffle", "--input", str(path), "--output", str(out),
                     "--factors", "1,1,1", "--direction", "down"]) == EXIT_DATA
        assert not out.exists()

    def test_well_formed_bytes_read(self, tmp_path):
        path = tmp_path / "ok.vvol"
        path.write_bytes(WELL_FORMED_VVOL)  # each malformed case changes one field of it
        assert read_vvol(path).tensor.flat.tolist() == [0.0, 1.0]
        path.write_bytes(vvol_bytes(1, 3, (2, 1, 1, 1), (0.5, 1, 2), [0, 2]))
        vol = read_vvol(path)
        assert vol.kind == "labels" and vol.spacing == (0.5, 1.0, 2.0)
        assert vol.tensor.flat.tolist() == [0.0, 2.0]


def _valid_vvol_files():
    return [vvol_bytes(0, 0, (2, 2, 1, 2), (0.5, 1, 2), np.linspace(-1, 1, 8)),
            vvol_bytes(1, 3, (2, 2, 2, 1), (1, 1, 1), [0, 1, 2, 0, 1, 2, 0, 1])]


class TestVvolFuzz:
    """Whatever the bytes, read_vvol returns a Volume or raises VvolError."""

    @given(raw=st.one_of(st.binary(max_size=128),
                         st.binary(max_size=128).map(lambda b: b"VVOL" + b)))
    @FUZZ
    def test_arbitrary_bytes(self, tmp_path, raw):
        self._read(tmp_path, raw)

    @given(raw=mutated(_valid_vvol_files()))
    @FUZZ
    def test_mutated_valid_files(self, tmp_path, raw):
        self._read(tmp_path, raw)

    @staticmethod
    def _read(tmp_path, raw):
        path = tmp_path / "fuzz.vvol"
        path.write_bytes(raw)
        try:
            read_vvol(path)
        except VvolError:
            pass


def _write_volume(path, seed):
    write_vvol(random_image(seed), path)


def _write_manifest(path, seed):
    write_manifest(path, [(f"img_{seed}_{i}.vvol", f"lab_{seed}_{i}.vvol") for i in range(4)])


def _write_checkpoint(path, seed):
    save_checkpoint(path, {"w": Node(Tensor4.gaussian(Shape4(4, 4, 4, 1), 0, 1, Rng(seed))),
                           "b": Node(full(Shape4(1, 1, 1, 2), float(seed)))})


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", [_write_volume, _write_checkpoint, _write_manifest])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "artifact"
        writer(path, 1)
        before = path.read_bytes()
        real_open = open
        monkeypatch.setattr(atomic, "open",
                            lambda *a, **k: FailsHalfway(real_open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError):
            writer(path, 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    @pytest.mark.parametrize("writer", [_write_volume, _write_checkpoint, _write_manifest])
    def test_overwrite_replaces_contents(self, tmp_path, writer):
        path, fresh = tmp_path / "artifact", tmp_path / "fresh"
        writer(path, 1)
        writer(path, 2)
        writer(fresh, 2)
        assert path.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact", "fresh"]


class TestSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(11, 2, (16, 16, 16), 2)
        b = gen_synthetic(11, 2, (16, 16, 16), 2)
        for (ia, la), (ib, lb) in zip(a, b):
            assert ia.tensor.equal(ib.tensor)
            assert la.tensor.equal(lb.tensor)

    def test_label_values_in_range(self):
        data = gen_synthetic(12, 2, (16, 16, 16), 3)
        for _, labels in data:
            vals = labels.tensor.zyxc
            assert set(np.unique(vals)) <= {0.0, 1.0, 2.0}

    def test_foreground_fraction_bounds(self):
        lo, hi = 0.02, 0.3
        data = gen_synthetic(13, 3, (20, 20, 20), 2, fg_bounds=(lo, hi))
        for _, labels in data:
            frac = (labels.tensor.zyxc == 1.0).mean()
            assert lo <= frac <= hi

    def test_labels_are_exact_masks(self):
        # zero noise: image intensity determines the label everywhere
        data = gen_synthetic(14, 1, (12, 12, 12), 2, noise_sigma=0.0)
        image, labels = data[0]
        levels = np.linspace(0.2, 0.8, 2)
        assert np.array_equal(image.tensor.zyxc, levels[labels.tensor.zyxc.astype(int)])


class TestPatchSampling:
    def test_mean_and_variance(self):
        img = random_image(21, (10, 10, 10))
        lab = random_labels(22, (10, 10, 10))
        patch, _ = sample_patch(img, lab, (6, 6, 6), Rng(23))
        a = patch.zyxc
        assert abs(a.mean()) < 1e-10
        assert abs(a.var() - 1.0) < 1e-8

    def test_constant_patch_becomes_zero(self):
        t = full(Shape4(4, 4, 4, 1), 7.0)
        assert not normalize_patch(t).zyxc.any()

    def test_alignment(self):
        img = random_image(24, (10, 10, 10))
        lab = Volume(img.tensor.copy(), img.spacing, "image")  # same payload
        patch, aligned = sample_patch(img, lab, (4, 4, 4), Rng(25))
        assert patch.equal(normalize_patch(aligned))

    @pytest.mark.parametrize("extents", [(6, 4, 4), (0, 4, 4)])
    def test_patch_too_large_or_empty(self, extents):
        img = random_image(26, (4, 4, 4))
        lab = random_labels(27, (4, 4, 4))
        with pytest.raises(ValueError):
            sample_patch(img, lab, extents, Rng(28))

    def test_origins_cover_volume(self):
        img = random_image(29, (6, 6, 6))
        lab = random_labels(30, (6, 6, 6))
        rng = Rng(31)
        seen = set()
        for _ in range(200):
            _, lab_patch = sample_patch(img, lab, (3, 3, 3), rng)
            seen.add(lab_patch.at(0, 0, 0, 0))
        assert len(seen) > 1


def trilinear_oracle(corners, extents):
    """Displacement (z, y, x, axis) of every voxel, one voxel and corner at a time."""
    X, Y, Z = extents
    out = np.zeros((Z, Y, X, 3))
    for z in range(Z):
        for y in range(Y):
            for x in range(X):
                t = [v / (n - 1) if n > 1 else 0.0 for v, n in ((x, X), (y, Y), (z, Z))]
                for cz in (0, 1):
                    for cy in (0, 1):
                        for cx in (0, 1):
                            w = 1.0
                            for c, f in zip((cx, cy, cz), t):
                                w *= f if c else 1.0 - f
                            out[z, y, x] += w * corners[cz, cy, cx]
    return out


class TestElastic:
    def test_zero_displacement_is_identity(self):
        img = random_image(41, (8, 8, 8))
        lab = random_labels(42, (8, 8, 8))
        img2, lab2 = elastic_augment(img, lab, np.zeros((2, 2, 2, 3)))
        assert img2.tensor.equal(img.tensor)
        assert lab2.tensor.equal(lab.tensor)

    def test_integer_translation_matches_hand_shift(self):
        img = random_image(43, (8, 8, 8))
        lab = random_labels(44, (8, 8, 8))
        disp = np.zeros((2, 2, 2, 3))
        disp[..., 0] = 2.0  # sample from x + 2
        disp[..., 2] = -1.0  # and z - 1
        img2, lab2 = elastic_augment(img, lab, disp)
        src_img = img.tensor.zyxc
        src_lab = lab.tensor.zyxc
        # interior voxels: out(x, y, z) == in(x + 2, y, z - 1)
        for z in range(1, 8):
            for y in range(0, 8):
                for x in range(0, 6):
                    assert img2.tensor.at(x, y, z, 0) == src_img[z - 1, y, x + 2, 0]
                    assert lab2.tensor.at(x, y, z, 0) == src_lab[z - 1, y, x + 2, 0]

    def test_labels_keep_original_values(self):
        img = random_image(45, (8, 8, 8))
        lab = random_labels(46, (8, 8, 8), classes=4)
        corners = random_deformation(Rng(47), sigma=5.0)
        _, lab2 = elastic_augment(img, lab, corners)
        assert set(np.unique(lab2.tensor.zyxc)) <= set(np.unique(lab.tensor.zyxc))

    def test_random_deformation_is_24_normals(self):
        corners = random_deformation(Rng(50), sigma=3.0)
        assert corners.shape == (2, 2, 2, 3)
        assert np.array_equal(corners.reshape(-1), Rng(50).normal(24, sigma=3.0))

    @pytest.mark.parametrize("shape", [(2, 2, 1, 3), (3, 2, 2, 3), (2, 2, 2, 2), (24,)])
    def test_corners_of_wrong_shape_rejected(self, shape):
        img = random_image(51, (4, 4, 4))
        lab = random_labels(52, (4, 4, 4))
        with pytest.raises(ValueError):
            elastic_augment(img, lab, np.zeros(shape))

    @pytest.mark.parametrize("extents", [(7, 5, 1), (6, 4, 3)])
    def test_matches_trilinear_oracle(self, extents):
        # per axis a, image value = voxel coordinate along a, so a warped voxel
        # reads back exactly its own coordinate plus the displacement along a
        rng = Rng(53)
        corners = rng.uniform(24).reshape(2, 2, 2, 3) * 0.45
        for a, n in enumerate(extents):
            # low corners push up and high corners down, so no sample clamps
            inward = np.array([1.0, -1.0]).reshape([2 if d == 2 - a else 1 for d in range(3)])
            corners[..., a] *= inward if n > 1 else 0.0
        assert len(np.unique(corners)) > 3
        expected = trilinear_oracle(corners, extents)
        X, Y, Z = extents
        lab = Volume(Tensor4.zeros(Shape4(X, Y, Z, 1)), (1, 1, 1), "labels", 2)
        zz, yy, xx = np.meshgrid(np.arange(Z), np.arange(Y), np.arange(X), indexing="ij")
        for a, coord in enumerate((xx, yy, zz)):
            img = Volume(Tensor4(coord[..., None]), (1, 1, 1), "image")
            warped, _ = elastic_augment(img, lab, corners)
            want = coord + expected[..., a]
            assert np.abs(warped.tensor.zyxc[..., 0] - want).max() < 1e-9


    def test_working_set_below_eight_values_per_voxel(self):
        # the coordinate field and both outputs, with no per-axis or stacked copies
        img = random_image(54, (32, 32, 32))
        lab = random_labels(55, (32, 32, 32))
        corners = random_deformation(Rng(56), sigma=15.0)
        tracemalloc.start()
        try:
            elastic_augment(img, lab, corners)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * 32 ** 3, peak / (8 * 32 ** 3)


class TestAugmentDataset:
    def base(self):
        return [(random_image(s), random_labels(s + 100)) for s in range(3)]

    def test_count_zero_is_original(self):
        data = self.base()
        assert augment_dataset(data, 0, Rng(48)) == data

    def test_enlargement_count(self):
        # four extra copies per sample: 20 volumes become 100
        data = [(random_image(s, (6, 5, 4)), random_labels(s + 50, (6, 5, 4)))
                for s in range(20)]
        out = augment_dataset(data, 4, Rng(49), sigma=3.0)
        assert len(out) == 100

    def test_deterministic(self):
        a = augment_dataset(self.base(), 2, Rng(50), sigma=3.0)
        b = augment_dataset(self.base(), 2, Rng(50), sigma=3.0)
        for (ia, la), (ib, lb) in zip(a, b):
            assert ia.tensor.equal(ib.tensor)
            assert la.tensor.equal(lb.tensor)


class TestManifest:
    def test_round_trip(self, tmp_path):
        pairs = [("a_img.vvol", "a_lab.vvol"), ("b_img.vvol", "b_lab.vvol")]
        path = tmp_path / "train.manifest"
        write_manifest(path, pairs)
        assert read_manifest(path) == pairs

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("only_one_field\n")
        with pytest.raises(VvolError):
            read_manifest(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_bytes(b"a_img.vvol\ta_lab\xff.vvol\n")
        with pytest.raises(VvolError):
            read_manifest(path)

    def test_load_volumes(self, tmp_path):
        img, lab = random_image(51), random_labels(52)
        write_vvol(img, tmp_path / "i.vvol")
        write_vvol(lab, tmp_path / "l.vvol")
        write_manifest(tmp_path / "m.manifest", [("i.vvol", "l.vvol")])
        pairs = load_manifest_volumes(tmp_path / "m.manifest", (6, 5, 4))  # an exact fit
        assert len(pairs) == 1
        assert pairs[0][0].tensor.equal(img.tensor)
        assert pairs[0][1].tensor.equal(lab.tensor)


class TestManifestFuzz:
    """Whatever the bytes, read_manifest returns (image, labels) pairs or raises VvolError."""

    @given(raw=st.binary(max_size=128))
    @FUZZ
    def test_arbitrary_bytes(self, tmp_path, raw):
        self._read(tmp_path, raw)

    @given(raw=mutated([b"vol_000_img.vvol\tvol_000_lab.vvol\n",
                        "a\u00e9_img.vvol\tb_lab.vvol\n\nc_img.vvol\tc_lab.vvol\n".encode()]))
    @FUZZ
    def test_mutated_valid_files(self, tmp_path, raw):
        self._read(tmp_path, raw)

    @staticmethod
    def _read(tmp_path, raw):
        path = tmp_path / "fuzz.manifest"
        path.write_bytes(raw)
        try:
            pairs = read_manifest(path)
        except VvolError:
            return
        assert all(isinstance(a, str) and isinstance(b, str) for a, b in pairs)
