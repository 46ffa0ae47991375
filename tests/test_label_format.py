"""Label maps are uint8 end to end, one byte per voxel in memory as on disk.

``Volume`` owns the label format: a label volume holds a uint8 ``Tensor4`` with
``class_count`` in [1, 256] and every value below it, and an image volume holds
float64. Every producer of label maps builds uint8 directly.
"""

import numpy as np
import pytest

from conftest import traced_peak
from voxseg.cli.main import EXIT_OK, main
from voxseg.inference import decode_labels
from voxseg.shuffle import down_shuffle
from voxseg.tensor import Rng, Shape4, Tensor4
from voxseg.volume import (Volume, VvolError, elastic_augment, gen_synthetic,
                           random_deformation, read_vvol, sample_patch, write_vvol)
from test_volume import vvol_bytes


def is_uint8_labels(volume: Volume, class_count: int) -> bool:
    a = volume.tensor.zyxc
    return (volume.class_count == class_count
            and a.dtype == np.uint8 and a.flags.c_contiguous and int(a.max()) < class_count)


class TestTensor4Dtypes:
    def test_uint8_kept_without_copy(self):
        a = np.arange(24, dtype=np.uint8).reshape(2, 3, 4, 1)
        assert Tensor4(a).zyxc is a

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16, np.float32, bool])
    def test_other_dtypes_become_float64(self, dtype):
        a = np.arange(8).astype(dtype).reshape(2, 2, 2, 1)
        t = Tensor4(a)
        assert t.zyxc.dtype == np.float64 and np.array_equal(t.zyxc, a)

    def test_crop_keeps_uint8(self):
        t = Tensor4(np.arange(64, dtype=np.uint8).reshape(4, 4, 4, 1))
        patch = t.crop((1, 1, 1), (2, 2, 2))
        assert patch.zyxc.dtype == np.uint8
        assert np.array_equal(patch.zyxc, t.zyxc[1:3, 1:3, 1:3])


class TestVolumeOwnsTheFormat:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint8])
    def test_labels_stored_as_uint8(self, dtype):
        values = Rng(3).randint(0, 200, 6 * 5 * 4).reshape(4, 5, 6, 1)
        vol = Volume(Tensor4(values.astype(dtype)), class_count=200)
        assert is_uint8_labels(vol, 200)
        assert np.array_equal(vol.tensor.zyxc, values)

    def test_float_coded_input_converted_once(self):
        values = Rng(4).randint(0, 3, 64 ** 3).reshape(64, 64, 64, 1).astype(np.float64)
        t = Tensor4(values)
        vol, peak = traced_peak(lambda: Volume(t, class_count=3))
        assert is_uint8_labels(vol, 3)
        assert peak < 1.1 * 64 ** 3, peak  # the uint8 copy and one slab of flooring

    def test_image_stays_float64(self):
        a = np.arange(8, dtype=np.uint8).reshape(2, 2, 2, 1)
        vol = Volume(Tensor4(a))
        assert vol.tensor.zyxc.dtype == np.float64 and np.array_equal(vol.tensor.zyxc, a)

    def test_class_count_256_holds_every_byte(self):
        a = np.arange(256, dtype=np.uint8).reshape(4, 8, 8, 1)
        assert is_uint8_labels(Volume(Tensor4(a), class_count=256), 256)

    @pytest.mark.parametrize("class_count", [-1, 257, 1000])
    def test_class_count_outside_1_to_256_rejected(self, class_count):
        t = Tensor4(np.zeros((2, 2, 2, 1), np.uint8))
        with pytest.raises(ValueError, match=r"class_count in \[1, 256\]"):
            Volume(t, class_count=class_count)

    def test_image_values_are_not_labels(self):
        # the class count alone decides: with 7 classes these float values are labels
        with pytest.raises(ValueError, match="label values"):
            Volume(Tensor4.gaussian(Shape4(2, 2, 2, 1), 0, 1, Rng(5)), class_count=7)

    @pytest.mark.parametrize("value", [3.0, 0.5, -1.0, np.nan, 300.0])
    def test_bad_float_labels_rejected_before_conversion(self, value):
        with pytest.raises(ValueError):
            Volume(Tensor4(np.full((2, 2, 2, 1), value)), class_count=3)

    def test_uint8_label_at_class_count_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            Volume(Tensor4(np.full((2, 2, 2, 1), 3, np.uint8)), class_count=3)


def _pair(extents=(12, 10, 8), class_count=4):
    (image, labels), = gen_synthetic(21, 1, extents, class_count)
    return image, labels


class TestProducersBuildUint8:
    def test_gen_synthetic(self):
        image, labels = _pair()
        assert is_uint8_labels(labels, 4)
        assert image.tensor.zyxc.dtype == np.float64

    def test_elastic_augment(self):
        image, labels = _pair()
        img, lab = elastic_augment(image, labels, random_deformation(Rng(2), sigma=3.0))
        assert is_uint8_labels(lab, 4)
        assert img.tensor.zyxc.dtype == np.float64

    def test_read_vvol(self, tmp_path):
        _, labels = _pair()
        write_vvol(labels, tmp_path / "lab.vvol")
        back = read_vvol(tmp_path / "lab.vvol")
        assert is_uint8_labels(back, 4)
        assert back.tensor.zyxc.tobytes() == labels.tensor.zyxc.tobytes()

    def test_decode_labels(self):
        probs = Rng(5).uniform(4 * 3 * 2 * 5).reshape(2, 3, 4, 5)
        out = decode_labels(Volume(Tensor4(probs)))
        assert is_uint8_labels(out, 5)
        assert np.array_equal(out.tensor.zyxc[..., 0], probs.argmax(axis=3))

    def test_sample_patch_label_patch(self):
        image, labels = _pair()
        img, lab = sample_patch(image, labels, (4, 4, 4), Rng(6))
        assert lab.zyxc.dtype == np.uint8 and img.zyxc.dtype == np.float64

    def test_cli_shuffle_of_a_label_vvol(self, tmp_path, monkeypatch):
        _, labels = _pair()
        write_vvol(labels, tmp_path / "lab.vvol")
        written = []
        monkeypatch.setattr("voxseg.cli.main.write_vvol",
                            lambda volume, path: written.append(volume) or write_vvol(volume, path))
        assert main(["shuffle", "--input", str(tmp_path / "lab.vvol"),
                     "--output", str(tmp_path / "out.vvol"),
                     "--factors", "2,2,2", "--direction", "down"]) == EXIT_OK
        out, = written
        assert is_uint8_labels(out, 4) and out.tensor.shape == (6, 5, 4, 8)
        want = down_shuffle(labels.tensor, (2, 2, 2)).zyxc
        assert read_vvol(tmp_path / "out.vvol").tensor.zyxc.tobytes() == want.tobytes()


class TestClassCountLimit:
    def test_read_vvol_refuses_a_count_write_vvol_refuses(self, tmp_path):
        # test_volume's MALFORMED_VVOL covers the CLI exit code of the same file
        path = tmp_path / "many.vvol"
        path.write_bytes(vvol_bytes(1, 300, (2, 1, 1, 1), (1, 1, 1), [0, 2]))
        with pytest.raises(VvolError, match=r"many\.vvol: .*class_count in \[1, 256\]"):
            read_vvol(path)

    def test_read_vvol_refuses_an_image_header_with_classes(self, tmp_path):
        # the class count alone says image or labels, so the dtype code must agree
        path = tmp_path / "img7.vvol"
        path.write_bytes(vvol_bytes(0, 7, (2, 1, 1, 1), (1, 1, 1), [0.0, 1.0]))
        with pytest.raises(VvolError,
                           match=r"img7\.vvol: dtype code 0 disagrees with class count 7"):
            read_vvol(path)

    def test_decode_labels_of_257_channels_raises(self):
        probs = np.zeros((1, 1, 2, 257))
        probs[:, :, :, 256] = 1.0  # argmax 256 would wrap to 0 in uint8
        with pytest.raises(ValueError, match=r"class_count in \[1, 256\], got 257"):
            decode_labels(Volume(Tensor4(probs)))

    def test_decode_labels_of_256_channels_keeps_the_last_class(self):
        probs = np.zeros((1, 1, 2, 256))
        probs[:, :, :, 255] = 1.0
        assert decode_labels(Volume(Tensor4(probs))).tensor.flat.tolist() == [255, 255]

    def test_gen_synthetic_of_257_classes_raises(self):
        with pytest.raises(ValueError, match=r"class_count 257 must be in \[2, 256\]"):
            gen_synthetic(1, 1, (8, 8, 8), 257)


class TestReadOncePerPayload:
    """A 64^3 read holds about its payload: no whole-file bytes object, no float copy."""

    def test_image_read(self, tmp_path):
        shape = Shape4(64, 64, 64, 1)
        write_vvol(Volume(Tensor4.gaussian(shape, 0, 1, Rng(7))),
                   tmp_path / "img.vvol")
        vol, peak = traced_peak(lambda: read_vvol(tmp_path / "img.vvol"))
        assert vol.tensor.zyxc.nbytes == 8 * 64 ** 3
        assert peak < 1.1 * 8 * 64 ** 3, peak  # was 4.0 MiB for a 2.0 MiB payload

    def test_label_read(self, tmp_path):
        values = Rng(8).randint(0, 3, 64 ** 3).reshape(64, 64, 64, 1).astype(np.uint8)
        write_vvol(Volume(Tensor4(values), class_count=3), tmp_path / "lab.vvol")
        vol, peak = traced_peak(lambda: read_vvol(tmp_path / "lab.vvol"))
        assert is_uint8_labels(vol, 3) and np.array_equal(vol.tensor.zyxc, values)
        assert peak < 1.1 * 64 ** 3, peak  # was 2.29 MiB for a 0.25 MiB payload
