"""Acceptance suite: one test per release criterion, each printing a verdict line.

The long-running criteria (end-to-end learning, convergence comparison) share
one synthetic dataset fixture, and the loss-decrease and convergence tests
share one 500-iteration (2,2,2) training run. Run with
``pytest tests/test_acceptance.py -v -s`` to watch progress.
"""

import hashlib
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (dot, down_shuffle_reference, fd_gradient_error, from_flat,
                      gemm_flops_per_step, tensors_equal)
from test_metrics import brute_asd_hd, mask_from_voxels
from voxseg.cli.config import TrainConfig, load_config
from voxseg.cli.main import main
from voxseg.cli.train import run_training
from voxseg.inference import predict_volume
from voxseg.metrics import BinaryMask, asd, dice, hausdorff
from voxseg.nn import (BackboneSpec, Node, ShuffleUNet3d, activation, ce_dice_loss, conv3d,
                       maxpool3, softmax_channels)
from voxseg.shuffle import down_shuffle, up_shuffle
from voxseg.tensor import Rng, Shape4, Tensor4
from voxseg.volume import Volume


def report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {verdict}{suffix}")
    assert ok, f"{name}: {detail}"


def random_case(rng):
    f = (rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 4))
    shape = Shape4(f[0] * rng.randint(1, 4), f[1] * rng.randint(1, 4),
                   f[2] * rng.randint(1, 4), rng.randint(1, 4))
    return f, Tensor4.gaussian(shape, 0.0, 1.0, rng)


class TestShuffleCorrectness:
    def test_oracle_roundtrip_conservation(self):
        started = time.perf_counter()
        rng = Rng(101)
        for _ in range(200):
            f, t = random_case(rng)
            fast = down_shuffle(t, f)
            assert tensors_equal(fast, down_shuffle_reference(t, f))
            assert tensors_equal(up_shuffle(fast, f), t)
            assert tensors_equal(down_shuffle(up_shuffle(fast, f), f), fast)
            assert np.array_equal(np.sort(fast.flat), np.sort(t.flat))
        elapsed = time.perf_counter() - started
        report("shuffle-correctness", elapsed < 10.0,
               f"200 cases exact in {elapsed:.2f}s")


class TestAdjointLaw:
    def test_inner_products_exactly_equal(self):
        started = time.perf_counter()
        rng = Rng(202)
        worst = 0.0
        for _ in range(100):
            f, x = random_case(rng)
            y = Tensor4.gaussian(down_shuffle(x, f).shape, 0.0, 1.0, rng)
            worst = max(worst, abs(dot(down_shuffle(x, f), y) - dot(x, up_shuffle(y, f))))
        elapsed = time.perf_counter() - started
        report("adjoint-law", worst == 0.0 and elapsed < 5.0,
               f"max |difference| = {worst} in {elapsed:.2f}s")


class TestGradientSuite:
    TOL = 1e-6
    BACKBONE_TOL = 1e-5

    def test_all_operations(self):
        started = time.perf_counter()
        rng = Rng(303)
        errors = {}

        def projection(shape, seed):  # the seed that projects an output to a scalar
            return Tensor4.gaussian(shape, 0.0, 1.0, Rng(seed)).zyxc

        x = Tensor4.gaussian(Shape4(3, 3, 3, 2), 0, 1, rng)
        w = Tensor4.gaussian(Shape4(3, 3, 3, 4), 0, 0.5, rng)
        b = Tensor4.gaussian(Shape4(1, 1, 1, 2), 0, 0.5, rng)
        errors["conv3d"] = fd_gradient_error(
            lambda l: conv3d(l[0], l[1], l[2]),
            [x, w, b], projection(Shape4(3, 3, 3, 2), 1))

        relu_in = Rng(304).normal(16)
        relu_in += np.sign(relu_in) * 0.25
        errors["activation"] = fd_gradient_error(
            lambda l: activation(l[0], "relu"),
            [from_flat(Shape4(2, 2, 2, 2), relu_in)],
            projection(Shape4(2, 2, 2, 2), 2))

        # the same ReLU inside conv3d: a 1x1x1 kernel, with the input solved so
        # that the pre-activations are relu_in, each at least 0.25 from zero
        w1 = Tensor4.gaussian(Shape4(1, 1, 1, 4), 0, 1, Rng(311))
        b1 = Tensor4.gaussian(Shape4(1, 1, 1, 2), 0, 0.5, Rng(312))
        x1 = Tensor4((relu_in.reshape(2, 2, 2, 2) - b1.zyxc[0, 0, 0])
                     @ np.linalg.inv(w1.zyxc.reshape(2, 2)))
        pre = conv3d(Node(x1), Node(w1), Node(b1)).value.zyxc
        assert np.abs(pre).min() >= 0.25 and pre.min() < 0.0 < pre.max()
        errors["conv3d-relu"] = fd_gradient_error(
            lambda l: conv3d(l[0], l[1], l[2], act="relu"),
            [x1, w1, b1], projection(Shape4(2, 2, 2, 2), 7))

        errors["maxpool"] = fd_gradient_error(
            lambda l: maxpool3(l[0], (2, 2, 2)),
            [Tensor4.gaussian(Shape4(4, 4, 2, 2), 0, 1, rng)],
            projection(Shape4(2, 2, 1, 2), 3))

        errors["softmax"] = fd_gradient_error(
            lambda l: softmax_channels(l[0]),
            [Tensor4.gaussian(Shape4(2, 2, 2, 3), 0, 1, rng)],
            projection(Shape4(2, 2, 2, 3), 4))

        labels = Tensor4(Rng(305).randint(0, 2, 64).reshape(4, 4, 4, 1))
        errors["ce-dice-loss"] = fd_gradient_error(
            lambda l: ce_dice_loss(softmax_channels(l[0]), labels),
            [Tensor4.gaussian(Shape4(4, 4, 4, 2), 0, 1, rng)])

        from voxseg.nn import ConvUpShuffle, DownShuffleConv

        stem = DownShuffleConv(1, 3, (2, 2, 2), Rng(306), sigma=0.3)

        def stem_op(leaves):
            stem.conv.weight, stem.conv.bias = leaves[1], leaves[2]
            return stem(leaves[0])

        errors["down-shuffle-conv"] = fd_gradient_error(
            stem_op,
            [Tensor4.gaussian(Shape4(4, 4, 4, 1), 0, 1, rng),
             Tensor4(stem.conv.weight.value.zyxc.copy()),
             Tensor4(stem.conv.bias.value.zyxc.copy())],
            projection(Shape4(2, 2, 2, 3), 5))

        head = ConvUpShuffle(2, 1, (2, 2, 2), Rng(307), sigma=0.3)

        def head_op(leaves):
            head.conv.weight, head.conv.bias = leaves[1], leaves[2]
            return head(leaves[0])

        errors["conv-up-shuffle"] = fd_gradient_error(
            head_op,
            [Tensor4.gaussian(Shape4(2, 2, 2, 2), 0, 1, rng),
             Tensor4(head.conv.weight.value.zyxc.copy()),
             Tensor4(head.conv.bias.value.zyxc.copy())],
            projection(Shape4(4, 4, 4, 1), 6))

        ok = all(err < self.TOL for err in errors.values())
        elapsed = time.perf_counter() - started
        detail = ", ".join(f"{k}={v:.2e}" for k, v in errors.items())
        report("gradient-suite-ops", ok and elapsed < 120.0,
               f"{detail}; {elapsed:.1f}s")

    def test_full_depth2_backbone(self):
        started = time.perf_counter()
        spec = BackboneSpec(class_count=2, factors=(2, 2, 2), stem_channels=2,
                            widths=(2, 3), pool=(2, 2, 2), init_sigma=0.2)
        net = ShuffleUNet3d(spec, Rng(308))
        x = Tensor4.gaussian(Shape4(8, 8, 8, 1), 0, 1, Rng(309))
        labels = Tensor4(Rng(310).randint(0, 2, 8 ** 3).reshape(8, 8, 8, 1))

        params = net.parameters()
        names = list(params)
        tensors = [Tensor4(params[n].value.zyxc.copy()) for n in names]

        def build(leaves):
            for name, leaf in zip(names, leaves):
                params[name].value = leaf.value
            net.zero_grad()
            loss = ce_dice_loss(net.forward(x), labels)
            for name, leaf in zip(names, leaves):
                leaf.grad = params[name].grad
            return loss

        err = fd_gradient_error(build, tensors)
        elapsed = time.perf_counter() - started
        report("gradient-suite-backbone", err < self.BACKBONE_TOL and elapsed < 120.0,
               f"rel err {err:.2e} in {elapsed:.1f}s")


class TestCostReduction:
    def test_exact_integer_ratios(self):
        started = time.perf_counter()

        def counts(factors):
            spec = BackboneSpec(class_count=2, factors=factors, stem_channels=8,
                                widths=(8, 16), pool=(2, 2, 2))
            net = ShuffleUNet3d(spec, Rng(404))
            net.forward(Tensor4.gaussian(Shape4(32, 32, 32, 1), 0, 1, Rng(405)))
            return dict(net.last_activation_counts)

        base = counts((1, 1, 1))
        ok = True
        for factors, product in [((2, 2, 2), 8), ((4, 4, 2), 32)]:
            reduced = counts(factors)
            ok = ok and set(base) == set(reduced)
            for name in base:
                ok = ok and base[name] == product * reduced[name]
        elapsed = time.perf_counter() - started
        report("cost-reduction-law", ok and elapsed < 60.0,
               f"per-activation ratios exactly 8 and 32; {elapsed:.1f}s")


@pytest.fixture(scope="module")
def synthetic_dataset(tmp_path_factory):
    """13 volumes of 48^3 (10 train / 3 test), 2 classes, fixed seed."""
    data = tmp_path_factory.mktemp("acceptance") / "data"
    rc = main(["gen-data", "--seed", "2024", "--volumes", "13", "--train-split", "10",
               "--extents", "48,48,48", "--class-count", "2", "--data-dir", str(data)])
    assert rc == 0
    return data


def desk_config(data_dir, out_dir, factors, iterations, val_interval=100):
    cfg = TrainConfig(
        seed=2024, volumes=13, train_split=10, extents=(48, 48, 48), class_count=2,
        patch=(32, 32, 32), factors=factors, k=16, widths=(16, 32),
        initial_lr=0.0,  # tabulated: 1e-3 for both (1,1,1) and (2,2,2)
        lr_halving_period=3000, iterations=iterations, batch_size=1,
        val_interval=val_interval, augment_count=4,
        data_dir=str(data_dir), out_dir=str(out_dir),
    )
    return cfg.validate()


@pytest.fixture(scope="module")
def shuffled_run(synthetic_dataset, tmp_path_factory):
    """The (2,2,2) config of 500 iterations, validated once at the end, and its result."""
    cfg = desk_config(synthetic_dataset, tmp_path_factory.mktemp("shuffled"), (2, 2, 2),
                      500, val_interval=500)
    return cfg, run_training(cfg)


@pytest.mark.slow
class TestEndToEndLearning:
    def test_foreground_dice_reaches_target(self, synthetic_dataset, tmp_path):
        started = time.perf_counter()
        cfg = desk_config(synthetic_dataset, tmp_path / "run", (2, 2, 2), 2000)
        result = run_training(cfg, dice_target=0.90)
        mean_dice = float(np.mean(result.final_val_dice))
        elapsed = time.perf_counter() - started
        report("end-to-end-learning",
               mean_dice >= 0.90 and result.iterations_run <= 2000 and elapsed < 1800.0,
               f"dice {mean_dice:.4f} at iteration {result.iterations_run} "
               f"in {elapsed:.0f}s")

    def test_loss_decreases_from_start(self, shuffled_run):
        # training loss at iteration 500 is below iteration 1 on this task
        rows = [line.split(",") for line in
                shuffled_run[1].log_path.read_text().splitlines()[1:]]
        train_loss = {int(r[1]): float(r[3]) for r in rows if r[0] == "train"}
        report("optimization-sanity", train_loss[500] < train_loss[1],
               f"loss {train_loss[1]:.4f} -> {train_loss[500]:.4f}")


@pytest.mark.slow
class TestFasterConvergence:
    def test_shuffled_beats_baseline_at_equal_gemm_work(self, synthetic_dataset,
                                                        shuffled_run, tmp_path):
        """Validation loss at iteration 500 for factors (2,2,2) versus the
        plain baseline given the same GEMM work: as many iterations as the
        counted GEMM FLOPs of 500 shuffled ones pay for, a budget that no
        machine load moves. Tolerance 10%; a failure here is a trigger for
        investigation, since the property depends on the synthetic task."""
        cfg_s, res_s = shuffled_run
        cfg_b = desk_config(synthetic_dataset, tmp_path / "baseline", (1, 1, 1), 500)
        work_s, work_b = gemm_flops_per_step(cfg_s), gemm_flops_per_step(cfg_b)
        iterations_b = math.ceil(500 * work_s / work_b)  # the one that exhausts the budget
        res_b = run_training(replace(cfg_b, iterations=iterations_b, val_interval=iterations_b))
        ok = res_s.final_val_loss <= 1.10 * res_b.final_val_loss
        report("faster-convergence", ok,
               f"shuffled val {res_s.final_val_loss:.4f} (500 iters at "
               f"{work_s / 1e6:,.0f} MFLOP) vs baseline val {res_b.final_val_loss:.4f} "
               f"({iterations_b} iters at {work_b / 1e6:,.0f} MFLOP, the same GEMM work)")


class TestMetricsOracle:
    def enumerate_masks(self, extent, max_fg):
        cells = [(x, y, z) for z in range(extent) for y in range(extent)
                 for x in range(extent)]
        masks = []
        for k in range(1, max_fg + 1):
            for combo in itertools.combinations(cells, k):
                masks.append(mask_from_voxels((extent,) * 3, combo))
        return masks

    def test_exhaustive_and_random_pairs(self):
        started = time.perf_counter()
        # exhaustive: every pair of 2^3 masks with up to 2 foreground voxels,
        # then a deterministic sample of sparse 4^3 pairs and random 8^3 pairs
        small = self.enumerate_masks(2, 2)
        checked = 0
        for a in small:
            for b in small:
                ref_mean, ref_peak = brute_asd_hd(a, b)
                assert asd(a, b) == ref_mean
                assert hausdorff(a, b) == ref_peak
                na, nb = a.voxels.sum(), b.voxels.sum()
                inter = (a.voxels & b.voxels).sum()
                assert dice(a, b) == 2.0 * inter / (na + nb)
                checked += 1

        rng = Rng(505)
        cells4 = [(x, y, z) for z in range(4) for y in range(4) for x in range(4)]
        for _ in range(300):
            def sparse_mask():
                k = rng.randint(1, 4)
                picks = {cells4[int(i)] for i in rng.randint(0, 64, k)}
                return mask_from_voxels((4, 4, 4), picks)
            a, b = sparse_mask(), sparse_mask()
            ref_mean, ref_peak = brute_asd_hd(a, b)
            assert asd(a, b) == ref_mean
            assert hausdorff(a, b) == ref_peak
            checked += 1

        spacing = (0.374, 0.363, 1.078)
        for _ in range(50):
            a = BinaryMask(rng.uniform(512).reshape(8, 8, 8) < 0.3, spacing)
            b = BinaryMask(rng.uniform(512).reshape(8, 8, 8) < 0.3, spacing)
            if not a.voxels.any() or not b.voxels.any():
                continue
            ref_mean, ref_peak = brute_asd_hd(a, b)
            assert asd(a, b) == ref_mean
            assert hausdorff(a, b) == ref_peak
            checked += 1
        elapsed = time.perf_counter() - started
        report("metrics-oracle", elapsed < 60.0,
               f"{checked} pairs matched exactly in {elapsed:.1f}s")


class TestInferenceStitching:
    def test_probability_sums_and_mean_oracle(self):
        spec = BackboneSpec(class_count=3, factors=(2, 2, 2), stem_channels=4,
                            widths=(4, 8))
        net = ShuffleUNet3d(spec, Rng(606))
        vol = Volume(Tensor4.gaussian(Shape4(24, 20, 16, 1), 0, 1, Rng(607)),
                     (1.0, 1.0, 1.0))
        probs = predict_volume(net, vol, (8, 8, 8))
        sums = probs.tensor.zyxc.sum(axis=3)
        sums_ok = np.abs(sums - 1.0).max() < 1e-9

        # hand-built two-patch overlap: x origins {0, 2} on a 6-voxel axis
        class TwoValueNet:
            spec = BackboneSpec(class_count=2, widths=(1,))

            def predict(self, patch):
                v = 0.25 if patch.at(0, 0, 0, 0) < 0.0 else 0.75
                z, y, x = patch.shape.z, patch.shape.y, patch.shape.x
                arr = np.empty((z, y, x, 2))
                arr[..., 0] = v
                arr[..., 1] = 1.0 - v
                return Tensor4(arr)

        marker = np.zeros((4, 4, 6, 1))
        marker[0, 0, 0, 0] = -1.0  # first tile sees a negative corner
        marker[0, 0, 2, 0] = +1.0  # second tile sees a positive corner
        vol2 = Volume(Tensor4(marker), (1.0, 1.0, 1.0))
        # tile normalization keeps each corner's sign: the tile mean lies between 0 and it
        out = predict_volume(TwoValueNet(), vol2, (4, 4, 4), (2, 2, 2))
        got = out.tensor.zyxc
        mean_ok = (
            (got[:, :, :2, 0] == 0.25).all()
            and (got[:, :, 4:, 0] == 0.75).all()
            and (got[:, :, 2:4, 0] == 0.5).all()
        )
        report("inference-stitching", bool(sums_ok and mean_ok),
               f"max |sum-1| = {np.abs(sums - 1.0).max():.2e}; "
               "two-patch overlap equals the arithmetic mean")


class TestDeterminism:
    @staticmethod
    def _train_twice(tmp_path, factors, patch, batch_size):
        """sha256 of (checkpoint, log) from two identical training runs."""
        data = tmp_path / "data"
        rc = main(["gen-data", "--seed", "31", "--volumes", "3", "--train-split", "2",
                   "--extents", "16,16,16", "--patch", patch,
                   "--data-dir", str(data)])
        assert rc == 0

        def run(out_name):
            cfg = load_config(None, {
                "seed": "31", "volumes": "3", "train_split": "2",
                "extents": "16,16,16", "patch": patch, "factors": factors,
                "batch_size": batch_size,
                "k": "4", "widths": "4,8", "iterations": "25", "val_interval": "10",
                "augment_count": "1", "data_dir": str(data),
                "out_dir": str(tmp_path / out_name),
            })
            result = run_training(cfg)
            ck = hashlib.sha256(result.checkpoint_path.read_bytes()).hexdigest()
            lg = hashlib.sha256(result.log_path.read_bytes()).hexdigest()
            return ck, lg

        return run("a"), run("b")

    def test_hash_identical_checkpoints_and_logs(self, tmp_path):
        first, second = self._train_twice(tmp_path, "2,2,2", "8,8,8", "1")
        report("determinism", first == second,
               f"checkpoint sha256 {first[0][:12]}..., log sha256 {first[1][:12]}...")

    def test_hash_identical_plain_unet_batch_two(self, tmp_path):
        # factors 1,1,1 at batch 2: the input skips its gradient at full size and
        # two released graphs accumulate into the same parameters
        first, second = self._train_twice(tmp_path, "1,1,1", "16,16,16", "2")
        report("determinism-plain-batch2", first == second,
               f"checkpoint sha256 {first[0][:12]}..., log sha256 {first[1][:12]}...")
