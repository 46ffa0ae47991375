"""The benchmark's workloads: training runs and per-volume inference plus evaluation.

Every workload is a closed loop: one caller starts the next training
iteration or volume only after the previous one has finished. Inputs are
generated from the workload seed and written to disk under the work directory,
then read back by the same calls the ``voxseg`` CLI makes.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import voxseg.cli.train as train
import voxseg.inference as inference
import voxseg.metrics as metrics
import voxseg.nn as nn
import voxseg.volume as volume
from voxseg.cli.config import TrainConfig
from voxseg.tensor import Rng

import oracle
from spans import Tracer, layer_metrics

PATCH = (32, 32, 32)
DESK_NET = dict(patch=PATCH, k=16, widths=(16, 32))  # the desk net of the README

# training runs: 48^3 two-class phantoms, validated once after the last iteration
TRAIN_VOLUMES = 4
TRAIN_SPLIT = 3
TRAIN_AUGMENT = 1
TRAIN_ITERATIONS = 10
MIN_TRAIN_RUNS = 3  # set-up time is the median over at least this many runs

# inference + evaluation: held-out 64^3 three-class phantoms, drawn as
# ``voxseg gen-data`` draws them (default foreground bounds 0.01-0.35)
INFER_EXTENTS = (64, 64, 64)
INFER_CLASSES = 3
# ASD and HD compare every pair of surface voxels, class by class: their time
# grows with the pair count, sum over classes of (surface voxels)^2, and their
# memory with the largest class surface, which sizes the distance arrays. Blob
# shapes alone spread the pair count over a factor of 3 between phantoms. The
# pool keeps phantoms whose pair count and largest class surface both lie near
# their medians over 1000 phantoms, so every seed evaluates inputs of the
# median size.
INFER_PAIRS, INFER_PAIRS_TOL = 14_260_000, 0.10
INFER_SURFACE_MAX, INFER_SURFACE_MAX_TOL = 3234, 0.05
INFER_POOL = 6  # distinct volumes per run, processed in turn
INFER_CANDIDATES = 1000  # phantoms tried before giving up
INFER_SETUPS = 9  # set-up time is the median over this many set-ups
MIN_INFER_OPS = 5
TRACE_VOLUMES = 2
WARP_SIGMA = 2.0  # voxels; the evaluated label map is the reference warped this much

PROB_SUM_TOL = 1e-12
ORACLE_CROP = 16


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    op_voxels: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(message)
        print(f"perfbench: check failed: {message}", file=sys.stderr)


def _failed_call(outcome: Outcome, what: str, ops: int) -> None:
    traceback.print_exc(file=sys.stderr)
    outcome.fail(f"{what} raised {sys.exc_info()[1]!r}", ops)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class StepClock:
    """Times training iterations from outside ``run_training``.

    An iteration runs from the entry of ``sample_patch`` to the return of
    ``sgd_step``, both as looked up in ``voxseg.cli.train``. With a tracer the
    iteration is also recorded as span ``cli.train.iteration``; the clock is
    installed after the tracer so that this span encloses the others.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.steps: list[float] = []
        self.first_end = math.nan
        self.skipped = 0
        self._start: float | None = None
        self._span = -1
        self._originals = (train.sample_patch, train.sgd_step)

    def _sample(self, *args, **kwargs):
        if self._start is None:
            self._start = time.perf_counter()
            if self.tracer is not None:
                self.tracer.op = len(self.steps)
                self._span = self.tracer.open("cli.train.iteration")
        return self._originals[0](*args, **kwargs)

    def _step(self, *args, **kwargs):
        applied = self._originals[1](*args, **kwargs)
        if self.tracer is not None:
            self.tracer.close(self._span)
        end = time.perf_counter()
        if not self.steps:
            self.first_end = end
        self.steps.append(end - self._start)
        self._start = None
        if not applied:
            self.skipped += 1
        return applied

    def __enter__(self) -> "StepClock":
        train.sample_patch, train.sgd_step = self._sample, self._step
        return self

    def __exit__(self, *exc) -> None:
        train.sample_patch, train.sgd_step = self._originals


def train_config(seed: int, factors, work: Path) -> TrainConfig:
    return TrainConfig(
        seed=seed, volumes=TRAIN_VOLUMES, train_split=TRAIN_SPLIT, class_count=2,
        factors=tuple(factors), iterations=TRAIN_ITERATIONS,
        val_interval=TRAIN_ITERATIONS, augment_count=TRAIN_AUGMENT,
        data_dir=str(work / "data"), out_dir=str(work / "run"), **DESK_NET,
    ).validate()


def write_phantoms(cfg: TrainConfig) -> None:
    """What ``voxseg gen-data`` writes for this config."""
    data_dir = Path(cfg.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    dataset = volume.gen_synthetic(Rng(cfg.seed).spawn(1).seed, cfg.volumes, cfg.extents,
                                   cfg.class_count, cfg.noise_sigma,
                                   (cfg.fg_lo, cfg.fg_hi), cfg.spacing)
    pairs = []
    for i, (image, labels) in enumerate(dataset):
        pair = (f"vol_{i:03d}_img.vvol", f"vol_{i:03d}_lab.vvol")
        volume.write_vvol(image, data_dir / pair[0])
        volume.write_vvol(labels, data_dir / pair[1])
        pairs.append(pair)
    volume.write_manifest(data_dir / "train.manifest", pairs[: cfg.train_split])
    volume.write_manifest(data_dir / "test.manifest", pairs[cfg.train_split:])


@dataclass
class TrainRun:
    setup_s: float
    steps: list[float]
    val_loss: float


def train_run(cfg: TrainConfig, outcome: Outcome, tracer: Tracer | None = None
              ) -> TrainRun | None:
    """One ``run_training`` call on freshly written phantoms, with its checks.

    The first iteration is the warm-up: it is timed into set-up, not into steps.
    """
    outcome.attempted += cfg.iterations
    started = time.perf_counter()
    clock = StepClock(tracer)
    try:
        write_phantoms(cfg)
        with clock:
            result = train.run_training(cfg)
    except Exception:
        _failed_call(outcome, "run_training", cfg.iterations)
        return None
    failed_before = outcome.failed
    if clock.skipped:
        outcome.fail(f"{clock.skipped} SGD steps skipped", clock.skipped)
    if result.iterations_run != cfg.iterations or len(clock.steps) != cfg.iterations:
        outcome.fail(f"ran {result.iterations_run} of {cfg.iterations} iterations")
    rows = result.log_path.read_text(encoding="utf-8").splitlines()[1:]
    losses = [float(r.split(",")[3]) for r in rows]
    bad = sum(not math.isfinite(x) for x in losses)
    if bad:
        outcome.fail(f"{bad} non-finite losses in {result.log_path.name}", bad)
    if not math.isfinite(result.final_val_loss):
        outcome.fail("non-finite validation loss")
    if outcome.failed > failed_before:
        return None
    return TrainRun(clock.first_end - started, clock.steps[1:], result.final_val_loss)


def run_train(factors, seed: int, seconds: float, work: Path) -> Outcome:
    cfg = train_config(seed, factors, work)
    outcome = Outcome(op_voxels=math.prod(cfg.patch))
    val_losses = []
    started = time.perf_counter()
    runs = 0
    while runs < MIN_TRAIN_RUNS or time.perf_counter() - started < seconds:
        runs += 1
        run = train_run(cfg, outcome)
        if run is None:
            continue
        outcome.setup_s.append(run.setup_s)
        outcome.op_s.extend(run.steps)
        val_losses.append(run.val_loss)
    if len(set(val_losses)) > 1:
        outcome.fail(f"validation loss differs between runs of one seed: {val_losses}")
    outcome.info.update(training_runs=runs, iterations_per_run=cfg.iterations,
                        val_loss=val_losses[0] if val_losses else None)
    return outcome


def trace_train(factors, seed: int, work: Path) -> Outcome:
    """One untraced and one traced training run; outputs must agree exactly."""
    cfg = train_config(seed, factors, work)
    outcome = Outcome(op_voxels=math.prod(cfg.patch))
    plain = train_run(cfg, outcome)
    tracer = Tracer()
    tracer.install()
    try:
        traced = train_run(cfg, outcome, tracer)
    finally:
        tracer.uninstall()
    if plain is None or traced is None:
        return outcome
    if traced.val_loss != plain.val_loss:
        outcome.fail(f"traced validation loss {traced.val_loss!r} != {plain.val_loss!r}")
    outcome.info.update(val_loss=plain.val_loss, traced_val_loss=traced.val_loss)
    _check_conv_counts(cfg, tracer, outcome)
    outcome.layer = layer_metrics(tracer)
    _record_overhead(outcome, plain.steps, traced.steps)
    outcome.tracer = tracer
    return outcome


def _record_overhead(outcome: Outcome, plain: list[float], traced: list[float]) -> None:
    """Tracing overhead: traced over untraced median operation time, minus one."""
    untraced_p50, traced_p50 = statistics.median(plain), statistics.median(traced)
    outcome.layer["trace.overhead_ratio"] = (traced_p50 / untraced_p50 - 1.0, "1")
    outcome.info.update(untraced_op_s_p50=untraced_p50, traced_op_s_p50=traced_p50)


def _check_conv_counts(cfg: TrainConfig, tracer: Tracer, outcome: Outcome) -> None:
    """Traced conv calls and FLOPs against the built net's Conv3d shapes."""
    net = nn.build_backbone(cfg.backbone_spec(), Rng(cfg.seed).spawn(7))
    _, _, calls = tracer.times()
    per_forward = oracle.conv_flops_per_forward(net, cfg.patch)
    expected_flops = per_forward * (calls["nn.forward"] + 2 * calls["nn.backward"])
    expected_calls = len(oracle.conv_layers(net, cfg.patch)) * calls["nn.forward"]
    if tracer.counters["nn.conv3d.flops"] != expected_flops:
        outcome.fail(f"traced conv FLOPs {tracer.counters['nn.conv3d.flops']} != "
                     f"{expected_flops} from the layer shapes")
    if calls["nn.conv3d"] != expected_calls:
        outcome.fail(f"traced conv calls {calls['nn.conv3d']} != {expected_calls}")
    outcome.info.update(forward_passes=calls["nn.forward"],
                        backward_passes=calls["nn.backward"],
                        conv_flops_per_forward=per_forward)


# ---------------------------------------------------------------------------
# inference + evaluation
# ---------------------------------------------------------------------------

def infer_config(seed: int, work: Path) -> TrainConfig:
    return TrainConfig(seed=seed, class_count=INFER_CLASSES, factors=(2, 2, 2),
                       data_dir=str(work / "data"), out_dir=str(work / "run"),
                       **DESK_NET).validate()


def infer_paths(cfg: TrainConfig, i: int) -> dict[str, Path]:
    data, out = Path(cfg.data_dir), Path(cfg.out_dir)
    return {
        "image": data / f"vol_{i:03d}_img.vvol",
        "reference": data / f"vol_{i:03d}_lab.vvol",
        "warped": data / f"vol_{i:03d}_warped.vvol",
        "prob": out / f"vol_{i:03d}_prob.vvol",
        "pred": out / f"vol_{i:03d}_pred.vvol",
    }


def _phantom(cfg: TrainConfig, generator_seed: int):
    return volume.gen_synthetic(generator_seed, 1, INFER_EXTENTS, cfg.class_count,
                                cfg.noise_sigma, (cfg.fg_lo, cfg.fg_hi), cfg.spacing)[0]


def median_eval_size(labels: volume.Volume) -> bool:
    """Whether ASD and HD of ``labels`` take about the median time and memory."""
    lab = labels.tensor.zyxc[..., 0]
    sizes = [len(metrics.extract_surface(metrics.BinaryMask(lab == c)))
             for c in range(1, INFER_CLASSES)]
    pairs = sum(n * n for n in sizes)
    return (abs(pairs / INFER_PAIRS - 1.0) <= INFER_PAIRS_TOL
            and abs(max(sizes) / INFER_SURFACE_MAX - 1.0) <= INFER_SURFACE_MAX_TOL)


def held_out_seeds(cfg: TrainConfig) -> list[int]:
    """Generator seeds of INFER_POOL phantoms of the median evaluation size.

    Chosen once per run, before any timing, so that every set-up generates
    the same number of phantoms.
    """
    rng, chosen = Rng(cfg.seed), []
    for k in range(INFER_CANDIDATES):
        generator_seed = rng.spawn(1000 + k).seed
        if median_eval_size(_phantom(cfg, generator_seed)[1]):
            chosen.append(generator_seed)
            if len(chosen) == INFER_POOL:
                return chosen
    raise RuntimeError(f"fewer than {INFER_POOL} of {INFER_CANDIDATES} phantoms "
                       "have the median evaluation size")


def infer_setup(cfg: TrainConfig, generator_seeds: list[int]) -> float:
    """Write held-out phantoms, their warped label maps and a seeded checkpoint.

    Ends with one untimed tile through the net, which builds the shuffle
    tables and starts the BLAS threads before any volume is timed.
    """
    started = time.perf_counter()
    Path(cfg.data_dir).mkdir(parents=True, exist_ok=True)
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    rng = Rng(cfg.seed)
    dataset = [_phantom(cfg, s) for s in generator_seeds]
    for i, (image, labels) in enumerate(dataset):
        paths = infer_paths(cfg, i)
        field = volume.random_deformation(rng.spawn(100 + i), sigma=WARP_SIGMA)
        _, warped = volume.elastic_augment(image, labels, field)
        volume.write_vvol(image, paths["image"])
        volume.write_vvol(labels, paths["reference"])
        volume.write_vvol(warped, paths["warped"])
    net = nn.build_backbone(cfg.backbone_spec(), rng.spawn(7))
    nn.save_checkpoint(Path(cfg.out_dir) / "model.vckp", net.parameters())
    tile = dataset[0][0].tensor.crop((0, 0, 0), cfg.patch)
    net.predict(volume.normalize_patch(tile))
    return time.perf_counter() - started


@dataclass
class VolumeRun:
    index: int
    op_s: float
    infer_s: float
    eval_s: float
    probs: volume.Volume
    rows: list[dict]

    @property
    def prob_hash(self) -> str:
        return hashlib.blake2b(self.probs.tensor.zyxc.tobytes(), digest_size=16).hexdigest()


def infer_volume(cfg: TrainConfig, i: int, outcome: Outcome) -> VolumeRun | None:
    """What ``voxseg infer`` then ``voxseg eval`` do for volume ``i``."""
    paths = infer_paths(cfg, i)
    outcome.attempted += 1
    try:
        t0 = time.perf_counter()
        net = nn.build_backbone(cfg.backbone_spec(), Rng(cfg.seed).spawn(7))
        nn.load_into_network(net, nn.load_checkpoint(Path(cfg.out_dir) / "model.vckp"))
        image = volume.read_vvol(paths["image"])
        t1 = time.perf_counter()
        probs = inference.predict_volume(net, image, cfg.patch, cfg.resolved_stride())
        labels = inference.decode_labels(probs)
        t2 = time.perf_counter()
        volume.write_vvol(probs, paths["prob"])
        volume.write_vvol(labels, paths["pred"])
        pred = volume.read_vvol(paths["warped"])
        ref = volume.read_vvol(paths["reference"])
        t3 = time.perf_counter()
        rows = metrics.per_class_metrics(pred, ref)
        t4 = time.perf_counter()
    except Exception:
        _failed_call(outcome, f"volume {i}", 1)
        return None
    return VolumeRun(i, t4 - t0, t2 - t1, t4 - t3, probs, rows)


def check_volume(cfg: TrainConfig, run: VolumeRun | None, outcome: Outcome) -> bool:
    """Output checks of one volume; run outside any traced stretch."""
    if run is None:
        return False
    failed_before = outcome.failed
    _check_probabilities(cfg, run.probs, run.index, outcome)
    _check_metric_rows(run.rows, run.index, outcome)
    return outcome.failed == failed_before


def _check_probabilities(cfg: TrainConfig, probs, i: int, outcome: Outcome) -> None:
    p = probs.tensor.zyxc
    cover = np.zeros(p.shape[:3], dtype=np.int64)
    plan = inference.plan_tiling(probs.extents, cfg.patch, cfg.resolved_stride())
    px, py, pz = plan.patch
    for ox, oy, oz in plan.origins:
        cover[oz:oz + pz, oy:oy + py, ox:ox + px] += 1
    if cover.min() < 1:
        outcome.fail(f"volume {i}: {int((cover == 0).sum())} voxels not covered by a tile")
    elif not (np.isfinite(p).all() and p.min() >= 0.0 and p.max() <= 1.0):
        outcome.fail(f"volume {i}: probabilities outside [0, 1]")
    elif np.abs(p.sum(axis=3) - 1.0).max() > PROB_SUM_TOL:
        outcome.fail(f"volume {i}: probabilities do not sum to 1")


def _check_metric_rows(rows: list[dict], i: int, outcome: Outcome) -> None:
    if len(rows) != INFER_CLASSES - 1:
        outcome.fail(f"volume {i}: {len(rows)} metric rows for {INFER_CLASSES - 1} classes")
    for row in rows:
        d, a, h = row["dice"], row["asd"], row["hausdorff"]
        if not (0.0 <= d <= 1.0 and 0.0 <= a <= h and math.isfinite(h)):
            outcome.fail(f"volume {i} class {row['class']}: dice {d}, asd {a}, hd {h}")


def check_oracle(cfg: TrainConfig, outcome: Outcome) -> None:
    """ASD and HD on a crop of volume 0, class 1, against the brute-force oracle."""
    paths = infer_paths(cfg, 0)
    ref = volume.read_vvol(paths["reference"]).tensor.zyxc[..., 0] == 1
    warped = volume.read_vvol(paths["warped"]).tensor.zyxc[..., 0] == 1
    # centred on the reference voxel with the largest x, so the crop holds the
    # blob's edge, where the warped copy differs from the reference
    voxels = np.argwhere(ref)
    edge = voxels[voxels[:, 2].argmax()]
    lo = np.clip(edge - ORACLE_CROP // 2, 0, np.array(ref.shape) - ORACLE_CROP)
    crop = tuple(slice(s, s + ORACLE_CROP) for s in lo)
    a, b = warped[crop], ref[crop]
    if not (a.any() and b.any()):
        outcome.fail("oracle crop holds no foreground")
        return
    want = oracle.surface_distances(a, b)
    got = (metrics.asd(metrics.BinaryMask(a), metrics.BinaryMask(b)),
           metrics.hausdorff(metrics.BinaryMask(a), metrics.BinaryMask(b)))
    if got != want:
        outcome.fail(f"ASD/HD on the oracle crop: program {got}, oracle {want}")
    outcome.info["oracle_asd_hd"] = want


def prepare_infer(cfg: TrainConfig, outcome: Outcome, setups: int) -> list[int] | None:
    """Choose the held-out pool, set it up ``setups`` times and check the oracle crop.

    Returns the pool's generator seeds, or None when any of this raised; the
    failure is then counted as one failed operation.
    """
    try:
        generator_seeds = held_out_seeds(cfg)
        outcome.setup_s = [infer_setup(cfg, generator_seeds) for _ in range(setups)]
        check_oracle(cfg, outcome)
    except Exception:
        outcome.attempted += 1
        _failed_call(outcome, "inference set-up", 1)
        return None
    return generator_seeds


def run_infer_eval(seed: int, seconds: float, work: Path) -> Outcome:
    cfg = infer_config(seed, work)
    outcome = Outcome(op_voxels=math.prod(INFER_EXTENTS))
    if prepare_infer(cfg, outcome, INFER_SETUPS) is None:
        return outcome
    outputs: dict[int, tuple] = {}  # volume -> (probability hash, metric rows)
    infer_s, eval_s = [], []
    started = time.perf_counter()
    n = 0
    while n < MIN_INFER_OPS or time.perf_counter() - started < seconds:
        i = n % INFER_POOL
        n += 1
        run = infer_volume(cfg, i, outcome)
        if not check_volume(cfg, run, outcome):
            continue
        out = (run.prob_hash, run.rows)
        if outputs.setdefault(i, out) != out:
            outcome.fail(f"volume {i}: outputs differ between two passes")
        outcome.op_s.append(run.op_s)
        infer_s.append(run.infer_s)
        eval_s.append(run.eval_s)
    if infer_s:
        outcome.info.update(volumes=n, infer_volume_s_p50=statistics.median(infer_s),
                            eval_volume_s_p50=statistics.median(eval_s))
    return outcome


def trace_infer_eval(seed: int, work: Path) -> Outcome:
    """The same volumes untraced, then traced with their set-up; outputs must agree."""
    cfg = infer_config(seed, work)
    outcome = Outcome(op_voxels=math.prod(INFER_EXTENTS))
    generator_seeds = prepare_infer(cfg, outcome, 1)
    if generator_seeds is None:
        return outcome
    plain = [infer_volume(cfg, i, outcome) for i in range(TRACE_VOLUMES)]
    tracer = Tracer()
    tracer.install()
    try:
        infer_setup(cfg, generator_seeds)
        traced = []
        for i in range(TRACE_VOLUMES):
            tracer.op = i
            traced.append(infer_volume(cfg, i, outcome))
    except Exception:
        outcome.attempted += 1
        _failed_call(outcome, "traced inference set-up", 1)
        return outcome
    finally:
        tracer.uninstall()
    if not all([check_volume(cfg, run, outcome) for run in plain + traced]):
        return outcome
    for i, (p, t) in enumerate(zip(plain, traced)):
        if (p.prob_hash, p.rows) != (t.prob_hash, t.rows):
            outcome.fail(f"volume {i}: traced outputs differ from untraced ones")
    _check_conv_counts(cfg, tracer, outcome)
    outcome.layer = layer_metrics(tracer)
    _record_overhead(outcome, [p.op_s for p in plain], [t.op_s for t in traced])
    outcome.info.update(prob_hashes=[p.prob_hash for p in plain])
    outcome.tracer = tracer
    return outcome
