"""Span tracer that wraps voxseg's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent, op). Spans stay
in memory and are written out once the run ends. A layer's self time is its
span's duration minus the durations of its direct children; calls are strictly
nested because every workload runs on one thread.

Functions imported by value are wrapped in every module that looks them up
(``voxseg.nn.down_shuffle``, ``voxseg.cli.train.predict_volume``, ...), so a
call is seen whichever module makes it. ``Tracer.restore`` puts every original
back, which lets one process run the same work untraced and traced.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass

MIB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: int  # operation (training iteration or volume) the span belongs to


class Tracer:
    """Spans, counters and traced-memory peaks of one traced stretch of work."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.mem_peak: dict[str, float] = defaultdict(float)  # bytes above phase start
        self.op = -1
        self.missing: list[str] = []
        self._open: list[int] = []
        self._mem_open: list[list] = []  # [name, current at entry, highest peak seen]
        self._patches: list[tuple[object, str, object]] = []
        self._surface_keys: set[bytes] = set()

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.op))
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self._open.pop()
        self.spans[idx].end = time.perf_counter()

    # -- traced memory ---------------------------------------------------------

    def _mem_flush(self) -> None:
        # tracemalloc has one global peak; fold it into every open phase
        # before resetting it so nested phases do not hide an outer peak
        peak = tracemalloc.get_traced_memory()[1]
        for entry in self._mem_open:
            entry[2] = max(entry[2], peak)
        tracemalloc.reset_peak()

    def _mem_enter(self, name: str) -> None:
        self._mem_flush()
        current = tracemalloc.get_traced_memory()[0]
        self._mem_open.append([name, current, current])

    def _mem_exit(self) -> None:
        self._mem_flush()
        name, start, peak = self._mem_open.pop()
        self.mem_peak[name] = max(self.mem_peak[name], peak - start)

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None, mem: bool = False):
        """``fn`` recorded as span ``name``; ``after(result, *args)`` runs outside it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            if mem:
                tracer._mem_enter(name)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if mem:
                    tracer._mem_exit()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every hook point in HOOKS and ``ShuffleUNet3d.forward``, then
        start tracemalloc. ``predict`` goes through the wrapped ``forward``."""
        for name, home, attr, lookups, mem in HOOKS:
            home_mod = importlib.import_module(home)
            original = getattr(home_mod, attr, None)
            if original is None:
                self.missing.append(f"{home}.{attr}")
                continue
            hooks = _COUNTER_HOOKS.get(name, {})
            wrapper = self.wrap(name, original, mem=mem,
                                before=_bind(hooks.get("before"), self),
                                after=_bind(hooks.get("after"), self))
            for mod_name in lookups:
                owner = importlib.import_module(mod_name)
                if getattr(owner, attr, None) is original:
                    self.patch(owner, attr, wrapper)
                else:
                    self.missing.append(f"{mod_name}.{attr}")
        from voxseg.nn import ShuffleUNet3d

        self.patch(ShuffleUNet3d, "forward",
                   self.wrap("nn.forward", ShuffleUNet3d.forward, mem=True))
        if self.missing:
            print(f"perfbench: not traced (name not found): {self.missing}", file=sys.stderr)
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        self.restore()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    def times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive seconds, self seconds and call count per span name."""
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] += span.end - span.start
        for i, span in enumerate(self.spans):
            dur = span.end - span.start
            total[span.name] += dur
            self_s[span.name] += dur - children[i]
            calls[span.name] += 1
        return total, self_s, calls


def _bind(hook, tracer):
    return None if hook is None else functools.partial(hook, tracer)


# -- counters taken at hook points --------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _conv_after(tracer: Tracer, node, *args, **kwargs) -> None:
    # 2 * multiply-adds of a direct convolution, from the weight and output shapes
    weight = _arg(args, kwargs, 1, "weight").value.shape
    ox, oy, oz, c_out = node.value.shape
    c_in = weight.c // c_out
    flops = 2 * ox * oy * oz * c_out * c_in * weight.x * weight.y * weight.z
    tracer.counters["nn.conv3d.flops"] += flops
    # the backward pass computes input and weight gradients: twice the forward work
    bwd_flops = 2 * flops

    def count_bwd(_result, *_a, **_k):
        tracer.counters["nn.conv3d.flops"] += bwd_flops

    node._backprop = tracer.wrap("nn.conv3d.bwd", node._backprop, after=count_bwd)


def _shuffle_after(tracer: Tracer, result, *args, **kwargs) -> None:
    # a permutation must read every input element and write every output element
    tracer.counters["shuffle.bytes"] += _arg(args, kwargs, 0, "t").zyxc.nbytes
    tracer.counters["shuffle.bytes"] += result.zyxc.nbytes


def _sgd_after(tracer: Tracer, applied, *args, **kwargs) -> None:
    if not applied:
        tracer.counters["optim.skipped_steps"] += 1


def _read_after(tracer: Tracer, _volume, *args, **kwargs) -> None:
    tracer.counters["volume.io_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _write_after(tracer: Tracer, _none, *args, **kwargs) -> None:
    tracer.counters["volume.io_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _predict_after(tracer: Tracer, _result, *args, **kwargs) -> None:
    volume = _arg(args, kwargs, 1, "volume")
    tracer.counters["inference.volume_voxels"] += math.prod(volume.extents)


def _plan_after(tracer: Tracer, plan, *args, **kwargs) -> None:
    tracer.counters["inference.tiles"] += len(plan.origins)
    tracer.counters["inference.tile_voxels"] += len(plan.origins) * math.prod(plan.patch)


def _metrics_before(tracer: Tracer, *args, **kwargs) -> None:
    tracer._surface_keys = set()


def _metrics_after(tracer: Tracer, _rows, *args, **kwargs) -> None:
    # surfaces needed: distinct masks whose surface the call extracted
    tracer.counters["metrics.surfaces_needed"] += len(tracer._surface_keys)


def _surface_after(tracer: Tracer, coords, *args, **kwargs) -> None:
    mask = _arg(args, kwargs, 0, "mask")
    tracer.counters["metrics.surface_voxels"] += len(coords)
    key = hashlib.blake2b(mask.voxels.tobytes(), digest_size=16)
    key.update(repr((mask.voxels.shape, mask.spacing)).encode())
    tracer._surface_keys.add(key.digest())


_COUNTER_HOOKS = {
    "nn.conv3d": {"after": _conv_after},
    "shuffle.down_shuffle": {"after": _shuffle_after},
    "shuffle.up_shuffle": {"after": _shuffle_after},
    "optim.sgd_step": {"after": _sgd_after},
    "volume.read_vvol": {"after": _read_after},
    "volume.write_vvol": {"after": _write_after},
    "inference.predict_volume": {"after": _predict_after},
    "inference.plan_tiling": {"after": _plan_after},
    "metrics.per_class_metrics": {"before": _metrics_before, "after": _metrics_after},
    "metrics.extract_surface": {"after": _surface_after},
}

# (span name, defining module, attribute, modules whose lookup is wrapped,
#  whether the span is a traced-memory phase)
_NN, _TRAIN = "voxseg.nn", "voxseg.cli.train"
HOOKS = [
    ("shuffle.down_shuffle", "voxseg.shuffle", "down_shuffle", [_NN], False),
    ("shuffle.up_shuffle", "voxseg.shuffle", "up_shuffle", [_NN], False),
    ("nn.conv3d", _NN, "conv3d", [_NN], False),
    ("nn.maxpool3", _NN, "maxpool3", [_NN], False),
    ("nn.concat_channels", _NN, "concat_channels", [_NN], False),
    ("nn.activation", _NN, "activation", [_NN], False),
    ("nn.softmax_channels", _NN, "softmax_channels", [_NN], False),
    ("nn.ce_dice_loss", _NN, "ce_dice_loss", [_TRAIN], False),
    ("nn.backward", _NN, "backward", [_TRAIN], True),
    ("nn.save_checkpoint", _NN, "save_checkpoint", [_NN, _TRAIN], False),
    ("nn.load_checkpoint", _NN, "load_checkpoint", [_NN], False),
    ("optim.sgd_step", "voxseg.optim", "sgd_step", [_TRAIN], False),
    ("volume.sample_patch", "voxseg.volume", "sample_patch", [_TRAIN], False),
    ("volume.gen_synthetic", "voxseg.volume", "gen_synthetic", ["voxseg.volume"], False),
    ("volume.elastic_augment", "voxseg.volume", "elastic_augment", ["voxseg.volume"], False),
    ("volume.read_vvol", "voxseg.volume", "read_vvol", ["voxseg.volume"], False),
    ("volume.write_vvol", "voxseg.volume", "write_vvol", ["voxseg.volume"], False),
    ("inference.predict_volume", "voxseg.inference", "predict_volume",
     ["voxseg.inference", _TRAIN], True),
    ("inference.decode_labels", "voxseg.inference", "decode_labels",
     ["voxseg.inference", _TRAIN], False),
    ("inference.plan_tiling", "voxseg.inference", "plan_tiling", ["voxseg.inference"], False),
    ("metrics.per_class_metrics", "voxseg.metrics", "per_class_metrics",
     ["voxseg.metrics"], False),
    ("metrics.asd", "voxseg.metrics", "asd", ["voxseg.metrics"], False),
    ("metrics.hausdorff", "voxseg.metrics", "hausdorff", ["voxseg.metrics"], False),
    ("metrics.dice", "voxseg.metrics", "dice", ["voxseg.metrics", _TRAIN], False),
    ("metrics.extract_surface", "voxseg.metrics", "extract_surface",
     ["voxseg.metrics"], False),
    ("cli.train.evaluate", _TRAIN, "evaluate", [_TRAIN], False),
]


# -- per-layer metrics ----------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, 0 where the layer did not run."""
    total, self_s, calls = tracer.times()
    c = tracer.counters
    conv_s = total["nn.conv3d"] + total["nn.conv3d.bwd"]
    out = {
        "nn.forward.s": (total["nn.forward"], "s"),
        "nn.forward.self_s": (self_s["nn.forward"], "s"),
        "nn.backward.s": (total["nn.backward"], "s"),
        "nn.other.bwd_s": (self_s["nn.backward"], "s"),
        "nn.conv3d.s": (total["nn.conv3d"], "s"),
        "nn.conv3d.bwd_s": (total["nn.conv3d.bwd"], "s"),
        "nn.conv3d.calls": (calls["nn.conv3d"], "count"),
        "nn.conv3d.flops": (c["nn.conv3d.flops"], "flop"),
        "nn.conv3d.gflop_per_s": (_ratio(c["nn.conv3d.flops"] / 1e9, conv_s), "Gflop/s"),
        "nn.maxpool3.s": (total["nn.maxpool3"], "s"),
        "nn.concat_channels.s": (total["nn.concat_channels"], "s"),
        "nn.activation.s": (total["nn.activation"], "s"),
        "nn.softmax_channels.s": (total["nn.softmax_channels"], "s"),
        "nn.ce_dice_loss.s": (total["nn.ce_dice_loss"], "s"),
        "nn.forward.peak_mib": (tracer.mem_peak["nn.forward"] / MIB, "MiB"),
        "nn.backward.peak_mib": (tracer.mem_peak["nn.backward"] / MIB, "MiB"),
        "nn.save_checkpoint.s": (total["nn.save_checkpoint"], "s"),
        "nn.load_checkpoint.s": (total["nn.load_checkpoint"], "s"),
        "shuffle.down_shuffle.s": (total["shuffle.down_shuffle"], "s"),
        "shuffle.up_shuffle.s": (total["shuffle.up_shuffle"], "s"),
        "shuffle.calls": (calls["shuffle.down_shuffle"] + calls["shuffle.up_shuffle"], "count"),
        "shuffle.bytes": (c["shuffle.bytes"], "B"),
        "optim.sgd_step.s": (total["optim.sgd_step"], "s"),
        "optim.skipped_steps": (c["optim.skipped_steps"], "count"),
        "volume.sample_patch.s": (total["volume.sample_patch"], "s"),
        "volume.gen_synthetic.s": (total["volume.gen_synthetic"], "s"),
        "volume.elastic_augment.s": (total["volume.elastic_augment"], "s"),
        "volume.read_vvol.s": (total["volume.read_vvol"], "s"),
        "volume.write_vvol.s": (total["volume.write_vvol"], "s"),
        "volume.io_bytes": (c["volume.io_bytes"], "B"),
        "inference.predict_volume.s": (total["inference.predict_volume"], "s"),
        "inference.predict_volume.self_s": (self_s["inference.predict_volume"], "s"),
        "inference.decode_labels.s": (total["inference.decode_labels"], "s"),
        "inference.tiles": (c["inference.tiles"], "count"),
        "inference.useful_ratio": (_ratio(c["inference.volume_voxels"],
                                          c["inference.tile_voxels"]), "1"),
        "inference.peak_mib": (tracer.mem_peak["inference.predict_volume"] / MIB, "MiB"),
        "metrics.per_class_metrics.s": (total["metrics.per_class_metrics"], "s"),
        "metrics.asd.s": (total["metrics.asd"], "s"),
        "metrics.asd.self_s": (self_s["metrics.asd"], "s"),
        "metrics.hausdorff.s": (total["metrics.hausdorff"], "s"),
        "metrics.hausdorff.self_s": (self_s["metrics.hausdorff"], "s"),
        "metrics.dice.s": (total["metrics.dice"], "s"),
        "metrics.extract_surface.s": (total["metrics.extract_surface"], "s"),
        "metrics.extract_surface.calls": (calls["metrics.extract_surface"], "count"),
        "metrics.surface_voxels": (c["metrics.surface_voxels"], "count"),
        "metrics.surface_useful_ratio": (_ratio(c["metrics.surfaces_needed"],
                                                calls["metrics.extract_surface"]), "1"),
        "cli.train.evaluate.s": (total["cli.train.evaluate"], "s"),
        "cli.train.iteration_self_s": (self_s["cli.train.iteration"], "s"),
    }
    return out
