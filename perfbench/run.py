"""voxseg benchmark: training, tiled inference and evaluation throughput.

Run from the repository root:

    python3 perfbench/run.py --workload train-s222 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``train-s222``: ``run_training`` of the desk net (patch 32^3, k=16, widths
  16,32) at shuffle factors 2,2,2 on seeded 48^3 two-class phantoms.
- ``train-s111``: the same run at factors 1,1,1, the plain U-net baseline.
- ``infer-eval-s222``: per held-out 64^3 three-class phantom, what
  ``voxseg infer`` and ``voxseg eval`` do: read, load the checkpoint, tiled
  prediction, decode, write, then per-class Dice/ASD/HD of a warped copy of
  the reference against the reference.

With ``--trace 0`` the run repeats its work until ``--seconds`` have passed
and reports the end-to-end metrics. An operation is one training iteration
(from ``sample_patch`` to the end of ``sgd_step``) or one volume (infer plus
eval):

- ``setup_s``: median over repeated set-ups (phantom generation and writing,
  augmentation, net build or checkpoint save, and one warm-up iteration or tile).
- ``op_s.p50``: median seconds per operation.
- ``voxels_per_s``: patch voxels trained, or volume voxels inferred and
  evaluated, per second of operation time.
- ``peak_rss_mib``: ``ru_maxrss`` of the process.

With ``--trace 1`` the run does a fixed amount of work once untraced and once
with every public voxseg function on the path wrapped in a span, checks that
both give identical outputs, and reports the per-layer metrics of the traced
pass (totals over that pass; 0 where a layer does not run) and the tracing
overhead. Spans are written to ``.perfbench_work/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, library versions and per-run details.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train-s222", "train-s111", "infer-eval-s222")

# at most one BLAS thread per available CPU; must be set before numpy loads
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "voxseg" / "__init__.py").is_file():
        print(f"perfbench: voxseg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import report  # imports voxseg, so only after the source check

    return report.run(args, ROOT / ".perfbench_work", NPROC)


if __name__ == "__main__":
    sys.exit(main())
