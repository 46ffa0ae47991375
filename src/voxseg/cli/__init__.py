"""Command-line interface: configuration, training loop, benchmark, entry point.

The entry point is ``voxseg.cli.main:main``. It is not imported here, so that
``python -m voxseg.cli.main`` runs the module once.
"""

from .config import ConfigError, TrainConfig, load_config
from .train import NumericError, RunResult, run_training

__all__ = [
    "ConfigError",
    "TrainConfig",
    "load_config",
    "NumericError",
    "RunResult",
    "run_training",
]
