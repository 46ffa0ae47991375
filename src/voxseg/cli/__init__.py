"""Command-line interface: configuration, training loop, benchmark, entry point.

The entry point is ``voxseg.cli.main:main``. It is not imported here, so that
``python -m voxseg.cli.main`` runs the module once.
"""
