"""voxseg: a desk-scale volumetric segmentation micro-framework.

The core primitive is periodic voxel shuffling: a bijective layout transform
that trades spatial resolution for channels so a 3D U-net style backbone can
run on a shrunken grid while still seeing every input voxel. The package adds
a small float64 autodiff engine, SGD training, tiled whole-volume inference,
surface-distance metrics, and a CLI for end-to-end runs on synthetic phantoms.
"""

__version__ = "0.1.0"
