"""voxseg: a desk-scale volumetric segmentation micro-framework.

The core primitive is periodic voxel shuffling: a bijective layout transform
that trades spatial resolution for channels so a 3D U-net style backbone can
run on a shrunken grid while still seeing every input voxel. The package adds
a small float64 autodiff engine, SGD training, tiled whole-volume inference,
surface-distance metrics, and a CLI for end-to-end runs on synthetic phantoms.
"""

from .tensor import Rng, Shape4, Tensor4, dot
from .shuffle import down_shuffle, down_shuffle_reference, up_shuffle
from .nn import (BackboneSpec, CheckpointError, Conv3d, ConvUpShuffle, DownShuffleConv,
                 Node, NonFiniteWeightsError, ShuffleUNet3d, activation, backward,
                 build_backbone, ce_dice_loss, concat_channels, conv3d, down_shuffle_op,
                 load_checkpoint, load_into_network, maxpool3, save_checkpoint,
                 softmax_channels, up_shuffle_op)
from .optim import INITIAL_LR_BY_FACTORS, SgdState, sgd_step, suggested_initial_lr
from .volume import (Volume, VvolError, augment_dataset, elastic_augment, gen_synthetic,
                     normalize_patch, random_deformation, read_vvol, sample_patch,
                     write_vvol)
from .inference import TilingPlan, decode_labels, plan_tiling, predict_volume
from .metrics import (BinaryMask, EmptyMaskError, asd, dice, extract_surface,
                      hausdorff, per_class_metrics)

__version__ = "0.1.0"
