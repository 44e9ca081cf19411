"""Importance-based variable selection for stacked denoising auto-encoders.

A linear pre-classifier scores input variables by how much each one tilts
the pairwise discriminant hyperplanes; low-importance variables are masked
out iteratively, and denoising auto-encoders train layer by layer on the
survivors before a supervised fine-tuning pass.
"""

from .dae import DaeModel, DaeTrainConfig, corrupt, decode, encode, encode_dataset, loss, train_dae
from .data import (Dataset, SyntheticSpec, VariableMask, compact,
                   compact_dataset, expand, gen_synthetic, load_amat, split)
from .errors import (ConfigError, DataError, DegenerateModelError,
                     DimensionError, OverThresholdError)
from .ivs import (IvsConfig, IvsResult, normal_vector, pair_importance,
                  run_ivs, task_importance, update_mask)
from .mlr import (ErrorReport, MlrModel, TrainConfig, evaluate, train_mlr,
                  wald_halfwidth)
from .numerics import derive_rng, derive_seed, make_rng, sigmoid, softmax
from .stack import (StackConfig, StackLayer, StackModel, fine_tune,
                    predict_labels, pretrain, reconstruct_through,
                    select_extractors)

__all__ = [name for name in dir() if not name.startswith("_")]
