"""One-block latent-attention transformer for EEG workload classification.

Everything runs on a small numpy autodiff engine in this package; there is
no framework dependency. Start with `onebt.model.OneBlockTransformer` and
`onebt.cost.cost_report`, or the `onebt` command-line tool.
"""

__version__ = "0.1.0"

from .tensor import (Tensor, Parameter, ShapeError, ConfigError,        # noqa: F401
                     NumericError, backward)
from .model import ModelConfig, OneBlockTransformer, init_parameters   # noqa: F401
from .cost import CostReport, cost_report                               # noqa: F401
from .train import TrainConfig, TrainLog, AdamW, cosine_lr, train      # noqa: F401
from .data import (DatasetManifest, SynthSpec, Task, DataError,       # noqa: F401
                   record_dtype, generate_synthetic, load_dataset,
                   save_dataset, loso_splits, normalize)
from .metrics import (FoldResult, RunSummary, compute_metrics,         # noqa: F401
                      aggregate, cross_task_mean)
from .checkpoint import CheckpointError, save_model, load_model        # noqa: F401
from .harness import run_fold, run_loso                                # noqa: F401
