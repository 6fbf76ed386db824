"""Drop-and-refresh sampling schedules with a small deterministic harness."""

from .baselines import WeightVector, reweight, uniform_policy
from .config import DataConfig, ExperimentConfig, apply_preset, build_experiment_config
from .datasets import (Batch, Dataset, GaussianNoise, HorizontalFlip, NoAugment,
                       SyntheticSpec, epoch_batches, gen_gaussian, load_csv, load_idx)
from .harness import (CompareRow, EpochRecord, RunReport, compare,
                      export_features, run_experiment)
from .model import (BatchOutput, ParamSet, TrainHyper, backward, forward,
                    init_params, lr_at, sgd_step, softmax_xent)
from .scheduler import (ActionKind, DarConfig, LossLedger, SchedulerState,
                        end_of_epoch, init, planned_cost, select_hardest, trace)

__version__ = "0.1.0"

__all__ = [
    "ActionKind", "Batch", "BatchOutput", "CompareRow", "DarConfig",
    "DataConfig", "Dataset", "EpochRecord", "ExperimentConfig",
    "GaussianNoise", "HorizontalFlip", "LossLedger", "NoAugment", "ParamSet",
    "RunReport", "SchedulerState", "SyntheticSpec", "TrainHyper",
    "WeightVector", "apply_preset", "backward",
    "build_experiment_config", "compare", "end_of_epoch", "epoch_batches",
    "export_features", "forward", "gen_gaussian", "init", "init_params",
    "load_csv", "load_idx", "lr_at", "planned_cost", "reweight",
    "run_experiment", "select_hardest", "sgd_step", "softmax_xent", "trace",
    "uniform_policy",
]
