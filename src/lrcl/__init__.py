"""Continual learning with an importance-regularized shared low-rank adapter.

A desk-scale engine: micro feed-forward classifiers whose layers carry a
single shared low-rank adapter, diagonal Fisher estimation in the space of
the full weight update, decayed accumulation across tasks, and a benchmark
harness measuring stability, plasticity, and Fisher drift on synthetic
class-incremental streams.
"""

from .errors import (
    ConfigError,
    DataError,
    EngineError,
    LabelError,
    MetricError,
    NumericalError,
    ParameterError,
    ParseError,
    ProtocolError,
    ShapeError,
    StateError,
)
from .fisher import (
    EstimatorKind,
    FisherDiag,
    accumulate,
    estimate,
    estimate_factor_space,
    precompute_dataset_fisher,
    uniform_fisher,
)
from .metrics import AccuracyMatrix, avg_anytime, plasticity, stability, tradeoff
from .model import (
    Head,
    LoRALinear,
    Network,
    backward,
    expand_head,
    forward,
    label_rows,
    merge_and_reset,
    new_network,
    reset_adapter,
)
from .regularize import PenaltyTerm, penalty_deltaw, penalty_separate
from .tasks import Dataset, Task, TaskStream, gen_gaussian_stream, load_csv_stream, standard_stream
from .tensor import RngState, uniform_matrix
from .trainer import (
    AdamState,
    ContinualLearner,
    RunRecord,
    TrainConfig,
    adam_step,
    desk_profile,
    pretrain,
    run_continual,
    run_many,
    run_reference,
    train_task,
)

__all__ = [
    "AccuracyMatrix",
    "AdamState",
    "ConfigError",
    "ContinualLearner",
    "DataError",
    "Dataset",
    "EngineError",
    "EstimatorKind",
    "FisherDiag",
    "Head",
    "LabelError",
    "LoRALinear",
    "MetricError",
    "Network",
    "NumericalError",
    "ParameterError",
    "ParseError",
    "PenaltyTerm",
    "ProtocolError",
    "RngState",
    "RunRecord",
    "ShapeError",
    "StateError",
    "Task",
    "TaskStream",
    "TrainConfig",
    "accumulate",
    "adam_step",
    "desk_profile",
    "avg_anytime",
    "backward",
    "estimate",
    "estimate_factor_space",
    "expand_head",
    "forward",
    "gen_gaussian_stream",
    "label_rows",
    "load_csv_stream",
    "merge_and_reset",
    "new_network",
    "penalty_deltaw",
    "penalty_separate",
    "plasticity",
    "precompute_dataset_fisher",
    "pretrain",
    "reset_adapter",
    "run_continual",
    "run_many",
    "run_reference",
    "stability",
    "standard_stream",
    "tradeoff",
    "train_task",
    "uniform_fisher",
    "uniform_matrix",
]

__version__ = "0.1.0"
