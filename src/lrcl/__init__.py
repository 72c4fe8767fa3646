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
    FactorFisher,
    UpdateFisher,
    accumulate,
    estimate,
)
from .metrics import avg_anytime, plasticity, stability, tradeoff
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
from .regularize import penalty_deltaw, penalty_separate
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

__version__ = "0.1.0"
