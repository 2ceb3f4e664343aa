"""fedsim: a deterministic federated-learning simulator.

Body/head decoupled training (body-only local updates against a frozen
random head), the usual averaging baselines and personalization variants,
non-IID partitioners, and a client-level evaluation protocol — all on a
small, self-contained numpy network engine.
"""

from .algorithms import ALGORITHMS, AlgorithmSpec, get_algorithm
from .datasets import LabeledDataset, load_idx, synthetic_gaussian
from .engine import (
    FederatedData,
    FederationError,
    FederationState,
    FLConfig,
    NumericError,
    RoundLog,
    aggregate,
    init_state,
    local_update,
    run_federation,
    sample_clients,
)
from .evaluation import (
    EvalReport,
    TemplateSet,
    centralized_train,
    in_out_class_accuracy,
    initial_accuracy,
    interclient_cosine,
    personalized_accuracy,
    template_accuracy,
)
from .layers import LayerSpec, conv2d, dense, flatten, maxpool2d, relu
from .network import (
    InitScheme,
    Network,
    backward,
    forward,
    head_orthogonality_stats,
    init_network,
    param_distance,
    representations,
    segment_cosines,
)
from .optim import LRSchedule, OptState, sgd_step
from .params import ParamMask, ParamVector
from .partition import (
    ClientSplit,
    PartitionSpec,
    partition,
    split_client_test,
)

__version__ = "0.1.0"
