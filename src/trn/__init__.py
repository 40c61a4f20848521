"""Multi-scale temporal relation networks over sparsely sampled frames."""

from .data import (
    Dataset,
    SyntheticSpec,
    VideoSample,
    generate_dataset,
    order_critical_spec,
    order_free_spec,
    read_features,
    shuffle_frames,
    write_features,
)
from .errors import (
    CombinatorialLimitError,
    ConfigError,
    FormatError,
    InputError,
    TrainingDivergedError,
    TrnError,
)
from .nn import (
    DenseLayer,
    GradientSet,
    Mlp,
    Sgd,
    get_default_dtype,
    load_mlp,
    mlp_backward,
    mlp_forward,
    save_mlp,
    set_default_dtype,
    softmax,
    softmax_cross_entropy,
)
from .relation import (
    FrameTuple,
    MultiScaleTRN,
    RelationModule,
    load_model,
    multiscale_backward,
    multiscale_forward,
    predict,
    relation_term_forward,
    save_model,
)
from .sampling import (
    SamplingPlan,
    enumerate_tuples,
    segment_sample,
    subsample_tuples,
)
from .streaming import StreamQueue
from .training import (
    EvalReport,
    TrainConfig,
    build_model,
    compare_poolings,
    evaluate,
    fit,
    train,
)

__version__ = "0.1.0"
