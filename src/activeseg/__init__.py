"""Pool-based active learning for binary image segmentation.

A multi-head segmenter scores its own predictions by inter-head agreement;
uncertain samples go to a simulated oracle, confident ones to a CRF-ensemble
weak labeler, and the model is fine-tuned on the growing labeled set.
"""

from .alloop import ALConfig, DatasetSplit, RunResult, run_detailed
from .core import (
    BinaryMask,
    ImageGrid,
    PoolState,
    ProbMap,
    Sample,
    binarize,
    dice,
    load_dataset,
    move_to_labeled,
    save_dataset,
)
from .crf import CrfParams, infer
from .harness import (
    ExperimentConfig,
    SyntheticSpec,
    default_experiment,
    generate_synthetic,
    parse_config,
    report_correlation,
    run_experiment,
)
from .segmenter import (
    LossWeights,
    MultiHeadPrediction,
    SegmenterParams,
    TrainConfig,
    init_params,
    load_params,
    predict,
    train,
)
from .selection import QuerySplit, SampleScores, rank_correlation, score_sample, select_queries
from .weaklabeler import CrfEnsemble, PerturbSpec, build_ensemble, greedy_finetune, refine
