"""Pool-based active learning for binary image segmentation.

A multi-head segmenter scores its own predictions by inter-head agreement;
uncertain samples go to a simulated oracle, confident ones to a CRF-ensemble
weak labeler, and the model is fine-tuned on the growing labeled set.
"""

from .alloop import ALConfig, DatasetSplit, IterationRecord, RunResult, oracle_label, run_detailed
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
from .crf import CrfParams, MarginalField, gibbs_energy, infer, meanfield_step, unary_from_prob
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
    backward,
    forward,
    head_loss,
    init_params,
    load_params,
    predict,
    save_params,
    soft_dice_loss,
    total_loss,
    train,
)
from .selection import (
    QuerySplit,
    SampleScores,
    confidence,
    confidence_threshold,
    rank_correlation,
    score_sample,
    select_queries,
)
from .weaklabeler import (
    CrfEnsemble,
    PerturbSpec,
    build_ensemble,
    greedy_finetune,
    majority_vote,
    perturb,
    refine,
)
