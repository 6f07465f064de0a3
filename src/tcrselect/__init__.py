"""Calibrated selective prediction for TCR/peptide binding pairs.

The pipeline scores candidate pairs, temperature-scales the scores on a held
out calibration split, and converts them into predict/abstain decisions with
a split-conformal threshold. When calibration and test are exchangeable (the
random protocol), the threshold guarantees marginal coverage: a test pair's
true-label nonconformity score is at most the threshold with probability at
least 1 - epsilon. While the threshold is below 0.5, a test pair's true-label
score is within the threshold iff the pair is retained and predicted
correctly, so there the guarantee also bounds the expected share of test pairs
abstained on or predicted wrongly by epsilon. Both hold only under the random
protocol. Neither bounds the error rate among retained predictions, and the
shifted protocols carry no guarantee.
"""

from .calibration import (
    ReliabilityTable,
    TemperatureModel,
    apply_temperature,
    brier,
    ece,
    fit_temperature,
    nll,
)
from .config import ConfigError, RunConfig, config_from_dict, load_config
from .conformal import (
    DECISION_ABSTAIN,
    DECISION_PREDICT,
    ConformalRule,
    DecisionTable,
    PipelineResult,
    decide,
    fit_threshold,
    nonconformity_calibration,
    nonconformity_test,
    quantile_index,
    run_pipeline,
    select,
)
from .data import (
    Dataset,
    SequenceExample,
    TsvRowError,
    TsvSchemaError,
    deduplicate,
    export_tsv,
    generate_negatives,
    ingest_tsv,
)
from .distance import (
    cluster_by_identity,
    identity,
    identity_at_least,
    levenshtein,
    levenshtein_bounded,
)
from .metrics import (
    CoverageRiskCurve,
    auprc,
    auroc,
    coverage_risk_sweep,
    selective_error,
)
from .scorer import (
    LinearScorerModel,
    ScoreTable,
    TrainingConfig,
    TrainingSet,
    export_logits,
    ingest_logits,
    read_logits,
    score,
    sigmoid,
    train_linear,
)
from .splits import (
    SplitConfig,
    SplitManifest,
    split_distance_aware,
    split_epitope_held_out,
    split_random,
)
from .synthetic import (
    SyntheticSpec,
    calibration_size_sweep,
    coverage_experiment,
    generate,
)
from .toycorpus import motif_corpus, toy_dataset_path

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConformalRule",
    "CoverageRiskCurve",
    "DECISION_ABSTAIN",
    "DECISION_PREDICT",
    "Dataset",
    "DecisionTable",
    "LinearScorerModel",
    "PipelineResult",
    "ReliabilityTable",
    "RunConfig",
    "ScoreTable",
    "SequenceExample",
    "SplitConfig",
    "SplitManifest",
    "SyntheticSpec",
    "TemperatureModel",
    "TrainingConfig",
    "TrainingSet",
    "TsvRowError",
    "TsvSchemaError",
    "apply_temperature",
    "auprc",
    "auroc",
    "brier",
    "calibration_size_sweep",
    "cluster_by_identity",
    "config_from_dict",
    "coverage_experiment",
    "coverage_risk_sweep",
    "decide",
    "deduplicate",
    "ece",
    "export_logits",
    "export_tsv",
    "fit_temperature",
    "fit_threshold",
    "generate",
    "generate_negatives",
    "identity",
    "identity_at_least",
    "ingest_logits",
    "ingest_tsv",
    "levenshtein",
    "levenshtein_bounded",
    "load_config",
    "motif_corpus",
    "nll",
    "nonconformity_calibration",
    "nonconformity_test",
    "quantile_index",
    "read_logits",
    "run_pipeline",
    "score",
    "select",
    "selective_error",
    "sigmoid",
    "split_distance_aware",
    "split_epitope_held_out",
    "split_random",
    "toy_dataset_path",
    "train_linear",
]
