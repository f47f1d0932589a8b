"""Reliability-aware dual-embedding recommender.

Reviews are parsed into a sparse interaction store, each review earns a
network reliability score from helpfulness votes and readership order,
and two branches -- a linear factor model and a ReLU tower over
embedding tables -- learn pair embeddings from ratings plus reliability.
A blended head concatenates the two embeddings and regresses the rating,
initialized from the pre-trained branches with a trade-off constant.
"""

from .fusion import (
    FusionHyperparams,
    FusionModel,
    fused_predict,
    init_fusion,
    init_fusion_random,
    load_fusion,
    predict_batch,
    save_fusion,
    train_fusion,
)
from .harness import (
    ExperimentConfig,
    SplitSpec,
    SyntheticSpec,
    evaluate_model,
    gen_synthetic,
    run_experiment,
    split,
    sweep_train_sizes,
)
from .ingest import (
    InteractionStore,
    ReviewRecord,
    build_store,
    load_store,
    normalize_rating,
    parse_reviews,
    save_store,
    with_reliability,
)
from .linalg import (
    AdamState,
    PairMatrix,
    TrainingDivergedError,
    adam_step,
    finite_diff_grad,
    sigmoid,
    truncated_svd,
)
from .metrics import (
    EvalReport,
    classification_metrics,
    evaluate_predictions,
    f1_at_cutoff,
    mae,
    mean_average_precision,
    ndcg,
    rmse,
)
from .mf_model import (
    MfHyperparams,
    MfParams,
    factor_predict,
    joint_loss,
    load_mf,
    mf_embedding,
    mf_predict,
    rating_loss,
    reliability_loss,
    save_mf,
    svd_init,
    train_mf,
)
from .mlp_model import (
    MlpHyperparams,
    MlpParams,
    fusion_layer,
    init_mlp,
    load_mlp,
    mlp_backward,
    mlp_embedding,
    mlp_predict,
    save_mlp,
    train_mlp,
)
from .reliability import (
    ProductTimeline,
    ReliabilityBreakdown,
    classify_reviewer,
    combined_score,
    helpfulness_scores,
    most_recent_scores,
    reliability_score,
    score_store,
    top_ranking_scores,
)

__version__ = "0.1.0"
