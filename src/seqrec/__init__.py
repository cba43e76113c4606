"""Sequence-aware recommenders via tensor factorization with positional attention."""

from .attention import AttentionMatrix, build_attention, triangular_restore
from .data import (
    InteractionLog,
    SparsePositionalTensor,
    TimeSplit,
    build_positional_tensor,
    core_filter,
    ingest_log,
    timepoint_split,
)
from .evaluation import EvaluationReport, GridSpace, early_stopping_train, evaluate, grid_search, ndcg_single
from .linalg import ImplicitMatrix, random_orthonormal, skew_block_cache, truncated_svd
from .models import (
    GlobalAttentionModel,
    GlobalAttentionTrainer,
    LocalAttentionModel,
    LocalAttentionTrainer,
    MPModel,
    SVDModel,
    build_scaling,
    ga_mode_operator,
    la_mode_operator,
    load_model,
    predict_next,
    save_model,
    train_gasatf,
    train_lasatf,
    train_mp,
    train_puresvd,
)

__version__ = "0.1.0"
