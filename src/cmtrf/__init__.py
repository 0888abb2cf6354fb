"""Clustered monotone rating-scale transforms with low-rank factorization.

Jointly learns monotone transforms of a discrete rating scale (one shared,
one per user, or one per cluster of users) and a regularized low-rank
factorization of the transformed ratings, alternating between the two until
the objective settles. Predictions run factor scores back through the
piecewise-linear inverse of the learned transform.
"""

from .core import (
    ClusterState,
    FitResult,
    TrainConfig,
    fit,
    fit_1cmtrf,
    fit_kcmtrf,
    fit_mf,
    fit_ncmtrf,
    init_clusters,
)
from .data import (
    SparseRatingDataset,
    SplitSpec,
    align,
    concat_rows,
    load_triplets,
    preprocess,
    split,
    write_triplets,
)
from .divergence import GID, KL, SQUARED_LOSS, DivergenceSpec, by_name
from .errors import CmtrfError, DataError, DomainError
from .evaluate import build_inverse, mae, mse, predict_ratings
from .factorization import (
    FactorModel,
    RegularizationConfig,
    init_model,
    load_model,
    predict_scores,
    regularized_objective,
    save_model,
    solve_factors,
)
from .isotonic import IsotonicProblem, RatingScaleTransform, fit_margin_isotonic
from .synthetic import SynthConfig, SynthResult, generate, pseudo_ratings

__version__ = "0.1.0"

__all__ = [
    "ClusterState",
    "CmtrfError",
    "DataError",
    "DivergenceSpec",
    "DomainError",
    "FactorModel",
    "FitResult",
    "GID",
    "IsotonicProblem",
    "KL",
    "RatingScaleTransform",
    "RegularizationConfig",
    "SQUARED_LOSS",
    "SparseRatingDataset",
    "SplitSpec",
    "SynthConfig",
    "SynthResult",
    "TrainConfig",
    "align",
    "build_inverse",
    "by_name",
    "concat_rows",
    "fit",
    "fit_1cmtrf",
    "fit_kcmtrf",
    "fit_mf",
    "fit_ncmtrf",
    "fit_margin_isotonic",
    "generate",
    "init_clusters",
    "init_model",
    "load_model",
    "load_triplets",
    "mae",
    "mse",
    "predict_ratings",
    "predict_scores",
    "preprocess",
    "pseudo_ratings",
    "regularized_objective",
    "save_model",
    "solve_factors",
    "split",
    "write_triplets",
]
