"""Moment-matched Bayesian neural nets with evidential heads, trained by
empirical Bayes with an optional PAC-derived complexity penalty."""

from .layers import (
    GaussianActivation,
    LayerSpec,
    MomentNetwork,
    WeightDistribution,
    build_network,
)
from .objectives import HyperpriorConfig, ObjectiveReport
from .tensor import NumericsError, Parameter, Tensor
from .train import TrainConfig, evaluate, train

__all__ = [
    "GaussianActivation",
    "HyperpriorConfig",
    "LayerSpec",
    "MomentNetwork",
    "NumericsError",
    "ObjectiveReport",
    "Parameter",
    "Tensor",
    "TrainConfig",
    "WeightDistribution",
    "build_network",
    "evaluate",
    "train",
]
