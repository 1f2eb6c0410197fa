"""Prediction building blocks: confidence automata, value and branch predictors."""

from repro.predictors.confidence import ConfidenceKind, ConfidenceState
from repro.predictors.stride import StrideValuePredictor
from repro.predictors.value_prediction import LastValuePredictor
from repro.predictors.branch import (
    BimodalPredictor,
    CombinedPredictor,
    GSharePredictor,
    ReturnAddressStack,
)

__all__ = [
    "ConfidenceKind",
    "ConfidenceState",
    "LastValuePredictor",
    "StrideValuePredictor",
    "BimodalPredictor",
    "GSharePredictor",
    "CombinedPredictor",
    "ReturnAddressStack",
]
