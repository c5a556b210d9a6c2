"""Branch prediction substrate.

Provides the direction predictors (bimodal, gshare, local, tournament), a
branch target buffer, the per-branch confidence estimators (JRS, up-down,
self-counter and Jimenez's composite), and the Malik-style multiplicative
path-confidence tracker used by B-Fetch's lookahead throttle.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BimodalPredictor",
    "GsharePredictor",
    "LocalPredictor",
    "TournamentPredictor",
    "PerceptronPredictor",
    "BranchTargetBuffer",
    "JRSEstimator",
    "UpDownEstimator",
    "SelfCounterEstimator",
    "CompositeConfidenceEstimator",
    "PathConfidence",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "bimodal": ("BimodalPredictor",),
    "gshare": ("GsharePredictor",),
    "local": ("LocalPredictor",),
    "perceptron": ("PerceptronPredictor",),
    "tournament": ("TournamentPredictor",),
    "btb": ("BranchTargetBuffer",),
    "confidence": (
        "CompositeConfidenceEstimator",
        "JRSEstimator",
        "SelfCounterEstimator",
        "UpDownEstimator",
    ),
    "path_confidence": ("PathConfidence",),
})
