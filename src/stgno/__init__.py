"""Graph neural operators and baselines for spot-level tissue-region
classification on spatially resolved expression data."""

from .errors import (CheckpointError, ContractError, DataError, DimensionError,
                     DivergenceError, ParameterError)

__all__ = [
    "CheckpointError",
    "ContractError",
    "DataError",
    "DimensionError",
    "DivergenceError",
    "ParameterError",
]

__version__ = "0.1.0"
