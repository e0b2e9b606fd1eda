"""Exception types shared across the library.

The CLI maps these onto exit codes: usage problems exit 1, data/contract
problems exit 2, numeric divergence exits 3.
"""


class ParameterError(ValueError):
    """A caller-supplied parameter is out of its valid range."""


class DimensionError(ValueError):
    """Array shapes are inconsistent with the operation's contract."""


class ContractError(ValueError):
    """An API precondition was violated (wrong value kind, missing input)."""


class DataError(ValueError):
    """Input data violates the file or pipeline contract (parse, mapping,
    threshold, degenerate-label problems)."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent with its config."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""
