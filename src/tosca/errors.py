"""Exception taxonomy shared by all modules.

Every error carries an ``exit_code`` used by the CLI: 2 for usage
problems, 3 for data problems, 4 for numerical failures.
"""

from __future__ import annotations

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class ToscaError(Exception):
    exit_code = EXIT_DATA


class IndexOutOfRangeError(ToscaError):
    exit_code = EXIT_USAGE


class NonPositiveWeightError(ToscaError):
    pass


class DanglingVertexError(ToscaError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(
            f"vertex {vertex} has out-degree 0; the walk is undefined there. "
            "Consider add_self_loops (CLI: --self-loops W) to regularize."
        )


class ParseError(ToscaError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class EmptyMatrixError(ToscaError):
    pass


class LengthMismatchError(ToscaError):
    pass


class NonPositiveDensityError(ToscaError):
    def __init__(self, which: str, index: int):
        self.which = which
        self.index = index
        super().__init__(
            f"density {which} is not strictly positive at vertex {index} "
            "(unreachable vertex or zero start mass); self-loops regularize this."
        )


class NotUndirectedError(ToscaError):
    pass


class ZeroDegreeError(ToscaError):
    pass


class KOutOfRangeError(ToscaError):
    exit_code = EXIT_USAGE


# A second name for KOutOfRangeError: ``except KTooLargeError`` catches every k error.
KTooLargeError = KOutOfRangeError


def check_k(k: int, n: int) -> None:
    """Raise KOutOfRangeError unless 1 <= k <= n."""
    if not 1 <= k <= n:
        raise KOutOfRangeError(f"k={k} outside [1, {n}]")


class TooFewValuesError(ToscaError):
    exit_code = EXIT_USAGE


class DegeneratePointsError(ToscaError):
    exit_code = EXIT_NUMERICAL


class OverlappingSetsError(ToscaError):
    pass


class EmptySetError(ToscaError):
    pass


class SingularGramError(ToscaError):
    exit_code = EXIT_NUMERICAL


class EmptySampleError(ToscaError):
    pass


class EmptySubsetError(ToscaError):
    pass


class DegenerateSpectrumError(ToscaError):
    exit_code = EXIT_NUMERICAL


class NotConvergedError(ToscaError):
    """Lanczos (ARPACK) failed or missed its residual."""

    exit_code = EXIT_NUMERICAL
