"""Exception hierarchy and the stable process exit codes.

Exit codes are a scripting contract:
  0  success / certificate verified
  1  infeasible instance or invalid certificate
  2  bad input (parse error, wrong uniformity/regularity, precondition)
  3  internal invariant violation (a bug, never expected on valid input)
"""

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


class TrimatchError(Exception):
    """Base class; `exit_code` is what the CLI reports when this escapes."""

    exit_code = EXIT_BAD_INPUT


class ParseError(TrimatchError):
    """Malformed instance or certificate file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotUniform(TrimatchError):
    pass


class NotRegular(TrimatchError):
    pass


class Disconnected(TrimatchError):
    pass


class ParallelEdges(TrimatchError):
    pass


class PreconditionViolated(TrimatchError):
    pass


class BudgetExceeded(TrimatchError):
    pass


class GenerationFailed(TrimatchError):
    exit_code = EXIT_INVALID


class NotFactorCritical(TrimatchError):
    """Raised with a witness vertex v such that G-v has no perfect matching."""

    def __init__(self, message, witness=None):
        if witness is not None:
            message = f"{message} (witness vertex {witness})"
        super().__init__(message)
        self.witness = witness


class InvariantViolation(TrimatchError):
    exit_code = EXIT_INTERNAL


class InternalError(TrimatchError):
    """An invariant broke; `witness`, when given, is the input it broke on."""

    exit_code = EXIT_INTERNAL

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
