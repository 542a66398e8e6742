"""Exception types shared across the library."""


class OptbenchError(Exception):
    """Base class for all optbench errors."""


class ContractError(OptbenchError):
    """An ask/tell interaction violated the optimizer contract."""


class BudgetExceededError(OptbenchError):
    """More evaluations were requested than the run budget allows."""


class InvalidLossError(OptbenchError):
    """A non-finite loss value was reported to an optimizer."""


class ConfigurationError(OptbenchError):
    """A solver, domain, or suite was configured with unusable parameters."""


class RegistryError(OptbenchError):
    """An algorithm id is not present in the solver registry."""


class SpecParseError(OptbenchError):
    """An algorithm spec string could not be parsed."""


class EvaluationError(OptbenchError):
    """An objective function failed to produce a loss.

    Carries the partial run history gathered before the failure.
    """

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = list(history) if history else []


class ProtocolError(OptbenchError):
    """An external evaluator broke the wire protocol."""


def reject_json_constant(name: str):
    """``parse_constant`` for ``json.loads``: NaN and Infinity are not JSON numbers."""
    raise ValueError(f"{name} is not valid JSON")


def error_text(exc: BaseException) -> str:
    """An optbench error's own message; any other exception as ``Type: message``."""
    return str(exc) if isinstance(exc, OptbenchError) else f"{type(exc).__name__}: {exc}"
