"""Exception types shared across the package."""


class ContractError(Exception):
    """Base class for every contract-related failure."""


class PreconditionError(ContractError, ValueError):
    """An operation was called with arguments outside its stated domain."""


class VacuousRangeError(PreconditionError):
    """A bounded check was requested over an empty range.

    Empty ranges would make every universally quantified predicate
    trivially true, so they are rejected instead of silently passing.
    """


class InvariantViolation(ContractError):
    """A runtime invariant check failed inside an instrumented run.

    This signals a bug in the checked implementation, never a user error.
    `predicate` names the violated check and `state` captures the loop
    state at the moment of the violation.
    """

    def __init__(self, predicate: str, state: dict, message: str = ""):
        self.predicate = predicate
        self.state = dict(state)
        detail = message or f"invariant {predicate!r} violated at {self.state!r}"
        super().__init__(detail)


class WorkerError(RuntimeError):
    """The sweep has no verdict: a forked worker died before it reported
    its share, or the shares together missed part of the space."""
