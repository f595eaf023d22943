"""Exception types shared across the engine.

Everything this package raises on purpose derives from EngineError, so
callers (and the CLI) can distinguish deliberate failures from bugs.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ParseError(EngineError):
    """Raised by the model and formula parsers, with a source position."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class ValidationError(EngineError):
    """A model failed structural validation.  Carries every problem found."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


class TypeMismatch(EngineError):
    """An operator was applied to values of the wrong kind."""


class AbsentPortRead(EngineError):
    """value(P) was evaluated while port P is absent."""


class UnknownPortRead(EngineError):
    """value(P) or isPresent(P) was evaluated while port P is still unknown."""


class NoSuchActor(EngineError):
    """An actor path did not resolve; ``path`` is the first missing prefix."""

    def __init__(self, path: str):
        self.path = path
        super().__init__(f"no actor {path}")


class NoSuchVariable(EngineError):
    """A state proposition referenced a variable the actor does not have."""


class NoSuchLocation(EngineError):
    """A location proposition named a location its state machine does not declare."""


class NotAnFsm(EngineError):
    """A location proposition targeted an actor with no locations."""


class NegativeTimer(EngineError):
    """Queue time arithmetic would have produced a negative time-to-fire."""


class NotAtMicrostepBoundary(EngineError):
    """advance_microstep was called while the head entry has a nonzero delay."""


class NotReady(EngineError):
    """pop_ready was called while the head entry is not at tag (0, 0)."""


class EmptyQueue(EngineError):
    """step was asked to run with no pending events (a run ends here)."""


class NondeterministicFsm(EngineError):
    """More than one outgoing transition of a firing FSM had a true guard."""

    def __init__(self, actor: str, transitions):
        self.actor = actor
        self.transitions = tuple(transitions)
        names = ", ".join(f"{s}->{d}" for s, d in self.transitions)
        super().__init__(f"{actor}: multiple enabled transitions: {names}")


class CausalityCycle(EngineError):
    """The port fixed point left some ports unknown (instantaneous feedback)."""

    def __init__(self, ports):
        self.ports = tuple(ports)
        names = ", ".join(ports)
        super().__init__(f"ports never resolved: {names}")


class StateSpaceExceeded(EngineError):
    """State-graph or automaton construction hit the configured state limit."""

    def __init__(self, limit: int, what: str = "states"):
        self.limit = limit
        super().__init__(f"state space exceeded {limit} {what}")
