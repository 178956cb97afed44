"""Exception types shared across the toolkit."""

import os

DEFAULT_VERTEX_BUDGET = 200_000

BUDGET_ENV_VAR = "HOROKIT_VERTEX_BUDGET"


def vertex_budget():
    """Effective vertex budget: the env var, else the default."""
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_VERTEX_BUDGET


class UnknownLetterError(ValueError):
    """A word contains a symbol outside the group alphabet."""

    def __init__(self, letter):
        self.letter = letter
        super().__init__(f"unknown letter {letter!r}")


class BudgetExceededError(RuntimeError):
    """A construction would exceed the configured resource budget."""


class UnknownVertexError(ValueError):
    """A vertex does not belong to the graph."""


class EmptyBaseError(ValueError):
    """Horoball construction over an empty base space."""


class DecompositionError(ValueError):
    """A and B do not cover the vertex set."""


class ScheduleMismatchError(ValueError):
    """Cover scale does not match the requested stage of the schedule."""


class NotSimplicialError(ValueError):
    """A vertex map fails to send some simplex to a simplex."""

    def __init__(self, witness, message):
        self.witness = witness
        super().__init__(f"{message}; witness simplex {witness!r}")


class DisconnectedGraphError(ValueError):
    """Operation requires vertices in a common connected component."""


class EmptyWindowError(ValueError):
    """Interior window is empty: truncation too small for this stage."""


class EmbeddingError(ValueError):
    """No embedding within the requested distortion bound."""

    def __init__(self, distortion, bound):
        self.distortion = distortion
        self.bound = bound
        super().__init__(
            f"embedding distortion {distortion:.4f} exceeds bound {bound:.4f}"
        )
