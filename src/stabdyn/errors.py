"""Exception hierarchy shared by all stabdyn modules."""

from __future__ import annotations


class StabdynError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(StabdynError, ValueError):
    """An argument is out of range, as a negative radius; also a ValueError."""


class ParseError(StabdynError):
    """Input text or document does not encode a valid edge shift or group."""


class EmptyShiftError(ParseError):
    """Normalization removed every state; the shift space is empty."""


class ReducibleShiftError(StabdynError):
    """Operation requires an irreducible (strongly connected) edge shift."""


class NoSuchEigenvalueError(StabdynError):
    """Requested cyclic-partition size is not a rational eigenvalue."""


class BudgetExceededError(StabdynError):
    """A configured enumeration budget would be exceeded.  ``cap`` names the
    ``Budget`` field that stopped the run, ``limit`` is its value and
    ``used`` the count that went past it (from 10**18 on, a string such as
    "3.316e+5735", see ``budgets.check``); ``search`` says which rule search
    hit an ``enum_nodes`` cap ("stage" or "component stage").  They are None
    where they do not apply, as for an invalid budget setting."""

    def __init__(self, message: str, cap: str = None, limit: int = None,
                 used: int | str = None, search: str = None):
        super().__init__(message)
        self.cap, self.limit, self.used, self.search = cap, limit, used, search


class IterationCapError(StabdynError):
    """Power iteration failed to converge within the iteration cap."""


class ZeroEntropyError(StabdynError):
    """Entropy ratio is undefined because a factor has entropy zero."""


class ShiftMismatchError(StabdynError):
    """Sliding block codes live on incompatible shift presentations."""


class WordError(StabdynError):
    """A word is too short or not admissible for the requested operation."""


class ImageSplitsClassesError(StabdynError):
    """A code maps one partition class into several; the induced permutation
    does not exist (precondition of the class-action computation violated)."""


class AmbientMismatchError(StabdynError):
    """Wreath elements belong to different ambient contexts (G, n)."""


class VerificationError(StabdynError):
    """A dual-route cross-check (formula vs. brute force) disagreed."""
