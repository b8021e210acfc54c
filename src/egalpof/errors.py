"""Exception types shared across the library."""

from __future__ import annotations


class EgalpofError(Exception):
    """Base class for all errors raised by this package."""


class TooFewAgents(EgalpofError):
    def __init__(self, n: int):
        super().__init__(f"need at least 2 agents, got {n}")
        self.n = n


class NegativeUtility(EgalpofError):
    def __init__(self, agent: int, good: int):
        super().__init__(f"agent {agent} has negative utility for good {good}")
        self.agent = agent
        self.good = good


class RowSumNotOne(EgalpofError):
    def __init__(self, agent: int, total):
        super().__init__(f"agent {agent}'s utilities sum to {total}, expected 1")
        self.agent = agent
        self.total = total


class ZeroRow(EgalpofError):
    def __init__(self, agent: int):
        super().__init__(f"agent {agent} assigns zero utility to every good")
        self.agent = agent


class GoodOutOfRange(EgalpofError):
    def __init__(self, good, m: int):
        super().__init__(f"good {good} outside 1..{m}")
        self.good = good
        self.m = m


class BudgetExceeded(EgalpofError):
    def __init__(self, needed: int, cap: int):
        super().__init__(f"search needs at least {needed} states, cap is {cap}")
        self.needed = needed
        self.cap = cap


class PreconditionViolated(EgalpofError):
    pass


class EmptyBundle(EgalpofError):
    def __init__(self, agent: int):
        super().__init__(f"agent {agent}'s bundle is empty")
        self.agent = agent


class ParamOutOfRange(EgalpofError):
    pass


class InfeasibleParams(EgalpofError):
    pass


class ParseError(EgalpofError):
    pass


class CrossCheckError(EgalpofError):
    """A report row disagreed with its independent recomputation."""
