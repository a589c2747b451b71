"""Hard enumeration budgets.

Every potentially exponential operation checks a cap before it starts and
raises BudgetExceededError instead of silently truncating.  A run has one
budget, ``default_budget()``: the defaults, or every numeric cap set to the
environment variable STABDYN_BUDGET (a positive integer).  No function takes
a budget argument, so a cap set for the run reaches every search nested
under a call.
"""

from __future__ import annotations

import os

from .errors import BudgetExceededError
from .records import Record

ENV_VAR = "STABDYN_BUDGET"


class Budget(Record):
    DEFAULTS = {"word_count": 10_000_000,   # words per language level, a power shift's edges
                "group_order": 20_000,      # largest multiplication table
                "enum_nodes": 5_000_000,    # search-tree nodes in rule enumeration
                "sym_normal_m": 7}          # largest Sym(m) for normal-subgroup sweeps
    __slots__ = FIELDS = tuple(DEFAULTS)


DEFAULT = Budget()  # immutable, so one record serves every caller


def default_budget() -> Budget:
    """The run's budget: the default caps, or every cap set to STABDYN_BUDGET."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT
    try:
        cap = int(raw)
    except ValueError as exc:
        raise BudgetExceededError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise BudgetExceededError(f"{ENV_VAR} must be positive, got {cap}")
    return Budget(word_count=cap, group_order=cap, enum_nodes=cap,
                  sym_normal_m=max(2, min(cap, 8)))


def check(value: int, cap: str, what: str) -> None:
    """Raise BudgetExceededError when ``value`` exceeds the run's ``cap``.  A
    value from 10**18 on is reported as a string such as "3.316e+5735", so
    the message stays short, an int ``used`` fits an int64, and str() never
    meets an int past its 4,300-digit limit (the order of Sym(2000))."""
    limit = getattr(default_budget(), cap)
    if value > limit:
        if value >= 10 ** 18:
            from decimal import Decimal
            value = format(Decimal(value), ".3e")
        raise BudgetExceededError(f"{what}: {value} exceeds budget {limit}", cap, limit, value)
