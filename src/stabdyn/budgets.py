"""Hard enumeration budgets.

Every potentially exponential operation checks a cap before it starts and
raises BudgetExceededError instead of silently truncating.  The environment
variable STABDYN_BUDGET (a positive integer) overrides every numeric cap at
once.  Language, power-shift, wreath, Sym(n) and rule-enumeration operations
also accept an explicit ``budget=`` argument; the rest read
``default_budget()`` where they check their cap.
"""

from __future__ import annotations

import os

from .errors import BudgetExceededError
from .records import Record

ENV_VAR = "STABDYN_BUDGET"


class Budget(Record):
    DEFAULTS = {"word_count": 10_000_000,   # admissible words per language level
                "path_count": 10_000_000,   # paths materialized by power shifts
                "group_order": 20_000,      # largest multiplication table
                "enum_nodes": 5_000_000,    # search-tree nodes in rule enumeration
                "sym_normal_m": 7}          # largest Sym(m) for normal-subgroup sweeps
    __slots__ = FIELDS = tuple(DEFAULTS)


DEFAULT = Budget()  # immutable, so one record serves every caller


def default_budget() -> Budget:
    """The default caps, or every cap set to STABDYN_BUDGET when it is set."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT
    try:
        cap = int(raw)
    except ValueError as exc:
        raise BudgetExceededError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise BudgetExceededError(f"{ENV_VAR} must be positive, got {cap}")
    return Budget(word_count=cap, path_count=cap, group_order=cap,
                  enum_nodes=cap, sym_normal_m=max(2, min(cap, 8)))


def check(value: int, budget: Budget, cap: str, what: str) -> None:
    """Raise BudgetExceededError when ``value`` exceeds the field ``cap`` of
    ``budget``."""
    limit = getattr(budget, cap)
    if value > limit:
        raise BudgetExceededError(f"{what}: {value} exceeds budget {limit}", cap, limit, value)
