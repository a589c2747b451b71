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
from dataclasses import dataclass

from .errors import BudgetExceededError

ENV_VAR = "STABDYN_BUDGET"


@dataclass(frozen=True)
class Budget:
    word_count: int = 10_000_000      # admissible words per language level
    path_count: int = 10_000_000      # paths materialized by power shifts
    group_order: int = 20_000         # largest multiplication table
    enum_nodes: int = 5_000_000       # search-tree nodes in rule enumeration
    sym_normal_m: int = 7             # largest Sym(m) for normal-subgroup sweeps


def default_budget() -> Budget:
    """The default caps, or every cap set to STABDYN_BUDGET when it is set."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return Budget()
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
