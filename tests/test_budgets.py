"""Budget caps: hard errors, never silent truncation; env override."""

from __future__ import annotations

import pytest

from stabdyn.budgets import ENV_VAR, Budget, default_budget
from stabdyn.errors import BudgetExceededError
from stabdyn.codes import enumerate_automorphisms
from stabdyn.sft import full_shift, power_shift, words_of_length
from stabdyn.wreath import normal_subgroups_sym, wreath_group
from stabdyn.groups import cyclic_group


def test_env_override(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "123")
    budget = default_budget()
    assert budget.word_count == 123
    assert budget.group_order == 123


def test_env_override_rejects_garbage(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "lots")
    with pytest.raises(BudgetExceededError):
        default_budget()
    monkeypatch.setenv(ENV_VAR, "-5")
    with pytest.raises(BudgetExceededError):
        default_budget()


def test_word_budget_is_hard():
    tiny = Budget(word_count=10)
    with pytest.raises(BudgetExceededError):
        words_of_length(full_shift(2), 6, budget=tiny)  # 64 words > 10


def test_path_budget_guards_power_shift():
    tiny = Budget(path_count=4)
    with pytest.raises(BudgetExceededError):
        power_shift(full_shift(2), 3, budget=tiny)  # 8 paths > 4


def test_group_order_budget():
    tiny = Budget(group_order=10)
    # order 8 fits a budget of 10; order 18 does not
    wreath_group(cyclic_group(2), 2, budget=tiny)
    with pytest.raises(BudgetExceededError):
        wreath_group(cyclic_group(3), 2, budget=tiny)


def test_enum_node_budget():
    tiny = Budget(enum_nodes=3)
    with pytest.raises(BudgetExceededError):
        enumerate_automorphisms(full_shift(2), 1, budget=tiny)


def test_sym_normal_budget():
    tiny = Budget(sym_normal_m=3)
    with pytest.raises(BudgetExceededError):
        normal_subgroups_sym(4, budget=tiny)
