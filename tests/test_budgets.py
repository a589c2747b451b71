"""Budget caps: hard errors, never silent truncation; env override; one
budget per run, which the work nested under a call reads too."""

from __future__ import annotations

import pytest

from stabdyn.budgets import ENV_VAR, default_budget
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


def test_word_budget_is_hard(run_budget):
    run_budget(word_count=10)
    with pytest.raises(BudgetExceededError):
        words_of_length(full_shift(2), 6)  # 64 words > 10


def test_path_budget_guards_power_shift(run_budget):
    run_budget(path_count=4)
    with pytest.raises(BudgetExceededError):
        power_shift(full_shift(2), 3)  # 8 paths > 4


def test_group_order_budget(run_budget):
    run_budget(group_order=10)
    # order 8 fits a budget of 10; order 18 does not
    wreath_group(cyclic_group(2), 2)
    with pytest.raises(BudgetExceededError):
        wreath_group(cyclic_group(3), 2)


def test_enum_node_budget(run_budget):
    run_budget(enum_nodes=3)
    with pytest.raises(BudgetExceededError):
        enumerate_automorphisms(full_shift(2), 1)


def test_sym_normal_budget(run_budget):
    run_budget(sym_normal_m=3)
    with pytest.raises(BudgetExceededError):
        normal_subgroups_sym(4)


def test_word_cap_reaches_the_languages_a_stage_search_reads(run_budget):
    # the radius-1 stage of the full 2-shift reads its 8 words of length 3
    # before the rule search starts
    run_budget(word_count=4)
    with pytest.raises(BudgetExceededError) as info:
        enumerate_automorphisms(full_shift(2), 1)
    assert info.value.cap == "word_count"


def test_group_order_cap_reaches_the_sym_table_of_a_normal_subgroup_sweep(run_budget):
    run_budget(group_order=10)  # Sym(4) has order 24; the degree cap is the default 7
    with pytest.raises(BudgetExceededError) as info:
        normal_subgroups_sym(4)
    assert info.value.cap == "group_order"
