"""Tests for the delete-relaxation heuristics (h_max / h_add)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.planning.symbolic.domains import blocks_world, firefighter
from repro.planning.symbolic.heuristics import make_heuristic, relaxed_cost
from repro.planning.symbolic.planner import SymbolicPlanner, execute_plan


def test_zero_at_goal():
    problem = blocks_world(3)
    goal_state = execute_plan(
        problem, SymbolicPlanner(problem).plan().plan
    )
    for mode in ("max", "add"):
        assert relaxed_cost(goal_state, problem.goal, problem.actions,
                            mode=mode) == 0.0


def test_hmax_leq_hadd():
    problem = firefighter()
    h_max = relaxed_cost(problem.initial_state, problem.goal,
                         problem.actions, mode="max")
    h_add = relaxed_cost(problem.initial_state, problem.goal,
                         problem.actions, mode="add")
    assert 0.0 < h_max <= h_add


def test_hmax_is_admissible_on_suite_domains():
    """h_max never exceeds the true optimal plan cost."""
    for problem in (blocks_world(4), blocks_world(5), firefighter()):
        optimal = SymbolicPlanner(problem).plan()
        assert optimal.found
        h = relaxed_cost(problem.initial_state, problem.goal,
                         problem.actions, mode="max")
        assert h <= optimal.cost + 1e-9


def test_unreachable_goal_is_infinite():
    problem = blocks_world(3)
    h = relaxed_cost(problem.initial_state, frozenset({"On(A,Mars)"}),
                     problem.actions, mode="max")
    assert h == float("inf")


def test_invalid_mode_raises():
    problem = blocks_world(3)
    with pytest.raises(ValueError):
        relaxed_cost(problem.initial_state, problem.goal, problem.actions,
                     mode="weird")
    with pytest.raises(ValueError, match="unknown heuristic"):
        make_heuristic(problem.goal, problem.actions, "psychic")


@pytest.mark.parametrize("kind", ["goal-count", "hmax", "hadd"])
def test_planner_with_each_heuristic_finds_valid_plans(kind):
    for make in (lambda: blocks_world(5), firefighter):
        problem = make()
        result = SymbolicPlanner(problem, heuristic=kind).plan()
        assert result.found, kind
        final = execute_plan(problem, result.plan)
        assert problem.goal <= final


def test_hadd_expands_fewer_nodes_on_firefighter():
    baseline = SymbolicPlanner(firefighter(), heuristic="goal-count").plan()
    informed = SymbolicPlanner(firefighter(), heuristic="hadd").plan()
    assert informed.expansions < baseline.expansions


def test_hmax_plans_stay_optimal_length():
    """Admissible h_max + A* yields the same optimal plan lengths."""
    for n in (3, 4, 5):
        problem = blocks_world(n)
        gc = SymbolicPlanner(problem, heuristic="goal-count").plan()
        hm = SymbolicPlanner(blocks_world(n), heuristic="hmax").plan()
        assert len(hm.plan) == len(gc.plan) == n


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 5), st.sampled_from(["reverse", "spread"]))
def test_random_blocks_instances_solved_consistently(n_blocks, goal):
    """Property: all heuristics solve every blocks instance, and the
    admissible ones agree on plan length."""
    lengths = {}
    for kind in ("goal-count", "hmax"):
        problem = blocks_world(n_blocks, goal=goal)
        result = SymbolicPlanner(problem, heuristic=kind).plan()
        assert result.found
        assert problem.goal <= execute_plan(problem, result.plan)
        lengths[kind] = len(result.plan)
    assert lengths["goal-count"] == lengths["hmax"]


def test_consumer_cache_keeps_its_action_list_alive():
    """The consumer cache is keyed by ``id(actions)``.

    While an entry lives its list must too: a freed list's id goes to
    the next list allocated, which would inherit another problem's
    consumer table (indices past its end: ``IndexError``).
    """
    import gc
    import weakref

    class Actions(list):
        pass

    problem = blocks_world(5)
    actions = Actions(problem.actions)
    relaxed_cost(problem.initial_state, problem.goal, actions)
    alive = weakref.ref(actions)
    del actions
    gc.collect()
    assert alive() is not None
