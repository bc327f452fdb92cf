"""Delete-relaxation heuristics for symbolic planning (HSP-style).

The suite's default symbolic heuristic counts unsatisfied goal atoms; it
is cheap but weakly informed.  These classic alternatives reason over
the *delete relaxation* — the problem with delete effects ignored — by a
fixpoint cost propagation over atoms:

* ``h_max`` — an action becomes available at the cost of its most
  expensive precondition; admissible (never overestimates).
* ``h_add`` — preconditions cost the *sum* of their atoms; better
  informed, not admissible (the classic HSP trade-off).

Both run one fixpoint per evaluated state, so they trade per-node work
for fewer expansions — exactly the kind of design trade-off the paper's
graph-search characterization motivates measuring (see the symbolic
ablation benchmark).
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.planning.symbolic.actions import GroundAction, State


def relaxed_cost(
    state: State,
    goal: FrozenSet[str],
    actions: Sequence[GroundAction],
    mode: str = "max",
) -> float:
    """Delete-relaxation cost estimate from ``state`` to ``goal``.

    Generalized Dijkstra over atoms: an atom's cost is the cheapest way
    to achieve it, where an action fires once all its positive
    preconditions are achieved and costs ``combine(preconditions) +
    action.cost``.  ``combine`` is max (``mode="max"``) or sum
    (``mode="add"``).  Returns ``inf`` when some goal atom is
    unreachable even ignoring deletes — a sound dead-end detector.
    """
    if mode not in ("max", "add"):
        raise ValueError("mode must be 'max' or 'add'")
    cost: Dict[str, float] = {atom: 0.0 for atom in state}
    # Precompute which actions wait on each atom, and how many
    # unsatisfied preconditions each action still has.
    remaining: List[int] = []
    waiting: Dict[str, List[int]] = {}
    heap: List = []
    counter = 0

    def combine(action: GroundAction) -> float:
        values = [cost[p] for p in action.preconditions]
        if not values:
            return 0.0
        return max(values) if mode == "max" else sum(values)

    for i, action in enumerate(actions):
        unsatisfied = 0
        for p in action.preconditions:
            if p not in cost:
                unsatisfied += 1
                waiting.setdefault(p, []).append(i)
        remaining.append(unsatisfied)
        if unsatisfied == 0:
            counter += 1
            heapq.heappush(heap, (combine(action) + action.cost, counter, i))

    achieved_goal = {atom for atom in goal if atom in cost}
    while heap and len(achieved_goal) < len(goal):
        trigger_cost, _, i = heapq.heappop(heap)
        action = actions[i]
        stale = combine(action) + action.cost
        if trigger_cost > stale + 1e-12:
            continue  # superseded by a cheaper firing
        for atom in action.add_effects:
            if atom in cost and cost[atom] <= trigger_cost:
                continue
            cost[atom] = trigger_cost
            if atom in goal:
                achieved_goal.add(atom)
            for j in waiting.get(atom, ()):  # newly satisfied preconditions
                remaining[j] -= 1
                if remaining[j] == 0:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (combine(actions[j]) + actions[j].cost, counter, j),
                    )
            # Cheaper re-achievement can lower downstream costs: re-queue
            # ready actions that consume this atom.
            for j in _consumers(actions, atom):
                if remaining[j] == 0:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (combine(actions[j]) + actions[j].cost, counter, j),
                    )
    if len(achieved_goal) < len(goal):
        return float("inf")
    values = [cost[atom] for atom in goal]
    if not values:
        return 0.0
    return max(values) if mode == "max" else sum(values)


#: id(actions) -> (actions, consumer table).  The entry holds the list
#: itself: a freed list's id can be reused by the next list, which must
#: not inherit the old problem's table.
_CONSUMER_CACHE: Dict[
    int, Tuple[Sequence[GroundAction], Dict[str, List[int]]]
] = {}


def _consumers(
    actions: Sequence[GroundAction], atom: str
) -> Iterable[int]:
    """Indices of actions having ``atom`` as a positive precondition."""
    key = id(actions)
    entry = _CONSUMER_CACHE.get(key)
    if entry is None:
        table: Dict[str, List[int]] = {}
        for i, action in enumerate(actions):
            for p in action.preconditions:
                table.setdefault(p, []).append(i)
        _CONSUMER_CACHE.clear()  # keep at most one problem cached
        entry = _CONSUMER_CACHE[key] = (actions, table)
    return entry[1].get(atom, ())


def make_heuristic(
    goal: FrozenSet[str], actions: Sequence[GroundAction], kind: str
):
    """Heuristic factory: ``goal-count`` | ``hmax`` | ``hadd``."""
    if kind == "goal-count":
        return lambda state: float(len(goal - state))
    if kind == "hmax":
        return lambda state: relaxed_cost(state, goal, actions, mode="max")
    if kind == "hadd":
        return lambda state: relaxed_cost(state, goal, actions, mode="add")
    raise ValueError(f"unknown heuristic {kind!r}")
