"""Relative/absolute path quality and state-set diversity measures.

A plan is a root-anchored path through a search tree.  Its *relative
quality* is the product, over every step, of the chosen child's value
divided by the best sibling's value -- 1.0 exactly when the path picks the
best child everywhere, and shrinking with every regretful choice.
Multiplying by the root value turns it into an *absolute* expected return.
Diversity between plans is the fraction of one plan's visited states that
the other plan never touches (one-way, and deliberately asymmetric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .tree import SearchTree


class InvalidPathError(ValueError):
    """Node sequence is not a root-anchored parent/child path."""


class DegeneratePlanError(ValueError):
    """Plan has an empty state set, so distances from it are undefined."""


@dataclass(frozen=True)
class Plan:
    """A complete root-to-leaf plan with cached qualities.

    ``state_keys`` excludes the root state: every plan shares it, and keeping
    it would stop fully disjoint plans from reaching distance 1.
    """

    nodes: tuple[int, ...]
    actions: tuple[int, ...]
    state_keys: frozenset[bytes]
    relative_quality: float
    absolute_quality: float


@dataclass
class PlanSet:
    """Plans in acceptance order plus the bounds they were extracted under."""

    plans: list[Plan] = field(default_factory=list)
    k: float = math.inf
    q: float = 0.0
    d: float = 0.0
    pops: int = 0  # priority-queue pops spent extracting this set

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self):
        return iter(self.plans)

    def min_quality(self) -> float:
        return min(p.relative_quality for p in self.plans)


def best_sibling_value(tree: SearchTree, parent_id: int) -> float:
    """Best value among the visited children of ``parent_id``; 0.0 if none."""
    nodes = tree.nodes
    return max((tree.q_value(cid) for cid in nodes[parent_id].children if nodes[cid].visits), default=0.0)


def step_log_ratio(tree: SearchTree, child_id: int, best: float) -> float:
    """log of (child value / best visited sibling value) for one path step.

    ``best`` comes from :func:`best_sibling_value` of the child's parent, so
    a parent's children share one scan of their siblings.  Returns 0.0
    (ratio 1) when every visited sibling has value 0 -- no regret is
    measurable when all options are worthless -- and -inf when the chosen
    child alone has value 0.
    """
    if best <= 0.0:
        return 0.0
    chosen = tree.q_value(child_id)
    if chosen <= 0.0:
        return -math.inf
    return math.log(chosen) - math.log(best)


def path_log_quality(tree: SearchTree, nodes: Sequence[int]) -> float:
    """Log-space relative quality of a root-anchored path.

    Products of many sub-1 ratios underflow; summing logs does not.  A zero
    factor is an explicit -inf sentinel rather than a floored float.
    """
    if not nodes or nodes[0] != tree.root:
        raise InvalidPathError("path must start at the tree root")
    total = 0.0
    for parent_id, child_id in zip(nodes, nodes[1:]):
        if tree.node(child_id).parent != parent_id:
            raise InvalidPathError(f"{child_id} is not a child of {parent_id}")
        total += step_log_ratio(tree, child_id, best_sibling_value(tree, parent_id))
    return total


def relative_plan_quality(tree: SearchTree, nodes: Sequence[int]) -> float:
    """Product over path steps of chosen-child value / best-sibling value.

    The single-node path is the empty product, 1.0.
    """
    return math.exp(path_log_quality(tree, nodes))


def absolute_quality(tree: SearchTree, relative_quality: float) -> float:
    """Expected return of the plan from the initial state."""
    return relative_quality * tree.q_value(tree.root)


def materialize_plan(tree: SearchTree, nodes: Sequence[int], log_quality: float | None = None) -> Plan:
    """Build a :class:`Plan` (actions, state keys, qualities) from a node path."""
    if log_quality is None:
        log_quality = path_log_quality(tree, nodes)
    relative = math.exp(log_quality)
    records = [tree.node(nid) for nid in nodes]
    return Plan(
        nodes=tuple(nodes),
        actions=tuple(rec.action for rec in records[1:]),
        state_keys=frozenset(rec.state_key for rec in records[1:]),
        relative_quality=relative,
        absolute_quality=absolute_quality(tree, relative),
    )


def _key_set_distance(keys_a: frozenset[bytes], keys_b: frozenset[bytes]) -> float:
    if not keys_a:
        raise DegeneratePlanError("plan has an empty state set")
    return len(keys_a - keys_b) / len(keys_a)


def state_set_distance(plan_a: Plan, plan_b: Plan) -> float:
    """Fraction of plan_a's states that plan_b never visits.

    One-way set difference over |plan_a|; not symmetric in general.
    """
    return _key_set_distance(plan_a.state_keys, plan_b.state_keys)


def min_pairwise_diversity(plan: "Plan | frozenset[bytes]", plans: "PlanSet | Iterable[Plan]") -> float:
    """Min distance from ``plan`` to any member; 1.0 for an empty collection.

    ``plan`` may be a bare state-key set, so a candidate can be tested
    before a :class:`Plan` is built for it.
    """
    keys = plan.state_keys if isinstance(plan, Plan) else plan
    members = plans.plans if isinstance(plans, PlanSet) else list(plans)
    if not members:
        return 1.0
    return min(_key_set_distance(keys, other.state_keys) for other in members)
