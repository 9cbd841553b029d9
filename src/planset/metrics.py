"""Relative/absolute path quality and state-set diversity measures.

A plan is a root-anchored path through a search tree, built by
:func:`materialize_plan` from its last node (tree paths are unique) and, when
the caller holds them, the path's node ids, actions and state keys; without
them it reads them by one walk up the plan's parents.  Its *relative quality*
is the product, over every step, of the chosen child's value divided by the
best sibling's value -- 1.0 exactly when the path picks the best child
everywhere, and shrinking with every regretful choice.
A :class:`Plan` also holds its *absolute* quality, the relative quality
times the root value: the plan's expected return.
One read of a parent's children gives all their ratios (:func:`child_log_ratios`).
Diversity between plans is the fraction of one plan's visited states that
the other plan never touches (one-way, and deliberately asymmetric);
:func:`min_pairwise_diversity` is the one place that distance is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable

from .tree import SearchTree, UndefinedValueError


class DegeneratePlanError(ValueError):
    """Plan has an empty state set, so distances from it are undefined."""


@dataclass(frozen=True, slots=True)
class Plan:
    """A complete root-to-leaf plan with cached qualities.

    ``state_keys`` excludes the root state: every plan shares it, and keeping
    it would stop fully disjoint plans from reaching distance 1.  Plans are
    slotted: they have no ``__dict__`` and take no weak references.
    """

    nodes: tuple[int, ...]
    actions: tuple[int, ...]
    state_keys: frozenset[bytes]
    relative_quality: float
    absolute_quality: float


_set_nodes, _set_actions, _set_keys, _set_relative, _set_absolute = (
    getattr(Plan, f.name).__set__ for f in fields(Plan)
)


def _new_plan(
    nodes: tuple[int, ...], actions: tuple[int, ...], state_keys: frozenset[bytes], relative: float, absolute: float
) -> Plan:
    """``Plan(nodes, actions, state_keys, relative, absolute)``, its slots
    filled through their descriptors: the frozen ``__init__`` would route
    each field through ``object.__setattr__``."""
    plan = object.__new__(Plan)
    _set_nodes(plan, nodes)
    _set_actions(plan, actions)
    _set_keys(plan, state_keys)
    _set_relative(plan, relative)
    _set_absolute(plan, absolute)
    return plan


@dataclass
class PlanSet:
    """Plans in acceptance order."""

    plans: list[Plan] = field(default_factory=list)
    pops: int = 0  # priority-queue pops spent extracting this set

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self):
        return iter(self.plans)


def child_log_ratios(tree: SearchTree, parent_id: int) -> dict[int, float]:
    """log of (child value / best visited sibling value) for every visited
    child of ``parent_id``, in child order.

    Each child's ``value`` is read once.  A ratio is 0.0 (ratio 1) when
    every visited sibling has value 0 -- no regret is measurable when all
    options are worthless -- and -inf when the child alone has value 0.
    """
    nodes = tree.nodes
    # Child values first, turned into log ratios in place below.
    ratios: dict[int, float] = {}
    best = 0.0
    for cid in nodes[parent_id].children:
        child = nodes[cid]
        if child.visits:
            value = ratios[cid] = child.value
            if value > best:
                best = value
    if best <= 0.0:
        return dict.fromkeys(ratios, 0.0)
    log = math.log
    log_best = log(best)
    for cid, value in ratios.items():
        ratios[cid] = log(value) - log_best if value > 0.0 else -math.inf
    return ratios


def materialize_plan(tree: SearchTree, last: int, log_quality: float | None = None, stem: tuple | None = None) -> Plan:
    """Build the :class:`Plan` that ends at node ``last``.

    ``stem``, when the caller holds it, is the path's node ids, actions and
    state keys, root first (the root's key left out), as ``extract_plans``
    carries them, and the plan is built from it as given; without it they
    are read by one walk up ``last``'s parents.  ``log_quality`` is the
    plan's log relative quality, when the caller holds it, and else the sum
    of its step log-ratios, root first (a product of many sub-1 ratios
    underflows; the root alone is the empty product).  A step to an
    unvisited child is at ratio 1 when every visited sibling is worthless,
    and raises :class:`UndefinedValueError` otherwise, as does an unvisited
    root.  Raises :class:`InvalidNodeError` for an id outside the tree."""
    records = tree.nodes
    if not 0 <= last < len(records):
        tree.node(last)  # raises InvalidNodeError; a negative id must not index from the end
    root = records[tree.root]
    if not root.visits:
        raise UndefinedValueError(f"node {tree.root} has no visits")
    if stem is None:
        nodes, actions, keys = [last], [], []
        rec = records[last]
        while rec.parent is not None:
            nodes.append(rec.parent)
            actions.append(rec.action)
            keys.append(rec.state_key)
            rec = records[rec.parent]
        nodes.reverse()
        stem = tuple(nodes), tuple(reversed(actions)), keys
    nodes, actions, keys = stem
    if log_quality is None:
        log_quality = 0.0
        for parent, child in zip(nodes, nodes[1:]):
            ratios = child_log_ratios(tree, parent)
            if child not in ratios and any(records[cid].value > 0.0 for cid in ratios):
                raise UndefinedValueError(f"node {child} has no visits")
            log_quality += ratios.get(child, 0.0)
    relative = math.exp(log_quality)
    return _new_plan(nodes, actions, frozenset(keys), relative, relative * root.value)


def min_pairwise_diversity(plan: "Plan | frozenset[bytes]", plans: Iterable[Plan]) -> float:
    """Min one-way distance from ``plan`` to any member; 1.0 for an empty
    collection.

    The distance from A to B is the fraction of A's states that B never
    visits, ``|A - B| / |A|``; it is not symmetric in general.  ``plan`` may
    be a bare state-key set, so a candidate can be tested before a
    :class:`Plan` is built for it.
    """
    keys = plan.state_keys if isinstance(plan, Plan) else plan
    members = list(plans)
    if not members:
        return 1.0
    if not keys:
        raise DegeneratePlanError("plan has an empty state set")
    return min(len(keys - other.state_keys) for other in members) / len(keys)
