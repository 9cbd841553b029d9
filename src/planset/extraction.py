"""Best-first extraction of bounded plan sets from a finished search tree.

One heap loop, in :func:`extract_plans`, grows *plan stems* (root-anchored
partial paths, each named by its last node, since tree paths are unique) in
a max-priority queue keyed on relative quality.  A stem none of whose
children reaches the quality floor q is a complete plan.  A stem's quality
never increases as it grows, so complete plans leave in non-increasing
quality order, and each pop reads its stem's children's values once, from
the tree as it stands.  ``PlanSet.pops`` counts every pop the loop makes.
Every bound runs the same loop:

- top-k and top-quality (d = 0) take its first k complete plans, or all of
  them at k = inf, and build one Plan each; there is no diversity work.
- diverse (d > 0) filters them.  Each candidate's state keys, read by a walk
  up its parents, get one test against the at most k incumbents (the
  candidate that ends a full set gets none), and a Plan is built only for a
  candidate that enters the set.

A diverse set keeps one contract: its plans are in acceptance order, their
quality never increases, and each plan is at least d, one way, from every
plan before it.  Each plan's *margin* is its distance to the set it joined.
Once k plans are held, only a candidate that ties the lowest quality can
enter, so the first stem below it ends the extraction, complete or not.
A tied candidate that passes d takes the place of the tied incumbent with
the smallest margin, if its own margin is strictly larger: that incumbent is
deleted and the candidate appended.  The candidate was tested against every
incumbent, and deleting a plan can only raise the distances of the plans
after it, so the swap keeps the contract with no further check.

The diverse filter also refuses whole stems.  A plan below a stem S adds at
most h keys to S's, h the height of S's visited subtree, so its distance to
an incumbent B is at most ``(|keys(S) - B| + h) / (|keys(S)| + h)``.  When
that bound falls below d, every plan below S fails against B, as long as B
is still held when they are tested.  A tie swap evicts only a plan tied
with the set's lowest quality, so B counts if its quality exceeds S's by
more than ``QUALITY_TOL`` (every later entrant is no better than S) and,
once k plans are held, B is not tied with the lowest of them.  Such a stem
is popped and dropped, with every plan below it, before its children are
read: the set comes out as the unpruned filter's, and the dropped stem
counts as one pop.  A stem with ``(depth + 1) * d <= 1`` is never refused
(the bound is at least ``1 / (depth + 1)``), so it skips the test.  Since a
full set ends at its first stem below, no extraction pops more than the
unpruned filter does.

:func:`brute_force_enumerate` walks every root-to-leaf path instead.  It is
the oracle the tests check the queue against, and no public name.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass

from .metrics import (
    Plan,
    PlanSet,
    child_log_ratios,
    materialize_plan,
    min_pairwise_diversity,
    stem_keys,
)
from .tree import SearchTree, acyclic

QUALITY_TOL = 1e-12


class EmptyTreeError(ValueError):
    """Extraction from a tree whose root was never visited."""


@dataclass(frozen=True)
class ExtractionConfig:
    """Bounds for one extraction: cardinality k, quality q, diversity d.

    ``k=math.inf`` leaves the set size unbounded (pure top-quality mode);
    ``q=0, d=0`` recover plain top-k extraction.
    """

    k: float = math.inf
    q: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        k, q, d = self.k, self.q, self.d  # each must be a number before it is compared
        if not isinstance(k, numbers.Real) or (k != math.inf and not (k >= 1 and int(k) == k)):
            raise ValueError(f"k must be a positive integer or inf, got {k!r}")
        if not isinstance(q, numbers.Real) or not 0.0 <= q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {q!r}")
        if not isinstance(d, numbers.Real) or not 0.0 <= d <= 1.0:
            raise ValueError(f"d must lie in [0, 1], got {d!r}")


@acyclic
def extract_plans(tree: SearchTree, config: ExtractionConfig) -> PlanSet:
    """Extract the bounded plan set defined by ``config`` from ``tree``.

    Complete plans leave the queue in non-increasing quality order, so the
    set is sound (nothing better exists outside it) and complete (every
    qualifying plan is found).  It runs with the cyclic collector paused
    (:func:`planset.tree.acyclic`): the plans and heap entries it builds
    hold only tuples, sets and numbers.
    """
    if not isinstance(config, ExtractionConfig):
        raise ValueError(f"config must be an ExtractionConfig, got {config!r}")
    k, floor, d = config.k, config.q - QUALITY_TOL, config.d
    nodes = tree.nodes
    if nodes[tree.root].visits == 0:
        raise EmptyTreeError("root has never been visited")
    accepted: list[Plan] = []
    margins: list[float] = []  # each plan's distance to the set it joined
    heights: list[int] = []  # per node, its visited subtree's height; built on first need
    # Heap entries: (-log quality, insertion seq, last node of the stem, its
    # depth).  The seq pops ties FIFO, which fixes who wins exact ties and
    # the pop count.
    heap: list[tuple[float, int, int, int]] = [(-0.0, 0, tree.root, 0)]
    seq = 1
    pops = 0
    exp = math.exp
    heappush, heappop = heapq.heappush, heapq.heappop
    full = False  # whether k plans are held
    while heap:
        neg_logq, _, last, depth = heappop(heap)
        logq = -neg_logq
        pops += 1
        if full and exp(logq) < accepted[-1].relative_quality - QUALITY_TOL:
            break  # below a full set: so is every later stem
        if nodes[last].children:
            if d and accepted and _refused(tree, heights, accepted, full, d, last, exp(logq), depth):
                continue
            expanded = False
            for cid, ratio in child_log_ratios(tree, last).items():
                child_logq = logq + ratio
                if exp(child_logq) >= floor:
                    heappush(heap, (-child_logq, seq, cid, depth + 1))
                    seq += 1
                    expanded = True
            if expanded:
                continue
        if d:
            # A complete plan's state keys are tested against the incumbents
            # before any Plan is built for it.
            diversity = min_pairwise_diversity(stem_keys(tree, last), accepted)
            if diversity < d:
                continue
            if full:
                # Quality tie.  The candidate is appended, not put in the
                # evicted plan's slot: no plan may precede one it was never
                # tested against.
                q_min = accepted[-1].relative_quality
                tied = [i for i, p in enumerate(accepted) if abs(p.relative_quality - q_min) <= QUALITY_TOL]
                weakest = min(tied, key=margins.__getitem__)
                if diversity <= margins[weakest]:
                    continue
                del accepted[weakest], margins[weakest]
            margins.append(diversity)
        accepted.append(materialize_plan(tree, last, logq))
        full = len(accepted) >= k
        if full and not d:
            break  # top-k and top-quality take the first k complete plans
    return PlanSet(plans=accepted, pops=pops)


def _refused(
    tree: SearchTree, heights: list[int], accepted: list[Plan], full: bool, d: float, last: int, quality: float, depth: int
) -> bool:
    """Whether an incumbent no tie swap can evict is within d of every plan
    below the stem that ends at ``last`` (the module docstring's bound).
    ``full`` says k plans are held; ``heights`` is filled on first need."""
    if (depth + 1) * d <= 1.0 or accepted[0].relative_quality - quality <= QUALITY_TOL:
        return False
    if not heights:
        heights.extend(_visited_heights(tree))
    h = heights[last]
    # A complete plan gets its own test; and since |keys(S)| <= depth, the
    # bound is at least h / (depth + h) for every incumbent.
    if not h or h / (depth + h) >= d:
        return False
    keys = stem_keys(tree, last)
    size = len(keys) + h
    q_min = accepted[-1].relative_quality if full else -math.inf
    # Incumbents are in non-increasing quality order, so the ones a swap can
    # never evict are a prefix.
    for plan in accepted:
        if plan.relative_quality - quality <= QUALITY_TOL or plan.relative_quality - q_min <= QUALITY_TOL:
            break
        if (len(keys - plan.state_keys) + h) / size < d:
            return True
    return False


def _visited_heights(tree: SearchTree) -> list[int]:
    """Per node id, the most edges from the node down to a visited
    descendant (0 without a visited child)."""
    nodes = tree.nodes
    heights = [0] * len(nodes)
    # A child's id is above its parent's, so each node is done before its parent.
    for nid in range(len(nodes) - 1, 0, -1):
        rec = nodes[nid]
        if rec.visits and heights[nid] >= heights[rec.parent]:
            heights[rec.parent] = heights[nid] + 1
    return heights


def brute_force_enumerate(tree: SearchTree) -> list[tuple[Plan, float]]:
    """Every root-to-leaf path over visited nodes, best quality first.

    Ties keep lexicographic child-index order.  This is the extraction
    oracle: an exhaustive walk with none of the queue machinery.  Outside the
    tests its one reader is ``perfbench``'s ``replan`` check.
    """
    nodes = tree.nodes
    if nodes[tree.root].visits == 0:
        raise EmptyTreeError("root has never been visited")

    leaves: list[tuple[int, float]] = []
    # Depth-first in child order yields leaves lexicographically by child index.
    stack: list[tuple[int, float]] = [(tree.root, 0.0)]
    while stack:
        last, logq = stack.pop()
        ratios = child_log_ratios(tree, last)
        if not ratios:
            leaves.append((last, logq))
            continue
        for cid, ratio in reversed(ratios.items()):
            stack.append((cid, logq + ratio))

    ranked = sorted(leaves, key=lambda item: -math.exp(item[1]))
    return [(materialize_plan(tree, last, logq), math.exp(logq)) for last, logq in ranked]
