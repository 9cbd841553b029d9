"""Best-first extraction of bounded plan sets from a finished search tree.

One private generator, :func:`_best_first`, grows *plan stems* (root-anchored
partial paths, each named by its last node, since tree paths are unique) in a
max-priority queue keyed on relative quality.  It yields each complete plan
that reaches the quality floor q with the pops spent so far.  A stem's
quality never increases as it grows, so plans leave in non-increasing
quality order, and each pop reads its stem's children's values once, from
the tree as it stands.  Every bound consumes that one stream:

- top-k and top-quality (d = 0) take its first k plans, or all of them at
  k = inf, and build one Plan each; there is no diversity work.
- diverse (d > 0) filters it.  Each candidate's state keys, read by a walk
  up its parents, get one test against the at most k incumbents (the
  candidate that ends a full set gets none), and a Plan is built only for a
  candidate that enters the set.

A diverse set keeps one contract: its plans are in acceptance order, their
quality never increases, and each plan is at least d, one way, from every
plan before it.  Each plan's *margin* is its distance to the set it joined.
Once k plans are held, only a candidate that ties the lowest quality can
enter, so the first candidate below it ends the extraction, diverse or not.
A tied candidate that passes d takes the place of the tied incumbent with
the smallest margin, if its own margin is strictly larger: that incumbent is
deleted and the candidate appended.  The candidate was tested against every
incumbent, and deleting a plan can only raise the distances of the plans
after it, so the swap keeps the contract with no further check.

:func:`brute_force_enumerate` walks every root-to-leaf path instead.  It is
the oracle the tests check the queue against, and no public name.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .metrics import (
    Plan,
    PlanSet,
    child_log_ratios,
    materialize_plan,
    min_pairwise_diversity,
    stem_keys,
)
from .tree import SearchTree

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


def extract_plans(tree: SearchTree, config: ExtractionConfig) -> PlanSet:
    """Extract the bounded plan set defined by ``config`` from ``tree``.

    Complete plans leave the queue in non-increasing quality order, so the
    set is sound (nothing better exists outside it) and complete (every
    qualifying plan is found).
    """
    k, q, d = config.k, config.q, config.d
    if tree.nodes[tree.root].visits == 0:
        raise EmptyTreeError("root has never been visited")
    stream = _best_first(tree, q - QUALITY_TOL)
    if not d:
        plans = []
        for last, logq, pops in islice(stream, None if k == math.inf else int(k)):
            plans.append(materialize_plan(tree, last, logq))
        return PlanSet(plans=plans, pops=pops)

    accepted: list[Plan] = []
    margins: list[float] = []  # each plan's distance to the set it joined
    for last, logq, pops in stream:
        full = len(accepted) >= k
        if full and math.exp(logq) < accepted[-1].relative_quality - QUALITY_TOL:
            break
        # A complete plan's state keys are tested against the incumbents
        # before any Plan is built for it.
        diversity = min_pairwise_diversity(stem_keys(tree, last), accepted)
        if diversity < d:
            continue
        if full:
            # Quality tie.  The candidate is appended, not put in the evicted
            # plan's slot: no plan may precede one it was never tested against.
            q_min = accepted[-1].relative_quality
            tied = [i for i, p in enumerate(accepted) if abs(p.relative_quality - q_min) <= QUALITY_TOL]
            weakest = min(tied, key=margins.__getitem__)
            if diversity <= margins[weakest]:
                continue
            del accepted[weakest], margins[weakest]
        accepted.append(materialize_plan(tree, last, logq))
        margins.append(diversity)
    return PlanSet(plans=accepted, pops=pops)


def _best_first(tree: SearchTree, floor: float) -> Iterator[tuple[int, float, int]]:
    """Every complete plan whose quality reaches ``floor``, best first, as
    (last node, log quality, pops so far)."""
    # Heap entries: (-log quality, insertion seq, last node of the stem).  The
    # seq pops ties FIFO, which fixes who wins exact ties and the pop count.
    heap: list[tuple[float, int, int]] = [(-0.0, 0, tree.root)]
    seq = 1
    pops = 0
    exp = math.exp
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        neg_logq, _, last = heappop(heap)
        logq = -neg_logq
        pops += 1
        expanded = False
        for cid, ratio in child_log_ratios(tree, last).items():
            child_logq = logq + ratio
            if exp(child_logq) >= floor:
                heappush(heap, (-child_logq, seq, cid))
                seq += 1
                expanded = True
        if not expanded:
            yield last, logq, pops


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
