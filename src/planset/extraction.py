"""Best-first extraction of bounded plan sets from a finished search tree.

Plans are pulled out of the tree by growing *plan stems* (root-anchored
partial paths) in a max-priority queue keyed on relative quality.  Tree paths
are unique, so a stem is named by its last node.  Because a stem's quality
never increases as it grows, the first k complete plans off the queue are
the k best in the tree; a quality floor q prunes stems early, and a
diversity floor d filters complete plans against the accepted set, with
equal-quality ties broken in favour of the more diverse candidate.

:func:`brute_force_enumerate` walks every root-to-leaf path instead and is
the testing oracle the queue-based extractor is checked against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .metrics import (
    Plan,
    PlanSet,
    best_sibling_value,
    materialize_plan,
    min_pairwise_diversity,
    step_log_ratio,
)
from .tree import SearchTree

QUALITY_TOL = 1e-12


class EmptyTreeError(ValueError):
    """Extraction from a tree whose root was never visited."""


class TreeTooLargeError(ValueError):
    """Exhaustive enumeration refused; the tree has too many leaf paths."""


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
        if self.k != math.inf and (self.k < 1 or int(self.k) != self.k):
            raise ValueError(f"k must be a positive integer or inf, got {self.k}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if not 0.0 <= self.d <= 1.0:
            raise ValueError(f"d must lie in [0, 1], got {self.d}")


def extract_plans(
    tree: SearchTree,
    config: ExtractionConfig,
    pop_log: list[float] | None = None,
) -> PlanSet:
    """Extract the bounded plan set defined by ``config`` from ``tree``.

    Complete plans leave the queue in non-increasing quality order, so the
    set is sound (nothing better exists outside it) and complete (every
    qualifying plan is found).  ``pop_log``, if given, receives the quality
    of every popped stem, for order/complexity assertions in tests.
    """
    k, q, d = config.k, config.q, config.d
    nodes = tree.nodes
    if nodes[tree.root].visits == 0:
        raise EmptyTreeError("root has never been visited")

    accepted: list[Plan] = []
    # Heap entries: (-log quality, insertion seq, last node of the stem).  The
    # seq pops ties FIFO, which fixes who wins exact ties and the pop count.
    heap: list[tuple[float, int, int]] = [(-0.0, 0, tree.root)]
    seq = 1
    pops = 0

    while heap:
        neg_logq, _, last = heapq.heappop(heap)
        logq = -neg_logq
        pops += 1
        if pop_log is not None:
            pop_log.append(math.exp(logq))
        best = best_sibling_value(tree, last)
        expanded = False
        for cid in nodes[last].children:
            if not nodes[cid].visits:
                continue
            child_logq = logq + step_log_ratio(tree, cid, best)
            if math.exp(child_logq) >= q - QUALITY_TOL:
                heapq.heappush(heap, (-child_logq, seq, cid))
                seq += 1
                expanded = True
        if expanded:
            continue

        # Stem reached a leaf: a complete plan.
        plan = materialize_plan(tree, tree.path_to(last), logq)
        if min_pairwise_diversity(plan, accepted) < d:
            continue
        if len(accepted) < k:
            accepted.append(plan)
            if d == 0 and len(accepted) >= k:
                # With no diversity bound nothing can displace an accepted
                # plan, so stop at the k-th acceptance.  This keeps pops
                # within k*depth + 1.
                break
        else:
            q_min = min(p.relative_quality for p in accepted)
            if d == 0 or plan.relative_quality < q_min - QUALITY_TOL:
                break
            # Quality tie: replace the least diverse minimum-quality
            # incumbent if the candidate is strictly more diverse.
            tied = [i for i, p in enumerate(accepted) if abs(p.relative_quality - q_min) <= QUALITY_TOL]
            weakest = min(tied, key=lambda i: diversity_excluding(accepted, i))
            if min_pairwise_diversity(plan, accepted) > diversity_excluding(accepted, weakest):
                old = accepted[weakest]
                accepted[weakest] = plan
                # The replace step must not break the set's own pairwise
                # diversity floor; roll back if it does.
                if any(diversity_excluding(accepted, i) < d for i in range(len(accepted))):
                    accepted[weakest] = old

    return PlanSet(plans=accepted, k=k, q=q, d=d, pops=pops)


def diversity_excluding(plans: list[Plan], index: int) -> float:
    """Min pairwise distance of ``plans[index]`` against the other plans."""
    return min_pairwise_diversity(plans[index], plans[:index] + plans[index + 1 :])


def brute_force_enumerate(
    tree: SearchTree, max_paths: int = 10_000
) -> list[tuple[Plan, float]]:
    """Every root-to-leaf path over visited nodes, best quality first.

    Ties keep lexicographic child-index order.  Refuses trees with more than
    ``max_paths`` leaf paths.  This is the extraction oracle: an exhaustive
    walk with none of the queue machinery.
    """
    nodes = tree.nodes
    if nodes[tree.root].visits == 0:
        raise EmptyTreeError("root has never been visited")

    paths: list[tuple[tuple[int, ...], float]] = []
    # Depth-first in child order yields paths lexicographically by child index.
    stack: list[tuple[tuple[int, ...], float]] = [((tree.root,), 0.0)]
    while stack:
        path, logq = stack.pop()
        last = path[-1]
        kids = [cid for cid in nodes[last].children if nodes[cid].visits]
        if not kids:
            paths.append((path, logq))
            if len(paths) > max_paths:
                raise TreeTooLargeError(f"more than {max_paths} leaf paths")
            continue
        best = best_sibling_value(tree, last)
        for cid in reversed(kids):
            stack.append((path + (cid,), logq + step_log_ratio(tree, cid, best)))

    ranked = sorted(paths, key=lambda item: -math.exp(item[1]))
    return [(materialize_plan(tree, path, logq), math.exp(logq)) for path, logq in ranked]
