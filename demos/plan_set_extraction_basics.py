"""Walk through plan-set extraction on a small hand-built search tree.

Builds the tree with explicit backpropagated playouts, then pulls out the
single best plan, the top-k set, a quality-bounded set, and a diverse set,
and checks each against the tree's ranking, listed by hand; a failed check
exits non-zero.

Run:  python3 demos/plan_set_extraction_basics.py
"""

import math
import sys

from planset import (
    ExtractionConfig,
    SearchTree,
    ValueMode,
    extract_plans,
    materialize_plan,
    min_pairwise_diversity,
)


def check(ok: bool, claim: str) -> None:
    if not ok:
        sys.exit(f"check failed: {claim}")


# ---------------------------------------------------------------------------
# A tree with four routes of different value.  Rewards land in [0, 1]; node
# values are running averages of whatever was backpropagated through them.
#
#            root
#        /    |     \
#      a0     a1     a2
#      |      |    /    \
#     end    end  end   end
#
tree = SearchTree(b"start", ValueMode.AVERAGE, root_actions=[0, 1, 2])
left = tree.add_child(tree.root, 0, b"left", terminal=True)
mid = tree.add_child(tree.root, 1, b"mid", terminal=True)
right = tree.add_child(tree.root, 2, b"right", untried_actions=[0, 1])
for reward in (0.9, 0.9):
    tree.backpropagate(left, reward)
for reward in (0.6, 0.6):
    tree.backpropagate(mid, reward)
r_hi = tree.add_child(right, 0, b"right-hi", terminal=True)
r_lo = tree.add_child(right, 1, b"right-lo", terminal=True)
tree.backpropagate(r_hi, 0.8)
tree.backpropagate(r_lo, 0.4)

print("node values:")
for nid, name in [(left, "left"), (mid, "mid"), (right, "right"), (r_hi, "right-hi"), (r_lo, "right-lo")]:
    print(f"  {name:9s} visits={tree.node(nid).visits}  Q={tree.node(nid).value:.3f}")

# ---------------------------------------------------------------------------
# Relative quality: the product over path steps of (chosen child's value /
# best sibling's value).  The best path scores exactly 1.  A tree has one path
# to each node, so a plan is named by its last node.  Ranked by hand from the
# values above: left 0.9, mid 0.6 and right 0.6 (the mean of 0.8 and 0.4),
# then right-hi 0.8 and right-lo 0.4 below right.  mid and right-hi tie at
# 0.667 on paper, but in floating point 0.8 + 0.4 is 1.2000000000000002, so
# right's mean sits just above mid's 0.6 and right-hi ranks first.
ranking = [
    (left, "root->left", 1.0),
    (r_hi, "root->right->hi", 0.6 / 0.9),
    (mid, "root->mid", 0.6 / 0.9),
    (r_lo, "root->right->lo", 0.6 / 0.9 * 0.4 / 0.8),
]
print("\nrelative plan qualities, best first:")
for last, name, quality in ranking:
    relative = materialize_plan(tree, last).relative_quality
    print(f"  {name:16s} {relative:.4f}")
    check(math.isclose(relative, quality), f"{name} has quality {quality:.4f}")

# ---------------------------------------------------------------------------
# The same queue-based extractor covers all three planning modes.
single = extract_plans(tree, ExtractionConfig(k=1))
print("\nsingle best plan:", single.plans[0].nodes, f"quality={single.plans[0].relative_quality:.4f}")

top2 = extract_plans(tree, ExtractionConfig(k=2))
print("top-2 qualities:", [round(p.relative_quality, 4) for p in top2.plans])

quality_bound = extract_plans(tree, ExtractionConfig(k=math.inf, q=0.8))
print("all plans with quality >= 0.8:", [p.nodes for p in quality_bound.plans])

everything = extract_plans(tree, ExtractionConfig())
print("every plan, best first:", [p.nodes for p in everything.plans])


def follows(plans, entries) -> bool:
    entries = list(entries)
    return len(plans) == len(entries) and all(
        plan.nodes[-1] == last and math.isclose(plan.relative_quality, quality)
        for plan, (last, _, quality) in zip(plans, entries)
    )


check(follows(single.plans, ranking[:1]), "single plan is the best ranked")
check(follows(top2.plans, ranking[:2]), "top-2 is the ranking's first two")
check(
    follows(quality_bound.plans, (entry for entry in ranking if entry[2] >= 0.8)),
    "quality-bounded set is the ranking filtered at q >= 0.8",
)
check(follows(everything.plans, ranking), "with no bounds, every plan comes out in rank order")

# Diversity: fraction of a candidate's states the accepted set never visits.
# With d = 0.9 the second-best plan must be nearly disjoint from the first.
diverse = extract_plans(tree, ExtractionConfig(k=2, d=0.9))
print("diverse top-2 (d=0.9):")
for plan in diverse.plans:
    print(f"  quality={plan.relative_quality:.4f}  states={sorted(plan.state_keys)}")
check(len(diverse.plans) == 2, "two plans at d = 0.9")
for i, plan in enumerate(diverse.plans):
    others = diverse.plans[:i] + diverse.plans[i + 1 :]
    check(min_pairwise_diversity(plan, others) >= 0.9, "diverse plans are at least 0.9 apart")
print("\nall checks passed")
