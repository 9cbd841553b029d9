"""Small risk sweep with the experiment harness, end to end.

Each instance draws a fresh enemy layout at its risk level and builds one
tree on the enemy-free map; every planner extracts from that same tree, and
success means at least one plan in the set reached the goal.  The block at
the bottom pools the riskier half and runs the one-sided two-proportion
z-test the full harness uses, and checks the pooled counts (diverse 13/30
against single 7/30 at ``master_seed=2024``); a different outcome exits
non-zero.

The full desk/paper profiles run through the CLI instead:

    planset experiment --profile desk --out records.csv

Run:  python3 demos/risk_sweep_quickstart.py     (about 10 s)
"""

import sys

from planset import (
    BanditConfig,
    ExperimentConfig,
    SearchConfig,
    ValueMode,
    run_experiment,
    summarize,
    two_proportion_z_test,
)
from planset.experiment import render_summary

config = ExperimentConfig(
    risk_levels=(0.1, 0.2, 0.3, 0.4),
    replications_per_level=15,
    width=6,
    height=6,
    search=SearchConfig(
        iterations=6000,
        max_rollout_steps=24,
        value_mode=ValueMode.MAX,
        bandit=BanditConfig(exploration_c=0.1),
    ),
    master_seed=2024,
)

print(f"running {config.instances} instances x {len(config.planners)} planners on a "
      f"{config.width}x{config.height} grid...")
records = run_experiment(config)

print()
print(render_summary(summarize(records)))

risky = [r for r in records if r.risk >= 0.25]
diverse = [r for r in risky if r.planner == "diverse"]
single = [r for r in risky if r.planner == "single"]
counts = (sum(r.success for r in diverse), len(diverse), sum(r.success for r in single), len(single))
z, p = two_proportion_z_test(*counts)
print()
print(f"riskier half, diverse {counts[0]}/{counts[1]} vs single {counts[2]}/{counts[3]}: "
      f"one-sided z={z:.2f}, p={p:.3f}")
print("(plan sets share one tree per instance, so re-extracting with new bounds is nearly free)")
if counts != (13, 30, 7, 30):
    sys.exit(f"check failed: expected diverse 13/30 against single 7/30, got {counts}")
