"""Sweep statistics: Wilson success intervals per planner and risk band,
the one-sided two-proportion z-test, and the printed summary table."""

from __future__ import annotations

import math
from typing import Sequence

from .experiment import ResultRecord
from .mcts import require_integer

_Z95 = 1.959963984540054


def two_proportion_z_test(
    successes_a: int, n_a: int, successes_b: int, n_b: int
) -> tuple[float, float]:
    """One-sided pooled z-test of p_a > p_b; returns (z, p_value)."""
    for name, count in (("successes_a", successes_a), ("n_a", n_a), ("successes_b", successes_b), ("n_b", n_b)):
        require_integer(name, count)
    if n_a < 1 or n_b < 1:
        raise ValueError("both groups need at least one observation")
    if not (0 <= successes_a <= n_a and 0 <= successes_b <= n_b):
        raise ValueError(f"success counts {successes_a}/{n_a} and {successes_b}/{n_b} must lie in [0, n]")
    pooled = (successes_a + successes_b) / (n_a + n_b)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b))
    if se == 0.0:
        return 0.0, 0.5
    z = (successes_a / n_a - successes_b / n_b) / se
    return z, 0.5 * math.erfc(z / math.sqrt(2.0))  # the standard normal's upper tail


def proportion_ci(successes: int, n: int) -> tuple[float, float, float]:
    """(mean, lo, hi): the Wilson score 95% interval.  ``lo`` is exactly 0.0
    with no successes and ``hi`` exactly 1.0 with all, where the formula
    would round to 1.7e-18 and 0.9999999999999999."""
    mean = successes / n
    z2 = _Z95 * _Z95
    scale = 1.0 + z2 / n
    center = (mean + z2 / (2 * n)) / scale
    half = _Z95 * math.sqrt(mean * (1.0 - mean) / n + z2 / (4 * n * n)) / scale
    lo = 0.0 if successes == 0 else center - half
    hi = 1.0 if successes == n else center + half
    return mean, lo, hi


RISK_BANDS = (("low", 0.0, 0.3), ("medium_high", 0.3, 1.0 + 1e-9), ("all", 0.0, 1.0 + 1e-9))


def _planner_order(label: str) -> tuple:
    """A planner label's place in the summary: by kind, then by k, q and d
    as numbers, inf last, so ``top_k:3:0.0:0.0`` comes before
    ``top_k:10:0.0:0.0``.  A label whose bounds are not numbers follows its
    kind's spec labels, and the label string breaks any tie."""
    kind, *bounds = label.split(":")
    try:
        return kind, 0, [float(bound) for bound in bounds], label
    except ValueError:
        return kind, 1, [], label


def summarize(records: Sequence[ResultRecord]) -> list[dict]:
    """Per (planner, risk band): success rate with CI; per planner: mean
    path-cost ratio over successes and mean build/extract times.

    Planners are in kind order, and a kind's bounds in numeric order.
    Groups with fewer than 2 records are dropped with a warning row.
    """
    planners = sorted({r.planner for r in records}, key=_planner_order)
    rows: list[dict] = []
    for planner in planners:
        mine = [r for r in records if r.planner == planner]
        for band, lo, hi in RISK_BANDS:
            group = [r for r in mine if lo <= r.risk < hi]
            if len(group) < 2:
                if group:
                    rows.append({"planner": planner, "band": band, "warning": "excluded: fewer than 2 records"})
                continue
            wins = sum(r.success for r in group)
            mean, ci_lo, ci_hi = proportion_ci(wins, len(group))
            rows.append(
                {
                    "planner": planner,
                    "band": band,
                    "n": len(group),
                    "success_rate": mean,
                    "ci_lo": ci_lo,
                    "ci_hi": ci_hi,
                }
            )
        ratios = [
            r.best_path_len / r.shortest_path
            for r in mine
            if r.success and r.shortest_path > 0 and r.best_path_len is not None
        ]
        rows.append(
            {
                "planner": planner,
                "band": "timing",
                "n": len(mine),
                "path_cost_ratio": (sum(ratios) / len(ratios)) if ratios else None,
                "build_s": sum(r.tree_build_seconds for r in mine) / len(mine),
                "extract_s": sum(r.extraction_seconds for r in mine) / len(mine),
            }
        )
    return rows


def render_summary(rows: Sequence[dict]) -> str:
    width = max([12, *(len(row["planner"]) for row in rows)])  # the planner column fits its longest label
    lines = [f"{'planner':<{width}} {'band':<12} {'n':>5}  metric"]
    for row in rows:
        head = f"{row['planner']:<{width}} {row['band']:<12}"
        if "warning" in row:
            lines.append(f"{head}        {row['warning']}")
        elif row["band"] == "timing":
            ratio = "n/a" if row["path_cost_ratio"] is None else f"{row['path_cost_ratio']:.3f}"
            lines.append(
                f"{head} {row['n']:>5}  "
                f"path-ratio {ratio}  build {row['build_s']:.3f}s  extract {row['extract_s'] * 1000:.2f}ms"
            )
        else:
            ci = f"[{row['ci_lo']:.3f}, {row['ci_hi']:.3f}]"
            lines.append(f"{head} {row['n']:>5}  success {row['success_rate']:.3f} {ci}")
    return "\n".join(lines)
