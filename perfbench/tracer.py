"""Spans and call counters around planset's public entry points.

Only the traced run installs these wrappers; timed runs call the program
untouched.  Coarse calls (a search, a rollout, an extraction, a tree load)
become spans: name, start, end, parent span, process and tree id.  The
simulator and tree-update calls run ~100k times per search, so a span each
would cost more memory than the search itself; they are counted instead, as
(calls, seconds) totals on the span that made them.  Every wrapped call's
duration is charged to its parent, so a span's self time is its duration
minus its children's.

Spans stay in memory until the process's outermost span closes (one search,
one extraction), then go out as JSON lines to a file per process.  Forked
pool workers inherit the wrappers and write files of their own; flushing at
each outermost span keeps memory flat and loses nothing when the pool
terminates its workers.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path

import planset.experiment as p_experiment
import planset.extraction as p_extraction
import planset.gridworld as p_gridworld
import planset.mcts as p_mcts
from planset.tree import SearchTree

perf = time.perf_counter

# Span record fields.
NAME, START, END, PARENT, TREE, CHILD_S, COUNTS, INFO = range(8)

SIM_METHODS = ("step", "legal_actions", "default_action", "state_key", "initial_state")


def extraction_kind(config) -> str:
    """Planner kind an ExtractionConfig encodes (the experiment's PlannerSpec rules)."""
    if config.d > 0:
        return "diverse"
    if config.q > 0:
        return "top_quality"
    return "single" if config.k == 1 else "top_k"


class Tracer:
    def __init__(self, part_dir: Path):
        self.part_dir = part_dir
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tree = ""
        self.trees = 0
        self.active = False
        self._base = 0
        self._undo: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forked)

    # -- recording -------------------------------------------------------

    def _forked(self) -> None:
        if self.active:
            self.pid = os.getpid()
            self.spans = []
            self.stack = []
            self._base = 0

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.tree, 0.0, {}, {}]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf()
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]][CHILD_S] += rec[END] - rec[START]
        else:
            self._flush()

    def _new_tree(self) -> None:
        self.trees += 1
        self.tree = f"{self.pid}:{self.trees}"

    def span(self, name, fn, new_tree=False, info=None):
        def wrapper(*args, **kwargs):
            if new_tree:
                self._new_tree()
            rec = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    rec[INFO] = info(args, result)
            finally:
                self._close(rec)
            return result

        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            dt = perf() - t0
            if self.stack:
                rec = self.spans[self.stack[-1]]
                rec[CHILD_S] += dt
                tally = rec[COUNTS].get(name)
                if tally is None:
                    rec[COUNTS][name] = [1, dt]
                else:
                    tally[0] += 1
                    tally[1] += dt
            return result

        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public entry points the benchmark reports on."""
        sim = p_gridworld.PlanningSimulator
        for method in SIM_METHODS:
            self._patch(sim, method, self.counter(f"gridworld.{method}", getattr(sim, method)))
        self._patch(SearchTree, "add_child", self.counter("tree.add_child", SearchTree.add_child))
        self._patch(SearchTree, "backpropagate", self.counter("tree.backpropagate", SearchTree.backpropagate))
        self._patch(SearchTree, "to_text", self.span(
            "tree.to_text", SearchTree.to_text, info=lambda a, r: {"bytes": len(r)}))
        self._patch(SearchTree, "from_text", classmethod(self.span(
            "tree.from_text", SearchTree.__dict__["from_text"].__func__, new_tree=True,
            info=lambda a, r: {"nodes": len(r)})))

        planner_info = lambda a, r: {"pops": r.pops, "plans": len(r)}  # noqa: E731
        planner_name = lambda a: "extraction." + extraction_kind(a[1])  # noqa: E731
        for module in (p_experiment, p_extraction):
            self._patch(module, "extract_plans", self.span(planner_name, module.extract_plans, info=planner_info))
            self._patch(module, "materialize_plan", self.counter("metrics.materialize_plan", module.materialize_plan))
        self._patch(p_extraction, "min_pairwise_diversity",
                    self.counter("metrics.min_pairwise_diversity", p_extraction.min_pairwise_diversity))
        self._patch(p_experiment, "run_random_baseline", self.span(
            "extraction.random", p_experiment.run_random_baseline, info=planner_info))
        self._patch(p_experiment, "execute_plan", self.span("gridworld.execute_plan", p_experiment.execute_plan))
        self._patch(p_gridworld, "execute_plan", self.span("gridworld.execute_plan", p_gridworld.execute_plan))

        search_info = lambda a, r: {"nodes": len(r), "iterations": a[1].iterations}  # noqa: E731
        self._patch(p_experiment, "run_search", self.span(
            "mcts.run_search", p_experiment.run_search, new_tree=True, info=search_info))
        self._patch(p_mcts, "rollout", self.span("mcts.rollout", p_mcts.rollout))
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.active = False

    # -- output ----------------------------------------------------------

    def _flush(self) -> None:
        # Called with no span open, so every parent index is in this batch.
        base = self._base
        with open(self.part_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as out:
            for idx, rec in enumerate(self.spans):
                out.write(json.dumps({
                    "pid": self.pid, "id": base + idx, "parent": base + rec[PARENT] if rec[PARENT] >= 0 else -1,
                    "name": rec[NAME], "start": rec[START], "end": rec[END], "tree": rec[TREE],
                    "child_s": rec[CHILD_S], "counts": rec[COUNTS], "info": rec[INFO],
                }) + "\n")
        self._base += len(self.spans)
        self.spans.clear()

    def finish(self, out_path: Path) -> Path:
        """Merge every process's span file into ``out_path``."""
        self.uninstall()
        with open(out_path, "w", encoding="utf-8") as out:
            for part in sorted(self.part_dir.glob("spans-*.jsonl")):
                with open(part, encoding="utf-8") as lines:
                    for line in lines:
                        out.write(line)
                part.unlink()
        return out_path


def layer_metrics(span_file: Path, ops: int) -> dict[str, float]:
    """Per-layer totals from a span file, divided by the operations traced."""
    span_n: dict[str, int] = defaultdict(int)
    span_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    count_n: dict[str, int] = defaultdict(int)
    count_s: dict[str, float] = defaultdict(float)
    under: dict[tuple[str, str], int] = defaultdict(int)
    info: dict[str, float] = defaultdict(float)
    # run_search's children summed by name, apart from child_s, so the
    # self-time bookkeeping is checked against the span total.
    searches: set[tuple[int, int]] = set()
    search_children = 0.0
    with open(span_file, encoding="utf-8") as lines:
        for line in lines:
            r = json.loads(line)
            name, dur = r["name"], r["end"] - r["start"]
            span_n[name] += 1
            span_s[name] += dur
            self_s[name] += dur - r["child_s"]
            for key, value in r["info"].items():
                info[f"{name}.{key}"] += value
            for cname, (n, s) in r["counts"].items():
                count_n[cname] += n
                count_s[cname] += s
                under[(name, cname)] += n
            if name == "mcts.run_search":
                searches.add((r["pid"], r["id"]))
                search_children += sum(s for _, s in r["counts"].values())
            elif (r["pid"], r["parent"]) in searches:
                search_children += dur

    per = 1.0 / max(ops, 1)
    expansions = info["mcts.run_search.nodes"] - span_n["mcts.run_search"]
    iterations = under[("mcts.run_search", "tree.backpropagate")]
    trees = span_n["mcts.run_search"] + span_n["tree.from_text"]
    search_s = span_s["mcts.run_search"]
    m = {
        "trace.ops": float(ops),
        "mcts.run_search.calls": span_n["mcts.run_search"] * per,
        "mcts.run_search.s": search_s * per,
        "mcts.selection.self_s": self_s["mcts.run_search"] * per,
        "mcts.run_search.accounted_frac": (self_s["mcts.run_search"] + search_children) / search_s if search_s else 0.0,
        "mcts.selection.steps": (under[("mcts.run_search", "gridworld.step")] - expansions) * per,
        "mcts.rollout.calls": span_n["mcts.rollout"] * per,
        "mcts.rollout.s": span_s["mcts.rollout"] * per,
        "mcts.rollout.steps": under[("mcts.rollout", "gridworld.step")] * per,
        "mcts.iterations": iterations * per,
        "mcts.expansions": expansions * per,
        "mcts.expansion_ratio": expansions / iterations if iterations else 0.0,
        "tree.nodes": (info["mcts.run_search.nodes"] + info["tree.from_text.nodes"]) / trees if trees else 0.0,
        "tree.from_text.s": span_s["tree.from_text"] * per,
        "tree.to_text.s": span_s["tree.to_text"] * per,
        "tree.bytes": info["tree.to_text.bytes"] / span_n["tree.to_text"] if span_n["tree.to_text"] else 0.0,
        "gridworld.execute_plan.calls": span_n["gridworld.execute_plan"] * per,
        "gridworld.execute_plan.s": span_s["gridworld.execute_plan"] * per,
    }
    for method in ("step", "legal_actions", "default_action", "state_key"):
        m[f"gridworld.{method}.calls"] = count_n[f"gridworld.{method}"] * per
        m[f"gridworld.{method}.s"] = count_s[f"gridworld.{method}"] * per
    for name in ("tree.backpropagate", "tree.add_child", "metrics.materialize_plan",
                 "metrics.min_pairwise_diversity"):
        m[f"{name}.calls"] = count_n[name] * per
        m[f"{name}.s"] = count_s[name] * per
    for kind in ("single", "top_k", "top_quality", "diverse", "random"):
        name = f"extraction.{kind}"
        pops, plans = info[f"{name}.pops"], info[f"{name}.plans"]
        m[f"{name}.calls"] = span_n[name] * per
        m[f"{name}.s"] = span_s[name] * per
        m[f"{name}.plans"] = plans * per
        if kind != "random":  # the random baseline pops no queue
            m[f"{name}.pops"] = pops * per
            m[f"{name}.pops_per_plan"] = pops / plans if plans else 0.0
    return m
