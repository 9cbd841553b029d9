"""Run the benchmark over several seeds and summarise how steady it is.

    python3 perfbench/repeat.py --workloads sweep,replan --seeds 1-10 \\
        --out perfbench-runs.json [--trace] [--compare earlier.json]

Runs ``run.py`` once per (workload, seed), one at a time, with
``run_seconds`` from ``BENCHMARK.json``, and adds the results to ``--out``
under the workload's name (``<workload>:trace`` with ``--trace``).  For every metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the interquartile distance as a share of the median, next to the
metric's bound.  With ``--compare`` it also prints how far each median moved
from an earlier summary, as a share of the earlier median, and how many
output hashes match it seed for seed.  The summary keeps each run's output
hash and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    details = json.loads(next(line for line in lines if line.startswith("details "))[len("details "):])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "output_hash": details["output_hash"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "samples": details["samples"], "machine": details["machine"]}


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name)}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--compare")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    out = Path(args.out)
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    for workload in args.workloads.split(","):
        key = workload + (":trace" if args.trace else "")
        runs = [one_run(workload, seed, spec["run_seconds"], args.trace) for seed in seeds_from(args.seeds)]
        summary = summarise(runs, bounds)
        report[key] = {"runs": runs, "summary": summary}
        print(f"== {key}: {len(runs)} runs, failed {sum(r['failed'] for r in runs)}")
        old_hashes = {r["seed"]: r["output_hash"] for r in earlier.get(key, {}).get("runs", [])}
        same = [old_hashes[r["seed"]] == r["output_hash"] for r in runs if r["seed"] in old_hashes]
        if same:
            print(f"  output hashes equal to the earlier set's: {sum(same)}/{len(same)}")
        for name, s in summary.items():
            line = f"  {name:<36} median {s['median']:<12.6g} spread {s['spread']:7.4f}"
            if s["bound"]:
                line += f"  bound {s['bound']:.2f}  spread/bound {s['spread'] / s['bound']:.2f}"
            old = earlier.get(key, {}).get("summary", {}).get(name)
            if old and old["median"]:
                line += f"  moved {(s['median'] - old['median']) / old['median']:+.4f}"
            print(line, flush=True)
        out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
