"""planset benchmark: desk sweeps and tree re-planning, end to end and per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; planset is imported from ``src/`` there and
nowhere else.  Workloads (see ``BENCHMARK.json`` for why each exists):

  sweep          a 20-instance desk slice through run_experiment, in chunks
                 of four risk levels, workers=1
  sweep_par      the same chunks and seed, workers=2 (the fork pool)
  replan         load stored desk trees and re-apply an 8-bound grid

Timings are in reference seconds: each operation's time is scaled by how
fast a fixed reference computation ran just before and just after it (see
``workloads.py``), so the host's speed swings cancel out.

``--trace 0`` measures with the program untouched and prints the end-to-end
metrics.  ``--trace 1`` runs each operation twice, first untraced and then
with the tracer's wrappers installed, and prints the per-layer metrics plus
the tracing overhead between the pairs.  Metric names, units and
directions are read from ``BENCHMARK.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Earlier lines give every metric's sample count and base
counts, and a ``details`` JSON line with the output hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HASH_STORE = OUT / "hashes.json"
WORKLOADS = ("sweep", "sweep_par", "replan")
TAIL_SAMPLES = 10  # a reported percentile needs this many samples beyond it


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import planset from this checkout's ``src/``, and the benchmark modules."""
    sys.path.insert(0, str(SRC))
    try:
        import planset
    except ImportError as exc:
        raise BenchError(f"cannot import planset from {SRC}: {exc}") from exc
    if not Path(planset.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"planset imported from {planset.__file__}, not from {SRC}")
    import tracer
    import workloads

    return workloads, tracer


def source_fingerprint() -> str:
    """Hash of the program and of the benchmark's input definitions: outputs
    are only compared between runs that agree on both."""
    digest = hashlib.sha256()
    for path in [*sorted(SRC.rglob("*.py")), Path(__file__).with_name("workloads.py")]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__}


# -- statistics ------------------------------------------------------------------


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(values: list[float]) -> int:
    """Highest whole percentile with at least TAIL_SAMPLES samples above it (0 if none)."""
    for p in range(99, 49, -1):
        cut = percentile(values, p)
        if sum(v > cut for v in values) >= TAIL_SAMPLES:
            return p
    return 0


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


# -- set-up ------------------------------------------------------------------------


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def set_up(workload: str, seed: int, size: str, scale, work: Path, wl) -> tuple[float, list[str]]:
    """Median seconds of the set-up rounds, and the pool texts they built.

    Each round is a fresh interpreter, timed by the CPU time it used (user
    plus system) and scaled to reference seconds like every operation."""
    rounds = scale.pool_rounds if workload == "replan" else scale.sweep_setup_rounds
    host = wl.HostSpeed()
    times, texts = [], []
    for round_ in range(rounds):
        out = work / f"setup-{round_}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("setup_round.py")),
               workload, str(seed), str(round_), size, str(out)]
        done, elapsed, ref = host.timed(
            lambda: subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150),
            children_cpu_s)
        times.append(elapsed * ref)
        if done.returncode != 0:
            raise BenchError(f"set-up round {round_} failed:\n{done.stderr}")
        texts += json.loads(out.read_text(encoding="utf-8"))
    return statistics.median(times), texts


# -- workloads ---------------------------------------------------------------------


def check_hash_store(key: str, phase) -> None:
    """Compare this run's output hashes with earlier runs of the same code and
    inputs in this checkout (other repeats, and sweep vs sweep_par)."""
    store = json.loads(HASH_STORE.read_text(encoding="utf-8")) if HASH_STORE.exists() else {}
    seen = store.setdefault(key, {})
    bad = [k for k, h in phase.hashes.items() if seen.setdefault(k, h) != h]
    if bad:
        phase.fail(len(bad), f"outputs {sorted(bad)[:5]} differ from an earlier run at this seed")
    tmp = HASH_STORE.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, HASH_STORE)


def prepare(workload: str, seed: int, size: str, scale, work: Path, wl):
    """Set up, then return (setup_s, op, calls per pass, pool, hash key, workers)."""
    setup_s, texts = set_up(workload, seed, size, scale, work, wl)
    fingerprint = source_fingerprint()
    if workload in wl.SWEEPS:
        policy, workers = wl.SWEEPS[workload]
        op = wl.sweep_op(workload, seed, scale, work / "sweep.csv")
        # sweep and sweep_par share the key: their outputs must be the same.
        key = f"{fingerprint}:{size}:{policy.value}:{seed}"
        return setup_s, op, wl.sweep_chunks(scale), [], key, workers
    pool = []
    for round_ in range(scale.pool_rounds):
        for kind in range(len(wl.POOL_KINDS)):
            pool.append(wl.pool_member(seed, round_, kind, scale)[0])
    pool = list(zip(texts, pool))
    return setup_s, wl.replan_op(pool, seed), len(pool), pool, f"{fingerprint}:{size}:replan:{seed}", 1


def oracle_checks(pool, wl) -> tuple[int, list[str]]:
    problems = []
    for slot, (text, _) in enumerate(pool):
        try:
            found = wl.check_top_k(text)
        except Exception as exc:  # a tree the oracle cannot read is a failure too
            found = [repr(exc)]
        if found:
            problems.append(f"pool tree {slot}: {found[0]}")
    return len(problems), problems


def timing_stats(phase) -> dict[str, float]:
    """Per-instance (median over passes) and per-extraction (every pass) times."""
    typical, extract_ms = phase.typical_s(), [s * 1000.0 for s in phase.extract_s]
    return {
        "instance_s_p50": statistics.median(typical),
        "instance_s_p90": percentile(typical, 90),
        "extract_ms_p50": statistics.median(extract_ms),
        "extract_ms_p99": percentile(extract_ms, 99),
    }


def end_to_end(setup_s: float, phase, per_pass: int) -> tuple[dict[str, float], dict]:
    ops = phase.op_s
    if not ops:
        raise BenchError(f"no operation completed: {phase.problems[:3]}")
    stats = timing_stats(phase)
    metrics = {
        "setup_s": setup_s,
        "instances_per_s": phase.instances_per_s(per_pass),
        "instance_s_p50": stats["instance_s_p50"],
        "peak_rss_mb": peak_rss_mb(),
    }
    typical = phase.typical_s()
    samples = {
        "instances": len(typical), "instance_times": len(ops), "passes": len(ops) / len(typical),
        "instance_tail_percentile": tail_percentile(typical),
        "extractions": len(phase.extract_s), "extract_tail_percentile": tail_percentile(phase.extract_s),
        "timed_ref_s": phase.timed_s, "timed_s": phase.raw_s, "ungated": stats,
    }
    return metrics, samples


def per_layer(plain, traced, span_file: Path, workers: int, tr) -> tuple[dict[str, float], dict]:
    layers = tr.layer_metrics(span_file, len(traced.op_s))
    # Overhead over the operations both sides ran (the same inputs, in order).
    common = min(len(plain.op_s), len(traced.op_s))
    untraced_s, traced_s = sum(plain.op_s[:common]), sum(traced.op_s[:common])
    layers["trace.overhead"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    # Timings whose spread between seeds is too wide to gate (see README).
    layers.update(timing_stats(plain))
    busy = sum(plain.op_s)
    layers["experiment.busy_s"] = busy
    layers["experiment.wall_s"] = plain.timed_s
    layers["experiment.pool_utilization"] = busy / (plain.timed_s * workers) if plain.timed_s else 0.0
    base = plain.success_base
    layers["success_rate.instances"] = float(base)
    for planner in ("single", "diverse"):
        layers[f"success_rate.{planner}"] = plain.successes[planner] / base if base else 0.0
    bases = {"overhead_ops": common, "untraced_s": untraced_s, "traced_s": traced_s,
             "successes": dict(plain.successes), "workers": workers}
    return layers, bases


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    wl, tr = import_program()
    scale = wl.SCALES[size]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        setup_s, op, per_pass, pool, key, workers = prepare(workload, seed, size, scale, work, wl)
        oracle_failed, problems = oracle_checks(pool, wl)
        min_steps = scale.passes * per_pass
        if not trace:
            phases = [wl.Phase()]
            wl.run_for(seconds, lambda index: op(phases[0], index), min_steps)
            metrics, samples = end_to_end(setup_s, phases[0], per_pass)
        else:
            # Each operation runs untraced, then traced on the same inputs
            # right after, so host speed drifts cancel out of the overhead.
            plain, traced = phases = [wl.Phase(), wl.Phase()]
            tracer = tr.Tracer(work)

            def paired(index: int) -> None:
                op(plain, index)
                tracer.install()
                try:
                    op(traced, index)
                finally:
                    tracer.uninstall()

            wl.run_for(seconds, paired, min_steps)
            span_file = tracer.finish(OUT / f"trace-{workload}.jsonl")
            metrics, samples = per_layer(plain, traced, span_file, workers, tr)
        for phase in phases[1:]:
            bad = [k for k, h in phase.hashes.items() if phases[0].hashes.get(k, h) != h]
            if bad:
                phase.fail(len(bad), f"traced outputs {bad[:5]} differ from untraced ones")
        if pool:
            phases[0].record_hash("pool", hashlib.sha256("".join(t for t, _ in pool).encode()).hexdigest())
        check_hash_store(key, phases[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p.attempted for p in phases) + len(pool)
    failed = sum(p.failed for p in phases) + oracle_failed
    if trace:
        metrics["failed_frac"] = failed / attempted
    problems += [msg for p in phases for msg in p.problems]
    # Every run covers all its inputs, so these hashes compare across runs,
    # sets and workloads.
    first = phases[0].hashes
    details = {
        "workload": workload, "seed": seed, "size": size, "trace": int(trace),
        "source": key.split(":")[0], "hashes": first,
        "output_hash": hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest(),
        "problems": problems[:20], "machine": machine(),
        "samples": samples,
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
            "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("desk", "tiny"), default="desk",
                        help="input size; tiny exists for the smoke test")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 2
    details = result.pop("details")
    samples = details["samples"]
    for m in wanted:
        print(f"{m['name']:<40} {result['metrics'][m['name']]:>14.6g} {m['unit']}")
    print(f"samples and bases: {json.dumps(samples)}")
    print(f"attempted {result['attempted']}, failed {result['failed']}: {details['problems'][:3]}")
    print("details " + json.dumps(details, sort_keys=True))
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
