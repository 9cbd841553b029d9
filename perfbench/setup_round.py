"""One set-up round, in a fresh interpreter: import planset, build the inputs.

    python3 setup_round.py <workload> <seed> <round> <size> <out.json>

For ``replan`` the inputs are this round's pool trees, searched and
serialized; their text goes to ``out.json``.  For the sweeps a round runs
the first instance of chunk ``round`` of the slice on its own, so it measures a cold start
through the first finished instance.  The caller times the whole process,
interpreter start-up included, because a user pays all of it before the
first result.  Timing the import alone would measure mostly interpreter and
numpy start-up, which drifts by a third between sets of runs on a shared host.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports planset)


def main(workload: str, seed: str, round_: str, size: str, out: str) -> None:
    scale = workloads.SCALES[size]
    texts = []
    if workload == "replan":
        texts = workloads.build_pool_round(int(seed), int(round_), scale)
    else:
        chunk = int(round_) % workloads.sweep_chunks(scale)
        config = workloads.sweep_config(workload, int(seed), scale, Path(out).with_suffix(".csv"), chunk)
        workloads.p_experiment.run_experiment(replace(config, risk_levels=config.risk_levels[:1], workers=1))
    Path(out).write_text(json.dumps(texts), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
