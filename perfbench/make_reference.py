"""Record the exact counts that every later run must reproduce.

    python3 perfbench/make_reference.py [FIRST_SEED LAST_SEED]

Runs one traced pass of each workload per seed (seeds 0 to 31 unless
given), requires it to pass every check, and writes its exact counts (report
digests, outcome counts, steps, cycles, text bytes) to
perfbench/reference.json.  catalog-tournament ignores the seed and is
recorded once.  Rerun only when a change to the generators or the library
is meant to change these counts.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, SRC

sys.path.insert(0, str(SRC))

from spans import Tracer, pass_layers  # noqa: E402
from workloads import REFERENCE, WORKLOADS  # noqa: E402


def record(name: str, seed: int) -> dict:
    inputs = ROOT / ".perfbench" / f"reference-{name}-{seed}"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), name, str(seed), str(inputs)],
            check=True,
        )
        workload = WORKLOADS[name](ROOT, inputs)
        tracer = Tracer()
        problems, counts = workload.check(workload.traced_pass(tracer))
        more, timed = workload.check(workload.timed_pass())
        problems += more
        if any(counts[key] != value for key, value in timed.items()):
            problems.append("the timed pass differs from the traced pass")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if problems:
        raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems))
    # Floats are measurements, not counts; the run loop does not gate them.
    counts = {key: value for key, value in counts.items() if not isinstance(value, float)}
    counts["layers"] = pass_layers(tracer)[1]
    return counts


def main() -> None:
    first, last = (int(arg) for arg in sys.argv[1:3]) if len(sys.argv) > 2 else (0, 31)
    table = {"catalog-tournament": {"any": record("catalog-tournament", 0)}}
    for name in ("open-field", "league-analysis"):
        table[name] = {str(seed): record(name, seed) for seed in range(first, last + 1)}
        print(f"{name}: seeds {first}..{last} recorded")
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
