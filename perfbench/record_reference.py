"""Record the reference outputs that run.py checks each run against.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py

Every workload is set up and run once for each of the seeds 0-31 at its own
worker count, and the values run.py compares go to
``perfbench/reference.json``, floats to 12 significant digits.  Record
again only for a change to envdiag that is meant to change its outputs, and
say so in that change.
"""

from __future__ import annotations

import json
import os
import tempfile

import run

SEEDS = range(32)


def rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    return value


def main() -> int:
    run.import_program()
    import workloads

    recorded = {}
    for name, cls in workloads.WORKLOADS.items():
        os.environ[run.THREADS_ENV] = str(cls.threads)
        for seed in SEEDS:
            run.OUT_DIR.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
                workload = cls(seed, workdir)
                workload.setup()
                result = workload.run()
                problems = workload.spot_check(result.outputs) if result.outputs else ["unit failed"]
                if problems or result.failed:
                    raise SystemExit(f"{name} seed {seed}: {problems or 'failed estimates'}")
                view = rounded(workload.reference_view(result.outputs))
            recorded.setdefault(name, {})[str(seed)] = view
            print(f"recorded {name} seed {seed}", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
