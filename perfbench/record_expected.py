"""Re-record ``expected.json``: each workload's simulated outputs at its
default seed, which every benchmark run on that seed must reproduce
exactly.

    python3 perfbench/record_expected.py [workload ...]

Only a change that is meant to alter the simulated results should need
this; a change that only speeds the simulator up must leave them as they
are.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main(names) -> int:
    os.environ.pop("REPRO_CORE", None)
    os.environ.pop("REPRO_CACHE_DIR", None)
    try:
        with open(run.EXPECTED) as fh:
            expected = json.load(fh)
    except (OSError, ValueError):
        expected = {}
    for name in names or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=HERE) as scratch:
            state = wl.setup(wl.default_seed, scratch)
            outputs = wl.outputs(state, wl.run(state))
        problems = wl.structural(outputs)
        if problems:
            print(f"{name}: not recording, output check failed: {problems}", file=sys.stderr)
            return 1
        expected[name] = {"seed": wl.default_seed, "outputs": outputs}
        print(f"{name}: recorded seed {wl.default_seed}")
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
