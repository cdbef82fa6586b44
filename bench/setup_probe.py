"""Set-up probe: a fresh process imports suturekup and reads the inputs.

    python3 bench/setup_probe.py <src dir> <plan.json>

Prints "ready" once the first operation could be issued; run.py times
this from process start to take setup_s.
"""

import json
import sys


def main(src, plan_path):
    sys.path.insert(0, src)
    import workloads

    with open(plan_path, encoding="utf-8") as fh:
        workloads.load_inputs(json.load(fh))
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(*sys.argv[1:])
