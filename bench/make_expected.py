"""Regenerate expected/<workload>.json: the default seed's output bytes.

    python3 bench/make_expected.py [workload ...]

Each operation runs once and must pass verify.problems before its output is
stored.  Run it only on a commit whose outputs are known good.
"""

import json
import os
import sys
import tempfile

import run  # puts the checkout's src/ on sys.path
import verify
import workloads


def main(names):
    for workload in names or workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.ROOT) as work:
            ops = workloads.build(workload, workloads.DEFAULT_SEED, work)
            loaded = workloads.load_inputs(ops)
            outputs = {}
            for op in ops:
                text, code = workloads.run_op(op, loaded)
                found = verify.problems(op, text, code)
                if found:
                    sys.exit(f"{workload} {op['id']}: {'; '.join(found)}")
                outputs[op["id"]] = text
        doc = {"seed": workloads.DEFAULT_SEED, "outputs": outputs}
        os.makedirs(verify.EXPECTED_DIR, exist_ok=True)
        with open(verify.expected_path(workload), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"wrote {os.path.relpath(verify.expected_path(workload), run.ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
