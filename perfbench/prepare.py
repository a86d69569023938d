"""Set-up step of one benchmark run, timed in a fresh interpreter.

Imports traceinv, generates the workload's inputs from the seed, writes the
input files and the operation list (ops.json) into the work directory,
and prints the elapsed seconds as JSON.  run.py starts it several times
and reports the median, scaled to reference speed, as setup_s.

    python3 perfbench/prepare.py --src SRC --workload NAME --seed N --dir DIR
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True, help="directory that holds the traceinv package")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, help="work directory for the input files")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import workloads  # imports traceinv

    ops = workloads.prepare(args.workload, args.seed, args.dir)
    with open(os.path.join(args.dir, "ops.json"), "w") as fh:
        json.dump(ops, fh, indent=1)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
