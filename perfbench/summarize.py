"""Fold the results files of many benchmark runs into one baseline entry.

    python3 perfbench/summarize.py --label NAME [--commit REV] [--append perfbench/baseline.json]

Reads .perfbench/results/*.json under the checkout and reports, per
workload and metric, the median, the quartiles and the run count, with
the machine record, whether every run passed its checks, and whether the
output digests agreed.  With --append the entry is added to the given
baseline file; otherwise it is printed.
"""

import argparse
import glob
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True, help="what the entry measures, e.g. a commit's role")
    ap.add_argument("--commit", default=None, help="git revision of the measured code")
    ap.add_argument("--results", default=os.path.join(ROOT, ".perfbench", "results"))
    ap.add_argument("--append", default=None, help="baseline file to add the entry to")
    args = ap.parse_args()

    records = []
    for path in sorted(glob.glob(os.path.join(args.results, "*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"error: no results under {args.results}")
    workloads = {}
    for r in records:
        w = workloads.setdefault(r["workload"], {"runs": 0, "seeds": set(), "failed": 0, "digests_agree": True, "values": {}})
        w["runs"] += 1
        w["seeds"].add(r["seed"])
        w["failed"] += r["failed"]
        w["digests_agree"] &= r["reproducibility"]["agree"]
        for name, m in r["metrics"].items():
            if m["value"] is not None:
                w["values"].setdefault(name, (m["unit"], []))[1].append(m["value"])
    entry = {
        "label": args.label,
        "commit": args.commit,
        "code_ids": sorted({r["code_id"] for r in records}),
        "machine": records[-1]["machine"],
        "workloads": {
            name: {
                "runs": w["runs"],
                "seeds": sorted(w["seeds"]),
                "failed": w["failed"],
                "digests_agree": w["digests_agree"],
                "metrics": {m: _stats(unit, vals) for m, (unit, vals) in sorted(w["values"].items())},
            }
            for name, w in sorted(workloads.items())
        },
    }
    if args.append:
        entries = []
        if os.path.exists(args.append):
            with open(args.append) as fh:
                entries = json.load(fh)
        entries.append(entry)
        with open(args.append, "w") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
    else:
        print(json.dumps(entry, indent=1))


def _stats(unit, values):
    out = {"unit": unit, "runs": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    return out


if __name__ == "__main__":
    main()
