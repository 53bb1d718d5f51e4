"""Summarize saved benchmark runs into one trajectory point.

    python3 perfbench/summarize.py --label <commit> run1.txt run2.txt ... > BENCH.json

Each file holds the stdout of one ``run.py`` call.  The summary gives, per
workload and metric, the median and quartiles over runs, the run count and
the seeds, together with the machine the runs recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def summarize(paths: list[str], label: str) -> dict:
    runs = {}
    machine = None
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        machine = machine or info["machine"]
        key = (info["workload"], "per_layer" if "trace.round_s"
               in result["metrics"] else "end_to_end")
        runs.setdefault(key, []).append((info, result))
    workloads = {}
    for (name, kind), items in sorted(runs.items()):
        entry = workloads.setdefault(name, {
            "work_per_round": items[0][0]["work_per_round"],
            "commands_per_round": items[0][0]["commands_per_round"]})
        values = {}
        for _, result in items:
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        summary = {}
        for metric, vs in values.items():
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else vs * 3
            summary[metric] = {"median": statistics.median(vs), "q1": q[0],
                               "q3": q[2], "runs": len(vs)}
        entry[kind] = {
            "seeds": [info["seed"] for info, _ in items],
            "rounds": [info["rounds"] for info, _ in items],
            "attempted": sum(r["attempted"] for _, r in items),
            "failed": sum(r["failed"] for _, r in items),
            "correct": all(r["correct"] for _, r in items),
            "metrics": summary}
    return {"label": label, "machine": machine, "workloads": workloads}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="commit or change the runs measured")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()
    json.dump(summarize(args.files, args.label), sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
