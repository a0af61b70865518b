"""Print per-metric deltas between two records of ``BENCH_perfbench.json``.

    python benchmarks/bench_delta.py                # the last two records
    python benchmarks/bench_delta.py OLD_ID NEW_ID  # any two, by id
    python benchmarks/bench_delta.py ID             # one record: parent -> change

Each record holds, per perfbench workload, the parent's and the change's
median (and quartiles, where recorded) of every metric it measured.  Two
records are compared on their change sides; one record on its own parent
and change.  Metrics and workloads that only one side measured are
skipped.  An unknown id, or more than two, prints the known ids and
exits 2.
"""

import json
import sys
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_perfbench.json"


def medians(record, side):
    """``{(workload, metric): median}`` of one side of a record."""
    found = {}
    for workload, data in record["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric, sides in data.get(section, {}).items():
                median = (sides.get(side) or {}).get("median")
                if median is not None:
                    found[(workload, metric)] = median
    return found


def main(argv):
    records = json.loads(TRAJECTORY.read_text())["records"]
    by_id = {record["id"]: record for record in records}
    unknown = [i for i in argv if i not in by_id]
    if len(argv) > 2 or unknown:
        if unknown:
            print(f"unknown record id: {', '.join(unknown)}",
                  file=sys.stderr)
        print("usage: bench_delta.py [ID | OLD_ID NEW_ID]\n"
              f"known ids: {', '.join(by_id)}", file=sys.stderr)
        return 2
    if len(argv) == 1:
        old = new = by_id[argv[0]]
        old_side = "parent"
    else:
        old, new = [by_id[i] for i in argv] if argv else records[-2:]
        old_side = "change"
    before, after = medians(old, old_side), medians(new, "change")
    print(f"{old['id']} ({old_side}) -> {new['id']} (change)")
    for workload, metric in sorted(before.keys() & after.keys()):
        a, b = before[(workload, metric)], after[(workload, metric)]
        delta = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"{workload:<10} {metric:<36} {a:>10.4g} {b:>10.4g} {delta:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
