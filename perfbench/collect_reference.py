"""Merge checked operation values from result records into ``reference.json``.

Run at a commit whose outputs are to serve as the reference, after
benchmark runs have written ``perfbench/results/*.json``::

    python3 perfbench/collect_reference.py

Only operations that passed their checks contribute.  An entry already in
``reference.json`` is kept, so re-running never replaces an older reference.
"""

import glob
import json
import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(BENCH_DIR, "reference.json")


def main() -> None:
    reference = {}
    if os.path.isfile(PATH):
        with open(PATH, encoding="utf-8") as handle:
            reference = json.load(handle)
    added = 0
    for name in sorted(glob.glob(os.path.join(BENCH_DIR, "results", "*.json"))):
        with open(name, encoding="utf-8") as handle:
            record = json.load(handle)
        for op in record["operations"]:
            if op["ok"] and op["values"] and op["key"] not in reference:
                reference[op["key"]] = op["values"]
                added += 1
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{added} entries added, {len(reference)} in {os.path.relpath(PATH)}")


if __name__ == "__main__":
    main()
