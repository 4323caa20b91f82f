"""Summarize untraced result records: median and quartile spread per metric.

After runs such as ``python3 perfbench/run.py --workload W --seed S
--seconds 25 --trace 0`` for several seeds, run::

    python3 perfbench/spread.py

The spread is the distance between the first and third quartile of a
metric's values over seeds, as a share of their median; the benchmark is
steady when it stays well inside the metric's bound in ``BENCHMARK.json``.
"""

import glob
import json
import os
import statistics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    values = {}
    for name in sorted(glob.glob(os.path.join(BENCH_DIR, "results", "*-trace0.json"))):
        with open(name, encoding="utf-8") as handle:
            record = json.load(handle)
        workload = record["environment"]["workload"]
        for metric, entry in record["metrics"].items():
            values.setdefault((workload, metric), []).append(entry["value"])
    for (workload, metric), vals in sorted(values.items()):
        median = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / median:.3f}"
        else:
            spread = "n/a"
        print(f"{workload:14s} {metric:12s} runs {len(vals):2d}  median {median:.4g}  "
              f"spread {spread}  bound {bounds.get(metric)}")


if __name__ == "__main__":
    main()
