#!/usr/bin/env python3
"""Run-to-run spread of every workload x end-to-end metric of a result set.

usage: spread.py SET.json [SET.json ...]

Per set: the interquartile range / median (statistics.quantiles, n=4) of the
untraced runs' values, as reported and as the median alone would have reduced
the same step samples (`by_median` in each run's info), then the worst of
each column per metric.
"""
import json
import statistics
import sys
from collections import defaultdict


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


for path in sys.argv[1:]:
    reported = defaultdict(lambda: defaultdict(list))
    by_median = defaultdict(lambda: defaultdict(list))
    last = {}
    for run in json.load(open(path))["runs"]:
        info = run["info"]
        if not info["trace"]:
            last[info["workload"], info["seed"]] = run  # a re-run replaces a flagged run
    for (workload, _), run in last.items():
        for name, metric in run["result"]["metrics"].items():
            reported[workload][name].append(metric["value"])
            by_median[workload][name].append(run["info"]["by_median"].get(name, metric["value"]))
    print(path)
    worst = defaultdict(lambda: [0.0, 0.0])
    for workload, metrics in reported.items():
        print(f"  {workload} (n={len(next(iter(metrics.values())))})")
        for name, values in metrics.items():
            pair = (spread(values), spread(by_median[workload][name]))
            worst[name] = [max(a, b) for a, b in zip(worst[name], pair)]
            print(f"    {name:<26} median {statistics.median(values):>12.5g}"
                  f"  spread {100 * pair[0]:5.1f} %   by median {100 * pair[1]:5.1f} %")
    print("  worst over the workloads")
    for name, pair in worst.items():
        print(f"    {name:<26} spread {100 * pair[0]:5.1f} %   by median {100 * pair[1]:5.1f} %")
