#!/usr/bin/env python3
"""Compare two sets of HEPEX benchmark results: a parent and a change.

    python3 hepbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one `.log` file per run: the standard output of
`python3 hepbench/run.py --workload W --seed N --seconds S --trace T`
(for example `advise-seed3.log`). A log of `--workload all` is split into
one run per workload; its peak_rss_mb counts only for the first workload,
since the process's peak carries over to the ones after it. Runs are
paired across the two sets by (workload, seed, trace). Make the runs in
pairs, alternating which side runs first: two sets run one after the
other also measure the machine's drift between them. For every metric and
workload the tool prints both sides' median and quartiles, the share of
pairs the change won, and a verdict:

  improved    the change won at least 9/10 of the pairs (ties count for
              neither side), at least ten pairs ran, and the medians differ
              by more than the parent's own spread (its interquartile range);
  worse       the change's median is worse than the parent's by more than
              the metric's bound from BENCHMARK.json;
  unresolved  the parent's spread is wider than the bound and not every
              change run beats every parent run;
  unchanged   otherwise.

Per-layer metrics have no bound; they get `improved`, `changed` or `-`.
It also lists every (workload, seed) whose results digest differs between
the sets and every run with a failed output check. The exit status is 1
when any end-to-end verdict is `worse`, a digest differs, a check failed,
or no metric was found on both sides; 0 otherwise.
"""

import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def split_log(path):
    """The runs of one log, {(workload, seed, trace): run}.

    A log of `--workload all` holds one section per workload, each opened
    by its `workload X:` header, and one result line whose metric names
    carry an `X.` prefix. Peak RSS is the process's, so in such a log it
    is the peak of every workload run so far; only the first workload's
    is kept.
    """
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    header = re.compile(r"workload (\S+): seed (\d+),.* trace (\d)")
    heads = [m for m in map(header.match, lines) if m]
    if not heads or not lines[-1].startswith("{"):
        return None
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    runs = {}
    for i, head in enumerate(heads):
        w = head.group(1)
        digest = next((l.split()[-1] for l in lines
                       if l.split()[:2] == ["digest", w]), None)
        failed = next((int(l.split()[-1]) for l in lines
                       if l.split()[:2] == [w, "ops_failed"]), None)
        if len(heads) == 1:
            mine = metrics
        else:
            mine = {k[len(w) + 1:]: v for k, v in metrics.items()
                    if k.startswith(w + ".")}
            if i > 0:
                mine.pop("peak_rss_mb", None)
        if digest is None or failed is None or not mine:
            return None
        runs[(w, int(head.group(2)), int(head.group(3)))] = {
            "digest": digest, "failed": failed, "metrics": mine}
    return runs


def load_runs(directory):
    """{(workload, seed, trace): {"digest", "failed", "metrics"}}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.log"))):
        found = split_log(path)
        if found is None:
            print(f"skipping {path}: not a benchmark run", file=sys.stderr)
            continue
        for key in found.keys() & runs.keys():
            print(f"{path}: {key[0]} seed {key[1]} trace {key[2]} ran "
                  "twice; keeping this one", file=sys.stderr)
        runs.update(found)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, pairs, better, bound):
    """The comparison rule; `pairs` holds (parent, change) values."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = p_q3 - p_q1
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (c_med - p_med) > spread):
        return "improved", wins
    if bound is None:
        return ("changed" if abs(c_med - p_med) > spread else "-"), wins
    if p_med != 0 and sign * (c_med - p_med) / abs(p_med) < -bound:
        return "worse", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_med != 0 and spread / abs(p_med) > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    parent, change = load_runs(sys.argv[1]), load_runs(sys.argv[2])

    bad = False
    rows = 0
    print(f"{'workload':9} {'metric':38} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>6}  verdict")
    workloads = sorted({k[0] for k in parent} | {k[0] for k in change})
    for trace, metrics in ((0, e2e), (1, layer)):
        for w in workloads:
            for name, m in metrics.items():
                p_runs = {k: r for k, r in parent.items()
                          if k[0] == w and k[2] == trace}
                c_runs = {k: r for k, r in change.items()
                          if k[0] == w and k[2] == trace}
                pv = [r["metrics"][name] for r in p_runs.values()
                      if name in r["metrics"]]
                cv = [r["metrics"][name] for r in c_runs.values()
                      if name in r["metrics"]]
                if not pv or not cv:
                    continue
                pairs = [(p_runs[k]["metrics"][name], c_runs[k]["metrics"][name])
                         for k in sorted(p_runs.keys() & c_runs.keys())]
                v, wins = verdict(pv, cv, pairs, m["better"], m.get("bound"))
                rows += 1
                bad = bad or v == "worse"
                fmt = lambda xs: "/".join(f"{x:.4g}" for x in quartiles(xs))
                print(f"{w:9} {name:38} {fmt(pv):>32} {fmt(cv):>32} "
                      f"{wins:>2}/{len(pairs):<3}  {v}")

    for key in sorted(parent.keys() & change.keys()):
        if parent[key]["digest"] != change[key]["digest"]:
            bad = True
            print(f"digest mismatch: {key[0]} seed {key[1]} trace {key[2]}: "
                  f"{parent[key]['digest']} vs {change[key]['digest']}")
    for side, runs in (("parent", parent), ("change", change)):
        for key, r in sorted(runs.items()):
            if r["failed"]:
                bad = True
                print(f"failed checks: {side} {key[0]} seed {key[1]}: "
                      f"{r['failed']}")
    if rows == 0:
        print("no metric was found on both sides", file=sys.stderr)
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
