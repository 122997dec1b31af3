"""Benchmark a change against its parent in alternating pairs of perfbench runs.

    python3 tools/pairs.py PARENT CHANGE --out BENCH_N.json --claim series:wall_ref_s

PARENT and CHANGE are two checkouts of the repository (for instance two
``git worktree``s), each with its own ``perfbench/run.py`` and ``src/``.
The benchmark's command, run length, workloads and end-to-end metrics come
from CHANGE's ``BENCHMARK.json``.  For ten seeds and every workload the
script runs the command with ``--trace 0`` once in each tree, the parent
first at odd seeds and the change first at even ones, so that drift in the
host's speed falls on both sides alike.
The seeds are fresh: consecutive from the first hundred above every seed
that a ``BENCH_*.json`` in CHANGE records.  The output has the layout of the
committed ``BENCH_*.json`` files since ``BENCH_16``: ``pairs``, ``order``,
``seeds``, ``claimed``, ``quartiles`` and, per workload and end-to-end
metric, both sides' median and quartiles, ``change_better_pairs`` and the
``runs`` as [parent, change] pairs; the PR number, title and a change
commit not yet made are left to fill in by hand.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # a claimed gain must win nine pairs in ten


def used_seeds(tree: Path) -> set:
    """Every seed the tree's BENCH_*.json files record, in any list named seeds."""
    found: set = set()

    def walk(node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "seeds" and isinstance(value, list):
                    found.update(s for s in value if isinstance(s, int))
                else:
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
    for path in sorted(tree.glob("BENCH_*.json")):
        walk(json.loads(path.read_text()))
    return found


def fresh_seeds(used: set, pairs: int) -> list:
    """pairs consecutive seeds from the first hundred-block above every used one."""
    start = 100 * (max(used, default=0) // 100 + 1) + 1
    return list(range(start, start + pairs))


def run_order(seed: int) -> tuple:
    """The sides in running order, 0 the parent and 1 the change: the parent
    first at odd seeds, the change first at even ones."""
    return (0, 1) if seed % 2 else (1, 0)


def run_once(tree: Path, command: list, workload: str, seed: int) -> dict:
    """One benchmark run in tree: the JSON line it prints last."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def gain(parent: float, change: float, better: str) -> float:
    """How much better change is than parent, for a metric where better is
    "lower" or "higher"."""
    return parent - change if better == "lower" else change - parent


def summarize(runs: list, metrics: dict) -> dict:
    """One workload's entry from its [parent, change] run results, in seed
    order, for metrics, a dict from name to "lower" or "higher" is better."""
    out: dict = {}
    for metric, better in metrics.items():
        pairs = [[round(side["metrics"][metric]["value"], 4) for side in pair] for pair in runs]
        out[metric] = {
            "parent": spread([p for p, _ in pairs]),
            "change": spread([c for _, c in pairs]),
            "change_better_pairs": sum(gain(p, c, better) > 0 for p, c in pairs),
            "runs": pairs,
        }
    out["correct"] = all(side["correct"] for pair in runs for side in pair)
    out["failed_ops"] = {name: sum(pair[k]["failed"] for pair in runs)
                         for k, name in enumerate(("parent", "change"))}
    return out


def claim_holds(entry: dict, better: str) -> bool:
    """The change wins at least 9 pairs in 10, and its median beats the
    parent's by more than the parent's interquartile range."""
    parent = entry["parent"]
    return (10 * entry["change_better_pairs"] >= 9 * len(entry["runs"])
            and gain(parent["median"], entry["change"]["median"], better)
            > parent["q3"] - parent["q1"])


def git_head(tree: Path) -> str | None:
    """The commit checked out in tree, if tree is a git checkout."""
    if not (tree / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def machine() -> str:
    model = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return f"{os.cpu_count()}-CPU {model}"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    command = [*bench["command"], "--seconds", f"{bench['run_seconds']:g}"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = fresh_seeds(used_seeds(args.change), PAIRS)
    trees = (args.parent.resolve(), args.change.resolve())
    runs: dict = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            pair: list = [None, None]
            for side in run_order(seed):
                pair[side] = run_once(trees[side], command, workload, seed)
            runs[workload].append(pair)
            print(f"seed {seed} {workload}: " + "  ".join(
                f"{m} {pair[0]['metrics'][m]['value']:.4g} -> {pair[1]['metrics'][m]['value']:.4g}"
                for m in metrics), flush=True)
    claimed = [dict(zip(("workload", "metric"), c.split(":", 1))) for c in args.claim]
    report = {
        "backfilled": False,
        "command": " ".join(command + ["--workload W --seed S --trace 0"]),
        "pairs": PAIRS,
        "order": "parent first at odd seeds, change first at even seeds",
        "runs_format": "one [parent, change] pair per seed, in seed order",
        "machine": machine(),
        "python": platform.python_version(),
        "parent_commit": git_head(trees[0]),
        "change_commit": git_head(trees[1]),
        "seeds": seeds,
        "claimed": claimed,
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": {w: summarize(runs[w], metrics) for w in workloads},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for c in claimed:
        entry = report["workloads"][c["workload"]][c["metric"]]
        print(f"claim {c['workload']} {c['metric']}: "
              f"{'holds' if claim_holds(entry, metrics[c['metric']]) else 'not met'} "
              f"({entry['change_better_pairs']}/{len(entry['runs'])} pairs better, medians "
              f"{entry['parent']['median']} -> {entry['change']['median']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
