#!/usr/bin/env python3
"""A/B pairs of the benchmark between two checkouts, and the claim rule on them.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seconds S --seed0 K [--json BENCH.json]

Pair p (p = 0..N-1) runs ``perfbench/run.py --workload W --seed K+p
--seconds S --trace 0`` once in each checkout, one after the other; the
parent goes first in even pairs and the change in odd ones, because the run
that goes second in a pair tends to read differently from the first.  Each
pair's end-to-end metrics are printed as they arrive (``*`` marks a pair whose
change ran first).  Then, for each metric, each side's median and quartiles,
the pairs the change won (better by the direction ``BENCHMARK.json`` gives it;
a tie is no win), whether a gain can be claimed: the change wins at least
9 of 10 pairs, and the medians differ in its favour by more than the
distance between the parent's quartiles, and a no-regression verdict:

- ``worse``: the change's median is worse than the parent's by more than the
  metric's relative ``bound`` in ``BENCHMARK.json``;
- ``unresolved``: otherwise, the parent's quartile distance is wider than
  the bound, and not every change run beats every parent run;
- ``ok``: neither.

Beside the end-to-end metrics the summary holds ``run_s/setup_s``, the
median over a run's reps of each rep's run time over its own set-up time.
Both are measured in the same child, so the ratio divides out most of a
host-speed mode that the whole process shares.  Set-up is import time, so
where a change moves it the ratio is not evidence: its row reads
"n/a (setup moved)" when the two ``setup_s`` medians differ by more than
the parent's quartile distance.  The row takes ``run_s``'s direction and
bound; it is evidence beside ``run_s`` and changes no bound and no claim of
the other rows.

With ``--json PATH`` the set is also kept under its workload's key in PATH,
a JSON object that may already hold other workloads: every pair's seed, its
order and each side's full ``run.py`` output (the ``#`` lines by name, such
as ``machine`` and ``samples``, and the result), the summaries and the
printed table.

Exits 1 if a run is not ``correct`` or does not finish.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

WIN_SHARE = 0.9   # share of pairs the change must win for a claim
RATIO = "run_s/setup_s"
SETUP_MOVED = "n/a (setup moved)"


def parse_run(stdout: str) -> dict:
    """A ``perfbench/run.py`` output as a dict: each ``# name: {...}`` line
    under its name, and the JSON result, the last line, under ``result``."""
    lines = stdout.strip().splitlines()
    out = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        name, _, value = line.removeprefix("# ").partition(": ")
        out[name] = json.loads(value)
    return out


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """:func:`parse_run` of one ``perfbench/run.py --trace 0`` in ``checkout``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: perfbench/run.py exited {proc.returncode} in {checkout}")
    return parse_run(proc.stdout)


def metrics_of(run: dict) -> dict:
    """{metric: value} of one :func:`parse_run` output: its end-to-end
    metrics and RATIO over the reps of its ``samples`` line."""
    values = {name: m["value"] for name, m in run["result"]["metrics"].items()}
    values[RATIO] = float(np.median([r["run_s"] / r["setup_s"] for r in run["samples"]["reps"]]))
    return values


def summarize(pairs: list, better: dict, bounds: dict) -> dict:
    """{metric: summary} of pairs [(parent, change), ...] of {metric: value}.

    A summary holds each side's (q1, median, q3), the change's ``wins`` out of
    ``pairs``, ``claim``: True when it wins at least WIN_SHARE of the pairs
    and its median beats the parent's by more than the parent's quartile
    distance, and ``verdict``: "worse", "unresolved" or "ok" as the module
    docstring defines them.  ``better[metric]`` is "lower" or "higher", and
    ``bounds[metric]`` the relative bound of the verdict.  Where ``setup_s``
    is summarized too, RATIO claims nothing and its verdict reads SETUP_MOVED
    when the ``setup_s`` medians differ by more than the parent's quartile
    distance.
    """
    out = {}
    for name, direction in better.items():
        a = np.array([p[name] for p, _ in pairs], dtype=float)
        b = np.array([c[name] for _, c in pairs], dtype=float)
        sign = 1.0 if direction == "lower" else -1.0
        wins = int(np.count_nonzero(sign * (a - b) > 0))
        pa, pb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
        gap = sign * (pa[1] - pb[1])
        allowed = bounds[name] * abs(pa[1])
        if -gap > allowed:
            verdict = "worse"
        elif pa[2] - pa[0] > allowed and not (sign * a).min() > (sign * b).max():
            verdict = "unresolved"
        else:
            verdict = "ok"
        out[name] = {"parent": tuple(pa.tolist()), "change": tuple(pb.tolist()),
                     "wins": wins, "pairs": len(pairs),
                     "claim": bool(wins >= WIN_SHARE * len(pairs) and gap > pa[2] - pa[0]),
                     "verdict": verdict}
    setup = out.get("setup_s")
    if RATIO in out and setup is not None and (
            abs(setup["parent"][1] - setup["change"][1]) > setup["parent"][2] - setup["parent"][0]):
        out[RATIO].update(claim=False, verdict=SETUP_MOVED)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="keep the pairs' outputs and the summary under the workload in PATH")
    args = parser.parse_args()
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better[RATIO], bounds[RATIO] = better["run_s"], bounds["run_s"]

    pairs, runs, correct = [], [], True
    for p in range(args.pairs):
        seed = args.seed0 + p
        sides = [args.parent, args.change][:: 1 if p % 2 == 0 else -1]
        out = {side: run_bench(side, args.workload, seed, args.seconds) for side in sides}
        correct &= all(run["result"]["correct"] for run in out.values())
        parent, change = (metrics_of(out[side]) for side in (args.parent, args.change))
        pairs.append((parent, change))
        runs.append({"seed": seed, "first": "parent" if p % 2 == 0 else "change",
                     "parent": out[args.parent], "change": out[args.change]})
        print(f"pair {p + 1} seed {seed}{'*' if p % 2 else ''}: " + ", ".join(
            f"{name} {parent[name]:.4g}/{change[name]:.4g}" for name in better), flush=True)

    summary = summarize(pairs, better, bounds)
    table = [f"{'metric':<14} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
             f"{'wins':<7} {'claim':<6} verdict"]
    for name, s in summary.items():
        (a1, a2, a3), (b1, b2, b3) = s["parent"], s["change"]
        table.append(f"{name:<14} {f'{a2:.4g} [{a1:.4g}, {a3:.4g}]':<30} "
                     f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':<30} {s['wins']}/{s['pairs']:<5} "
                     f"{'holds' if s['claim'] else 'no':<6} {s['verdict']}")
    print("\n" + "\n".join(table))
    if args.json is not None:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {}
        doc[args.workload] = {"pairs": args.pairs, "seconds": args.seconds,
                              "seed0": args.seed0, "runs": runs, "summary": summary,
                              "table": table}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    if not correct:
        print("error: a run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
