#!/usr/bin/env python3
"""A/B pairs of the benchmark between two checkouts, and the claim rule on them.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seconds S --seed0 K

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

Exits 1 if a run is not ``correct`` or does not finish.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

WIN_SHARE = 0.9   # share of pairs the change must win for a claim


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one ``perfbench/run.py --trace 0`` in ``checkout``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: perfbench/run.py exited {proc.returncode} in {checkout}")
    return json.loads(lines[-1])


def summarize(pairs: list, better: dict, bounds: dict) -> dict:
    """{metric: summary} of pairs [(parent, change), ...] of {metric: value}.

    A summary holds each side's (q1, median, q3), the change's ``wins`` out of
    ``pairs``, ``claim``: True when it wins at least WIN_SHARE of the pairs
    and its median beats the parent's by more than the parent's quartile
    distance, and ``verdict``: "worse", "unresolved" or "ok" as the module
    docstring defines them.  ``better[metric]`` is "lower" or "higher", and
    ``bounds[metric]`` the relative bound of the verdict.
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
                     "claim": wins >= WIN_SHARE * len(pairs) and gap > pa[2] - pa[0],
                     "verdict": verdict}
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
    args = parser.parse_args()
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    pairs, correct = [], True
    for p in range(args.pairs):
        seed = args.seed0 + p
        sides = [args.parent, args.change][:: 1 if p % 2 == 0 else -1]
        runs = {side: run_bench(side, args.workload, seed, args.seconds) for side in sides}
        correct &= all(run["correct"] for run in runs.values())
        parent, change = ({name: m["value"] for name, m in runs[side]["metrics"].items()}
                          for side in (args.parent, args.change))
        pairs.append((parent, change))
        print(f"pair {p + 1} seed {seed}{'*' if p % 2 else ''}: " + ", ".join(
            f"{name} {parent[name]:.4g}/{change[name]:.4g}" for name in better), flush=True)

    print(f"\n{'metric':<14} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
          f"{'wins':<7} {'claim':<6} verdict")
    for name, s in summarize(pairs, better, bounds).items():
        (a1, a2, a3), (b1, b2, b3) = s["parent"], s["change"]
        print(f"{name:<14} {f'{a2:.4g} [{a1:.4g}, {a3:.4g}]':<30} "
              f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':<30} {s['wins']}/{s['pairs']:<5} "
              f"{'holds' if s['claim'] else 'no':<6} {s['verdict']}")
    if not correct:
        print("error: a run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
