#!/usr/bin/env python3
"""Run the full report pipeline for every built-in example system, and for
inline systems of order 4 and 6 and one in two space dimensions.

Writes one output directory per (system, command) pair, holding the
``config.json`` it ran and the ``report.json`` it produced, and prints a
summary table of exit codes, wall times (``time.perf_counter`` around each
CLI call) and CPU times (``time.process_time``, which counts every thread of
the process, so a BLAS pool's busy-waiting shows as ``cpu_s`` above
``wall_s``), so the whole desk-scale experiment set can be reproduced with a
single invocation.  A numpy ``RuntimeWarning`` in a CLI call is an error, as
in the test suite: the call stops there and counts as failed.  Inline
systems whose reduction or whose renormalised states overflow check that
such a run ends in exit 3:

    python scripts/run_example_reports.py --out runs/

With ``--compare DIR`` it then byte-compares every output of the run with
the file of the same path under DIR (an earlier ``--out``), lists the files
that differ or exist on one side only, and exits 1 if there are any:

    python scripts/run_example_reports.py --out runs-new/ --compare runs/

For each file that differs it also prints the largest numeric deviation,
|a - b| / max(|a|, |b|, 1e-6) as the benchmark's correctness gate measures
it, and the JSON path or CSV line where it occurs; a difference that is not
numeric (a key, a length, a string) is printed as such.
"""

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

from hyposym.cli import main as hyposym_main


def companion_system(last_row) -> dict:
    """Inline config of the 1-d system whose matrix is the companion matrix
    with the polynomials in t of ``last_row`` (lowest degree first) as last row."""
    m = len(last_row)
    rows = [[[1.0] if j == i + 1 else [0.0] for j in range(m)] for i in range(m - 1)]
    return {"m": m, "n": 1, "horizon": 1.0, "coefficients": [rows + [last_row]]}


# Eigenvalues +-2 and +-t (a double zero at t = 0): the report-m4 benchmark
# system; the m = 6 system adds the pair +-1.  Their sweeps run the band-row
# RK4 windows of m = 4 and m = 6, and their reports the energy diagnostics
# read from those windows.
INLINE_SYSTEMS = {
    "inline-m4": companion_system([[0.0, 0.0, -4.0], [0.0], [4.0, 0.0, 1.0], [0.0]]),
    "inline-m6": companion_system([[0.0, 0.0, 4.0], [0.0], [-4.0, 0.0, -5.0], [0.0],
                                   [5.0, 0.0, 1.0], [0.0]]),
    # Eigenvalues +-1, +-2 and +-3, constant in t: its solve runs the
    # constant-coefficient propagator on the 6 x 6 companion block of each mode.
    "inline-m6-const": companion_system([[36.0], [0.0], [-49.0], [0.0], [14.0], [0.0]]),
    # A symmetric 3x3 system in two space dimensions, xi_1 diag(1, 0, -1) +
    # xi_2 [[0, t, 0], [t, 0, 1], [0, 1, 0]]: every built-in is one-dimensional,
    # and this is the one grid whose directions are not the mirrored pair +-1.
    "inline-n2-m3": {"m": 3, "n": 2, "horizon": 1.0, "coefficients": [
        [[[1.0], [0.0], [0.0]], [[0.0], [0.0], [0.0]], [[0.0], [0.0], [-1.0]]],
        [[[0.0], [0.0, 1.0], [0.0]], [[0.0, 1.0], [0.0], [1.0]], [[0.0], [1.0], [0.0]]]]},
    # 1e300 xi [[0, 1], [1, 0]]: a constant symbol whose reduction overflows.
    "inline-overflow": {"m": 2, "n": 1, "horizon": 1.0,
                        "coefficients": [[[[0.0], [1e300]], [[1e300], [0.0]]]]},
    # [[0, 1], [1 + 1e160 t, 0]]: the Gram product of its sandwich constant overflows.
    "inline-1e160": {"m": 2, "n": 1, "horizon": 1.0,
                     "coefficients": [[[[0.0], [1.0]], [[1.0, 1e160], [0.0]]]]},
    # [[0, 1], [1e50, 0]]: the sweep's RK4 steps lie far past the stability
    # interval, and a state's norm overflows in one step.
    "inline-1e50": {"m": 2, "n": 1, "horizon": 1.0,
                    "coefficients": [[[[0.0], [1.0]], [[1e50], [0.0]]]]},
}

# Runs of a built-in system under a name of their own, with their own config
# entries: m2-glaeser-xi1000 puts xi = 1000 first, so its report's K sweep runs
# on a 20,002-sample trace that keeps every 20th state.
BUILTIN_VARIANTS = {"m2-glaeser-xi1000": "m2-glaeser"}

# Config entries of a system's runs beside the defaults: the n = 2 system's
# default grid has 102,912 points and a 926,208-row conditions.csv.
SYSTEM_EXTRAS = {"inline-n2-m3": {"grids": {"t_points": 41, "xi_points": 8}},
                 "m2-glaeser-xi1000": {"grids": {"xi_list": [1000.0, 10.0, 100.0]}}}

PIPELINES = {
    "m2-glaeser": ("reduce", "verify-qs", "conditions", "growth", "report", "solve"),
    "m2-glaeser-xi1000": ("report",),
    "m2-wave": ("reduce", "conditions", "solve"),
    "m2-nonhyp-control": ("growth", "conditions", "report", "solve"),
    "m3-tracezero": ("reduce", "verify-qs", "conditions", "solve"),
    "inline-m4": ("reduce", "growth", "report", "solve"),
    "inline-m6": ("reduce", "growth", "report", "solve"),
    "inline-m6-const": ("solve",),
    "inline-n2-m3": ("conditions",),
    "inline-overflow": ("growth", "solve"),
    "inline-1e160": ("conditions",),
    "inline-1e50": ("growth", "report"),
}

# Exit codes a system's runs must end in, where that is not 0 or 2.
EXPECTED_EXITS = {"inline-overflow": (3,), "inline-1e50": (3,)}

SOLVE_EXTRAS = {
    "grid_size": 1024,
    "snapshots": [0.5, 1.0],
    "initial_data": {
        "kind": "fourier_modes",
        "modes": [
            {"k": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
            {"k": 2, "amplitudes": [[0.0, -0.25], [0.0, 0.0]]},
            {"k": 3, "amplitudes": [[0.0, 0.0], [0.25, 0.0]]},
        ],
    },
}


# Solve grid sizes other than SOLVE_EXTRAS': the variable-coefficient solves
# at m >= 4, where the phase (-i)^3 of the separable right-hand side first
# appears.  Each runs in about 2 s: inline-m4's at 512 modes, inline-m6's at 256.
SOLVE_GRID_SIZES = {"inline-m4": 512, "inline-m6": 256}


def run_all(out_root: Path, seed: int) -> int:
    out_root.mkdir(parents=True, exist_ok=True)
    failures = 0
    rows = []
    for name, commands in PIPELINES.items():
        for command in commands:
            builtin = {"name": BUILTIN_VARIANTS.get(name, name)}
            doc = {"system": INLINE_SYSTEMS.get(name, builtin), "seed": seed,
                   **SYSTEM_EXTRAS.get(name, {})}
            if command == "solve":
                doc.update(SOLVE_EXTRAS,
                           grid_size=SOLVE_GRID_SIZES.get(name, SOLVE_EXTRAS["grid_size"]))
            out_dir = out_root / f"{name}--{command}"
            out_dir.mkdir(parents=True, exist_ok=True)
            cfg_path = out_dir / "config.json"
            cfg_path.write_text(json.dumps(doc))
            start, cpu_start = time.perf_counter(), time.process_time()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = hyposym_main([command, "--config", str(cfg_path),
                                         "--out", str(out_dir)])
                except RuntimeWarning as exc:
                    print(f"error: {name} {command}: RuntimeWarning: {exc}", file=sys.stderr)
                    code = "W"
            rows.append((name, command, code, time.perf_counter() - start,
                         time.process_time() - cpu_start))
            if code not in EXPECTED_EXITS.get(name, (0, 2)):
                failures += 1
    width = max(len(row[0]) for row in rows)
    print(f"\n{'system':<{width}}  {'command':<10}  exit  {'wall_s':>7}  {'cpu_s':>7}")
    for name, command, code, wall, cpu in rows:
        note = {0: "ok", 2: "property finding (see report.json)",
                3: "computation not trustworthy (see stderr)",
                "W": "numpy RuntimeWarning (see stderr)"}.get(code, "error")
        print(f"{name:<{width}}  {command:<10}  {code}     {wall:7.2f}  {cpu:7.2f}  {note}")
    return 1 if failures else 0


# Deviation floor of the benchmark's gate: values below it are compared on an
# absolute scale.
ABS_FLOOR = 1e-6


class Structural(Exception):
    """Two outputs differ in more than their numbers."""


def _number_deviation(a: float, b: float, where: str) -> tuple:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, where
    if not (math.isfinite(a) and math.isfinite(b)):
        raise Structural(f"{where}: {a!r} != {b!r}")
    return abs(a - b) / max(abs(a), abs(b), ABS_FLOOR), where


def _json_deviation(a, b, where: str) -> tuple:
    """(largest deviation, its JSON path) between two parsed JSON values."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Structural(f"{where}: keys {sorted(a.keys() ^ b.keys())} differ")
        pairs = [(a[k], b[k], f"{where}.{k}") for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Structural(f"{where}: length {len(a)} != {len(b)}")
        pairs = [(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
          and not isinstance(a, bool) and not isinstance(b, bool)):
        return _number_deviation(a, b, where)
    elif a != b:
        raise Structural(f"{where}: {a!r} != {b!r}")
    else:
        return 0.0, where
    return max((_json_deviation(*p) for p in pairs), key=lambda d: d[0], default=(0.0, where))


def _csv_deviation(text: str, ref: str, name: str) -> tuple:
    """(largest deviation, its line) between two CSV texts, cell by cell."""
    lines, ref_lines = text.splitlines(), ref.splitlines()
    if len(lines) != len(ref_lines):
        raise Structural(f"{name}: {len(lines)} lines != {len(ref_lines)}")
    worst = (0.0, name)
    for row, (line, ref_line) in enumerate(zip(lines, ref_lines), start=1):
        cells, ref_cells = line.split(","), ref_line.split(",")
        if len(cells) != len(ref_cells):
            raise Structural(f"{name} line {row}: cell count differs")
        for cell, ref_cell in zip(cells, ref_cells):
            if cell != ref_cell:
                try:
                    a, b = float(cell), float(ref_cell)
                except ValueError:
                    raise Structural(f"{name} line {row}: {cell!r} != {ref_cell!r}") from None
                worst = max(worst, _number_deviation(a, b, f"{name} line {row}"),
                            key=lambda d: d[0])
    return worst


def deviation_note(a: Path, b: Path) -> str:
    """How two versions of one output file differ: their largest deviation and
    where it is, or their first difference that is not numeric."""
    if not (a.is_file() and b.is_file()):
        return f"only under {(a if a.is_file() else b).parent.parent}"
    try:
        if a.suffix == ".json":
            dev, where = _json_deviation(json.loads(a.read_text()),
                                         json.loads(b.read_text()), a.name)
        else:
            dev, where = _csv_deviation(a.read_text(), b.read_text(), a.name)
    except (Structural, ValueError) as exc:
        return f"not numeric: {exc}"
    return f"largest deviation {dev:.3g} at {where}"


def compare_runs(out_root: Path, ref_root: Path) -> int:
    """Byte-compare each run directory under ``out_root`` with the same path
    under ``ref_root``; print the files that differ, each with
    :func:`deviation_note`, and return 1 if any do."""
    differ = []
    for name, commands in PIPELINES.items():
        for command in commands:
            rel = Path(f"{name}--{command}")
            ours, theirs = out_root / rel, ref_root / rel
            files = {p.name for d in (ours, theirs) if d.is_dir() for p in d.iterdir()}
            for file in sorted(files):
                a, b = ours / file, theirs / file
                if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                    differ.append((rel / file, deviation_note(a, b)))
    for path, note in differ:
        print(f"differs: {path} ({note})")
    print(f"compared with {ref_root}: {len(differ)} file(s) differ")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs", help="root directory for run outputs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--compare", metavar="DIR", default=None,
                        help="byte-compare every output with the same path under DIR")
    args = parser.parse_args()
    code = run_all(Path(args.out), args.seed)
    if args.compare is not None:
        code = max(code, compare_runs(Path(args.out), Path(args.compare)))
    return code


if __name__ == "__main__":
    sys.exit(main())
