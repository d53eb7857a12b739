"""Correctness gate: compare a command's outputs with the recorded references.

The references were recorded at the commit that added this benchmark, by
``perfbench/make_refs.py``: the exit code, the seed-0 output files verbatim
(``refs/<workload>/<file>.xz``), and for each recorded seed the SHA-256 of
every output file and the seed-dependent parts of ``report.json``
(``refs/index.json``).

An output bitwise equal to its reference deviates by 0.  Otherwise it is
parsed and compared value by value with the seed-0 reference: every string,
key and shape must match, and each number gives the deviation
|a - b| / max(|a|, |b|, ABS_FLOOR): relative for values above ABS_FLOOR,
absolute (in units of ABS_FLOOR) below it.  Only ``zone_stats`` and
``verify_qs`` depend on the seed; they are compared with the per-seed record
when the seed has one and skipped when it has none.  A run fails the gate on
a wrong exit code, a missing or extra file, a structural difference, or a
deviation above REL_TOL.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import math
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
REL_TOL = 1e-6
# Values below ABS_FLOOR are compared on an absolute scale, so a value may
# move by REL_TOL * ABS_FLOOR = 1e-12.  Some outputs are residuals at roundoff
# level (verify_qs worst residuals, energy terms near 1e-14); a change of
# summation order moves them by their own size, which must not fail the gate.
ABS_FLOOR = 1e-6
SEEDED_KEYS = ("zone_stats", "verify_qs")
# Failure kinds that _cmd_verify_qs adds; they belong to the seeded sample set.
SEEDED_FAILURE_KINDS = ("psd", "recursion", "factorization")


class Mismatch(Exception):
    """Outputs differ from the reference in structure, not just in value."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _deviation(a, b, where: str) -> float:
    """Largest relative deviation between two parsed JSON values."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Mismatch(f"{where}: keys {sorted(a.keys() ^ b.keys())} differ")
        return max((_deviation(a[k], b[k], f"{where}.{k}") for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: length {len(a)} != {len(b)}")
        return max((_deviation(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))),
                   default=0.0)
    numeric = (int, float)
    if (isinstance(a, numeric) and isinstance(b, numeric)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return _number_deviation(a, b, where)
    if a != b:
        raise Mismatch(f"{where}: {a!r} != {b!r}")
    return 0.0


def _number_deviation(a: float, b: float, where: str) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        raise Mismatch(f"{where}: {a!r} != {b!r}")
    return abs(a - b) / max(abs(a), abs(b), ABS_FLOOR)


def _csv_deviation(text: str, ref: str, name: str) -> float:
    lines, ref_lines = text.splitlines(), ref.splitlines()
    if len(lines) != len(ref_lines):
        raise Mismatch(f"{name}: {len(lines)} lines != {len(ref_lines)}")
    worst = 0.0
    for row, (line, ref_line) in enumerate(zip(lines, ref_lines)):
        if line == ref_line:
            continue
        cells, ref_cells = line.split(","), ref_line.split(",")
        if len(cells) != len(ref_cells):
            raise Mismatch(f"{name} line {row + 1}: cell count differs")
        for cell, ref_cell in zip(cells, ref_cells):
            if cell == ref_cell:
                continue
            where = f"{name} line {row + 1}"
            try:
                a, b = float(cell), float(ref_cell)
            except ValueError:
                raise Mismatch(f"{where}: {cell!r} != {ref_cell!r}") from None
            worst = max(worst, _number_deviation(a, b, where))
    return worst


def _split_seeded(doc):
    """Remove the seed-dependent parts of a report in place; return them."""
    seeded = {"seed": doc.pop("seed", None), "config.seed": doc["config"].pop("seed", None)}
    doc.pop("config_sha256", None)  # a hash of the config echo, seed included

    def strip(node, path):
        if isinstance(node, dict):
            for key in SEEDED_KEYS:
                if key in node:
                    seeded[f"{path}{key}"] = node.pop(key)
            for key, value in node.items():
                strip(value, f"{path}{key}.")

    strip(doc["results"], "results.")
    kept = [f for f in doc["failures"] if f.get("kind") not in SEEDED_FAILURE_KINDS]
    seeded["failures"] = [f for f in doc["failures"] if f.get("kind") in SEEDED_FAILURE_KINDS]
    doc["failures"] = kept
    return seeded


def seeded_parts(report_text: str) -> dict:
    """The seed-dependent parts of a report.json, as recorded in the index."""
    return _split_seeded(json.loads(report_text))


class Reference:
    """Recorded outputs of one workload."""

    def __init__(self, workload: str):
        index = json.loads((REFS / "index.json").read_text())[workload]
        self.workload = workload
        self.exit_code = index["exit_code"]
        self.seeds = index["seeds"]          # seed -> {"sha256": {file: hex}, "seeded": {...}}
        self.files = sorted(self.seeds["0"]["sha256"])
        self._texts: dict = {}

    def text(self, name: str) -> str:
        if name not in self._texts:
            raw = lzma.decompress((REFS / self.workload / f"{name}.xz").read_bytes())
            self._texts[name] = raw.decode()
        return self._texts[name]

    def expected_hash(self, name: str, seed: int):
        record = self.seeds.get(str(seed))
        if record is not None:
            return record["sha256"][name]
        hashes = {r["sha256"][name] for r in self.seeds.values()}
        return hashes.pop() if len(hashes) == 1 else None

    def deviation(self, out_dir: Path, exit_code: int, seed: int) -> float:
        """Largest relative deviation of the outputs; raises Mismatch on failure."""
        if exit_code != self.exit_code:
            raise Mismatch(f"exit code {exit_code}, expected {self.exit_code}")
        names = sorted(p.name for p in out_dir.iterdir())
        if names != self.files:
            raise Mismatch(f"output files {names}, expected {self.files}")
        worst = 0.0
        for name in names:
            path = out_dir / name
            if sha256(path) == self.expected_hash(name, seed):
                continue
            text = path.read_text()
            if name.endswith(".csv"):
                worst = max(worst, _csv_deviation(text, self.text(name), name))
            else:
                worst = max(worst, self._report_deviation(text, seed))
        if worst > REL_TOL:
            raise Mismatch(f"relative deviation {worst:.3g} above {REL_TOL:g}")
        return worst

    def _report_deviation(self, text: str, seed: int) -> float:
        doc, ref = json.loads(text), json.loads(self.text("report.json"))
        seeded = _split_seeded(doc)
        _split_seeded(ref)
        worst = _deviation(doc, ref, "report.json")
        if seeded["seed"] != seed or seeded["config.seed"] != seed:
            raise Mismatch(f"report.json echoes seed {seeded['seed']}, expected {seed}")
        record = self.seeds.get(str(seed))
        if record is not None:
            worst = max(worst, _deviation(seeded, record["seeded"], "report.json"))
        return worst
