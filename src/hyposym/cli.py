"""Batch front end: JSON configs in, JSON/CSV reports out.

Configs are plain JSON (key/value with nested sections); every key is
validated and unknown keys are rejected with their path.  Exit codes:

* 0 -- run completed (classifications and measured constants are data),
* 1 -- usage error: bad arguments (argparse errors included), invalid
  config, a run over the RK4 work budget that its command checks before it
  computes anything, I/O failure,
* 2 -- a property the analysed system was expected to satisfy failed on this
  input; the report carries witnesses,
* 3 -- computation not trustworthy: a numeric or consistency check failed
  (for example the reduction or a state overflowed), and no report is written.

Reports embed the canonical config echo, its SHA-256 hash, and the seed, so
reruns with identical inputs produce byte-identical numeric payloads.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

try:
    # hashlib loads OpenSSL's libcrypto, about 3.5 MB of RSS, for one digest a
    # run; CPython's built-in module gives the same digest.
    from _sha2 import sha256        # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython up to 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from hyposym.conditions import SamplingGrid, run_conditions
from hyposym.energy import (
    SolverConfig,
    check_sweep_span,
    energy_inequality_check,
    frequency_sweep,
    growth_fit,
    integral_K_sweep,
    solve_cauchy_1d,
)
from hyposym.errors import CapabilityError, ConsistencyError, DomainError, NumericError
from hyposym.examples import BUILTIN_SYSTEMS, builtin_system
from hyposym.quasisym import sample_separation_set, verify_properties
from hyposym.reduction import PathAssembler, block_sylvester, reduction_residual
from hyposym.energy import direct_integrate
from hyposym.symbols import MAX_DIMENSION, SystemSymbol, bracket, eval_symbol_path

SCHEMA_VERSION = 1

COMMANDS = ("reduce", "verify-qs", "conditions", "solve", "growth", "report")

# Largest t_points x xi_points x directions (2 when n = 1) a config may ask
# for: about ten times the default 201 x 32 x 16 = 102,912 grid points.
MAX_GRID_POINTS = 1 << 20

# Largest RK4 work a command may run, with the step counts that
# SolverConfig.steps_for gives; each command that integrates checks its own
# before it computes anything.  A solve steps grid_size modes with the step
# of its top wavenumber grid_size / 2: at most 2^27 = 134,217,728
# mode-steps, about 13 times the default 1,024 x 10,241.  A frequency sweep
# (growth, report) takes one run per grids.xi_list entry: at most 2^21 =
# 2,097,152 steps in all, about 94 times the default 201 + 2,001 + 20,001.
MAX_SOLVE_MODE_STEPS = 1 << 27
MAX_SWEEP_STEPS = 1 << 21

# Rows per slab of CSV output.  Writing the 115,776-row conditions.csv of the
# conditions-m3 benchmark in process: slabs of 512 rows take 0.054 s at a
# 0.16 MB tracemalloc peak, 2,048 rows 0.037-0.053 s at 0.46 MB and 8,192 rows
# 0.035 s at 2.09 MB.  At 2,048 the write sets the command's peak RSS, 0.25 MB
# above the 41.3 MB of run_conditions (in process, numpy.random's import of
# 5.0-5.4 MB, OpenSSL included, among it): the value column is
# run_conditions' own per-point table, so nothing is copied before the write.
_CSV_ROWS = 2048

# Rows per chunk of a float array in JSON output (see _write_floats).  A
# (1001, 16) array, as a report trace's V_re, peaked at 1.83 MB of traced
# memory written whole and at 0.27 MB in chunks of 256 rows (0.07 MB at 64).
# Three such traces were written in the same time at 64 to 512 rows as
# whole (min of 12 interleaved calls 114-131 ms, within the host's noise).
_JSON_ROWS = 256


class ConfigError(ValueError):
    """Carries the full list of schema errors for a config document."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


_DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "command": None,
    "system": None,
    "grids": {
        "t_points": 201,
        "xi_points": 32,
        "xi_min": 1.0,
        "xi_max": 1.0e4,
        "directions": 16,
        "xi_list": [10.0, 100.0, 1000.0],
    },
    "eps_policy": {"kind": "balanced", "k": 2.0},
    "solver": {"t_step": None, "cfl_safety": 0.05},
    "initial_data": {"kind": "uniform"},
    "snapshots": [0.5, 1.0],
    "grid_size": 1024,
    "seed": 0,
    "out": None,
}


# Sections whose allowed keys depend on a discriminator; their validators
# check keys explicitly instead of the defaults-shape merge.
_POLYMORPHIC = {"system", "eps_policy", "initial_data"}

# The keys each eps_policy and initial_data kind takes besides "kind".
_EPS_POLICY_KEYS = {"fixed": ("value",), "inverse": (), "balanced": ("k",)}
_INITIAL_DATA_KEYS = {"uniform": (), "fourier_modes": ("modes",)}


def _merge_defaults(data: dict, defaults: dict, path: str, errors: list) -> dict:
    out = {}
    for key, default in defaults.items():
        if key in data:
            value = data[key]
            if isinstance(default, dict) and default and key not in _POLYMORPHIC:
                if isinstance(value, dict):
                    value = _merge_defaults(value, default, f"{path}{key}.", errors)
                else:
                    errors.append(f"{path}{key} must be an object")
                    value = json.loads(json.dumps(default))
            out[key] = value
        else:
            out[key] = json.loads(json.dumps(default))
    for key in data:
        if key not in defaults:
            errors.append(f"unknown key {path}{key}")
    return out


def _is_number(value) -> bool:
    """A finite JSON number; booleans are not numbers here, nor are integers
    beyond the double range (NaN fails the comparison)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _kind_of(section, kinds) -> str | None:
    """The "kind" of a section if it is one of ``kinds``, else None; the
    value there may be any JSON value, a list or an object too."""
    kind = section.get("kind") if isinstance(section, dict) else None
    return kind if isinstance(kind, str) and kind in kinds else None


def _require_number(data, key, errors, path, low=None, high=None, integer=False,
                    positive=False):
    value = data.get(key)
    if not _is_number(value):
        errors.append(f"{path}{key} must be a finite number")
        return None
    if integer and int(value) != value:
        errors.append(f"{path}{key} must be an integer")
        return None
    if low is not None and value < low:
        errors.append(f"{path}{key} must be >= {low}")
        return None
    if positive and value <= 0:
        errors.append(f"{path}{key} must be > 0")
        return None
    if high is not None and value > high:
        errors.append(f"{path}{key} must be <= {high}")
        return None
    return int(value) if integer else float(value)


def _parse_system(section, errors) -> SystemSymbol | None:
    if not isinstance(section, dict):
        errors.append("system must be an object")
        return None
    if "name" in section:
        extra = set(section) - {"name"}
        if extra:
            errors.append(f"system carries both a name and extra keys {sorted(extra)}")
        name = section["name"]
        if not isinstance(name, str) or name not in BUILTIN_SYSTEMS:
            errors.append(f"system.name must be one of {sorted(BUILTIN_SYSTEMS)}")
            return None
        return builtin_system(name)
    allowed = {"m", "n", "horizon", "coefficients"}
    for key in section:
        if key not in allowed:
            errors.append(f"unknown key system.{key}")
    m = _require_number(section, "m", errors, "system.", low=2, integer=True)
    n = _require_number(section, "n", errors, "system.", low=1, integer=True)
    horizon = _require_number(section, "horizon", errors, "system.", positive=True)
    if m is not None and m > MAX_DIMENSION:
        errors.append(f"system.m must be <= {MAX_DIMENSION}")
        return None
    coeffs = section.get("coefficients")
    if m is None or n is None or horizon is None:
        return None
    if (
        not isinstance(coeffs, list)
        or len(coeffs) != n
        or any(
            not isinstance(row_block, list) or len(row_block) != m
            or any(not isinstance(row, list) or len(row) != m for row in row_block)
            for row_block in coeffs
        )
    ):
        errors.append("system.coefficients must be an n x m x m nest of coefficient lists")
        return None
    max_deg = 1
    for block in coeffs:
        for row in block:
            for entry in row:
                if not isinstance(entry, list) or not all(map(_is_number, entry)):
                    errors.append("system.coefficients entries must be lists of finite numbers")
                    return None
                max_deg = max(max_deg, len(entry))
    arr = np.zeros((n, m, m, max_deg))
    for p, block in enumerate(coeffs):
        for i, row in enumerate(block):
            for j, entry in enumerate(row):
                arr[p, i, j, : len(entry)] = entry
    try:
        return SystemSymbol(coeffs=arr, horizon=horizon)
    except (DomainError, CapabilityError) as exc:
        errors.append(str(exc))
        return None


def _check_mode(mode, path: str, symbol: SystemSymbol | None, errors: list):
    """One Fourier mode: an integer k and at most m [re, im] amplitude pairs."""
    if not isinstance(mode, dict):
        errors.append(f"{path} must be an object with keys k and amplitudes")
        return
    for key in mode:
        if key not in ("k", "amplitudes"):
            errors.append(f"unknown key {path}.{key}")
    _require_number(mode, "k", errors, f"{path}.", integer=True)
    amps = mode.get("amplitudes")
    m = symbol.m if symbol is not None else MAX_DIMENSION
    if (
        not isinstance(amps, list)
        or len(amps) > m
        or not all(isinstance(a, list) and len(a) == 2 and all(map(_is_number, a)) for a in amps)
    ):
        errors.append(f"{path}.amplitudes must be a list of at most m = {m} [re, im] number pairs")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: canonical data plus constructed objects."""

    data: dict
    symbol: SystemSymbol
    command: str | None
    seed: int

    def solver_config(self, **overrides) -> SolverConfig:
        policy = self.data["eps_policy"]
        if policy["kind"] == "fixed":
            eps_policy = ("fixed", policy["value"])
        elif policy["kind"] == "inverse":
            eps_policy = ("inverse",)
        else:
            eps_policy = ("balanced", policy["k"])
        params = {
            "t_step": self.data["solver"]["t_step"],
            "cfl_safety": self.data["solver"]["cfl_safety"],
            "eps_policy": eps_policy,
            "xi_grid": tuple(self.data["grids"]["xi_list"]),
        }
        params.update(overrides)
        return SolverConfig(**params)

    def sampling_grid(self) -> SamplingGrid:
        g = self.data["grids"]
        return SamplingGrid.default(
            self.symbol,
            n_t=g["t_points"],
            n_r=g["xi_points"],
            r_min=g["xi_min"],
            r_max=g["xi_max"],
            n_dirs=g["directions"],
        )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; raises ConfigError with all problems."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    errors: list = []
    data = _merge_defaults(raw, _DEFAULTS, "", errors)

    if data["schema_version"] != SCHEMA_VERSION:
        errors.append(f"schema_version must be {SCHEMA_VERSION}")
    if data["command"] is not None and data["command"] not in COMMANDS:
        errors.append(f"command must be one of {COMMANDS}")
    if data["system"] is None:
        errors.append("missing key system")
        symbol = None
    else:
        symbol = _parse_system(data["system"], errors)

    g = data["grids"]
    sizes = [_require_number(g, "t_points", errors, "grids.", low=2, integer=True),
             _require_number(g, "xi_points", errors, "grids.", low=2, integer=True),
             _require_number(g, "directions", errors, "grids.", low=1, integer=True)]
    dirs = "grids.directions"
    if symbol is not None and symbol.n == 1:   # its grid has +1 and -1, whatever is set
        sizes[2], dirs = 2, "2 directions (+1 and -1 when n = 1)"
    if None not in sizes and math.prod(sizes) > MAX_GRID_POINTS:
        errors.append(f"grids.t_points x grids.xi_points x {dirs} must be <= {MAX_GRID_POINTS}")
    xi_min = _require_number(g, "xi_min", errors, "grids.", positive=True)
    xi_max = _require_number(g, "xi_max", errors, "grids.")
    if None not in (xi_min, xi_max):
        if xi_min > xi_max:
            errors.append("grids.xi_min must be <= grids.xi_max")
        # numpy's log10 has no loop for Python integers beyond int64
        g["xi_min"], g["xi_max"] = xi_min, xi_max
    xi_list = g.get("xi_list")
    if not isinstance(xi_list, list) or not xi_list or not all(
        _is_number(v) and v > 0 for v in xi_list
    ):
        errors.append("grids.xi_list must be a non-empty list of positive numbers")

    policy = data["eps_policy"]
    kind = _kind_of(policy, _EPS_POLICY_KEYS)
    if kind is None:
        errors.append("eps_policy.kind must be fixed, inverse, or balanced")
    else:
        for key in policy:
            if key in ("value", "k") and key not in _EPS_POLICY_KEYS[kind]:
                errors.append(f"eps_policy.{key} is not a key of the {kind} policy")
            elif key not in ("kind", "value", "k"):
                errors.append(f"unknown key eps_policy.{key}")
        if kind == "fixed":
            v = policy.get("value")
            if not _is_number(v) or not 0 < v <= 1:
                errors.append("eps_policy.value must lie in (0, 1]")
        if kind == "balanced":
            policy.setdefault("k", 2.0)
            if not _is_number(policy["k"]) or policy["k"] < 1:
                errors.append("eps_policy.k must be >= 1")

    solver = data["solver"]
    if solver["t_step"] is not None:
        _require_number(solver, "t_step", errors, "solver.", positive=True)
    _require_number(solver, "cfl_safety", errors, "solver.", positive=True)

    init = data["initial_data"]
    kind = _kind_of(init, _INITIAL_DATA_KEYS)
    if kind is None:
        errors.append("initial_data.kind must be uniform or fourier_modes")
    else:
        for key in init:
            if key != "kind" and key not in _INITIAL_DATA_KEYS[kind]:
                errors.append(f"unknown key initial_data.{key}")
    if kind == "fourier_modes":
        modes = init.get("modes")
        if not isinstance(modes, list) or not modes:
            errors.append("initial_data.modes must be a non-empty list")
        else:
            for idx, mode in enumerate(modes):
                _check_mode(mode, f"initial_data.modes[{idx}]", symbol, errors)

    snapshots = data["snapshots"]
    if not isinstance(snapshots, list) or not snapshots:
        errors.append("snapshots must be a non-empty list")
    else:
        # The default [0.5, 1.0] is checked against a shorter horizon only by
        # the solve that reads it, so that other commands still run.
        horizon = symbol.horizon if symbol is not None and "snapshots" in raw else math.inf
        for idx, v in enumerate(snapshots):
            if not _is_number(v):
                errors.append(f"snapshots[{idx}] must be a finite number")
            elif not 0 <= v <= horizon:
                errors.append(f"snapshots[{idx}] must lie in [0, {horizon}]")
    grid_size = _require_number(data, "grid_size", errors, "", low=2, integer=True)
    if grid_size is not None and grid_size & (grid_size - 1):
        errors.append("grid_size must be a power of two")
    if data["out"] is not None and not isinstance(data["out"], str):
        errors.append("out must be a string path")
    seed = _require_number(data, "seed", errors, "", low=0, integer=True)

    if errors or symbol is None:
        raise ConfigError(errors or ["invalid system section"])
    return RunConfig(data=data, symbol=symbol, command=data["command"], seed=seed)


def _count(n) -> str:
    """An int count exact up to 2^53, beyond in %.3e form, even past the double range."""
    if isinstance(n, int) and n > 2 ** 53:
        from decimal import Decimal   # imported on this error path only: it costs RSS
        return f"{Decimal(n):.3e}"
    return str(n)


def config_hash(config: RunConfig) -> str:
    """The report's ``config_sha256``: the hex SHA-256 of the UTF-8 bytes of
    ``json.dumps(config.data, sort_keys=True, separators=(",", ":"))``, whose
    ``ensure_ascii`` escapes make them plain ASCII.  The digest comes from
    CPython's built-in SHA-256 module where it exists, so a run that never
    samples does not load OpenSSL; ``hashlib.sha256`` gives the same digest.
    """
    canonical = json.dumps(config.data, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# serialization helpers


# Results and failures spell non-finite floats as strings.  The config echo
# holds none: parse_config rejects every non-finite number.
_NONFINITE = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def _float_token(x) -> str:
    text = float.__repr__(float(x))
    return _NONFINITE.get(text, text)


def _float_list(values: list, level: int, finite: bool) -> str:
    """A nested list of floats (``ndarray.tolist()``), laid out at ``level``
    as json.dumps(indent=2) lays it out: one map and join per innermost row.
    ``finite`` says that every float is finite."""
    if not values:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    if isinstance(values[0], list):
        items = [_float_list(row, level + 1, finite) for row in values]
    else:
        items = map(float.__repr__ if finite else _float_token, values)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * level + "]"


def _write_floats(write, array: np.ndarray, level: int) -> None:
    """A float array of one or more dimensions as a nested JSON list at
    ``level``, _JSON_ROWS entries of its first axis at a time, so neither
    the whole array's ``tolist()`` nor its text exists at once."""
    if not len(array):
        write("[]")
        return
    inner = "\n" + "  " * (level + 1)
    for k in range(0, len(array), _JSON_ROWS):
        chunk = array[k : k + _JSON_ROWS]
        finite = bool(np.isfinite(chunk).all())
        if chunk.ndim > 1:
            items = (_float_list(row, level + 1, finite) for row in chunk.tolist())
        else:
            items = map(float.__repr__ if finite else _float_token, chunk.tolist())
        write(("," if k else "[") + inner + ("," + inner).join(items))
    write("\n" + "  " * level + "]")


def _write_json(write, obj, level: int = 0) -> None:
    """Write ``obj`` piece by piece, byte for byte as
    ``json.dumps(obj, indent=2, sort_keys=True)`` writes the plain JSON it
    stands for.

    Arrays and numpy scalars become lists and numbers (a float array in
    chunks of rows, each float by ``float.__repr__``), tuples become lists,
    complex numbers ``{"re": ..., "im": ...}`` and dict keys strings; non-finite
    floats become the strings of ``_NONFINITE``.  Strings are escaped to
    ASCII as json.dumps escapes them.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim:
            _write_floats(write, obj, level)
        else:
            _write_json(write, obj.tolist(), level)
    elif isinstance(obj, complex):
        _write_json(write, {"re": obj.real, "im": obj.imag}, level)
    elif not isinstance(obj, (dict, list, tuple)):
        write(_json_scalar(obj))
    elif not obj:
        write("{}" if isinstance(obj, dict) else "[]")
    else:
        inner = "\n" + "  " * (level + 1)
        sep = inner
        if isinstance(obj, dict):
            write("{")
            for key, value in sorted(((str(k), v) for k, v in obj.items()),
                                     key=lambda item: item[0]):
                write(sep + encode_basestring_ascii(key) + ": ")
                _write_json(write, value, level + 1)
                sep = "," + inner
            write("\n" + "  " * level + "}")
        else:
            write("[")
            for value in obj:
                write(sep)
                _write_json(write, value, level + 1)
                sep = "," + inner
            write("\n" + "  " * level + "]")


def _json_scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_token(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _quote(cell: str) -> str:
    """csv.writer's QUOTE_MINIMAL: a cell holding a comma, a double quote or a
    line break is quoted, with its double quotes doubled."""
    if _NEEDS_QUOTES(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cell_strings(block: np.ndarray) -> np.ndarray:
    """The cells of a column block as an object array of strings of its shape,
    each distinct value formatted once: float64 by its bits (-0.0 stays apart
    from 0.0) at 17 significant digits, anything else (ints, strings) by
    ``str`` and :func:`_quote`."""
    if block.dtype == np.float64:
        bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
        strings = np.array([f"{v:.17g}" for v in bits.view(np.float64).tolist()], dtype=object)
        return strings[inverse].reshape(block.shape)
    values = block.ravel().tolist()
    table = {v: _quote(str(v)) for v in set(values)}
    return np.array(list(map(table.__getitem__, values)), dtype=object).reshape(block.shape)


def _write_csv(path: Path, columns: dict):
    """One table given as {header: column}, in csv.writer's excel dialect
    (comma delimiters, :func:`_quote`, ``\r\n`` line ends).  The columns
    (arrays; a list is 1-d) broadcast to the table's shape, whose C-order
    entries are the rows, or raise ValueError before the file is opened.
    The rows go out in slabs of at most _CSV_ROWS along axis a, the first
    whose trailing axes fit: one object array of cells and separators and one
    join each.  A column constant along the leading axes is formatted once per
    slab start, and one of length 1 along a once per leading index."""
    cols = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object)
            for c in columns.values()]
    shape = np.broadcast_shapes(*(c.shape for c in cols))
    cols = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in cols]
    a = next(k for k in range(len(shape)) if math.prod(shape[k + 1:]) <= _CSV_ROWS)
    step = _CSV_ROWS // max(1, math.prod(shape[a + 1:]))
    fixed = [a > 0 and math.prod(c.shape[:a]) == 1 for c in cols]
    cells = np.full((min(step, shape[a]), *shape[a + 1:], 2 * len(cols)), ",", dtype=object)
    cells[..., -1] = "\r\n"
    memo = {}   # (column, slab start) -> strings that repeat
    with path.open("w", newline="") as fh:
        fh.write(",".join(_quote(str(h)) for h in columns) + "\r\n")
        for lead in np.ndindex(shape[:a]):
            sub = [c[tuple(i * (n > 1) for i, n in zip(lead, c.shape))] for c in cols]
            memo = {key: strings for key, strings in memo.items() if fixed[key[0]]}
            for start in range(0, shape[a], step):
                slab = cells[:shape[a] - start]
                for k, col in enumerate(sub):
                    at = start if col.shape[0] > 1 else 0
                    if (k, at) not in memo:
                        memo[k, at] = _cell_strings(col[at:at + step])
                    keep = fixed[k] or col.shape[0] == 1
                    slab[..., 2 * k] = memo[k, at] if keep else memo.pop((k, at))
                fh.write("".join(slab.ravel().tolist()))


# ---------------------------------------------------------------------------
# command implementations; each returns (results dict, failures list, csv map)
# with each CSV given as {file name: {header: column}}


def _cmd_reduce(config: RunConfig):
    symbol = config.symbol
    sample_ts = [0.0, symbol.horizon / 2.0, symbol.horizon]
    xi_list = config.data["grids"]["xi_list"][:3]
    xis = np.zeros((len(xi_list), symbol.n))
    xis[:, 0] = xi_list
    block, b, c = PathAssembler(symbol, xis).reduce(sample_ts)
    calA, calB = block_sylvester(block, b)
    results: dict = {"samples": [
        {"t": t, "xi": xi.tolist(), "calA": calA[i, k], "calB_re": calB[i, k].real,
         "calB_im": calB[i, k].imag, "char_coeffs": c[i, k]}
        for k, xi in enumerate(xis) for i, t in enumerate(sample_ts)
    ]}
    # Convergence study of the reduction against the direct oracle.
    xi = np.zeros(symbol.n)
    xi[0] = min(10.0, float(config.data["grids"]["xi_list"][0]))
    u0 = np.ones(symbol.m, dtype=complex)
    # the stiffness guard, and 4 steps or more on a short horizon
    h0 = min(4e-3, config.data["solver"]["cfl_safety"] / bracket(xi), symbol.horizon / 4)
    steps = (h0, h0 / 2, h0 / 4)
    total = sum(config.solver_config(t_step=h).step_count(symbol, xi) for h in steps)
    if total > MAX_SWEEP_STEPS:
        raise DomainError(f"the residual study of reduce takes {total} RK4 steps "
                          f"(system.horizon / step), more than {MAX_SWEEP_STEPS}")
    study = []
    for h in steps:
        cfg = config.solver_config(t_step=h)
        ts, traj = direct_integrate(symbol, xi, u0, cfg)
        study.append({"step": h, "residual": reduction_residual(symbol, xi, ts, traj)})
    results["residual_study"] = study
    if symbol.m == 3:
        results["closed_form_comparison"] = _closed_form_comparison(symbol, xi, sample_ts)
    return results, [], {}


def _closed_form_comparison(symbol: SystemSymbol, xi, sample_ts):
    """Informational diff between assembled 3x3 lower-order entries and the
    closed forms sometimes quoted for them; emitted, never asserted."""
    bxi = bracket(xi)
    assembler = PathAssembler(symbol, xi)
    entries = assembler.reduce(np.array(sample_ts))[1]
    paths = [eval_symbol_path(d, sample_ts, xi) for d in assembler.derivs]
    paths += [np.zeros_like(paths[0])] * (3 - len(paths))   # dA or d2A of a lower degree
    out = []
    for t, b, A, dA, d2A in zip(sample_ts, entries, *paths):
        trA0 = np.trace(A) / bxi
        b1_closed = (-d2A + (-1j) * 2.0 * dA - trA0 * (-1j) * dA) / bxi
        b2_closed = (A @ ((-1j) * dA)) / bxi ** 2
        out.append({"t": t, "b1_max_diff": float(np.abs(b[0] - b1_closed).max()),
                    "b2_max_diff": float(np.abs(b[1] - b2_closed).max())})
    return out


def _cmd_verify_qs(config: RunConfig):
    m = config.symbol.m
    lams = sample_separation_set(m, bound=10.0, count=50, seed=config.seed)
    eps_values = (1.0, 0.1, 0.01)
    reps = [verify_properties(lams, eps) for eps in eps_values]

    def field(name):   # (lambda, eps)
        return np.stack([getattr(rep, name) for rep in reps], axis=1)

    psd = np.stack([np.min(rep.psd_min_eigs, axis=0) for rep in reps], axis=1)
    recursion = field("recursion_residual")
    factorization = field("factorization_residual")
    ratio = field("diag_product_ratio")
    worst = {
        # a zero of either sign reads 0.0
        "psd_min": min(0.0, float(psd.min())),
        "recursion": float(recursion.max()),
        "factorization": float(factorization.max()),
        "det_rel": float(field("det_identity_rel").max()),
        "diag_ratio": max(0.0, float(ratio[np.isfinite(ratio)].max(initial=0.0))),
        "commutator": float(field("commutator_constant").max()),
        "coercivity": float(field("coercivity_constant").max()),
    }
    scale = 1.0 + np.float_power(np.abs(lams).max(axis=1), 2 * (m - 1))
    kinds = ("psd", "recursion", "factorization")
    failed = np.stack([psd < -1e-10, recursion > 1e-8,
                       factorization > 1e-8 * scale[:, None]], axis=-1)
    # np.argwhere keeps the order lambda, then eps, then kind
    failures = [{"kind": kinds[k], "lambda": lams[i].tolist(), "eps": eps_values[e]}
                for i, e, k in np.argwhere(failed)]
    return {"worst": worst, "samples": len(lams)}, failures, {}


def _cmd_conditions(config: RunConfig):
    symbol = config.symbol
    report = run_conditions(symbol, config.sampling_grid(), seed=config.seed)
    failures = []
    if report.nonhyperbolic_points:
        failures.append({"kind": "hyperbolicity", "points": report.nonhyperbolic_points})
    for name, value in (
        ("ks", report.ks_constant),
        ("levi", float(np.max(report.levi_sups))),
        ("thm2", float(np.max(report.thm2_sups))),
        ("sandwich", report.sandwich_sup),
    ):
        if not np.isfinite(value):
            failures.append({"kind": name, "witness": getattr(report, f"{name}_witness", {})})
    results = {
        "ks_constant": report.ks_constant,
        "ks_witness": report.ks_witness,
        "levi_sups": report.levi_sups,
        "levi_witness": report.levi_witness,
        "thm2_sups": report.thm2_sups,
        "thm2_witness": report.thm2_witness,
        "sandwich_sup": report.sandwich_sup,
        "sandwich_witness": report.sandwich_witness,
        "implication_constant": report.implication_constant,
        "zone_stats": report.zone_stats,
        "nonhyperbolic_points": report.nonhyperbolic_points,
        "grid": {
            "t_points": report.grid.ts.size,
            "xi_points": report.grid.radii.size,
            "directions": report.grid.dirs.shape[0],
        },
    }
    # Rows in (t, r, d) order, per point the ks row, then per l the thm2 row and
    # the m levi rows, the order of report.table; each column has the shape it
    # varies in, within (T, R, D, K).
    grid = report.grid
    m = symbol.m
    _, R, D = grid.shape
    xi_strs = [";".join(f"{v:.17g}" for v in xi) for xi in grid.xis.reshape(R * D, -1)]
    csvs = {"conditions.csv": {
        "t": grid.ts[:, None, None, None],
        "xi": np.array(xi_strs, dtype=object).reshape(1, R, D, 1),
        "kind": ["ks"] + (["thm2"] + ["levi"] * m) * (m - 1),
        "l": [0] + [l for l in range(1, m) for _ in range(m + 1)],
        "j": [0] + list(range(m + 1)) * (m - 1),
        "value": report.table,
    }}
    return results, failures, csvs


def _initial_field(config: RunConfig, n_grid: int) -> np.ndarray:
    symbol = config.symbol
    init = config.data["initial_data"]
    x = 2.0 * np.pi * np.arange(n_grid) / n_grid
    u0 = np.zeros((symbol.m, n_grid), dtype=complex)
    if init["kind"] == "uniform":
        u0 += np.exp(1j * x)[None, :]
        return u0
    for mode in init["modes"]:
        for i, (re, im) in enumerate(mode["amplitudes"]):
            u0[i] += complex(re, im) * np.exp(1j * mode["k"] * x)
    return u0


def _step_key(solver: SolverConfig) -> str:
    return "solver.t_step" if solver.t_step is not None else "solver.cfl_safety"


def _cmd_solve(config: RunConfig):
    symbol = config.symbol
    n_grid = config.data["grid_size"]
    cfg = config.solver_config()
    steps = cfg.step_count(symbol, np.array([n_grid / 2.0]))
    if n_grid * steps > MAX_SOLVE_MODE_STEPS:
        raise DomainError(f"grid_size x RK4 steps (set by grid_size and {_step_key(cfg)}) "
                          f"must be <= {MAX_SOLVE_MODE_STEPS} mode-steps, "
                          f"got {_count(n_grid)} x {_count(steps)}")
    u0 = _initial_field(config, n_grid)
    field = solve_cauchy_1d(symbol, u0, cfg, config.data["snapshots"])
    results = {
        "grid_size": n_grid,
        "snapshots": field.snapshot_ts,
        "max_abs": [float(np.abs(field.fields[s]).max()) for s in range(field.fields.shape[0])],
    }
    csvs = {}
    for s, snapshot in enumerate(field.fields):
        columns = {"x": field.x}
        for i, u in enumerate(snapshot, start=1):
            columns[f"re_u{i}"], columns[f"im_u{i}"] = u.real, u.imag
        csvs[f"solve_t{s}.csv"] = columns
    return results, [], csvs


def _growth_results(traces):
    """Growth fit of a frequency sweep: (results dict, csv map)."""
    report = growth_fit(traces)
    results = {
        "classification": report.classification,
        "kappa": report.kappa,
        "sigma": report.sigma,
        "rate": report.rate,
        "aic_log": report.aic_log,
        "aic_power": report.aic_power,
        "brackets": report.brackets,
        "growth_logs": report.growth_logs,
    }
    return results, {"growth.csv": {"bracket_xi": np.array(report.brackets),
                                    "log_growth": np.array(report.growth_logs)}}


def _sweep_solver(config: RunConfig) -> SolverConfig:
    """The solver config of the sweep over grids.xi_list, once its RK4 steps
    and its span (the sweep integrates x at xi = (x, 0, ..., 0), whose norm
    is |x|) are checked against MAX_SWEEP_STEPS and growth_fit's needs."""
    solver = config.solver_config()
    xi_list = np.array(config.data["grids"]["xi_list"], dtype=float)
    total = sum(solver.step_count(config.symbol, xi[None]) for xi in xi_list)
    if total > MAX_SWEEP_STEPS:
        raise DomainError(f"RK4 steps over grids.xi_list (set by {_step_key(solver)}) "
                          f"must total <= {MAX_SWEEP_STEPS}, got {_count(total)}")
    check_sweep_span(xi_list, "grids.xi_list")
    return solver


def _cmd_growth(config: RunConfig):
    traces = frequency_sweep(config.symbol, _sweep_solver(config), collect_energy=False)
    results, csvs = _growth_results(traces)
    return results, [], csvs


def _trace_payload(trace, residual) -> dict:
    """Serializable form of an energy trace and its inequality residual at
    the samples ts[::trace.stride].

    Component (i-1)m + (j-1) of V holds the (j-1)-th time derivative of the
    i-th transformed component, scaled by <xi>^{m-j}.
    """
    sl = slice(None, None, trace.stride)
    # a trace keeps the states of every sample or of these samples only
    V = trace.V[sl] if len(trace.V) == trace.ts.size else trace.V
    payload = {
        "xi": trace.xi,
        "eps": trace.eps,
        "stride": trace.stride,
        "t": trace.ts[sl],
        "V_re": V.real,
        "V_im": V.imag,
        "log_scale": trace.log_scale[sl],
    }
    for name in ("E", "K", "term2", "term3", "dtE"):
        payload[name] = getattr(trace, name)[sl]
    payload["inequality_residual"] = residual[sl]
    payload["coercivity_sup"] = trace.coercivity_sup
    return payload


def _cmd_report(config: RunConfig):
    solver = _sweep_solver(config)   # before any work
    results, failures, csvs = {}, [], {}
    for name, fn in (("conditions", _cmd_conditions), ("verify_qs", _cmd_verify_qs)):
        sub_results, sub_failures, sub_csvs = fn(config)
        results[name] = sub_results
        failures.extend(sub_failures)
        csvs.update(sub_csvs)
    # One trajectory per configured frequency feeds the growth fit, the energy
    # inequality summary and, at the first frequency, the K sweep, which reads
    # every state; the others keep only the states their payloads emit.
    keep = ["all"] + ["stride"] * (len(solver.xi_grid) - 1)
    traces = frequency_sweep(config.symbol, solver, keep=keep)
    results["growth"], growth_csvs = _growth_results(traces)
    csvs.update(growth_csvs)
    ineq = energy_inequality_check(traces)
    results["energy"] = {
        "C2": ineq.C2,
        "C3": ineq.C3,
        "margins": ineq.margins,
        "K_integrals": ineq.K_integrals,
        "passed": ineq.passed,
        "traces": [_trace_payload(tr, r) for tr, r in zip(traces, ineq.residuals)],
    }
    if not ineq.passed:
        failures.append({"kind": "energy_inequality", "witnesses": list(ineq.witnesses)})
    # -2(m-1)/k with the k of a balanced eps policy; other policies keep k = 2
    policy = config.data["eps_policy"]
    k = policy["k"] if policy["kind"] == "balanced" else 2.0
    sweep = integral_K_sweep(traces[0], (1e-1, 1e-2, 1e-3), k_regularity=k)
    results["K_sweep"] = {
        "eps": sweep.eps_values,
        "integrals": sweep.K_integrals,
        "fitted_exponent": sweep.fitted_exponent,
        "theoretical_exponent": sweep.theoretical_exponent,
    }
    return results, failures, csvs


_COMMAND_TABLE = {
    "reduce": _cmd_reduce,
    "verify-qs": _cmd_verify_qs,
    "conditions": _cmd_conditions,
    "solve": _cmd_solve,
    "growth": _cmd_growth,
    "report": _cmd_report,
}


def run(config: RunConfig, command: str, out_dir: Path) -> int:
    """Execute a command and write report.json plus CSV artifacts."""
    if command not in _COMMAND_TABLE:
        raise DomainError(f"unknown command {command!r}")
    if config.command is not None and config.command != command:
        raise DomainError(
            f"config requests command {config.command!r} but {command!r} was invoked"
        )
    # Created before the command, so that an unwritable directory fails before
    # any computing; a command that raises leaves none of them behind.
    created = []
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            break
        created.append(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        results, failures, csvs = _COMMAND_TABLE[command](config)
    except BaseException:
        for path in created:    # leaf first; rmdir refuses a directory that is not empty
            try:
                path.rmdir()
            except OSError:
                break
        raise
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": config.seed,
        "config_sha256": config_hash(config),
        "config": config.data,
        "results": results,
        "failures": failures,
    }
    with (out_dir / "report.json").open("w") as fh:
        _write_json(fh.write, report)
    for name, columns in csvs.items():
        _write_csv(out_dir / name, columns)
    return 2 if failures else 0


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors exit 1 like every other usage error; 2 marks findings."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="hyposym",
        description="Block-Sylvester reduction and energy diagnostics for "
                    "first-order hyperbolic systems (batch runs, no interactive UI).",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides the config's `out`)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 1
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    if args.seed is not None:
        data = dict(config.data)
        data["seed"] = args.seed
        config = RunConfig(data=data, symbol=config.symbol, command=config.command,
                           seed=args.seed)
    out_dir = args.out or config.data["out"] or "hyposym-out"
    try:
        return run(config, args.command, Path(out_dir))
    except (DomainError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 1
    except (NumericError, ConsistencyError) as exc:
        print(f"error: computation not trustworthy: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
