"""Property test of the exit-code contract of ``hyposym.cli.main``.

For any config document and any argv, ``main`` ends in exit code 0, 1, 2 or
3, raises nothing else, and writes nothing to stderr but its own messages.
Documents are the small base config below with some keys replaced by values
from per-key pools that mix valid settings with junk.  Argument errors leave
through argparse's ``SystemExit(1)``, which counts as exit code 1.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hyposym.cli import COMMANDS, main

BASE = {
    "schema_version": 1,
    "command": None,
    "system": {"name": "m2-glaeser"},
    "grids": {"t_points": 5, "xi_points": 3, "xi_min": 1.0, "xi_max": 100.0,
              "directions": 2, "xi_list": [1.0, 10.0, 100.0]},
    "eps_policy": {"kind": "balanced", "k": 2.0},
    "solver": {"t_step": None, "cfl_safety": 0.05},
    "initial_data": {"kind": "uniform"},
    "snapshots": [0.5, 1.0],
    "grid_size": 8,
    "seed": 0,
    "out": None,
}

JUNK = [[], {}, None, True, False, "x", float("nan"), float("inf"), -float("inf"),
        2 ** 70, 1e300, 1e-300, 0, -1]


def _inline(coefficients, horizon=1.0):
    m, n = len(coefficients[0]), len(coefficients)
    return {"m": m, "n": n, "horizon": horizon, "coefficients": coefficients}


GLAESER = [[[[0.0], [1.0]], [[0.0, 0.0, 1.0], [0.0]]]]
# Last row (0, c t^2): the squares in the condition ratios overflow.
LAST_ROW_1E160 = [[[[0.0], [1.0]], [[0.0], [0.0, 0.0, 1e160]]]]
LAST_ROW_1E300 = [[[[0.0], [1.0]], [[0.0], [0.0, 0.0, 1e300]]]]
# 1e300 xi [[0, 1], [1, 0]]: a constant symbol whose reduction overflows.
OVERFLOWING_CONSTANT = [[[[0.0], [1e300]], [[1e300], [0.0]]]]
# A cyclic shift times 1e-200: its states stay small where <xi>^5 overflows.
TINY_M6 = _inline([[[[1e-200 * (i == j + 1 or (i == 0 and j == 5))] for j in range(6)]
                    for i in range(6)]])

SYSTEMS = [
    {"name": "m2-glaeser"}, {"name": "m2-wave"}, {"name": "m2-nonhyp-control"},
    {"name": "m3-tracezero"}, {"name": "nope"}, {"name": [1.0]},
    {"name": "m2-wave", "m": 2},
    _inline([[[[1e200], [1e200]], [[1e200], [1e200]]]]),
    _inline(GLAESER, horizon=0.25),
    _inline(GLAESER, horizon=1e300),
    _inline([[[[0.0], [1.0]], [[0.0, 0.0, 1e308], [0.0]]]]),
    _inline(LAST_ROW_1E160),
    _inline(LAST_ROW_1E300),
    _inline(OVERFLOWING_CONSTANT),
    _inline([[[[0.0], [1.0]], [[1.0], [0.0]]], [[[1.0], [0.0]], [[0.0], [-1.0]]]]),
    _inline([[[[1e60 * (i == j + 1 or (i == 5 and j == 0))] for j in range(6)]
              for i in range(6)]]),
    TINY_M6,
    {"m": 2, "n": 1, "horizon": 1.0, "coefficients": [[[["x"], [1.0]], [[1.0], [0.0]]]]},
    _inline([[[[0.0], [1.0]], [[10 ** 400], [0.0]]]]),
    {"m": 7, "n": 1, "horizon": 1.0, "coefficients": []},
]

# Nested keys come first so that a later top-level draw may replace a section.
POOLS = {
    ("grids", "t_points"): [2, 5, 9],
    ("grids", "xi_points"): [2, 3],
    ("grids", "xi_min"): [1.0, 1e160, 1e300],
    ("grids", "xi_max"): [10.0, 1e160, 1e300],
    ("grids", "directions"): [1, 2, 4],
    ("grids", "xi_list"): [[1.0, 10.0, 100.0], [1e-300, 1e-100, 1.0], [1e300], [10.0],
                           [0.5, 50.0, 5.0], [1e100, 1e101, 1e102], [[1.0]]],
    ("solver", "t_step"): [None, 1e-3, 1e-2, 0],
    ("solver", "cfl_safety"): [0.05, 0.5, 10.0, 1e300, 0],
    ("schema_version",): [1, 2],
    ("command",): [None, *COMMANDS, "bogus"],
    ("system",): SYSTEMS,
    ("grids",): [{"bogus": 1}],
    ("eps_policy",): [{"kind": "fixed", "value": 0.5}, {"kind": "inverse"},
                      {"kind": "balanced"}, {"kind": "balanced", "k": 1e300},
                      {"kind": "fixed", "value": 1e-300}, {"kind": "bogus"},
                      {"kind": "inverse", "k": 2.0}, {"kind": "inverse", "value": 0.5},
                      {"kind": "fixed", "value": 0.5, "k": 4},
                      {"kind": "balanced", "k": 2.0, "value": 0.5}, {"kind": []}],
    ("solver",): [{"t_step": 1e-300}],
    ("initial_data",): [
        {"kind": "fourier_modes", "modes": [{"k": 1, "amplitudes": [[1.0, 0.0]]}]},
        {"kind": "fourier_modes", "modes": [{"k": 2 ** 70, "amplitudes": [[1e300, 1e300]]}]},
        {"kind": "fourier_modes", "modes": [{"k": 3, "amplitudes": [[1e300, -1e300]]}]},
        {"kind": "fourier_modes", "modes": []},
        {"kind": "fourier_modes", "modes": [{"k": 1.5, "amplitudes": []}]},
        {"kind": "uniform", "junk": float("nan")},
    ],
    ("snapshots",): [[0.5, 1.0], [0.0], [], [1.5], [1e-300, 1.0], ["x"]],
    ("grid_size",): [2, 8, 32, 3, 2 ** 70],
    ("seed",): [0, 7, 2 ** 70],
    ("out",): [None, 5],
    ("mystery",): [1],
}


@st.composite
def documents(draw):
    """BASE with up to three keys set from their pool or from JUNK."""
    doc = copy.deepcopy(BASE)
    paths = draw(st.lists(st.sampled_from(list(POOLS)), max_size=3))
    for path in sorted(set(paths), key=list(POOLS).index):
        section = doc
        for key in path[:-1]:
            section = section[key]
        if isinstance(section, dict):
            value = draw(st.one_of(st.sampled_from(POOLS[path]), st.sampled_from(JUNK)))
            section[path[-1]] = copy.deepcopy(value)
    return doc


argvs = st.tuples(
    st.sampled_from([*COMMANDS, "bogus"]),
    st.one_of(st.just([]), st.sampled_from([
        ["--seed", "3"], ["--seed", "-1"], ["--seed", "x"], ["--seed", str(2 ** 70)],
        ["--jobs", "2"], ["--config"]])),
)

# main's own messages, argparse's usage lines and their continuation lines
OWN_LINE = re.compile(r"(config error: |error: |usage: |hyposym: error: | )")


def _run(doc, argv_parts):
    command, extra = argv_parts
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--config", str(path), "--out", str(Path(tmp) / "out"), *extra]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, err.getvalue()


def _with(path, value):
    doc = copy.deepcopy(BASE)
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return doc


def _bracket_overflow(name, xi):
    doc = _with(("system",), {"name": name})
    doc["grids"].update(xi_min=xi, xi_max=xi)
    return doc


def _long_steps(system, **grids):
    doc = _with(("system",), system)
    doc["solver"]["cfl_safety"] = 1e300
    doc["grids"].update(grids)
    return doc


def _fixed_step(**grids):
    # a fixed step passes the step budget at any frequency
    doc = _with(("solver", "t_step"), 0.01)
    doc["grids"].update(grids)
    return doc


@settings(max_examples=500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(), argv_parts=argvs)
@example(doc=_with(("snapshots",), []), argv_parts=("solve", []))
@example(doc=_with(("snapshots",), [0.5, 1.5]), argv_parts=("solve", []))
@example(doc=_bracket_overflow("m2-glaeser", 1e300), argv_parts=("conditions", []))
@example(doc=_bracket_overflow("m3-tracezero", 1e160), argv_parts=("conditions", []))
@example(doc=_with(("grids", "xi_list"), [1e-300, 1e-100, 1.0]), argv_parts=("growth", []))
@example(doc=_long_steps(TINY_M6, xi_list=[1e100, 1e101, 1e102]), argv_parts=("growth", []))
@example(doc=_fixed_step(xi_list=[1e200, 1e201, 1e202]), argv_parts=("growth", []))
@example(doc=_long_steps(_inline(GLAESER, horizon=1e300)), argv_parts=("reduce", []))
@example(doc=_with(("system",), _inline([[[[0.0], [1.0]], [[10 ** 400], [0.0]]]])),
         argv_parts=("conditions", []))
@example(doc=_with(("initial_data",), {"kind": "uniform", "junk": float("nan")}),
         argv_parts=("solve", []))
@example(doc=_with(("system",), _inline(LAST_ROW_1E160)), argv_parts=("conditions", []))
@example(doc=_with(("system",), _inline(LAST_ROW_1E300)), argv_parts=("report", []))
@example(doc=_with(("system",), _inline(OVERFLOWING_CONSTANT)), argv_parts=("growth", []))
@example(doc=_with(("system",), _inline(OVERFLOWING_CONSTANT)), argv_parts=("solve", []))
@example(doc=_with(("grid_size",), 3), argv_parts=("growth", []))
@example(doc=_with(("solver", "t_step"), 0), argv_parts=("conditions", []))
@example(doc=_with(("solver", "cfl_safety"), 0), argv_parts=("conditions", []))
def test_main_keeps_the_exit_code_contract(doc, argv_parts):
    code, err = _run(doc, argv_parts)
    assert code in (0, 1, 2, 3)
    stray = [line for line in err.splitlines() if not OWN_LINE.match(line)]
    assert not stray, stray


# a(t) in [[0, 1], [a(t), 0]]: a constant, a t-linear and a t^2 entry at each
# coefficient scale.  The scales 1e50-1e150 once overflowed growth's
# renormalisation, and 1 + s t with s >= 1e160 the Gram product of the
# sandwich constant.
SCALES = [1.0, 1e50, 1e100, 1e150, 1e160, 1e200, 1e250, 1e300, 1e-300]
LADDER = {f"{form}-{s:g}": [[[[0.0], [1.0]], [entry, [0.0]]]]
          for s in SCALES
          for form, entry in (("s", [s]), ("1+st", [1.0, s]), ("1+st2", [1.0, 0.0, s]))}


@pytest.mark.parametrize("coefficients", LADDER.values(), ids=LADDER.keys())
def test_scale_ladder_keeps_the_exit_code_contract(coefficients):
    doc = _with(("system",), _inline(coefficients))
    doc.update(grid_size=16, snapshots=[1.0])
    for command in COMMANDS:
        code, err = _run(doc, (command, []))
        assert code in (0, 2, 3), (command, code, err)
