"""Span tracer over the public functions of hyposym's six layer modules.

Each public function (module-level, name without a leading underscore,
defined in the module) of ``symbols``, ``reduction``, ``quasisym``,
``conditions``, ``energy`` and ``cli`` is wrapped.  Callers bind these names
through ``from ... import``, so the wrapper replaces the function on every
loaded ``hyposym`` module that holds it, not only on the defining one.
Private helpers stay unwrapped; their time is self time of the public span
that called them.

A span is ``[name, parent, start, end, attrs]`` with ``parent`` the index of
the enclosing span (-1 for none) and times from ``time.perf_counter``.
``attrs`` carries the work counts that the per-layer metrics divide by,
read from the call's arguments and result.  Spans stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("symbols", "reduction", "quasisym", "conditions", "energy", "cli")


def _integration_attrs(seen, args, kwargs, result):
    steps = result.ts.size - 1
    key = (result.xi.tobytes(), steps)
    repeat = key in seen
    seen.add(key)
    return {
        "steps": steps,
        "energy": result.E is not None,
        "repeat": repeat,
        "renorm": int(np.count_nonzero(np.diff(result.log_scale))),
    }


def _q_eps_attrs(seen, args, kwargs, result):
    key = result.lambdas.tobytes()
    repeat = key in seen
    seen.add(key)
    return {"repeat": repeat}


def _solve_attrs(seen, args, kwargs, result):
    from hyposym.energy import solve_cauchy_1d

    bound = inspect.signature(solve_cauchy_1d).bind(*args, **kwargs)
    symbol, config = bound.arguments["symbol"], bound.arguments["config"]
    n_grid = result.fields.shape[2]
    # solve_cauchy_1d steps every mode with the step of the top wavenumber.
    steps, _ = config.steps_for(symbol, np.array([n_grid / 2.0]))
    return {"steps": steps, "modes": n_grid, "constant": bool(symbol.is_constant())}


# Work counts per traced function: fn(seen_keys, args, kwargs, result) -> attrs.
ATTRS = {
    "energy.reduced_integrate": _integration_attrs,
    "energy.direct_integrate": lambda seen, a, k, r: {"steps": r[0].size - 1},
    "energy.reweight_energy": lambda seen, a, k, r: {"samples": r.ts.size},
    "energy.solve_cauchy_1d": _solve_attrs,
    "reduction.assemble_path": lambda seen, a, k, r: {"samples": r[0].shape[0]},
    "conditions.evaluate_grid": lambda seen, a, k, r: {"points": int(np.prod(r.lambdas.shape[:3]))},
    "quasisym.build_Q_eps": _q_eps_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS.get(name)
        seen: set = set()
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(seen, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public function of the six layers wherever it is bound."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"hyposym.{layer}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    originals[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for module_name, module in list(sys.modules.items()):
            if module_name != "hyposym" and not module_name.startswith("hyposym."):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path: Path):
        path.write_text(json.dumps({"spans": self.spans}, separators=(",", ":")))

