"""Per-layer metrics from the spans of one traced command.

A layer is one of the six modules the tracer wraps.  Self time of a span is
its duration minus the durations of its child spans; a layer's ``self_s``
sums the self time of every span of that layer.  Per-call and per-unit
costs use the inclusive duration (leaf kernels have no children), except
``energy.integrate.us_per_step``, which is the self time of
``reduced_integrate`` without energy diagnostics, per RK4 step: its
assembly is a ``reduction`` span.  A metric of a function the workload
never calls reads 0.  The names and units of the metrics are listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

from pathlib import Path

from tracer import LAYERS


def function_stats(spans) -> dict:
    """Per function: calls, inclusive and self seconds, and (attrs, self_s) pairs."""
    child_time = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict = {}
    for index, (name, _, start, end, attrs) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": []})
        own = end - start - child_time[index]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        if attrs is not None:
            entry["attrs"].append((attrs, own))
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, out_dir: Path) -> dict:
    stats = function_stats(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": []}

    def fn(name):
        return stats.get(name, empty)

    def attr_sum(name, key, where=lambda attrs: True):
        return sum(attrs[key] for attrs, _ in fn(name)["attrs"] if where(attrs))

    def per_call_us(name):
        return _ratio(fn(name)["total_s"] * 1e6, fn(name)["calls"])

    metrics = {f"{layer}.self_s": sum(e["self_s"] for n, e in stats.items()
                                      if n.split(".")[0] == layer) for layer in LAYERS}

    for name in ("companion_roots", "faddeev_leverrier", "elementary_symmetric_all"):
        metrics[f"symbols.{name}.calls"] = fn(f"symbols.{name}")["calls"]
    metrics["symbols.companion_roots.us_per_call"] = per_call_us("symbols.companion_roots")
    metrics["symbols.faddeev_leverrier.self_s"] = fn("symbols.faddeev_leverrier")["self_s"]
    metrics["symbols.elementary_symmetric_all.self_s"] = fn("symbols.elementary_symmetric_all")["self_s"]

    metrics["reduction.assemble.calls"] = fn("reduction.assemble")["calls"]
    metrics["reduction.assemble.us_per_call"] = per_call_us("reduction.assemble")
    samples = attr_sum("reduction.assemble_path", "samples")
    metrics["reduction.assemble_path.samples"] = samples
    metrics["reduction.assemble_path.us_per_sample"] = _ratio(
        fn("reduction.assemble_path")["total_s"] * 1e6, samples)

    q_eps = fn("quasisym.build_Q_eps")
    metrics["quasisym.build_Q_eps.calls"] = q_eps["calls"]
    metrics["quasisym.build_Q_eps.us_per_call"] = per_call_us("quasisym.build_Q_eps")
    metrics["quasisym.build_Q_eps.lambda_repeat_share"] = _ratio(
        attr_sum("quasisym.build_Q_eps", "repeat"), q_eps["calls"])
    metrics["quasisym.verify_properties.calls"] = fn("quasisym.verify_properties")["calls"]

    points = attr_sum("conditions.evaluate_grid", "points")
    metrics["conditions.evaluate_grid.points"] = points
    metrics["conditions.evaluate_grid.us_per_point"] = _ratio(
        fn("conditions.evaluate_grid")["total_s"] * 1e6, points)
    metrics["conditions.sandwich_constant.calls"] = fn("conditions.sandwich_constant")["calls"]
    metrics["conditions.sandwich_constant.us_per_call"] = per_call_us("conditions.sandwich_constant")

    integrate = "energy.reduced_integrate"
    plain = [(a, own) for a, own in fn(integrate)["attrs"] if not a["energy"]]
    solve = fn("energy.solve_cauchy_1d")
    solve_mode_steps = sum(a["steps"] * a["modes"] for a, _ in solve["attrs"])
    metrics["energy.rk4_steps"] = (
        attr_sum(integrate, "steps") + attr_sum("energy.direct_integrate", "steps")
        + sum(a["steps"] * a["modes"] for a, _ in solve["attrs"] if a["constant"]))
    metrics["energy.integrate.us_per_step"] = _ratio(
        sum(own for _, own in plain) * 1e6, sum(a["steps"] for a, _ in plain))
    metrics["energy.integrate.repeat_share"] = _ratio(
        attr_sum(integrate, "repeat"), fn(integrate)["calls"])
    reweight_samples = attr_sum("energy.reweight_energy", "samples")
    metrics["energy.diag_samples"] = reweight_samples + sum(
        a["steps"] + 1 for a, _ in fn(integrate)["attrs"] if a["energy"])
    metrics["energy.diag.us_per_sample"] = _ratio(
        fn("energy.reweight_energy")["total_s"] * 1e6, reweight_samples)
    metrics["energy.solve_cauchy_1d.us_per_mode_step"] = _ratio(
        solve["total_s"] * 1e6, solve_mode_steps)
    metrics["energy.renormalisations"] = attr_sum(integrate, "renorm")

    files = sorted(out_dir.iterdir())
    metrics["cli.parse_config.s"] = fn("cli.parse_config")["total_s"]
    metrics["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    metrics["cli.csv_rows"] = sum(len(p.read_text().splitlines()) - 1
                                  for p in files if p.suffix == ".csv")
    return metrics
