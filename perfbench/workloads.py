"""The four benchmark workloads: one CLI command and config each.

Each workload is one ``hyposym <command>`` call on a fixed config; the
benchmark seed goes in as the config ``seed``.  Only ``zone_stats`` and the
``verify_qs`` sample set depend on it.  Why each workload exists is recorded
in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

# Three-mode initial data of the solve rows in scripts/run_example_reports.py.
FOURIER_MODES = {
    "kind": "fourier_modes",
    "modes": [
        {"k": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
        {"k": 2, "amplitudes": [[0.0, -0.25], [0.0, 0.0]]},
        {"k": 3, "amplitudes": [[0.0, 0.0], [0.25, 0.0]]},
    ],
}

# 4x4 system with eigenvalues +-2 and +-t (a double zero at t = 0): the
# last row of a companion-type matrix, char. polynomial tau^4 - (4 + t^2) tau^2 + 4 t^2.
INLINE_M4 = {
    "m": 4,
    "n": 1,
    "horizon": 1.0,
    "coefficients": [[
        [[0.0], [1.0], [0.0], [0.0]],
        [[0.0], [0.0], [1.0], [0.0]],
        [[0.0], [0.0], [0.0], [1.0]],
        [[0.0, 0.0, -4.0], [0.0], [4.0, 0.0, 1.0], [0.0]],
    ]],
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    expected_exit: int

    def config_for(self, seed: int) -> dict:
        return {**self.config, "seed": seed}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("conditions-m3", "conditions", {"system": {"name": "m3-tracezero"}}, 2),
        Workload(
            "report-m4",
            "report",
            {
                "system": INLINE_M4,
                "grids": {"t_points": 41, "xi_points": 8, "xi_list": [1.0, 10.0, 100.0]},
            },
            2,
        ),
        Workload(
            "solve-glaeser",
            "solve",
            {"system": {"name": "m2-glaeser"}, "grid_size": 128, "initial_data": FOURIER_MODES},
            0,
        ),
        Workload(
            "solve-wave",
            "solve",
            {"system": {"name": "m2-wave"}, "grid_size": 1024, "initial_data": FOURIER_MODES},
            0,
        ),
    )
}
