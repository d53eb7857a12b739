#!/usr/bin/env python3
"""Record the reference outputs that the correctness gate compares against.

    python3 perfbench/make_refs.py

Runs every workload once per seed 0..SEEDS-1 through the same child process
as the benchmark and writes ``perfbench/refs/index.json`` (exit code, and per
seed the SHA-256 of each output and the seed-dependent parts of report.json)
and ``perfbench/refs/<workload>/<file>.xz`` (the seed-0 outputs verbatim).

The references belong to the commit that added the benchmark.  Re-recording
them on a later commit would let a change in the results pass the gate;
do it only in a change that says why the reference outputs move.
"""

from __future__ import annotations

import json
import lzma
import shutil

from gate import REFS, seeded_parts, sha256
from run import WORK, spawn
from workloads import WORKLOADS

# Seeds with a full per-seed record; other seeds skip the seeded checks.
SEEDS = 16


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    index = {}
    for workload in WORKLOADS.values():
        seeds, exit_codes = {}, set()
        for seed in range(SEEDS):
            config = WORK / "config.json"
            config.write_text(json.dumps(workload.config_for(seed)))
            out = WORK / "out"
            shutil.rmtree(out, ignore_errors=True)
            result = spawn(["run", str(config), workload.command, str(out)])
            if result["status"] != 0:
                raise SystemExit(f"{workload.name} seed {seed}: child exited {result['status']}")
            exit_codes.add(result["exit"])
            files = sorted(out.iterdir())
            seeds[str(seed)] = {
                "sha256": {p.name: sha256(p) for p in files},
                "seeded": seeded_parts((out / "report.json").read_text()),
            }
            if seed == 0:
                target = REFS / workload.name
                shutil.rmtree(target, ignore_errors=True)
                target.mkdir(parents=True)
                for p in files:
                    (target / f"{p.name}.xz").write_bytes(
                        lzma.compress(p.read_bytes(), preset=9 | lzma.PRESET_EXTREME))
            print(f"{workload.name} seed {seed}: exit {result['exit']}", flush=True)
        if exit_codes != {workload.expected_exit}:
            raise SystemExit(f"{workload.name}: exit codes {exit_codes}, "
                             f"expected {workload.expected_exit}")
        index[workload.name] = {"exit_code": workload.expected_exit, "seeds": seeds}
    (REFS / "index.json").write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
