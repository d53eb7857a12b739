"""One benchmark command in a fresh interpreter, as a user's CLI call would be.

    python3 perfbench/child.py setup   CONFIG COMMAND OUT
    python3 perfbench/child.py run     CONFIG COMMAND OUT [--trace SPANS]
    python3 perfbench/child.py kernels

``setup`` imports ``hyposym.cli`` and parses the config; ``run`` then calls
``hyposym.cli.run`` like ``hyposym COMMAND --config CONFIG --out OUT``;
``kernels`` prints the fixed-seed kernel table.  The last line of standard
output is one JSON object.  ``ready`` is the CLOCK_MONOTONIC time at which
the config was parsed, so the parent can measure set-up from before it
started this process.  ``hyposym`` must come from ``src/`` of the checkout
that holds this file (the parent sets PYTHONPATH).
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    import hyposym.cli

    if SRC not in Path(hyposym.cli.__file__).resolve().parents:
        raise SystemExit(f"hyposym was imported from {hyposym.cli.__file__}, not from {SRC}")
    return hyposym.cli


def _command(mode: str, config_path: str, command: str, out: str, spans_path: str | None):
    cli = _import_cli()
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        config = cli.parse_config(Path(config_path).read_text())
    except cli.ConfigError as exc:
        raise SystemExit(f"config error: {exc}")
    result = {"ready": time.monotonic()}
    if mode == "run":
        from hyposym.errors import CapabilityError, DomainError

        t0 = time.perf_counter()
        try:
            code = cli.run(config, command, Path(out))
        except (DomainError, CapabilityError, OSError) as exc:
            # The same errors hyposym.cli.main turns into exit code 1.
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        result["run_s"] = time.perf_counter() - t0
        result["exit"] = code
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(Path(spans_path))
    print(json.dumps(result))


def main(argv):
    parser = argparse.ArgumentParser(usage=__doc__)
    parser.add_argument("mode", choices=("setup", "run", "kernels"))
    parser.add_argument("paths", nargs="*", help="CONFIG COMMAND OUT")
    parser.add_argument("--trace", metavar="SPANS")
    args = parser.parse_args(argv)
    if args.mode == "kernels":
        _import_cli()
        from kernels import kernel_table

        print(json.dumps(kernel_table()))
        return
    if len(args.paths) != 3:
        parser.error("setup and run take CONFIG COMMAND OUT")
    _command(args.mode, *args.paths, args.trace)


if __name__ == "__main__":
    main(sys.argv[1:])
