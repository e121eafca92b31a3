"""Time cold `wfano` commands in two checkouts.

    python tools/cold_start.py OLD NEW [--runs N]

For each of `enumerate`, `show 13`, `export --format json` and `verify`,
it starts N fresh `python -I` interpreters per checkout (30 by default),
alternating which checkout goes first, and each one times
`from wfano.cli import main; main(argv)` on CHECKOUT/src with stdout
captured.  The clock runs inside the child, so interpreter start-up is
left out, as in the benchmark's `setup_s`.  It prints each side's median
and quartiles in milliseconds, one line per command.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

COMMANDS = (["enumerate"], ["show", "13"], ["export", "--format", "json"], ["verify"])

CHILD = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from wfano.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[2:])
elapsed = time.perf_counter() - t0
if status:
    sys.exit(f"exit {status}")
print(elapsed)
"""


def cold_run(src: Path, argv: list[str]) -> float:
    """Seconds from the first import of `wfano.cli` to `main`'s return."""
    env = {k: v for k, v in os.environ.items() if k != "WFANO_DATA"}
    child = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, str(src), *argv],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(child.stdout)


def summary(samples: list[float]) -> str:
    q1, med, q3 = (1000 * q for q in statistics.quantiles(samples, n=4, method="inclusive"))
    return f"{med:6.1f} ({q1:.1f}-{q3:.1f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--runs", type=int, default=30)
    args = parser.parse_args(argv)
    sides = [args.old / "src", args.new / "src"]
    print(f"{'command':24} {'old ms, median (quartiles)':28} new ms, median (quartiles)")
    for command in COMMANDS:
        samples = [[], []]
        for i in range(args.runs):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                samples[side].append(cold_run(sides[side], command))
        print(f"{' '.join(command):24} {summary(samples[0]):28} {summary(samples[1])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
