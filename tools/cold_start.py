"""Time cold `wfano` commands in two checkouts.

    python tools/cold_start.py OLD NEW [--runs N]

For each of `enumerate`, `show 13`, `export --format json`, `verify` and
`eval-tower` on the packaged `family25-gram.tower`, it starts N fresh
`python -I` interpreters per checkout (30 by default, at least 2),
alternating which checkout goes first, and each one times
`from wfano.cli import main; main(argv)` on CHECKOUT/src with stdout
captured.  A child runs in CHECKOUT/src, so the tower path names that
checkout's own file.  The clock runs inside the child, so interpreter
start-up is left out, as in the benchmark's `setup_s`.  It prints each
side's median and quartiles in milliseconds, one line per command.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

COMMANDS = (
    ["enumerate"], ["show", "13"], ["export", "--format", "json"], ["verify"],
    ["eval-tower", "wfano/data/towers/family25-gram.tower"],  # relative to src
)

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
        [sys.executable, "-I", "-c", CHILD, str(src.resolve()), *argv],
        cwd=src, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(child.stdout)


def at_least_two(text: str) -> int:
    # the quartiles need two samples a side
    runs = int(text)
    if runs < 2:
        raise argparse.ArgumentTypeError(f"at least 2 runs needed, got {runs}")
    return runs


def summary(samples: list[float]) -> str:
    q1, med, q3 = (1000 * q for q in statistics.quantiles(samples, n=4, method="inclusive"))
    return f"{med:6.1f} ({q1:.1f}-{q3:.1f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--runs", type=at_least_two, default=30)
    args = parser.parse_args(argv)
    sides = [args.old / "src", args.new / "src"]
    print(f"{'command':30} {'old ms, median (quartiles)':28} new ms, median (quartiles)")
    for command in COMMANDS:
        samples = [[], []]
        for i in range(args.runs):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                samples[side].append(cold_run(sides[side], command))
        label = " ".join(Path(arg).name for arg in command)
        print(f"{label:30} {summary(samples[0]):28} {summary(samples[1])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
