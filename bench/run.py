"""Benchmark of the `wfano` package, run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of enumerate, screen, verify, towers, or `all` to run the four
one after another.  The run measures for S seconds, in whole passes of the
workload's fixed work, then checks the outputs with the oracles of
`oracles.py`, which do not import `wfano`.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json;
with `--trace 1` half the time runs untraced and half traced, and the
metrics are the per-layer ones.  A copy of the result, and in a traced run
the per-pass statistics of every wrapped function, goes to `bench/out/`.

The program is imported from `src/` of the same checkout and nowhere else;
without it the run exits with status 2.  Single process, single thread,
apart from the short-lived interpreters that time set-up.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "wfano" / "data"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_SAMPLES = 15

# set-up as a user pays it: a fresh interpreter imports the package and
# loads the dataset; timed inside the child, so interpreter start-up is out
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import wfano
wfano.load_families()
print(time.perf_counter() - t0)
"""


class SetupSampler:
    """Set-up samples spread over the run, so that their median sees the
    same host conditions as the passes."""

    def __init__(self):
        self.samples: list[float] = []

    def __call__(self, progress: float):
        env = {k: v for k, v in os.environ.items() if k != "WFANO_DATA"}
        while len(self.samples) < min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * progress)):
            child = subprocess.run(
                [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC)],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            self.samples.append(float(child.stdout))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


class Passes:
    """Whole passes of one workload, run until a time budget is spent."""

    def __init__(self, workload, program, before_pass=None, after_pass=None):
        self.workload = workload
        self.program = program
        self.before_pass = before_pass
        self.after_pass = after_pass
        self.walls, self.item_times, self.pass_medians = [], [], []
        self.peak_rss_mib = None
        self.attempted = self.failed = self.mismatched = 0
        self.first = None

    def run(self, budget: float):
        items = self.workload.items()
        start = perf_counter()
        while True:
            if self.before_pass:
                self.before_pass((perf_counter() - start) / budget)
            self.program.make_cold()
            gc.collect()
            t0 = perf_counter()
            times, outputs, failed = workloads.timed(items, self.workload.work)
            self.walls.append(perf_counter() - t0)
            if self.after_pass:
                self.after_pass()
            self.item_times += times
            self.pass_medians.append(statistics.median(times))
            self.attempted += len(times)
            self.failed += failed
            if self.first is None:
                self.first = outputs
                self.peak_rss_mib = peak_rss_mib()
            elif outputs != self.first:
                self.mismatched += 1
            if perf_counter() - start >= budget:
                return self


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(passes: Passes, setup_s: float) -> dict[str, float]:
    # The host's speed drifts in stretches of seconds.  A mean over passes
    # weighs fast and slow stretches by their length, where a median over
    # the run jumps between them; so wall_s is the mean pass and
    # item_p50_ms the mean of each pass's median item.
    return {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(passes.walls),
        "peak_rss_mib": passes.peak_rss_mib,
        "item_p50_ms": statistics.fmean(passes.pass_medians) * 1e3,
        "item_p99_ms": percentile(passes.item_times, 99) * 1e3,
    }


class LayerRecorder:
    """Per-pass statistics of a traced run."""

    def __init__(self, tracer, core):
        self.tracer = tracer
        self.core = core
        self.per_pass = []

    def __call__(self):
        snap = self.tracer.snapshot()
        info = getattr(getattr(self.core, "_reach_mask", None), "cache_info", None)
        if info:
            snap["core.reach_mask"] = {"entries": info().currsize, "misses": info().misses}
        self.per_pass.append(snap)
        self.tracer.reset()

    def value(self, name: str) -> float:
        layer, _, stat = name.rpartition(".")
        first = self.per_pass[0]
        if name == "enumerator.candidates":
            return first[name]["count"]
        if name == "enumerator.accept_ratio":
            candidates = first["enumerator.candidates"]["count"]
            accepted = first.get("enumerator.enumerate_families", {}).get("accepted", 0)
            return accepted / candidates if candidates else 0.0
        if stat.endswith("_s"):
            return statistics.median(p.get(layer, {}).get(stat, 0.0) for p in self.per_pass)
        return first.get(layer, {}).get(stat, 0)


def run_workload(name: str, seed: int, seconds: float, trace: bool, published) -> dict:
    program = workloads.Program()
    program.classifier.load_families()
    workload = workloads.WORKLOADS[name](program, published, seed, DATA)
    if not trace:
        setup = SetupSampler()
        runs = [Passes(workload, program, before_pass=setup).run(seconds)]
        setup(1.0)
        metrics = end_to_end(runs[0], statistics.median(setup.samples))
        names = SPEC["end_to_end"]
        detail = None
    else:
        plain = Passes(workload, program).run(seconds / 2)
        tracer = Tracer()
        recorder = LayerRecorder(tracer, program.core)
        tracer.install()
        try:
            traced = Passes(workload, program, after_pass=recorder).run(seconds / 2)
        finally:
            tracer.uninstall()
        runs = [plain, traced]
        metrics = {m["name"]: recorder.value(m["name"]) for m in SPEC["per_layer"]
                   if m["name"] != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(traced.walls) - statistics.median(plain.walls)
        names = SPEC["per_layer"]
        detail = recorder.per_pass
    problems = workload.check(runs[0].first)
    mismatched = sum(r.mismatched for r in runs)
    if runs[-1].first != runs[0].first:
        mismatched += 1
    if mismatched:
        problems.append(f"{mismatched} passes gave other outputs than the first")
    for line in problems[:20]:
        print(f"{name}: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "pass_walls_s": [r.walls for r in runs], "result": result, "layers": detail}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return result


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wfano" / "__init__.py").is_file():
        print(f"error: no wfano package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("WFANO_DATA", None)
    sys.path.insert(0, str(SRC))
    import wfano

    if Path(wfano.__file__).resolve().parent != SRC / "wfano":
        print(f"error: imported wfano from {wfano.__file__}, not {SRC}", file=sys.stderr)
        return 2
    published = oracles.read_published((DATA / "families.txt").read_text(encoding="utf-8"))

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), published)
    else:
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), published)
            print(json.dumps({"workload": name, **results[name]}))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
