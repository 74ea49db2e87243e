"""Layer-by-layer benchmark of the DSCS-Serverless reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``perfbench/workloads.json`` through the public
registry API, ``REGISTRY.run(<spec>, **overrides, seed=N)``, from the root
of a source checkout (the program is imported from ``src/``).

``--trace 0`` reports the end-to-end metrics with every probe off: the
median of five fresh-process set-ups, the peak memory of one untimed
warm-up iteration, then the median wall time and work rate of at least
two timed iterations lasting ``--seconds`` in all.  ``--trace 1`` runs one
warm-up iteration, then alternates untraced and traced iterations and
reports the per-layer metrics of ``probes.py`` plus the tracing overhead.

Every iteration's outputs are checked per cell (see :class:`Workload`).
The last line of standard output is the JSON result; the exit code is 1
if any cell failed.  ``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Engine modules the program imports lazily on first use; set-up imports
# them so that cost is charged to setup_s rather than hidden in warm-up.
LAZY_MODULES = (
    "repro.cluster.streaming",
    "repro.cluster.chaos_engine",
    "repro.cluster.control_engine",
    "repro.models.zoo",
)
SETUP_SAMPLES = 5
# Timed iterations per run at least, so wall_s is never a single sample.
MIN_TIMED = 2
MEMORY_INTERVAL_S = 0.01


def set_up() -> float:
    """Everything a user pays once per process before the first run."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import importlib

    import numpy as np

    from repro.experiments.common import BASELINE_NAME, DSCS_NAME
    from repro.experiments.registry import REGISTRY, git_describe, load_all

    load_all()
    for module in LAZY_MODULES:
        importlib.import_module(module)
    context = REGISTRY.context_cache.get([BASELINE_NAME, DSCS_NAME])
    # invoke() compiles and cycle-simulates every DSA-backed function
    # through the shared program cache (the platforms memoise the reports).
    for model in context.models.values():
        for app in context.applications.values():
            model.invoke(app, np.random.default_rng(0))
    git_describe()
    return time.perf_counter() - start


def machine_record() -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def setup_probe() -> float:
    """Set-up time of a fresh interpreter running :func:`set_up`."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


# ------------------------------------------------------------------ workload
class Workload:
    """One pinned workload: its registry calls and its output checks.

    Every cell's digest must agree across the run's iterations and, on
    the recorded seed (on every seed for a workload that takes none),
    match ``workloads.json``.  A cell that raised, went missing,
    mismatched or broke request conservation counts as failed.
    """

    def __init__(self, name: str, spec: dict, seed: int, default_seed: int) -> None:
        from repro.experiments.registry import REGISTRY

        self.calls = spec["calls"]
        self.recorded = spec.get("digests", {})
        self.kwargs = []
        for call in self.calls:
            kwargs = dict(call["overrides"])
            if any(param.name == "seed" for param in REGISTRY.get(call["spec"]).params):
                kwargs["seed"] = seed
            self.kwargs.append(kwargs)
        # A workload whose experiments take no seed is checked against the
        # record on every seed.
        self.check_recorded = seed == default_seed or not any(
            "seed" in kwargs for kwargs in self.kwargs
        )
        # Per-call cell labels come from the record; labels do not depend
        # on the seed, so every run checks that each call yields them all.
        self.expected_cells = [
            sorted(key for key in self.recorded if key.split("/", 1)[0] == call["spec"])
            for call in self.calls
        ]
        if not all(self.expected_cells):
            raise SystemExit(f"workloads.json records no digests for {name!r}")
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def workers(self) -> int:
        return max(int(kwargs.get("workers") or 1) for kwargs in self.kwargs)

    def run(self) -> list:
        """One iteration: every call, exceptions caught per call."""
        from repro.experiments.registry import REGISTRY

        outcomes = []
        for call, kwargs in zip(self.calls, self.kwargs):
            try:
                outcomes.append(REGISTRY.run(call["spec"], **kwargs))
            except Exception:
                traceback.print_exc()
                outcomes.append(None)
        return outcomes

    def check(self, outcomes: list) -> float:
        """Count attempted/failed cells; returns the iteration's work."""
        first = self.reference is None
        if first:
            self.reference = {}
        work = 0.0
        for expected, outcome in zip(self.expected_cells, outcomes):
            self.attempted += len(expected)
            cells = {}
            if outcome is not None:
                try:
                    cells = cell_results(outcome)
                except Exception:
                    traceback.print_exc()
            failed = set(expected) - set(cells)
            for label, (digest, items, sound) in cells.items():
                work += items
                if first:
                    self.reference[label] = digest
                if (
                    label not in expected
                    or not sound
                    or digest != self.reference.get(label)
                    or (self.check_recorded and digest != self.recorded[label])
                ):
                    failed.add(label)
            for label in sorted(failed):
                print(f"cell failed: {label}", file=sys.stderr)
            self.failed += min(len(failed), len(expected))
        return work


def _rows_digest(row: dict) -> str:
    encoded = json.dumps(row, sort_keys=True).encode()
    return "sha256:" + hashlib.sha256(encoded).hexdigest()


def cell_results(result) -> dict:
    """``{spec/cell label: (digest, work items, invariants hold)}``.

    Rack cells hash with the program's series check hash, fleets with
    ``FleetResult.fleet_hash`` (over per-rack streamed check hashes),
    design points by their result rows.
    """
    from repro.cluster.fleet_engine import series_check_hash

    name = result.experiment
    study = result.study
    if name == "fig07":
        return {f"{name}/{row['config']}": (_rows_digest(row), 1, True) for row in result.rows}
    if name == "fig13-fleet":
        return {
            f"{name}/{platform} x{rate:g} {lb}": (
                fleet.fleet_hash,
                fleet.total_requests,
                fleet.completed + fleet.dropped == fleet.total_requests
                and all(r.completed + r.dropped == r.requests for r in fleet.racks),
            )
            for (rate, lb, platform), fleet in study.results.items()
        }
    groups = study if isinstance(study, list) else list(study.results.values())
    cells = [cell for group in groups for cell in (group if isinstance(group, list) else [group])]
    out = {}
    for cell in cells:
        total = cell.series.total_requests
        out[f"{name}/{cell.scenario.label()}"] = (
            series_check_hash(cell.series),
            total,
            cell.completed_count + cell.dropped_requests == total,
        )
    return out


def info_lines(outcomes: list) -> list:
    """Simulated statistics of one iteration, printed as information."""
    lines = []
    for outcome in outcomes:
        if outcome is None:
            continue
        for row in outcome.rows:
            if "config" in row:
                lines.append(
                    f"  {row['config']}: {row['fps']} fps, "
                    f"{row['total_power_w']} W, feasible={row['feasible']}"
                )
                continue
            if row.get("scope") == "rack":
                continue
            requests = row["requests"]
            share = row["dropped"] / requests if requests else 0.0
            knobs = [
                f"{key}={row[key]}"
                for key in ("policy", "mtbf_s", "retry", "shedding", "racks")
                if key in row
            ]
            lines.append(
                f"  {outcome.experiment} {row['platform']} {' '.join(knobs)}: "
                f"p99 {row['p99_latency_s']} s, drop share {share:.4f}, "
                f"peak queue {row['peak_queue']}"
            )
    return lines


# ------------------------------------------------------------------ passes
def timed(workload: Workload):
    start = time.perf_counter()
    outcomes = workload.run()
    return time.perf_counter() - start, outcomes


def _rollup_kib(pid: int, fields) -> int:
    """Sum of ``fields`` in a process's smaps_rollup; 0 once it exited."""
    try:
        rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return 0
    return sum(
        int(re.search(rf"^{field}:\s+(\d+) kB", rollup, re.M).group(1))
        for field in fields
    )


def tree_memory_kib() -> int:
    """Resident memory of this process plus the private memory of its children.

    A forked pool worker shares its parent's pages until it writes them, so
    counting only the worker's private pages counts every resident page
    once, even while a worker is exiting.
    """
    total = _rollup_kib(os.getpid(), ("Rss",))
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids = children.read_text().split()
        except OSError:  # the thread exited after the listing
            continue
        for pid in pids:
            total += _rollup_kib(int(pid), ("Private_Clean", "Private_Dirty"))
    return total


def memory_pass(workload: Workload) -> float:
    """Peak memory (MiB) of the process tree over one untimed iteration."""
    done = threading.Event()
    peak = [0]
    errors = []

    def sample() -> None:
        try:
            while not done.wait(MEMORY_INTERVAL_S):
                peak[0] = max(peak[0], tree_memory_kib())
        except Exception as error:  # re-raised below: no silent under-count
            errors.append(error)

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        outcomes = workload.run()
    finally:
        done.set()
        sampler.join()
    if errors:
        raise errors[0]
    workload.check(outcomes)
    return max(peak[0], tree_memory_kib()) / 1024


def end_to_end(workload: Workload, seconds: float, setup_first: float) -> dict:
    setups = [setup_first]
    peak = memory_pass(workload)
    walls, works = [], []
    # Set-up probes run between timed iterations, so the set-up samples
    # spread over the whole run instead of one burst.
    while len(walls) < MIN_TIMED or sum(walls) < seconds:
        wall, outcomes = timed(workload)
        walls.append(wall)
        works.append(workload.check(outcomes))
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup_probe())
    setups += [setup_probe() for _ in range(SETUP_SAMPLES - len(setups))]
    wall = statistics.median(walls)
    rate = statistics.median(works) / wall
    # work_per_s under the name the workload's kind of work goes by.
    alias = "design_points_per_s" if workload.calls[0]["spec"] == "fig07" else "sim_requests_per_s"
    print(f"setup_s samples: {[round(s, 4) for s in setups]}")
    print(f"wall_s samples:  {[round(w, 4) for w in walls]}")
    print(f"{alias}: {rate:.1f} 1/s ({works[0]:g} per iteration)")
    print("simulated (information only):")
    print("\n".join(info_lines(outcomes)))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "work_per_s": rate,
        "peak_mem_mb": peak,
    }


def per_layer(workload: Workload, seconds: float, label: str) -> dict:
    from probes import Recorder, install, layer_metrics

    workload.check(timed(workload)[1])  # warm-up
    untraced, traced, layers = [], [], []
    with tempfile.TemporaryDirectory(dir=OUT) as channel:
        recorder = Recorder(Path(channel))
        while not traced or sum(untraced) + sum(traced) < seconds:
            wall, outcomes = timed(workload)
            untraced.append(wall)
            workload.check(outcomes)
            recorder.iteration = len(traced)
            recorder.counts.clear()
            first = len(recorder.spans)
            undo = install(recorder)
            try:
                wall, outcomes = timed(workload)
            finally:
                undo()
            traced.append(wall)
            workload.check(outcomes)
            layers.append(
                layer_metrics(recorder.spans, first, recorder.counts, recorder.main_pid)
            )
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["tracing.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    spans_path = OUT / f"spans-{label}.json"
    spans_path.write_text(
        json.dumps(
            {
                "machine": machine_record(),
                "untraced_wall_s": untraced,
                "traced_wall_s": traced,
                "fields": ["name", "start", "end", "parent", "iteration", "pid"],
                "spans": recorder.spans,
                "main_pid": recorder.main_pid,
            }
        )
    )
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics


# ------------------------------------------------------------------ main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program source at {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    setup_first = set_up()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    record = json.loads((BENCH / "workloads.json").read_text())
    if args.workload not in record["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; expected one of {list(record['workloads'])}")
    workload = Workload(
        args.workload, record["workloads"][args.workload], args.seed, record["default_seed"]
    )
    machine = machine_record()
    print(f"machine: {json.dumps(machine)}")
    if workload.workers() > machine["usable_cpus"]:
        print(
            f"refusing workers={workload.workers()} on {machine['usable_cpus']} usable CPUs",
            file=sys.stderr,
        )
        return 2
    print(f"workload {args.workload}, seed {args.seed}: {record['model_validation']}")

    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics = per_layer(workload, args.seconds, label)
    else:
        metrics = end_to_end(workload, args.seconds, setup_first)
    contract = _contract_metrics(args.trace)
    if set(contract) != set(metrics):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(contract) ^ set(metrics))}", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {contract[name]}")
    error_rate = workload.failed / workload.attempted
    print(f"{'error_rate':42s} {error_rate:.6g} ({workload.failed} of {workload.attempted} cells)")
    correct = workload.failed == 0
    if not correct:
        print("outputs: FAILED (see the cells named on standard error)")
    elif workload.check_recorded:
        print("outputs: every iteration agrees and matches the recorded digests")
    else:
        print("outputs: every iteration agrees (digests are recorded for the default seed)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": workload.attempted,
                "failed": workload.failed,
                "metrics": {
                    name: {"value": value, "unit": contract[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _contract_metrics(trace: int) -> dict:
    """Metric name -> unit that BENCHMARK.json fixes for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
