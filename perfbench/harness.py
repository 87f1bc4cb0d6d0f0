"""Runs one workload and turns its steps into metrics.

Untraced runs (``trace=False``) give the end-to-end metrics: set-up is
repeated ``Workload.setup_repeats`` times and its median reported, then
the closed loop runs for the given seconds. Loop timings are reported in
reference units (see :mod:`perfbench.workloads`), which the host's
bursts of slowness do not move; their values in seconds are printed
beside them. A workload whose inputs run out (``Workload.pass_steps``)
starts over on a fresh, untimed set-up of the same seed; the timings
come from the complete passes (from the one partial pass if none
completes), so every run times the same steps. Traced runs give the
per-layer metrics: one untraced and one traced set-up, then a loop whose
blocks of steps run traced and untraced in the order traced, untraced,
untraced, traced (repeated), so the tracing overhead is measured on the
same request mix and a drift of step cost along the run cancels.

The set-up's objects are frozen out of the cyclic collector. After every
step, outside its timing, a collection runs and the step's surviving
objects are frozen too, so a collection of earlier steps' garbage does
not land inside a timed request and each collection scans one step's
objects only.
"""

from __future__ import annotations

import gc
import json
import pathlib
import resource
import statistics
import time
from dataclasses import dataclass, field

from .tracer import LAYER_UNITS, LayerTracer, ROOT_SETUP, ROOT_STEP, \
    loop_metrics, setup_metrics
from .workloads import WORKLOADS, HostSpeed, Step, Workload

_perf = time.perf_counter

#: The end-to-end metrics of an untraced run and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "latency_ref.p50": "ref",
    "latency_ref.p90": "ref",
    "throughput_per_ref": "1/ref",
}

#: The loop timings of an untraced run in seconds, printed beside the
#: end-to-end metrics but not part of the result line.
SECONDS_UNITS = {
    "latency_s.p50": "s",
    "latency_s.p90": "s",
    "throughput_per_s": "1/s",
}

#: Every metric the benchmark reports, with its unit.
UNITS = {**END_TO_END_UNITS, **SECONDS_UNITS, **LAYER_UNITS}

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def traced_block(index: int, block: int) -> bool:
    """Whether step ``index`` of a traced run is traced: blocks of
    ``block`` steps go traced, untraced, untraced, traced, and so on."""
    pair, second = divmod(index // block, 2)
    return second == pair % 2


@dataclass
class LoopTotals:
    """The timings of a set of steps, in seconds and in reference units.

    A sample's time is its interval less the host-speed readings inside
    it; its time in reference units divides that by the speed the
    readings in and around the interval give (:meth:`HostSpeed.over`).
    """

    latencies: list[float] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    work: float = 0.0
    work_wall: float = 0.0
    work_cost: float = 0.0
    steps: int = 0

    def add(self, step: Step, speed: HostSpeed) -> None:
        for start, end in step.samples:
            latency = end - start - speed.busy(start, end)
            self.latencies.append(latency)
            self.costs.append(latency / speed.over(start, end))
        start, end = step.work_interval
        wall = end - start - speed.busy(start, end)
        self.work += step.work
        self.work_wall += wall
        self.work_cost += wall / speed.over(start, end)
        self.steps += 1

    def extend(self, other: LoopTotals) -> None:
        self.latencies.extend(other.latencies)
        self.costs.extend(other.costs)
        self.work += other.work
        self.work_wall += other.work_wall
        self.work_cost += other.work_cost
        self.steps += other.steps

    @property
    def throughput(self) -> float:
        """Work per second."""
        return self.work / self.work_wall if self.work_wall else 0.0

    @property
    def throughput_per_ref(self) -> float:
        """Work per reference unit."""
        return self.work / self.work_cost if self.work_cost else 0.0


@dataclass
class RunResult:
    workload: str
    seed: int
    attempted: int
    failed: int
    metrics: dict[str, float]
    detail: dict


def _setup(workload: Workload, tracer: LayerTracer | None = None) -> float:
    gc.collect()
    started = _perf()
    if tracer is None:
        workload.setup()
    else:
        with tracer.installed(), tracer.root(ROOT_SETUP):
            workload.setup()
    return _perf() - started


def run_workload(name: str, seed: int, seconds: float, *, trace: bool,
                 smoke: bool = False, steps: int | None = None) -> RunResult:
    """Run workload ``name``; with ``steps`` the loop runs exactly that
    many steps (tests) instead of for ``seconds``."""
    workload_class = WORKLOADS[name]
    tracer = LayerTracer() if trace else None
    if tracer is None:
        setup_times = []
        for _ in range(workload_class.setup_repeats):
            workload = workload_class(seed, smoke)
            setup_times.append(_setup(workload))
    else:
        untraced_setup = _setup(workload_class(seed, smoke))
        workload = workload_class(seed, smoke)
        traced_setup = _setup(workload, tracer)
        setup_ledger = tracer.new_phase()
    gc.collect()
    gc.freeze()

    speed = workload.speed
    # Timings of the complete passes, and of the pass under way.
    totals = {True: LoopTotals(), False: LoopTotals()}
    current = {True: LoopTotals(), False: LoopTotals()}
    passes = 0
    attempted = failed = 0
    rss = None
    index = position = 0
    deadline = _perf() + seconds
    while (index < steps) if steps is not None else (_perf() < deadline):
        if position == workload.pass_steps:
            # The inputs ran out: the pass is complete. Start over on a
            # fresh set-up of the same seed, untimed.
            final_attempted, final_failed = workload.finish()
            attempted += final_attempted
            failed += final_failed
            for traced in current:
                totals[traced].extend(current[traced])
            current = {True: LoopTotals(), False: LoopTotals()}
            passes += 1
            # The last step's check still refers to the finished pass.
            step = workload = None
            gc.unfreeze()
            gc.collect()
            workload = workload_class(seed, smoke)
            workload.speed = speed
            if tracer is None:
                workload.setup()
            else:
                with tracer.aside():
                    workload.setup()
            gc.collect()
            gc.freeze()
            position = 0
        traced = tracer is not None and traced_block(index, workload.block)
        if traced:
            with tracer.installed(), tracer.root(ROOT_STEP):
                step = workload.step(position)
        else:
            step = workload.step(position)
        # Checks run untraced: they are not the program's work.
        failed += step.check()
        attempted += step.attempted
        # The step's last reading is in: its timings can be taken.
        current[traced].add(step, speed)
        index += 1
        position += 1
        gc.collect()
        gc.freeze()
        if index == workload.rss_steps:
            rss = peak_rss_mb()
    final_attempted, final_failed = workload.finish()
    attempted += final_attempted
    failed += final_failed
    if rss is None:
        rss = peak_rss_mb()
    gc.unfreeze()
    if passes == 0 or position == workload.pass_steps:
        for traced in current:
            totals[traced].extend(current[traced])
        passes += 1

    if tracer is None:
        loop = totals[False]
        costs = loop.costs or [0.0]
        latency = loop.latencies or [0.0]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss,
            "latency_ref.p50": percentile(costs, 0.5),
            "latency_ref.p90": percentile(costs, 0.9),
            "throughput_per_ref": loop.throughput_per_ref,
        }
        detail = {
            "steps": index,
            "timed_steps": loop.steps,
            "timed_passes": passes,
            "latency_samples": len(latency),
            "setup_runs_s": setup_times,
            "seconds": dict(zip(SECONDS_UNITS, (
                percentile(latency, 0.5), percentile(latency, 0.9),
                loop.throughput))),
            "labels": workload_class.labels,
        }
    else:
        loop_ledger = tracer.new_phase()
        metrics = loop_metrics(loop_ledger)
        metrics["journal.records_at_end"] = tracer.journal_records()
        on = totals[True].throughput_per_ref
        off = totals[False].throughput_per_ref
        metrics["trace.overhead_ratio"] = off / on if on else 0.0
        metrics.update(setup_metrics(setup_ledger))
        metrics["setup.overhead_ratio"] = traced_setup / untraced_setup
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}-seed{seed}.trace.json"
        path.write_text(json.dumps({
            "workload": name, "seed": seed,
            "setup": setup_ledger.to_dict(),
            "loop": loop_ledger.to_dict(),
        }))
        detail = {"traced_steps": totals[True].steps,
                  "untraced_steps": totals[False].steps,
                  "trace_file": str(path)}
    return RunResult(name, seed, attempted, failed, metrics, detail)
