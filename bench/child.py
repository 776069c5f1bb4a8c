"""One benchmark process: builds one workload scenario, runs it once and
prints one JSON object on its last line of standard output.

    python3 bench/child.py <mode> <workload> <seed>

Modes:
  timed    tracing off; set-up, loop and report timings plus output checks
  setup    set-up time only, for more set-up samples per benchmark run
  traced   the same run with span wrappers installed (bench/spans.py)
  check    `LinkLayer.check_consistency()` at every simulated second
  bundled  the four bundled scenarios, for digest and replay checks

`bench/run.py` starts one fresh process per run, so every timed run pays
the `wfdsim` import the way a `wfdsim run` user does.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from reference import NOMINAL_S, Reference  # noqa: E402


class Meter:
    """Scales host time to reference seconds (see reference.py): the
    reference runs between consecutive timed intervals, and an interval is
    scaled by the mean of the reference times around it."""

    def __init__(self, runs: int) -> None:
        self._reference = Reference()
        self._last = self._reference_s(runs)

    def _reference_s(self, runs: int) -> float:
        return sum(self._reference.run() for _ in range(runs)) / runs

    def scale(self, runs: int = 1) -> float:
        """Call right after a timed interval; returns its scale factor.
        `runs` reference runs are averaged on each side of it."""
        ref = self._reference_s(runs)
        scale = 2 * NOMINAL_S / (self._last + ref)
        self._last = ref
        return scale


# the import is the first and noisiest interval: average 4 reference runs
# on each side of it (this cut its spread between processes by a quarter)
METER = Meter(runs=4)
T_START = time.perf_counter()

sys.path.insert(0, os.path.join(ROOT, "src"))
import wfdsim  # noqa: E402
from wfdsim import engine, linklayer, routing, scenario, simulation, topology, transfer  # noqa: E402,E501

T_IMPORTED = time.perf_counter()
IMPORT_SCALE = METER.scale(runs=4)

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SECOND = engine.SECOND
BUNDLED = ("chain4", "gc_pair", "two_groups_bridge", "mobility_break")
# (event class, first field) pairs counted from the serialized trace
TRACE_COUNTS = {
    "linklayer.discovery_legs": ("DISCOVERY", "action=leg"),
    "linklayer.discovery_found": ("DISCOVERY", "action=found"),
    "linklayer.evictions": ("GROUP", "action=evict"),
    "linklayer.groups_dissolved": ("GROUP", "action=dissolved"),
    "linklayer.frames_lost": ("DROP", "reason=lost"),
    "simulation.directive_retries": ("CONNECT", "action=retry"),
}


def _slices(sim, duration_us: int, after):
    """Run to the end in 1-simulated-second slices, calling `after()`
    outside the timed interval after each one.  Returns the host seconds
    and process CPU seconds of every slice and the event queue's
    high-water mark at slice boundaries."""
    wall, cpu, queue_max = [], [], 0
    clock, cpu_clock = time.perf_counter, time.process_time
    t = 0
    while t < duration_us:
        t = min(t + SECOND, duration_us)
        start, cpu_start = clock(), cpu_clock()
        sim.run_until(t)
        wall.append(clock() - start)
        cpu.append(cpu_clock() - cpu_start)
        # the queue holds lazily cancelled events too, as the engine does
        queue_max = max(queue_max, len(sim.engine._queue))
        after()
    return wall, cpu, queue_max


def _percentile_ms(values_us: list, q: float):
    values = sorted(values_us)
    return values[min(len(values) - 1, int(q * len(values)))] / 1000


def _check_outputs(scn, sim, summary, text: str) -> tuple[list[str], int]:
    """Output checks on one run.  Returns (problems, failed sends)."""
    problems = []
    if wfdsim.build_summary(io.StringIO(text)) != summary:
        problems.append("summary rebuilt from the serialized trace differs "
                        "from the run's summary")
    reports = sim.transfer.reports
    attempted = len(scn.traffic)
    if sorted(reports) != list(range(attempted)):
        problems.append(f"{attempted} sends but reports for "
                        f"{len(reports)} app_seqs")
    flows = {f.app_seq: f for f in summary.flows}
    for seq, rep in sorted(reports.items()):
        flow = flows.get(seq)
        if flow is None:
            problems.append(f"app_seq {seq}: report {rep.outcome.value} "
                            f"but no flow in the summary")
        elif (rep.outcome.value, rep.src, rep.dst) != \
                (flow.outcome, flow.src, flow.dst):
            problems.append(f"app_seq {seq}: report {rep.outcome.value} "
                            f"{rep.src}->{rep.dst}, summary {flow.outcome} "
                            f"{flow.src}->{flow.dst}")
        elif rep.outcome.value == "DELIVERED" and \
                (rep.path, rep.latency_us) != (flow.path, flow.latency_us):
            problems.append(f"app_seq {seq}: report path {rep.path} "
                            f"latency {rep.latency_us}, summary path "
                            f"{flow.path} latency {flow.latency_us}")
    failed = sum(1 for seq in range(attempted)
                 if seq not in reports
                 or reports[seq].outcome.value != "DELIVERED")
    return problems[:10], failed


def _trace_counts(text: str) -> dict:
    seen = Counter(tuple(line.split(" ", 4)[2:4])
                   for line in text.splitlines())
    counts = {name: seen[key] for name, key in TRACE_COUNTS.items()}
    counts["trace.records"] = text.count("\n")
    counts["trace.bytes"] = len(text.encode("utf-8"))
    return counts


def build(name: str, seed: int, tracer=None) -> tuple:
    """Set-up as a `wfdsim run` user pays it: the import (done when this
    process started), load_scenario and Simulation.  Returns the scenario,
    the simulation and the set-up figures."""
    raw = workloads.generate(name, seed)  # not part of set-up
    start = time.perf_counter()
    scn = scenario.load_scenario(raw)
    sim = simulation.Simulation(scn)
    build_raw = time.perf_counter() - start
    scale = METER.scale()
    if tracer is not None:
        tracer.checkpoint(scale)
    import_raw = T_IMPORTED - T_START
    import_s = import_raw * IMPORT_SCALE
    return scn, sim, {"import_s": import_s,
                      "setup_s": import_s + build_raw * scale,
                      "setup_s_raw": import_raw + build_raw}


def run_workload(name: str, seed: int, traced: bool) -> dict:
    """One run.  Host times are in reference seconds (see Meter); the
    `_raw` keys are unscaled."""
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install((engine, topology, linklayer, routing, transfer,
                        simulation, scenario))
    scn, sim, out = build(name, seed, tracer)
    out["attempted"] = len(scn.traffic)
    scales = []

    def after_slice():
        scales.append(METER.scale())
        if tracer is not None:
            tracer.checkpoint(scales[-1])

    try:
        wall, cpu, queue_max = _slices(sim, scn.sim.duration_us, after_slice)
    except Exception:
        # a run where an exception escapes the simulator fails every send
        out.update(crashed=traceback.format_exc(), failed=len(scn.traffic))
        return out
    slice_ms = sorted((1000 * w * k for w, k in zip(wall, scales)),
                      reverse=True)
    out.update(sim_s=sum(slice_ms) / 1000, sim_s_raw=sum(wall),
               sim_cpu_s_raw=sum(cpu))

    def sha256(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    if tracer is not None:
        sha256 = tracer.wrap("trace.sha256", sha256)
    # what `wfdsim run --trace` pays after the loop: Simulation.summary()
    # (the trace lines, then build_summary), the trace text and its digest
    report_raw = report_s = 0.0

    def report_part(fn, *args):
        nonlocal report_raw, report_s
        start = time.perf_counter()
        value = fn(*args)
        elapsed = time.perf_counter() - start
        scale = METER.scale()
        if tracer is not None:
            tracer.checkpoint(scale)
        report_raw += elapsed
        report_s += elapsed * scale
        return value

    summary = report_part(simulation.build_summary,
                          report_part(sim.trace.lines))
    text = report_part(sim.trace.dump)
    digest = report_part(sha256, text)
    out.update(report_s=report_s, report_s_raw=report_raw)
    out["wall_s"] = out["setup_s"] + out["sim_s"] + out["report_s"]
    out["wall_s_raw"] = out["setup_s_raw"] + out["sim_s_raw"] + report_raw
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024

    steps = sim.engine.steps
    out.update(digest=digest, events=steps, events_per_s=steps / out["sim_s"],
               slice_ms_p50=statistics.median(slice_ms),
               slice_ms_tail=slice_ms[min(10, len(slice_ms) - 1)],
               queue_max=queue_max)
    problems, failed = _check_outputs(scn, sim, summary, text)
    latencies = sorted(r.latency_us for r in sim.transfer.reports.values()
                       if r.latency_us is not None)
    out.update(problems=problems, failed=failed, delivered=len(latencies),
               counts=_trace_counts(text))
    if latencies:
        out["sim_latency_p50_ms"] = _percentile_ms(latencies, 0.5)
    if len(latencies) >= 100:
        out["sim_latency_p90_ms"] = _percentile_ms(latencies, 0.9)
    if tracer is not None:
        out["layers"] = tracer.totals()
        out["merge_entries"] = tracer.merge_entries
        out["merge_changed"] = tracer.merge_changed
        spans_dir = os.path.join(HERE, "out")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.write(os.path.join(spans_dir, f"spans-{name}-{seed}.tsv"))
    return out


def run_check(name: str, seed: int) -> dict:
    scn = scenario.load_scenario(workloads.generate(name, seed))
    sim = simulation.Simulation(scn)
    violations = []

    def check():
        try:
            sim.linklayer.check_consistency()
        except AssertionError:
            violations.append(sim.engine.now() // SECOND)

    try:
        _slices(sim, scn.sim.duration_us, check)
    except Exception:
        return {"crashed": traceback.format_exc()}
    return {"invariant_violations": len(violations),
            "violation_seconds": violations[:20],
            "digest": sim.trace.sha256()}


def run_bundled() -> dict:
    digests, problems = {}, []
    for name in BUNDLED:
        one_shot = simulation.Simulation.from_source(name)
        summary = one_shot.run()
        sliced = simulation.Simulation.from_source(name)
        _slices(sliced, sliced.scenario.sim.duration_us, lambda: None)
        text = one_shot.trace.dump()
        digests[name] = one_shot.trace.sha256()
        if sliced.trace.sha256() != digests[name]:
            problems.append(f"{name}: sliced run digest differs from the "
                            f"one-shot run")
        if wfdsim.build_summary(io.StringIO(text)) != summary:
            problems.append(f"{name}: replayed summary differs")
        try:
            one_shot.linklayer.check_consistency()
        except AssertionError:
            problems.append(f"{name}: link layer inconsistent at the end")
    return {"digests": digests, "problems": problems}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "bundled":
        out = run_bundled()
    elif mode == "setup":
        out = build(argv[1], int(argv[2]))[2]
    elif mode == "check":
        out = run_check(argv[1], int(argv[2]))
    else:
        traced = {"timed": False, "traced": True}[mode]
        out = run_workload(argv[1], int(argv[2]), traced)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
