"""wfdsim benchmark: generated workloads, host-time end-to-end metrics and a
traced per-layer split.

    python3 bench/run.py --workload chain_long --seed 1 --seconds 20 --trace 0

`--workload all` runs the three workloads one after the other.  Each run of
a workload is a single-threaded batch job in a fresh process
(`bench/child.py`), one at a time, repeated until `--seconds` have passed;
the figures reported are medians over those processes (set-up time also
over extra processes that only set up).  Host times are reported in
reference seconds: each timed interval is scaled by a fixed reference
workload run around it in the same process, which cancels the shared
host's swings in speed (see `reference.py`); the unscaled medians are
printed as `*_raw`.  With `--trace 0` the processes run untraced and the
end-to-end metrics are reported; with `--trace 1` untraced and traced
processes alternate and the per-layer metrics are reported.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

Every timed process checks its own outputs (see `child.py`); this script
also requires one trace digest per (workload, seed) across all processes,
and runs the four bundled scenarios once for digest and replay checks.  A
failed check prints the problem to standard error and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chain_long", "flows_many", "churn_grid")
CHILD_TIMEOUT_S = 150
MIN_RUNS = 3
# set-up is short and noisy, so each round adds set-up-only processes
SETUPS_PER_RUN = 2

# (name, unit); the name is also the key in the child's output
END_TO_END = [
    ("setup_s", "s"), ("sim_s", "s"), ("report_s", "s"), ("wall_s", "s"),
    ("events_per_s", "1/s"), ("slice_ms_p50", "ms"), ("slice_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
]
# unscaled host times, printed for reference only
RAW = ["setup_s_raw", "sim_s_raw", "sim_cpu_s_raw", "report_s_raw",
       "wall_s_raw"]
# spans whose calls and self time are reported per layer; engine.run_until's
# self time is reported as engine.self_s
SPANS = [
    "routing.advert_tick", "routing.merge_advert", "routing.handle_control",
    "routing.on_link_up", "routing.invalidate_neighbor",
    "routing.select_route", "routing.forward",
    "transfer.app_send", "transfer.send_data", "transfer.deliver_local",
    "transfer.broadcast_control", "transfer.on_frame", "transfer.connect",
    "linklayer.deliver_frame", "linklayer.frame_arrival",
    "linklayer.start_discovery", "linklayer.find_leg", "linklayer.keepalive",
    "topology.in_range", "topology.apply_move",
    "simulation.directive", "scenario.load_scenario", "simulation.init",
    "trace.lines", "trace.dump", "trace.sha256", "summary.build_summary",
]
SIM_LAYERS = ("engine", "topology", "linklayer", "routing", "transfer",
              "simulation")
SETUP_AND_REPORT = {"scenario.load_scenario", "simulation.init",
                    "trace.lines", "trace.dump", "trace.sha256",
                    "summary.build_summary"}


class CheckFailed(Exception):
    pass


def child(mode: str, *args) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
           *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{' '.join(cmd[1:])}: no result within "
                          f"{CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CheckFailed(f"{' '.join(cmd[1:])} exited with "
                          f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_until_deadline(modes: tuple, workload: str, seed: int,
                       seconds: float) -> dict[str, list[dict]]:
    """Run processes of the given modes in turn until `seconds` have passed
    or the next round would overrun them, and at least MIN_RUNS rounds."""
    runs: dict[str, list[dict]] = {m: [] for m in modes}
    start = time.perf_counter()
    rounds = []
    while True:
        round_start = time.perf_counter()
        for mode in modes:
            runs[mode].append(child(mode, workload, seed))
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_RUNS and elapsed + median(rounds) > seconds:
            return runs


def check_runs(workload: str, runs: list[dict], digest: str | None) -> str:
    """Raise CheckFailed unless every run passed its output checks and all
    of them produced one trace digest; returns that digest."""
    for run in runs:
        if run.get("problems"):
            raise CheckFailed(f"{workload}: output check failed:\n  "
                              + "\n  ".join(run["problems"]))
    digests = {run["digest"] for run in runs if "digest" in run}
    if digest is not None:
        digests.add(digest)
    if len(digests) > 1:
        raise CheckFailed(f"{workload}: runs of one seed produced "
                          f"{len(digests)} different trace digests")
    return digests.pop() if digests else "-"


def complete(runs: list[dict]) -> list[dict]:
    done = [r for r in runs if "crashed" not in r]
    if not done:
        raise CheckFailed(f"every run crashed:\n{runs[0]['crashed']}")
    return done


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    bundled = child("bundled")
    if bundled["problems"]:
        raise CheckFailed("bundled scenarios: "
                          + "; ".join(bundled["problems"]))
    check = child("check", workload, seed)
    modes = run_until_deadline(("timed",) + ("setup",) * SETUPS_PER_RUN,
                               workload, seed, seconds)
    runs = modes["timed"]
    digest = check_runs(workload, runs, check.get("digest"))
    done = complete(runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    setups = done + modes["setup"]
    print(f"== {workload} seed={seed}: {len(runs)} timed runs, one fresh "
          f"process each, tracing off; setup_s over {len(setups)} processes")
    print(f"trace sha256 {digest} (all {len(runs)} runs and the check run)")
    for name, d in bundled["digests"].items():
        print(f"bundled {name:<18} sha256 {d} (sliced = one-shot, "
              f"replay = run)")
    print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}  unit")
    metrics = {}
    for name, unit in END_TO_END:
        values = [r[name] for r in (setups if name == "setup_s" else done)]
        q1, q3 = quartiles(values)
        metrics[name] = {"value": median(values), "unit": unit}
        print(f"{name:<22}{median(values):>14.6g}{q1:>14.6g}{q3:>14.6g}  "
              f"{unit}")
    for name in RAW:
        values = [r[name] for r in (setups if name == "setup_s_raw" else done)]
        q1, q3 = quartiles(values)
        print(f"{name:<22}{median(values):>14.6g}{q1:>14.6g}{q3:>14.6g}  "
              f"s (unscaled)")
    sample = done[0]
    print(f"{'sim_latency_p50_ms':<22}{sample.get('sim_latency_p50_ms', '-'):>14}"
          f"{'':>28}  ms (simulated)")
    p90 = sample.get("sim_latency_p90_ms",
                     f"n/a: {sample['delivered']} delivered < 100")
    print(f"{'sim_latency_p90_ms':<22}{p90:>14}{'':>28}  ms (simulated)")
    if "crashed" in check:
        print(f"check run crashed:\n{check['crashed']}")
    else:
        print(f"{'invariant_violations':<22}"
              f"{check['invariant_violations']:>14}{'':>28}  count (check "
              f"run, at seconds {check['violation_seconds']})")
    print(f"failure share: {failed}/{attempted} sends = "
          f"{failed / attempted:.4f} ({len(runs) - len(done)} runs crashed)")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    check = child("check", workload, seed)
    runs = run_until_deadline(("timed", "traced"), workload, seed, seconds)
    digest = check_runs(workload, runs["timed"] + runs["traced"],
                        check.get("digest"))
    timed, traced = complete(runs["timed"]), complete(runs["traced"])
    all_runs = runs["timed"] + runs["traced"]
    attempted = sum(r["attempted"] for r in all_runs)
    failed = sum(r["failed"] for r in all_runs)
    for run in traced[1:]:
        calls = {n: c for n, (c, _) in run["layers"].items()}
        if calls != {n: c for n, (c, _) in traced[0]["layers"].items()}:
            raise CheckFailed(f"{workload}: call counts differ between "
                              f"traced runs of one seed")

    layers = traced[0]["layers"]
    self_s = {n: median([r["layers"][n][1] for r in traced]) for n in layers}
    sim_total = sum(v for n, v in self_s.items() if n not in SETUP_AND_REPORT)
    traced_sim_s = median([r["sim_s"] for r in traced])
    accounted = median([sum(s for n, (_, s) in r["layers"].items()
                            if n not in SETUP_AND_REPORT) / r["sim_s"]
                        for r in traced])
    untraced_sim_s = median([r["sim_s"] for r in timed])
    counts = traced[0]["counts"]

    m: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        m[f"{name}.calls"] = (layers[name][0], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
    m["engine.self_s"] = (self_s["engine.run_until"], "s")
    m["engine.events"] = (traced[0]["events"], "count")
    m["engine.queue_max"] = (traced[0]["queue_max"], "count")
    for layer in SIM_LAYERS:
        share = sum(v for n, v in self_s.items()
                    if n.startswith(layer + ".") and n not in SETUP_AND_REPORT)
        m[f"{layer}.share"] = (100 * share / sim_total, "%")
    entries = traced[0]["merge_entries"]
    m["routing.merge_entries"] = (entries, "count")
    m["routing.merge_useful_ratio"] = (
        traced[0]["merge_changed"] / entries if entries else 0.0, "ratio")
    legs = counts["linklayer.discovery_legs"]
    m["linklayer.discovery_found_per_leg"] = (
        counts["linklayer.discovery_found"] / legs if legs else 0.0, "ratio")
    for name in ("linklayer.evictions", "linklayer.groups_dissolved",
                 "linklayer.frames_lost", "simulation.directive_retries",
                 "trace.records"):
        m[name] = (counts[name], "count")
    m["trace.bytes"] = (counts["trace.bytes"], "bytes")
    m["linklayer.invariant_violations"] = (
        check.get("invariant_violations", -1), "count")
    m["import_s"] = (median([r["import_s"] for r in traced]), "s")
    m["traced.sim_s"] = (traced_sim_s, "s")
    m["tracing_overhead_s"] = (traced_sim_s - untraced_sim_s, "s")

    print(f"== {workload} seed={seed}: {len(traced)} traced and {len(timed)} "
          f"untraced runs, one fresh process each")
    print(f"trace sha256 {digest} (traced runs equal untraced runs)")
    print(f"traced sim_s {traced_sim_s:.4f} s, untraced {untraced_sim_s:.4f} "
          f"s, tracing overhead {traced_sim_s - untraced_sim_s:+.4f} s; "
          f"self times of the spans in the loop add up to "
          f"{100 * accounted:.1f}% of traced sim_s; spans "
          f"written to bench/out/spans-{workload}-{seed}.tsv")
    print(f"{'span':<30}{'calls':>10}{'self_s':>12}{'share':>8}")
    for name in sorted(self_s, key=lambda n: -self_s[n]):
        share = (f"{100 * self_s[name] / sim_total:7.1f}%"
                 if name not in SETUP_AND_REPORT else "       -")
        label = "engine.self_s" if name == "engine.run_until" else name
        print(f"{label:<30}{layers[name][0]:>10}{self_s[name]:>12.5f}{share}")
    for name, (value, unit) in m.items():
        if not name.endswith((".calls", ".self_s")):
            print(f"{name:<36}{value:>14.6g}  {unit}")
    return {"attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in m.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wfdsim", "__init__.py")):
        print(f"error: no wfdsim sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    measure = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            out = measure(name, args.seed, args.seconds)
            result["attempted"] += out["attempted"]
            result["failed"] += out["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, value in out["metrics"].items():
                result["metrics"][prefix + metric] = value
            sys.stdout.flush()
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        result["correct"] = False
        print(json.dumps(result))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
