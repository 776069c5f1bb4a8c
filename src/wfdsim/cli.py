"""Command line interface: run a scenario, validate one, or replay a trace.

Exit status is 0 when the command completed and 1 with a one-line
diagnostic on stderr for an invalid scenario, option or trace file.
"""

from __future__ import annotations

import argparse
import math
import sys

from .engine import SECOND
from .scenario import ScenarioError, load_scenario
from .simulation import Simulation
from .summary import build_summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfdsim",
        description="Discrete-event simulator for Wi-Fi Direct group "
                    "networking with a multi-hop routing layer.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and print its summary")
    run_p.add_argument("scenario",
                       help="path to a scenario file, or a bundled name "
                            "(chain4, gc_pair, two_groups_bridge, "
                            "mobility_break)")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.add_argument("--until", type=float, metavar="SECONDS",
                       help="override the simulated duration")
    run_p.add_argument("--trace", metavar="PATH",
                       help="write the trace to this file")
    run_p.add_argument("--summary", metavar="PATH",
                       help="write the summary to this file as well")

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("scenario")

    rep_p = sub.add_parser("replay",
                           help="recompute the summary from a trace file")
    rep_p.add_argument("trace")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            load_scenario(args.scenario)
            print("ok")
            return 0
        with open(args.trace, "rb") as fh:  # replay
            try:
                text = build_summary(_decoded(fh)).to_text()
            except ValueError as exc:
                print(f"error: {args.trace}: {exc}", file=sys.stderr)
                return 1
        print(text, end="")
        return 0
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _decoded(lines):
    """Each line of a binary file as text; a byte that is not UTF-8 raises
    one ValueError that names its line."""
    for number, line in enumerate(lines, 1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"line {number}: {exc}") from None


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.sim.seed = args.seed
    if args.until is not None:
        us = args.until * SECOND
        if not (math.isfinite(us) and round(us) > 0):
            raise ScenarioError("--until must be finite and at least 1 µs")
        scenario.sim.duration_us = round(us)
    sim = Simulation(scenario)
    summary = sim.run()
    if args.trace:
        sim.trace.write(args.trace)
    text = summary.to_text()
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
