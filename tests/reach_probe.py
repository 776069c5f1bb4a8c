"""Line reach of wfdsim: the executable lines of `src/wfdsim` that no
product run and no in-process test reaches.

    python tests/reach_probe.py

Product runs are `wfdsim validate`, `run --trace` and `replay` on the four
bundled scenarios, and the three benchmark workloads at seeds 1-3 (run,
serialized and summarized again from the text), with scenarios read from
`bench/workloads.py`.  The suite is `pytest tests/`, run in this process.
Tests that start a subprocess are not traced, so a line that only they
reach is listed too.

An executable line is a line of a function body that has bytecode; a
`def` line is not one.  Lines are recorded with `sys.settrace`, so nothing
outside the standard library is needed besides pytest for the suite, and
everything runs several times slower than untraced.  A run that removes
the tracer (CPython does when a `RecursionError` is raised inside it)
leaves the rest of that run unrecorded; the probe then says its figure is
short and exits 1.  The file is not named `test_*.py`, so pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import pathlib
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "wfdsim"
BUNDLED = ("chain4", "gc_pair", "two_groups_bridge", "mobility_break")
WORKLOADS = ("chain_long", "flows_many", "churn_grid")
SEEDS = (1, 2, 3)


def executable_lines() -> dict[str, set[int]]:
    """File name -> the lines of its function bodies that have bytecode."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path)
        lines: set[int] = set()
        stack = [compile(path.read_text(encoding="utf-8"), name, "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts
                      if isinstance(c, types.CodeType)]
            if not code.co_flags & inspect.CO_NEWLOCALS:
                continue  # a module or class body, which runs at import
            body = {line for *_, line in code.co_lines() if line is not None}
            if not code.co_name.startswith("<"):
                body.discard(code.co_firstlineno)  # the `def` (or decorator)
            lines |= body
        out[name] = lines
    return out


class LineRecorder:
    """Records every line executed in the given files while active."""

    def __init__(self, files) -> None:
        self.reached = {name: set() for name in files}
        self._local = {name: self._tracer(lines)
                       for name, lines in self.reached.items()}

    @staticmethod
    def _tracer(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def _global(self, frame, event, arg):
        return self._local.get(frame.f_code.co_filename)

    @contextlib.contextmanager
    def active(self):
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)

    def still_tracing(self) -> bool:
        """Whether this recorder is still the trace function.  CPython
        removes a trace function that raises, as a `RecursionError` deep in
        a traced call does, and nothing is recorded after that."""
        return sys.gettrace() == self._global


def _workloads() -> types.ModuleType:
    """bench/workloads.py, read and executed in memory."""
    path = ROOT / "bench" / "workloads.py"
    module = types.ModuleType("workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def product_runs() -> None:
    from wfdsim import build_summary, cli, load_scenario
    from wfdsim.simulation import Simulation

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        for name in BUNDLED:
            trace = str(pathlib.Path(tmp) / f"{name}.trace")
            for argv in (["validate", name], ["run", name, "--trace", trace],
                         ["replay", trace]):
                if cli.main(argv) != 0:
                    raise SystemExit(f"wfdsim {' '.join(argv)} failed")
    workloads = _workloads()
    for name in WORKLOADS:
        for seed in SEEDS:
            sim = Simulation(load_scenario(workloads.generate(name, seed)))
            summary = sim.run()
            text = sim.trace.dump()
            if build_summary(io.StringIO(text)) != summary:
                raise SystemExit(f"{name} seed {seed}: replay differs")
            summary.to_text()


def suite() -> int:
    import pytest
    return pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])


def main() -> int:
    sys.path.insert(0, str(SRC))
    executable = executable_lines()
    product, tested = LineRecorder(executable), LineRecorder(executable)
    with product.active():
        product_runs()
        lost = [] if product.still_tracing() else ["the product runs"]
    with tested.active():
        status = suite()
        lost += [] if tested.still_tracing() else ["the suite"]
    total = reached_product = reached_any = 0
    per_module = []
    for name, lines in executable.items():
        by_product = lines & product.reached[name]
        unreached = sorted(lines - by_product - tested.reached[name])
        total += len(lines)
        reached_product += len(by_product)
        reached_any += len(lines) - len(unreached)
        source = pathlib.Path(name).read_text(encoding="utf-8").splitlines()
        for line in unreached:
            print(f"{pathlib.Path(name).relative_to(ROOT)}:{line}: "
                  f"{source[line - 1].strip()}")
        if unreached:
            per_module.append(f"{pathlib.Path(name).stem} {len(unreached)}")
    print(f"unreached: {total - reached_any} of {total} executable lines "
          f"({', '.join(per_module) or 'none'}); product runs reach "
          f"{reached_product}, with the suite {reached_any}")
    if status != 0:
        print(f"the suite exited {status}, so its reach may be short")
    if lost:
        print(f"{' and '.join(lost)} removed the line tracer, so the reach "
              f"above is short")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
