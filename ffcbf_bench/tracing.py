"""Span tracing of ffcbf layers from outside the package.

Nothing inside ``src/ffcbf`` is instrumented.  Instead, for the length of a
traced pass, the module attributes through which one layer calls the next
are replaced by timing wrappers (``ffcbf.scenario.step``,
``ffcbf.controllers.constraint_row``, ``ffcbf.qp.linprog``, ...) and put
back afterwards.  Each call becomes a span (name, start, end, parent span,
trial index) kept in flat in-memory arrays and written out once at the end.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array
from collections import Counter

import numpy as np

from ffcbf import cli, controllers, qp, scenario

_now = time.perf_counter_ns


@contextlib.contextmanager
def patched(owner, attr: str, value):
    """Set ``owner.attr = value`` for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.trial = array("i")
        self.counters: Counter = Counter()
        self.trial_index = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped in a span; on_result(counters, result, args) counts."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, counters = self._stack, self.counters
        name_id, start, end, parent, trial = (
            self.name_id, self.start, self.end, self.parent, self.trial)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            trial.append(self.trial_index)
            end.append(0)
            stack.append(idx)
            start.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _now()
                stack.pop()
            if on_result is not None:
                on_result(counters, result, args)
            return result

        return traced

    def arrays(self) -> dict:
        # Copies, so that the arrays stay appendable afterwards.
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int32),
            "trial": np.array(self.trial, dtype=np.int32),
        }

    def write(self, path: str) -> None:
        """Write every span to a compressed .npz file (names in ``names``)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def summarize(tracer: Tracer, wall_ns: int) -> tuple[dict, list[str]]:
    """Per-name calls, total and self time, plus an accounting check.

    Returns ({name: {"calls", "total_ns", "self_ns"}, "_unwrapped_ns": int},
    problems).  problems lists every violated nesting or accounting condition:
    each child lies inside its parent, no self time is negative, and self
    times plus the time outside every span add up to wall_ns.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    parent = a["parent"]
    nested = parent >= 0
    child_ns = np.zeros(dur.shape[0], dtype=np.int64)
    np.add.at(child_ns, parent[nested], dur[nested])
    self_ns = dur - child_ns
    problems = []
    if np.any(dur < 0):
        problems.append("span ends before it starts")
    if np.any(self_ns < 0):
        problems.append("children overlap inside a parent span")
    pidx = parent[nested]
    if np.any(a["start"][nested] < a["start"][pidx]) or np.any(a["end"][nested] > a["end"][pidx]):
        problems.append("child span outside its parent")
    unwrapped_ns = int(wall_ns - dur[~nested].sum())
    if unwrapped_ns < 0:
        problems.append("root spans exceed the traced wall time")
    if int(self_ns.sum()) + unwrapped_ns != wall_ns:
        problems.append("self times plus remainder differ from the traced wall time")
    table = {}
    for nid, name in enumerate(tracer.names):
        sel = a["name_id"] == nid
        table[name] = {
            "calls": int(sel.sum()),
            "total_ns": int(dur[sel].sum()),
            "self_ns": int(self_ns[sel].sum()),
        }
    table["_unwrapped_ns"] = unwrapped_ns
    return table, problems


def _count_fallback(counters, result, args):
    if not result.feasible:
        counters["controllers.fallback_ticks"] += 1


def _count_solve(counters, sol, args):
    counters["qp.active_set_iters"] += sol.iterations
    if sol.status != "optimal":
        counters["qp.infeasible"] += 1
    elif sol.iterations == 0:
        counters["qp.fast_path"] += 1
    if sol.iteration_limited:
        counters["qp.iteration_limited"] += 1


def _count_bytes(counters, result, args):
    counters["cli.write_trajectory_csv.bytes"] += os.path.getsize(args[0])


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Wrap every layer boundary of ffcbf in spans of ``tracer``."""
    with contextlib.ExitStack() as stack:
        def wrap(owner, attr, name, on_result=None):
            stack.enter_context(
                patched(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result)))

        traced_trial = tracer.wrap("scenario.run_trial", scenario.run_trial)

        def run_trial(config, trial_index, *args, **kwargs):
            tracer.trial_index = trial_index
            return traced_trial(config, trial_index, *args, **kwargs)

        original_reference = scenario.World.reference

        def reference(self, *args, **kwargs):
            return tracer.wrap("scenario.reference", original_reference(self, *args, **kwargs))

        stack.enter_context(patched(scenario, "run_trial", run_trial))
        stack.enter_context(patched(scenario.World, "reference", reference))
        wrap(scenario.World, "is_exited", "scenario.is_exited")
        wrap(scenario, "h0", "scenario.h0")
        wrap(scenario, "step", "dynamics.step")
        wrap(scenario, "centralized_step", "controllers.step", _count_fallback)
        wrap(scenario, "decentralized_step", "controllers.step", _count_fallback)
        wrap(controllers, "nominal_control", "controllers.nominal_control")
        wrap(controllers, "h_speed", "barriers.h_speed")
        wrap(controllers, "constraint_row", "barriers.constraint_row")
        wrap(qp, "QpProblem", "qp.build")
        wrap(qp, "solve", "qp.solve", _count_solve)
        wrap(qp, "linprog", "qp.phase1")
        wrap(cli, "run_batch", "cli.run_batch")
        wrap(cli, "write_trajectory_csv", "cli.write_trajectory_csv", _count_bytes)
        wrap(cli, "write_summary", "cli.write_summary")
        wrap(cli, "write_manifest", "cli.write_manifest")
        yield tracer
