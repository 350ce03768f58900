"""Span tracer for the benchmark's traced run.

The tracer wraps public methods of the simulator's layers at class
level, from outside the program: each wrapped call records one span
(name, start, end, parent) into flat in-memory arrays, and
:meth:`Tracer.restore` puts every original method back.  Nothing under
``src/`` knows the tracer exists, and the wrappers never touch
arguments, return values, the event heap or an RNG, so a traced run
produces the same science outputs as an untraced one (``run.py``
checks that on every traced run).

A layer's self time is its spans' durations minus the part covered by
their direct child spans.  Scheduling calls are counted without spans
(there are millions and they have no children worth separating).
"""

from __future__ import annotations

import array
import gzip
import json
import operator
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """In-memory span recorder that patches methods at class level."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self._stack = [-1]
        #: observed quantities that are not span durations
        self.tally: Counter = Counter()
        self._patched: List[tuple] = []
        #: each patched owner's namespace as it was before the first patch
        self._before: Dict[int, tuple] = {}

    # -- patching ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        if id(owner) not in self._before:
            self._before[id(owner)] = (owner, dict(vars(owner)))
        original = vars(owner)[attr]
        replacement.__wrapped__ = original
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[[Counter, Any], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``observe(tally, result)`` sees each result."""
        nid = self._name_id(name)
        starts, ends, names, parents = self.start, self.end, self.name, self.parent
        stack, tally, clock = self._stack, self.tally, time.perf_counter
        original = vars(owner)[attr]

        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1])
            names.append(nid)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(tally, result)
            return result

        self._patch(owner, attr, traced)

    def count(self, owner: Any, attrs: List[str], name: str) -> None:
        """Count the outermost calls into any of ``owner``'s ``attrs``
        (a call that routes through another counted method counts once)."""
        depth = [0]
        tally = self.tally

        def make(original):
            def counted(*args, **kwargs):
                if depth[0]:
                    return original(*args, **kwargs)
                tally[name] += 1
                depth[0] = 1
                try:
                    return original(*args, **kwargs)
                finally:
                    depth[0] = 0
            return counted

        for attr in attrs:
            self._patch(owner, attr, make(vars(owner)[attr]))

    def restore(self) -> List[str]:
        """Put every original method back, newest patch first; returns
        the ``owner.attr`` names whose binding differs from the one
        before :meth:`install` (a wrapper left behind, or a name added
        or dropped)."""
        patched, self._patched = self._patched, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        before, self._before = self._before, {}
        changed = []
        for owner, namespace in before.values():
            now = vars(owner)
            changed += [f"{getattr(owner, '__name__', owner)}.{attr}"
                        for attr in sorted(set(namespace) | set(now))
                        if now.get(attr) is not namespace.get(attr)]
        return changed

    # -- analysis ------------------------------------------------------------

    def rollup(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        duration = array.array("d", map(operator.sub, self.end, self.start))
        covered = array.array("d", bytes(8 * len(duration)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += duration[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
               for name in self.names}
        rows = [out[name] for name in self.names]
        for nid, spent, inner in zip(self.name, duration, covered):
            row = rows[nid]
            row["calls"] += 1
            row["incl_s"] += spent
            row["self_s"] += spent - inner
        return out

    def durations(self, name: str) -> List[float]:
        """Inclusive durations of every span called ``name``."""
        nid = self._name_ids.get(name)
        return [e - s for s, e, n in zip(self.start, self.end, self.name)
                if n == nid]

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        nid, aid = self._name_ids.get(name), self._name_ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        names, parent = self.name, self.parent
        total = 0
        for i, n in enumerate(names):
            if n != nid:
                continue
            p = parent[i]
            while p >= 0 and names[p] != aid:
                p = parent[p]
            total += p >= 0
        return total

    def dump(self, path: str, header: Dict[str, Any]) -> None:
        """Write every span: a JSON header line, then the four arrays
        (start, end as float64; name, parent as int32) gzip-compressed."""
        meta = dict(header, names=self.names, spans=len(self.start),
                    layout=["start:f8", "end:f8", "name:i4", "parent:i4"])
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(meta).encode("utf-8") + b"\n")
            for column in (self.start, self.end, self.name, self.parent):
                fh.write(column.tobytes())


# -- the layer boundaries ---------------------------------------------------------


def _idle_step(tally: Counter, fired: bool) -> None:
    if not fired:
        tally["sim.idle_steps"] += 1


def _response(tally: Counter, response) -> None:
    if not response.actions:
        tally["hadoop.empty_responses"] += 1


def _report(tally: Counter, report) -> None:
    tally["hadoop.statuses"] += len(report.attempts)


def _assigned(tally: Counter, tips) -> None:
    if tips:
        tally["schedulers.assign_hits"] += 1


def _preempted(tally: Counter, action: str) -> None:
    if action != "wait":
        tally["schedulers.preemptions"] += 1


def _admitted(tally: Counter, decision) -> None:
    if decision.admitted:
        tally["preemption.admitted"] += 1


def _swapped_out(tally: Counter, reclaim) -> None:
    tally["osmodel.swap_bytes"] += reclaim.swapped_out


def _paged_in(tally: Counter, fault) -> None:
    tally["osmodel.swap_bytes"] += fault.paged_in


def install(tracer: Tracer) -> None:
    """Wrap the public boundary of every layer the workloads cross."""
    from repro.experiments import runner
    from repro.hadoop.jobtracker import JobTracker
    from repro.hadoop.tasktracker import TaskTracker
    from repro.netmodel.fabric import Fabric
    from repro.obs.ledger import Ledger
    from repro.osmodel.kernel import NodeKernel
    from repro.osmodel.resources import RateResource
    from repro.osmodel.vmm import VirtualMemoryManager
    from repro.preemption.admission import SuspendAdmissionGate
    from repro.preemption.kill import KillPrimitive
    from repro.preemption.suspend import SuspendResumePrimitive
    from repro.preemption.wait import WaitPrimitive
    from repro.schedulers.base import TaskScheduler
    from repro.schedulers.dummy import DummyScheduler
    from repro.schedulers.hfsp import HfspScheduler
    from repro.sim.engine import Simulation
    from repro.workloads.swim import SwimGenerator

    tracer.span(Simulation, "step", "sim.step", _idle_step)
    tracer.count(Simulation, ["schedule", "schedule_at", "reschedule"],
                 "sim.schedules")
    tracer.span(JobTracker, "heartbeat", "hadoop.heartbeat", _response)
    tracer.span(TaskTracker, "build_report", "hadoop.report", _report)
    for scheduler in (HfspScheduler, DummyScheduler):
        tracer.span(scheduler, "assign_tasks", "schedulers.assign", _assigned)
    tracer.span(TaskScheduler, "preempt_with_admission",
                "schedulers.preempt", _preempted)
    tracer.span(NodeKernel, "memory_headroom", "osmodel.headroom")
    tracer.span(RateResource, "set_speed_factor", "osmodel.rate_update")
    tracer.span(VirtualMemoryManager, "make_room", "osmodel.make_room",
                _swapped_out)
    tracer.span(VirtualMemoryManager, "fault_in", "osmodel.fault_in",
                _paged_in)
    for op in ("start_flow", "pause_flow", "resume_flow", "cancel_flow"):
        tracer.span(Fabric, op, "netmodel.flow_op")
    tracer.span(SuspendAdmissionGate, "evaluate", "preemption.gate", _admitted)
    for primitive in (WaitPrimitive, KillPrimitive, SuspendResumePrimitive):
        tracer.span(primitive, "preempt", "preemption.preempt")
    tracer.span(runner, "run_cells", "experiments.run_cells")
    tracer.span(runner, "execute_cell", "experiments.cell")
    tracer.span(Ledger, "emit", "obs.emit")
    tracer.span(SwimGenerator, "generate_workload", "workloads.generate")


def layer_metrics(
    tracer: Tracer, rows: Dict[str, Dict[str, float]], jobs: int
) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition of ``jobs`` jobs,
    from its :meth:`Tracer.rollup` ``rows``."""
    tally = tracer.tally

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def self_s(name):
        return rows.get(name, {}).get("self_s", 0.0)

    def incl_s(name):
        return rows.get(name, {}).get("incl_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    heartbeat_us = sorted(d * 1e6 for d in tracer.durations("hadoop.heartbeat"))

    def percentile(q):
        if not heartbeat_us:
            return 0.0
        return heartbeat_us[min(len(heartbeat_us) - 1,
                                int(q * len(heartbeat_us)))]

    events = calls("sim.step") - tally["sim.idle_steps"]
    heartbeats = calls("hadoop.heartbeat")
    flow_ops = calls("netmodel.flow_op")
    runner_self = incl_s("experiments.run_cells") - incl_s("experiments.cell")
    # paper_sweep calls run_cells twice, cold then warm from its cache
    sweeps = tracer.durations("experiments.run_cells")
    return {
        "sim.events": events,
        "sim.events_per_job": ratio(events, jobs),
        "sim.schedules": tally["sim.schedules"],
        "sim.self_s": self_s("sim.step"),
        "hadoop.heartbeats": heartbeats,
        "hadoop.heartbeat_s": self_s("hadoop.heartbeat"),
        "hadoop.heartbeat_p50_us": percentile(0.50),
        "hadoop.heartbeat_p99_us": percentile(0.99),
        "hadoop.report_s": self_s("hadoop.report"),
        "hadoop.statuses_per_report": ratio(tally["hadoop.statuses"],
                                            calls("hadoop.report")),
        "hadoop.empty_response_frac": ratio(tally["hadoop.empty_responses"],
                                            heartbeats),
        "schedulers.assign_calls": calls("schedulers.assign"),
        "schedulers.assign_s": self_s("schedulers.assign"),
        "schedulers.assign_hit_frac": ratio(tally["schedulers.assign_hits"],
                                            calls("schedulers.assign")),
        "schedulers.preemptions": tally["schedulers.preemptions"],
        "osmodel.headroom_calls": calls("osmodel.headroom"),
        "osmodel.headroom_s": self_s("osmodel.headroom"),
        "osmodel.rate_updates": calls("osmodel.rate_update"),
        "osmodel.rate_update_s": self_s("osmodel.rate_update"),
        "osmodel.make_room_calls": calls("osmodel.make_room"),
        "osmodel.fault_in_calls": calls("osmodel.fault_in"),
        "osmodel.swap_mb": tally["osmodel.swap_bytes"] / 2**20,
        "netmodel.flow_ops": flow_ops,
        "netmodel.flow_op_s": self_s("netmodel.flow_op"),
        "netmodel.rate_updates_per_flow": ratio(
            tracer.count_under("osmodel.rate_update", "netmodel.flow_op"),
            flow_ops),
        "preemption.gate_evals": calls("preemption.gate"),
        "preemption.admit_frac": ratio(tally["preemption.admitted"],
                                       calls("preemption.gate")),
        "preemption.preempt_calls": calls("preemption.preempt"),
        "preemption.preempt_s": self_s("preemption.preempt"),
        "experiments.cells": calls("experiments.cell"),
        "experiments.cell_s": incl_s("experiments.cell"),
        "experiments.runner_self_s": runner_self,
        "experiments.runner_overhead_frac": ratio(
            runner_self, incl_s("experiments.run_cells")),
        "experiments.warm_resume_s": sweeps[-1] if len(sweeps) > 1 else 0.0,
        "obs.ledger_emits": calls("obs.emit"),
        "obs.emit_s": self_s("obs.emit"),
        "workloads.generate_s": incl_s("workloads.generate"),
    }


#: per-layer metrics that must repeat exactly across traced runs of one
#: seed (the rest are times, or ratios of times)
DETERMINISTIC = (
    "sim.events",
    "sim.events_per_job",
    "sim.schedules",
    "hadoop.heartbeats",
    "hadoop.statuses_per_report",
    "hadoop.empty_response_frac",
    "schedulers.assign_calls",
    "schedulers.assign_hit_frac",
    "schedulers.preemptions",
    "osmodel.headroom_calls",
    "osmodel.rate_updates",
    "osmodel.make_room_calls",
    "osmodel.fault_in_calls",
    "osmodel.swap_mb",
    "netmodel.flow_ops",
    "netmodel.rate_updates_per_flow",
    "preemption.gate_evals",
    "preemption.admit_frac",
    "preemption.preempt_calls",
    "experiments.cells",
    "obs.ledger_emits",
)
