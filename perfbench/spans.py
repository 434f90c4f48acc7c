"""Span tracing installed from outside the program under test.

The benchmark measures every layer through its public calls: each call
is wrapped at the attribute its caller looks it up by (a module
function such as ``repro.runtime.stencil_op.exchange_halo``, or a
method on its class), so no file of the program changes.  A span holds
its name, its start and end in ``perf_counter_ns``, the span that was
open on the same thread when it began, and a request id.  Spans stay in
memory and are written once, when the run ends.

Wrappers are installed only for the traced segments of a ``--trace 1``
run; untraced ops run the program's own functions.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from itertools import count

#: Span names, one per layer boundary, and the calls each one wraps.
#: Module functions are ``(module, attribute)``; methods are
#: ``(module, class, attribute)``.
SPANS = {
    "fortran.parse": [
        ("repro.compiler.driver", "parse_assignment"),
        ("repro.compiler.driver", "parse_subroutine"),
    ],
    "fortran.recognize": [
        ("repro.compiler.driver", "recognize_assignment"),
        ("repro.compiler.driver", "recognize_subroutine"),
    ],
    "lisp.parse": [
        ("repro.compiler.driver", "parse_defstencil"),
        ("repro.compiler.driver", "parse_defstencil_with_types"),
    ],
    "compiler.plan": [("repro.compiler.driver", "compile_pattern")],
    "compiler.depth_select": [
        ("repro.runtime.stencil_op", "select_block_depth"),
        ("repro.compiler.driver", "select_batch_block_depths"),
    ],
    "runtime.stencil_op": [
        ("repro.runtime.stencil_op", "apply_stencil"),
        ("repro.service.jobs", "apply_stencil"),
    ],
    "runtime.batch": [("repro.runtime.batch", "apply_stencil_batch")],
    "runtime.executor": [
        ("repro.runtime.stencil_op", "machine_execute_fast"),
        ("repro.runtime.stencil_op", "machine_execute_blocked"),
        ("repro.runtime.batch", "machine_execute_fast_stack"),
        ("repro.runtime.batch", "machine_execute_blocked"),
    ],
    "runtime.executor.per_node": [
        ("repro.runtime.stencil_op", "node_execute_fast"),
    ],
    "runtime.halo": [
        ("repro.runtime.stencil_op", "exchange_halo"),
        ("repro.runtime.stencil_op", "exchange_halo_deep"),
        ("repro.runtime.batch", "exchange_halo_group"),
        ("repro.runtime.batch", "exchange_halo_batch"),
        ("repro.runtime.batch", "exchange_halo_deep"),
        ("repro.runtime.batch", "exchange_halo_deep_width"),
    ],
    "runtime.abft": [
        ("repro.runtime.stencil_op", "seal_checksums"),
        ("repro.runtime.stencil_op", "verify_and_correct"),
        ("repro.runtime.batch", "seal_checksums"),
        ("repro.runtime.batch", "verify_and_correct"),
    ],
    "service.submit": [("repro.service.scheduler", "Scheduler", "submit")],
    "service.run": [("repro.service.scheduler", "execute_job")],
    "service.journal": [
        ("repro.service.journal", "JobJournal", "record_submitted"),
        ("repro.service.journal", "JobJournal", "record_attempt"),
        ("repro.service.journal", "JobJournal", "record_completed"),
        ("repro.service.journal", "JobJournal", "record_outcome"),
    ],
    "service.accounting": [
        ("repro.service.accounting", "ServiceAccounts", "charge"),
    ],
    "service.pool": [
        ("repro.service.partition", "MachinePool", "acquire"),
        ("repro.service.partition", "MachinePool", "release"),
    ],
}

#: Calls that are counted, not timed: they run thousands of times per
#: op, and a span each would distort the op they sit in.
COUNTS = {
    "machine.nodes": ("repro.machine.machine", "CM2", "nodes"),
    "machine.stacked": ("repro.machine.machine", "CM2", "stacked"),
}

#: Span names whose time is reported per op as ``<metric>`` (inclusive)
#: or, for the two engine entry points, as self time.
TIME_METRICS = {
    "fortran.parse_ms": ("fortran.parse",),
    "fortran.recognize_ms": ("fortran.recognize",),
    "lisp.parse_ms": ("lisp.parse",),
    "compiler.plan_ms": ("compiler.plan",),
    "compiler.depth_select_ms": ("compiler.depth_select",),
    "runtime.executor.tap_ms": (
        "runtime.executor",
        "runtime.executor.per_node",
    ),
    "runtime.halo.exchange_ms": ("runtime.halo",),
    "runtime.abft.ms": ("runtime.abft",),
    "service.submit_ms": ("service.submit",),
    "service.run_ms": ("service.run",),
    "service.journal_ms": ("service.journal",),
    "service.accounting_ms": ("service.accounting",),
    "service.pool_ms": ("service.pool",),
}
SELF_METRICS = {
    "runtime.stencil_op.self_ms": "runtime.stencil_op",
    "runtime.batch.self_ms": "runtime.batch",
}
CALL_METRICS = {
    "runtime.executor.calls": "runtime.executor",
    "runtime.executor.per_node_calls": "runtime.executor.per_node",
    "service.journal_records": "service.journal",
}


def _resolve(target):
    module = __import__(target[0], fromlist=["_"])
    if len(target) == 2:
        return module, target[1]
    return getattr(module, target[1]), target[2]


class Tracer:
    """Records spans and call counts while its wrappers are installed.

    Each thread keeps its own stack of open spans (for parents) and its
    current request id.  The serve workload joins worker-thread spans
    to their job: the client registers each job object's request id
    before submitting it, and the wrappers around ``execute_job`` and
    ``JobJournal.record_attempt`` adopt it on the worker thread.
    """

    def __init__(self) -> None:
        self.spans = []  # (id, name, start, end, parent, request, thread)
        self.job_requests = {}
        self._ids = count(1)
        self._local = threading.local()
        self._counters = []
        self._saved = []

    # -- thread state --------------------------------------------------

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
            local.counts = Counter()
            self._counters.append(local.counts)
        return local

    def begin_op(self, request):
        """Open the root span of one op on the calling thread."""
        local = self._thread()
        local.request = request
        sid = next(self._ids)
        local.stack.append(sid)
        return sid, time.perf_counter_ns()

    def end_op(self, token) -> None:
        sid, start = token
        end = time.perf_counter_ns()
        local = self._thread()
        local.stack.pop()
        self.spans.append(
            (sid, "op", start, end, None, local.request, threading.get_ident())
        )
        # Work between ops (the benchmark's own checks) belongs to none.
        local.request = None

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, attr, fn):
        tracer = self
        adopt_job = attr == "execute_job"
        adopt_key = attr == "record_attempt"
        explicit_key = attr.startswith("record_")
        leave_request = attr == "acquire"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._thread()
            if adopt_job:
                local.request = tracer.job_requests.get(id(args[0]))
            elif adopt_key:
                local.request = args[1]
            elif leave_request:
                # A worker claims its next job here; the job is named
                # only by the attempt record that follows.
                local.request = None
            request = args[1] if explicit_key else local.request
            stack = local.stack
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, request,
                     threading.get_ident())
                )

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._thread()
            if local.request is not None:
                local.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for name, targets in SPANS.items():
            for target in targets:
                owner, attr = _resolve(target)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._span_wrapper(name, attr, original))
        for name, target in COUNTS.items():
            owner, attr = _resolve(target)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._count_wrapper(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def counts(self) -> Counter:
        total = Counter()
        for counter in self._counters:
            total.update(counter)
        return total

    def layer_metrics(self):
        """Per-op layer figures over every op root recorded so far, and
        the mean traced op wall time in ms.  Only spans that belong to
        an op's request count."""
        ops = [span for span in self.spans if span[1] == "op"]
        n = len(ops)
        if not n:
            raise ValueError("no traced ops")
        requests = {span[5] for span in ops}
        spans = [s for s in self._attributed_spans() if s[5] in requests]
        children = defaultdict(list)
        for span in spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        total = defaultdict(int)
        self_ns = defaultdict(int)
        calls = Counter()
        for sid, name, start, end, _, _, _ in spans:
            if name == "op":
                continue
            total[name] += end - start
            calls[name] += 1
            self_ns[name] += (end - start) - _covered(
                children.get(sid, ()), start, end
            )

        metrics = {}
        for metric, names in TIME_METRICS.items():
            metrics[metric] = sum(total[x] for x in names) / n / 1e6
        for metric, name in SELF_METRICS.items():
            metrics[metric] = self_ns[name] / n / 1e6
        for metric, name in CALL_METRICS.items():
            metrics[metric] = calls[name] / n
        counted = self.counts()
        metrics["machine.nodes_walks"] = counted["machine.nodes"] / n
        metrics["machine.stacked_calls"] = counted["machine.stacked"] / n

        queue, settle, unattributed, wall = self._request_intervals(ops, spans)
        metrics["service.queue_ms"] = queue / n / 1e6
        metrics["service.settle_ms"] = settle / n / 1e6
        metrics["unattributed_share"] = unattributed / wall
        return metrics, wall / n / 1e6

    def _request_intervals(self, ops, spans):
        """Queue wait, settle time and uncovered op wall, summed over ops.

        Queue wait runs from the return of ``Scheduler.submit`` to the
        start of ``execute_job``; settle time from the end of
        ``execute_job`` to the op's end (the return of
        ``JobHandle.result``).  An op's covered wall is the union of its
        request's top-level spans: the children of its root, and spans
        with no parent on other threads.
        """
        by_request = defaultdict(list)
        for span in spans:
            by_request[span[5]].append(span)
        queue = settle = unattributed = wall = 0
        for sid, _, start, end, _, request, _ in ops:
            mine = by_request.get(request, [])
            top = [
                (s[2], s[3])
                for s in mine
                if s[1] != "op" and (s[4] == sid or s[4] is None)
            ]
            unattributed += (end - start) - _covered(top, start, end)
            wall += end - start
            submits = [s for s in mine if s[1] == "service.submit"]
            runs = [s for s in mine if s[1] == "service.run"]
            if submits and runs:
                queue += min(s[2] for s in runs) - max(s[3] for s in submits)
                settle += end - max(s[3] for s in runs)
        return queue, settle, unattributed, wall

    def _attributed_spans(self):
        """Spans with ``MachinePool.acquire`` joined to the job claimed.

        A worker acquires a partition before it knows which job it
        runs; the next span on that thread carrying a request names it.
        """
        by_thread = defaultdict(list)
        for span in self.spans:
            by_thread[span[6]].append(span)
        out = []
        for spans in by_thread.values():
            spans.sort(key=lambda s: s[2])
            pending = []
            for span in spans:
                if span[5] is None and span[1] == "service.pool":
                    pending.append(span)
                    continue
                if pending and span[5] is not None:
                    out.extend(p[:5] + (span[5],) + p[6:] for p in pending)
                    pending = []
                out.append(span)
            out.extend(pending)
        return out

    def write(self, path, origin_ns: int) -> None:
        """Write every span as one JSON line, times relative to
        ``origin_ns`` in microseconds."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, request, thread in sorted(
                self.spans, key=lambda s: s[2]
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_us": (start - origin_ns) / 1e3,
                            "end_us": (end - origin_ns) / 1e3,
                            "parent": parent,
                            "request": request,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )


def _covered(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
