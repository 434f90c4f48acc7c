"""Mutation self-tests for the ``repro racecheck`` concurrency analyzer.

Two layers of evidence that the analyzer is non-vacuous:

* the shipped tree is clean (zero RS7xx diagnostics over ``src/repro``),
  and
* re-introducing each class of concurrency bug into the *real* corpus --
  a stripped lock, an ``if`` around a Condition wait, a deleted
  caller-holds-lock annotation, a removed blocking-ok waiver, a stale
  guard name -- is caught with its specific RS7xx code.

Synthetic snippets cover the shapes the corpus deliberately does not
contain (lock-order inversions for RS702, wait/notify outside the lock
for RS704).
"""

import pathlib

import pytest

from repro.verify import render_diagnostics
from repro.verify.concurrency import (
    analyze_sources,
    collect_python_files,
    predicted_lock_graph,
    racecheck_paths,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def read(rel: str) -> str:
    return (SRC / rel).read_text()


def mutate(rel: str, old: str, new: str) -> str:
    """The corpus file with one verified-unique substitution applied."""
    source = read(rel)
    assert source.count(old) == 1, f"probe anchor not unique in {rel}: {old!r}"
    return source.replace(old, new)


def codes(result):
    return sorted({d.code for d in result.diagnostics})


def explain(result) -> str:
    return render_diagnostics(result.diagnostics)


class TestCleanTree:
    def test_shipped_tree_has_zero_diagnostics(self):
        result = racecheck_paths([str(SRC)])
        assert result.clean, explain(result)

    def test_collects_the_whole_package(self):
        files = collect_python_files([str(SRC)])
        names = {pathlib.Path(f).name for f in files}
        assert {"scheduler.py", "journal.py", "cache.py"} <= names
        assert len(files) > 50

    def test_predicted_lock_graph_shape(self):
        graph = predicted_lock_graph()
        assert set(graph.get("Scheduler._cond", ())) == {
            "JobJournal._lock",
            "MachinePool._lock",
            "Scheduler._breaker_lock",
            "ServiceAccounts._lock",
        }
        # Leaf locks acquire nothing further.
        assert "SyncCache._lock" not in graph or not graph["SyncCache._lock"]

    def test_result_reports_known_locks(self):
        result = racecheck_paths([str(SRC)])
        assert {
            "Scheduler._cond",
            "JobJournal._lock",
            "ServiceAccounts._lock",
            "SyncCache._lock",
            "MachinePool._lock",
        } <= set(result.locks)


class TestCorpusMutations:
    """Each probe resurrects a real bug class in the real corpus file."""

    def test_rs701_unguarded_mutation(self):
        # Strip the lock around the supervisor stop flag (the exact bug
        # this PR fixed in Scheduler.close).
        mutated = mutate(
            "service/scheduler.py",
            "with self._cond:\n            self._stop_supervisor = True",
            "if True:\n            self._stop_supervisor = True",
        )
        result = analyze_sources([("service/scheduler.py", mutated)])
        assert "RS701" in codes(result), explain(result)
        flagged = [d for d in result.diagnostics if d.code == "RS701"]
        assert any("_stop_supervisor" in d.message for d in flagged)

    def test_rs703_if_instead_of_while_around_wait(self):
        mutated = mutate(
            "service/scheduler.py",
            "while claimed is None:",
            "if claimed is None:",
        )
        result = analyze_sources([("service/scheduler.py", mutated)])
        # The enclosing ``while True`` dispatch loop must not count as
        # the predicate re-check.
        assert "RS703" in codes(result), explain(result)

    def test_rs704_annotation_removal_exposes_precondition(self):
        # Deleting the caller-holds-lock annotation turns the helper's
        # own _cond-guarded mutations into RS701s and its wait/notify
        # uses into RS704s.
        mutated = mutate(
            "service/scheduler.py",
            "def _requeue_or_fail_locked(self, entry: _QueueEntry, "
            "kind: str) -> None:  # guarded-by: _cond",
            "def _requeue_or_fail_locked(self, entry: _QueueEntry, "
            "kind: str) -> None:",
        )
        result = analyze_sources([("service/scheduler.py", mutated)])
        got = codes(result)
        assert "RS704" in got, explain(result)
        assert "RS701" in got, explain(result)

    def test_rs705_blocking_call_waiver_removal(self):
        mutated = mutate(
            "service/journal.py",
            "# lock-blocking-ok: append order is durability order.",
            "#",
        )
        result = analyze_sources([("service/journal.py", mutated)])
        assert "RS705" in codes(result), explain(result)
        flagged = [d for d in result.diagnostics if d.code == "RS705"]
        assert any("fsync" in d.message for d in flagged)

    def test_rs706_stale_guard_annotation_with_fixit(self):
        mutated = mutate(
            "compiler/cache.py",
            "self._entries: Dict[Hashable, object] = {}"
            "  # guarded-by: _lock",
            "self._entries: Dict[Hashable, object] = {}"
            "  # guarded-by: _cache_lock",
        )
        result = analyze_sources([("compiler/cache.py", mutated)])
        flagged = [d for d in result.diagnostics if d.code == "RS706"]
        assert len(flagged) == 1, explain(result)
        assert flagged[0].fixit is not None
        assert "_lock" in flagged[0].fixit

    def test_each_probe_is_the_only_regression(self):
        # The clean corpus analyzed alone stays clean, so every probe
        # diagnosis above is attributable to the mutation itself.
        for rel in (
            "service/scheduler.py",
            "service/journal.py",
            "compiler/cache.py",
        ):
            result = analyze_sources([(rel, read(rel))])
            assert result.clean, f"{rel}:\n{explain(result)}"


DIRECT_INVERSION = """\
import threading


class Pair:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def ab(self):
        with self._a:
            with self._b:
                pass

    def ba(self):
        with self._b:
            with self._a:
                pass
"""

INTERPROCEDURAL_INVERSION = """\
import threading


class Pair:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def ab(self):
        with self._a:
            with self._b:
                pass

    def ba(self):
        with self._b:
            self.inner_a()

    def inner_a(self):
        with self._a:
            pass
"""

MODULE_GLOBAL = """\
import threading
from typing import Optional

_L{lock_annotation} = threading.Lock()
_B{annotation} = None  # guarded-by: _L


def good():
    global _B
    with _L:
        _B = 1


def bad():
    global _B
    _B = 1
"""


class TestSyntheticSnippets:
    @pytest.mark.parametrize(
        "annotation", ["", ": Optional[int]"], ids=["plain", "annotated"]
    )
    @pytest.mark.parametrize(
        "lock_annotation",
        ["", ": threading.Lock"],
        ids=["plain-lock", "annotated-lock"],
    )
    def test_rs701_module_global(self, annotation, lock_annotation):
        """A guarded module global, plain or annotated, declared next
        to a plain or annotated module lock: only the unlocked store is
        flagged, and the fix-it names the module lock itself."""
        snippet = MODULE_GLOBAL.format(
            annotation=annotation, lock_annotation=lock_annotation
        )
        result = analyze_sources([("m.py", snippet)])
        flagged = [d for d in result.diagnostics if d.code == "RS701"]
        assert len(flagged) == 1 and result.diagnostics == flagged, explain(
            result
        )
        assert "_B" in flagged[0].message
        # The store in bad(), the snippet's last line.
        assert flagged[0].location.line == len(snippet.splitlines())
        assert flagged[0].fixit.startswith("wrap the mutation in `with _L:`")

    def test_rs702_direct_inversion(self):
        result = analyze_sources([("pair.py", DIRECT_INVERSION)])
        assert "RS702" in codes(result), explain(result)
        flagged = [d for d in result.diagnostics if d.code == "RS702"]
        assert any(
            "Pair._a" in d.message and "Pair._b" in d.message
            for d in flagged
        )

    def test_rs702_inversion_hidden_behind_a_call(self):
        result = analyze_sources(
            [("pair.py", INTERPROCEDURAL_INVERSION)]
        )
        assert "RS702" in codes(result), explain(result)

    def test_consistent_order_is_clean(self):
        consistent = DIRECT_INVERSION.replace(
            "    def ba(self):\n"
            "        with self._b:\n"
            "            with self._a:\n"
            "                pass\n",
            "    def ba(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n",
        )
        result = analyze_sources([("pair.py", consistent)])
        assert result.clean, explain(result)

    def test_rs704_wait_outside_lock(self):
        snippet = (
            "import threading\n\n\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n\n"
            "    def bad(self):\n"
            "        self._cond.notify_all()\n"
        )
        result = analyze_sources([("w.py", snippet)])
        assert "RS704" in codes(result), explain(result)

    def test_rs703_while_true_does_not_satisfy_the_loop_rule(self):
        snippet = (
            "import threading\n\n\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n\n"
            "    def run(self):\n"
            "        with self._cond:\n"
            "            while True:\n"
            "                self._cond.wait()\n"
        )
        result = analyze_sources([("w.py", snippet)])
        assert "RS703" in codes(result), explain(result)

    def test_rs703_predicate_while_is_clean(self):
        snippet = (
            "import threading\n\n\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n"
            "        self.ready = False  # guarded-by: _cond\n\n"
            "    def run(self):\n"
            "        with self._cond:\n"
            "            while not self.ready:\n"
            "                self._cond.wait()\n"
        )
        result = analyze_sources([("w.py", snippet)])
        assert result.clean, explain(result)

    def test_rs705_blocking_call_and_trailing_waiver(self):
        body = (
            "import os\n"
            "import threading\n\n\n"
            "class J:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._fd = 3\n\n"
            "    def flush(self):\n"
            "        with self._lock:\n"
            "            os.fsync(self._fd){marker}\n"
        )
        flagged = analyze_sources(
            [("j.py", body.format(marker=""))]
        )
        assert "RS705" in codes(flagged), explain(flagged)
        waived = analyze_sources(
            [("j.py", body.format(marker="  # lock-blocking-ok: flush"))]
        )
        assert waived.clean, explain(waived)

    def test_rs701_caller_must_hold_declared_precondition(self):
        snippet = (
            "import threading\n\n\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0  # guarded-by: _lock\n\n"
            "    def _bump(self):  # guarded-by: _lock\n"
            "        self._n += 1\n\n"
            "    def good(self):\n"
            "        with self._lock:\n"
            "            self._bump()\n\n"
            "    def bad(self):\n"
            "        self._bump()\n"
        )
        result = analyze_sources([("s.py", snippet)])
        flagged = [d for d in result.diagnostics if d.code == "RS701"]
        assert len(flagged) == 1, explain(result)
        assert flagged[0].location is not None
        assert "_bump" in flagged[0].message
