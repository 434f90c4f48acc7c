"""Suite-wide checks.

Every run record the engine builds during a test must reconcile: its
totals equal the closed form of the rung that finished plus the
recovery buckets (``StencilRun.reconciled``).  The engine looks
``_record`` up in ``repro.runtime.batch`` at call time, so wrapping it
there sees every run -- solo and batched calls, every rung of the
recovery ladder, and service jobs on worker threads.
"""

import pytest

from repro.runtime import batch


@pytest.fixture(autouse=True)
def every_run_reconciles(monkeypatch):
    record = batch._record
    unreconciled = []

    def checked(*args, **kwargs):
        run = record(*args, **kwargs)
        if not run.reconciled:
            unreconciled.append(run)
        return run

    monkeypatch.setattr(batch, "_record", checked)
    yield
    if unreconciled:
        first = unreconciled[0]
        pytest.fail(
            f"{len(unreconciled)} run(s) did not reconcile with their closed "
            f"form plus recovery buckets, first: {first.describe()}; "
            f"closed form {first.closed_form}; "
            f"fault stats {first.fault_stats.describe()}",
            pytrace=False,
        )
