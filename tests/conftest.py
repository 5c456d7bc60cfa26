"""Fixtures shared by the test modules."""

import multiprocessing
import os

import pytest

from trscore import workers


@pytest.fixture
def worker_pids(monkeypatch):
    """The pid of every worker that ``train``, ``train_supervised`` or
    ``evaluate`` starts; each must be gone when the test ends, and the count
    of running workers back at 0."""
    pids = []
    start = workers._Worker.__init__

    def recorded(self, *args):
        start(self, *args)
        pids.append(self.process.pid)

    monkeypatch.setattr(workers._Worker, "__init__", recorded)
    yield pids
    # before ``active_children``, which would reap a worker left unjoined
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert multiprocessing.active_children() == []
    assert workers._Worker.running == 0
