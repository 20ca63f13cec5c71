"""fork_map: the serial answer, in input order, from forked workers; and
the two callers that lean on it — the genesis table hashed in ranges and
chaos seeds run side by side."""

from __future__ import annotations

import hashlib
import os
import pickle
import time

import pytest

from repro import codec, forkmap
from repro.forkmap import WorkerFailed, available_cpus, fork_map
from repro.workloads import smallbank


def _slow_square(i: int) -> tuple[int, int]:
    time.sleep(0.01 * (5 - i))  # later items finish first
    return i * i, os.getpid()


def test_results_come_back_in_input_order_from_child_processes():
    results = list(fork_map(_slow_square, range(6), jobs=3))
    assert [square for square, _ in results] == [i * i for i in range(6)]
    assert os.getpid() not in {pid for _, pid in results}


def test_many_more_items_than_jobs_give_the_serial_map():
    items = list(range(40))
    assert list(fork_map(lambda i: (i, i % 7), items, jobs=8)) == [(i, i % 7) for i in items]


def test_no_jobs_one_cpu_or_one_item_runs_lazily_in_this_process(monkeypatch):
    calls = []
    results = fork_map(lambda i: calls.append(i) or os.getpid(), [1, 2], jobs=0)
    assert calls == []
    assert list(results) == [os.getpid()] * 2 and calls == [1, 2]
    assert list(fork_map(lambda i: os.getpid(), [7])) == [os.getpid()]
    monkeypatch.setattr(forkmap, "available_cpus", lambda: 1)
    assert list(fork_map(lambda i: os.getpid(), [7, 8])) == [os.getpid()] * 2


def test_a_caller_that_works_meanwhile_may_ask_for_one_child():
    assert os.getpid() not in list(fork_map(lambda i: os.getpid(), [7], jobs=1))


def test_workers_run_while_the_caller_works(tmp_path):
    """The first ``jobs`` children start at the call, before any result
    is asked for — what lets ``initial_state`` hash its first range
    meanwhile."""
    marks = [tmp_path / "a", tmp_path / "b"]
    results = fork_map(lambda path: path.write_text("x") and path.name, marks, jobs=2)
    deadline = time.monotonic() + 30
    while not all(mark.exists() for mark in marks) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert all(mark.exists() for mark in marks)
    assert list(results) == ["a", "b"]


def test_a_worker_exception_is_raised_in_the_caller_with_its_traceback():
    def fn(i):
        if i == 2:
            raise KeyError("boom")
        return i

    results = fork_map(fn, range(4), jobs=2)
    assert next(results) == 0 and next(results) == 1
    with pytest.raises(KeyError, match="boom") as raised:
        next(results)
    assert any("raised in the worker for item 2" in note and "KeyError" in note
               for note in raised.value.__notes__)


def test_a_worker_that_dies_or_cannot_report_is_a_worker_failure():
    with pytest.raises(WorkerFailed, match="without a result"):
        list(fork_map(lambda i: os._exit(3) if i else i, [0, 1], jobs=2))

    class Local(Exception):
        pass

    def unpicklable(i):
        raise Local(i)

    with pytest.raises(WorkerFailed, match="does not pickle"):
        list(fork_map(unpicklable, [0, 1], jobs=2))
    with pytest.raises((pickle.PicklingError, AttributeError)):
        list(fork_map(lambda i: (lambda: i), [0, 1], jobs=2))


def test_dropping_the_iterator_stops_the_workers_still_running():
    began = time.monotonic()
    results = fork_map(lambda i: time.sleep(60 * i), [0, 1, 2], jobs=3)
    assert next(results) is None
    del results
    assert time.monotonic() - began < 30


def test_a_worker_maps_serially_unless_asked():
    def nested(_):
        return os.getpid(), available_cpus(), set(fork_map(lambda j: os.getpid(), range(3)))

    for pid, cpus, nested_pids in fork_map(nested, range(2), jobs=2):
        assert cpus == 1 and nested_pids == {pid}


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_genesis_hashed_in_forked_ranges_is_the_serial_sum(monkeypatch, cpus):
    """Ranges of 50 customers that do not divide evenly on three and
    four CPUs, against the plain sum of per-entry terms over the generic
    encoder; insertion order kept."""
    monkeypatch.setattr(smallbank, "MIN_HASH_RANGE", 7)
    monkeypatch.setattr(smallbank, "available_cpus", lambda: cpus)
    table = smallbank.initial_state.__wrapped__(50, checking=64, savings=-(2**63))
    assert list(table) == [f"{kind}:{c}" for c in range(50) for kind in ("checking", "savings")]
    reference = sum(
        int.from_bytes(hashlib.sha256(codec.encode((k, v))).digest(), "big") for k, v in table.items()
    ) % 2**256
    assert table.accumulator == reference
