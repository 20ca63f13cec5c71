"""The option surface of ``ProtocolParams``, pinned.

Every independent option doubles the configurations the tests, the chaos
fuzzer and the benchmarks must cover, so adding (or removing) one has to
show up in review as an edit to this file.
"""

import dataclasses

import pytest

from repro.lpbft import ProtocolParams

FIELDS = {
    # §3 tunables
    "pipeline", "max_batch", "checkpoint_interval",
    "view_change_timeout", "batch_delay",
    # state sync and ledger GC
    "sync_lag_batches", "ledger_gc_min_age",
    # Tab. 3 feature toggles
    "receipts", "checkpoints", "sign_client_requests", "use_signatures", "ledger",
    "execute_transactions", "peer_review",
}

# Options whose losing arm was deleted with them (PR 17), the work
# window W, which was pipeline depth under a second name (PR 19), the
# state-sync chunk size and window, which only ever took their defaults
# and are now constants of ``repro.statesync``, the admission budgets,
# which are now constants of ``repro.lpbft.admission``, and the ledger GC
# switch (``ledger_gc_min_age=math.inf`` never collects), and aggregate
# receipt signatures (receipts carry one signature per signer).
REMOVED = (
    "coordinated_admission", "deadline_shedding", "verify_cache", "batch_verify",
    "state_sync", "sync_retry_timeout", "sync_max_retries", "work_window",
    "sync_chunk_bytes", "sync_window",
    "request_queue_cap", "client_timeout", "admission_backlog", "lane_backlog_budget",
    "ledger_gc", "aggregate_signatures",
)


def test_exact_field_set():
    assert {f.name for f in dataclasses.fields(ProtocolParams)} == FIELDS
    assert len(FIELDS) == 14


@pytest.mark.parametrize("name", REMOVED)
def test_removed_option_is_rejected_not_ignored(name):
    with pytest.raises(TypeError):
        ProtocolParams(**{name: True})
    with pytest.raises(TypeError):
        ProtocolParams().variant(**{name: True})


@pytest.mark.parametrize("bad", [
    dict(view_change_timeout=0),  # a zero-delay timer re-arms forever at t = 0
    dict(view_change_timeout=-1.0),
    dict(batch_delay=-0.001),  # would fail mid-run as a negative scheduler delay
    dict(sync_lag_batches=-1),  # would count every stashed pre-prepare as lag
    dict(ledger_gc_min_age=-1.0),
])
def test_invalid_values_are_rejected_at_construction(bad):
    with pytest.raises(ValueError):
        ProtocolParams(**bad)
    with pytest.raises(ValueError):
        ProtocolParams().variant(**bad)

