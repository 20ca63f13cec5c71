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
    "aggregate_signatures", "view_change_timeout", "batch_delay",
    # admission budgets
    "request_queue_cap", "client_timeout", "admission_backlog", "lane_backlog_budget",
    # state sync and ledger GC
    "sync_lag_batches", "ledger_gc", "ledger_gc_min_age",
    # Tab. 3 feature toggles
    "receipts", "checkpoints", "sign_client_requests", "use_signatures", "ledger",
    "execute_transactions", "peer_review",
}

# Options whose losing arm was deleted with them (PR 17), the work
# window W, which was pipeline depth under a second name (PR 19), and
# the state-sync chunk size and window, which only ever took their
# defaults and are now constants of ``repro.statesync``.
REMOVED = (
    "coordinated_admission", "deadline_shedding", "verify_cache", "batch_verify",
    "state_sync", "sync_retry_timeout", "sync_max_retries", "work_window",
    "sync_chunk_bytes", "sync_window",
)


def test_exact_field_set():
    assert {f.name for f in dataclasses.fields(ProtocolParams)} == FIELDS
    assert len(FIELDS) == 20


@pytest.mark.parametrize("name", REMOVED)
def test_removed_option_is_rejected_not_ignored(name):
    with pytest.raises(TypeError):
        ProtocolParams(**{name: True})
    with pytest.raises(TypeError):
        ProtocolParams().variant(**{name: True})
