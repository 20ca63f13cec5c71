"""The chaos fuzzer itself: determinism, shrinking, and a bounded soak.

The soak matrix proper lives in CI (``python -m repro.chaos --soak``);
here a couple of pinned seeds run end-to-end so a broken oracle or
harness fails tier-1 with the exact replay command in the message.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.chaos import (
    ChaosParams,
    FaultEvent,
    Schedule,
    generate_schedule,
    run_schedule,
    shrink_schedule,
)
from repro.chaos import __main__ as chaos_cli
from repro.chaos.__main__ import main as chaos_main, parse_seeds, violation_kind
from repro.errors import ProtocolError
from repro.lpbft import ViewManager

# Keep in-suite runs bounded: a short fault window and quiescence still
# exercise every event kind but finish in a few seconds per seed.
FAST = ChaosParams(fault_end=1.5, quiescence=4.0, load_rate=150.0, n_events=6)


class TestSeedArguments:
    def test_ranges_and_lists_mix(self):
        assert parse_seeds("0..3") == [0, 1, 2, 3]
        assert parse_seeds("0..2,54, 89") == [0, 1, 2, 54, 89]
        assert parse_seeds("7") == [7] and parse_seeds("5..5") == [5]

    @pytest.mark.parametrize("bad", ["", "1..", "..3", "a", "3..1", "1..x", "0..29,,5", "1.5"])
    def test_malformed_input_is_an_argparse_error(self, bad, capsys):
        with pytest.raises(SystemExit) as exit_info:
            chaos_main(["--seeds", bad])
        assert exit_info.value.code == 2
        assert "bad seed" in capsys.readouterr().err

    def test_multi_seed_run_ends_with_one_tally_line_per_kind(self, monkeypatch, capsys):
        found = {
            1: ["quiescence: views did not converge: {0: 3, 1: 4}"],
            2: [],
            3: ["quiescence: views did not converge: {0: 9}", "exception: KeyError: 5 at x.py:3"],
        }
        monkeypatch.setattr(chaos_cli, "run_one", lambda seed, params, args: found[seed])
        assert chaos_main(["--seeds", "1..3"]) == 1
        tally = [line for line in capsys.readouterr().out.splitlines() if line.startswith("tally:")]
        assert tally == [
            "tally: 2 seeds: quiescence: views did not converge",
            "tally: 1 seeds: exception: KeyError",
        ]

    def test_violation_kinds_drop_the_particulars(self):
        assert violation_kind("committed-prefix divergence immediately after t=0.5 crash[2]") == (
            "committed-prefix divergence")
        assert violation_kind("quiescence: replica 2 holds arrival/verified entries for 5 requests "
                              "no longer queued") == (
            "quiescence: replica N holds arrival/verified entries for N requests no longer queued")
        assert violation_kind("audit: spurious uPoM blame against correct replicas [1]") == (
            "audit: spurious uPoM blame against correct replicas")


class TestScheduleGeneration:
    def test_generation_is_pure(self):
        a = generate_schedule(42, FAST)
        b = generate_schedule(42, FAST)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_schedule(1, FAST) != generate_schedule(2, FAST)

    def test_schedules_are_survivable(self):
        """Structural invariants the generator promises: crashes are
        paired with recoveries, at most max_crashed down at once, a late
        join is always preceded by its referendum."""
        for seed in range(20):
            schedule = generate_schedule(seed, FAST)
            down: set[int] = set()
            reconfigured_at: float | None = None
            for event in schedule.events:
                if event.kind == "crash":
                    down.add(event.args[0])
                    assert len(down) <= FAST.max_crashed
                elif event.kind == "recover":
                    down.discard(event.args[0])
                elif event.kind == "reconfigure":
                    reconfigured_at = event.time
                elif event.kind == "late_join":
                    assert reconfigured_at is not None
                    assert event.time > reconfigured_at
            assert not down, "every crash must pair with a recovery"

    def test_replay_command_embeds_non_default_params(self):
        schedule = generate_schedule(7, FAST)
        result_cmd = (
            f"PYTHONPATH=src python -m repro.chaos --seed 7 {FAST.cli_args()}"
        )
        assert "--fault-end 1.5" in result_cmd
        assert "--seed 7" in result_cmd


class TestDeterminism:
    def test_same_schedule_replays_byte_identically(self):
        """The whole point of seeded chaos: (seed, params) is the entire
        input, so two runs produce byte-identical traces and digests."""
        schedule = generate_schedule(3, FAST)
        first = run_schedule(schedule)
        second = run_schedule(schedule)
        assert first.trace == second.trace
        assert first.trace_digest == second.trace_digest
        assert first.violations == second.violations
        assert first.summary == second.summary


class TestEscapedException:
    def test_node_raising_out_of_the_event_loop_is_a_violation(self, monkeypatch):
        """An exception escaping ``dep.run`` used to kill the run (and the
        shrinker with it); now it is reported like any oracle violation,
        with the innermost ``src/`` frame and the trace so far."""

        def boom(self):
            raise ProtocolError("boom")

        monkeypatch.setattr(ViewManager, "on_timer", boom)
        result = run_schedule(generate_schedule(3, FAST))
        assert not result.ok
        (violation,) = result.violations
        assert re.fullmatch(
            r"exception: ProtocolError: boom at src/repro/lpbft/viewchange\.py:\d+ in fire",
            violation,
        )
        assert result.trace and result.trace[-1].startswith("final committed=")
        minimal, _ = shrink_schedule(Schedule(seed=3, params=FAST, events=result.schedule.events[:2]))
        assert minimal.events == ()  # the shrinker runs on it instead of dying

    @pytest.mark.skipif(
        os.environ.get("CHAOS_SOAK") != "1",
        reason="shrinking a default-parameter seed takes minutes (CHAOS_SOAK=1)",
    )
    def test_seed_89_shrinks_instead_of_crashing(self, capsys):
        """Seed 89 still fails its oracles; shrinking it must terminate."""
        assert chaos_main(["--seed", "89", "--shrink"]) == 1
        assert "shrunk to" in capsys.readouterr().out


class TestStateSyncNeverShortensCommittedState:
    def test_shrunk_seed_89_schedule(self):
        """docs/CHAOS.md (fixed finding): replicas 0 and 2 recover with 292
        batches committed and are offered replica 1's 95-batch ledger in a
        higher view.  Installing it moved their commit frontier back to 95,
        and replica 3 then raised ``cannot roll back to unknown batch 93``
        on view 2's new-view.  The sync client now fails over instead."""
        schedule = generate_schedule(89)
        shrunk = {(0.3467, "partition"), (1.0535, "crash"), (1.3289, "crash")}
        events = tuple(e for e in schedule.events if (round(e.time, 4), e.kind) in shrunk)
        assert len(events) == 3
        result = run_schedule(Schedule(seed=89, params=schedule.params, events=events))
        assert result.ok, result.violations


class TestShrinking:
    def test_shrink_converges_to_minimal_repro(self):
        """With a predicate that only needs two specific events, the
        ddmin loop must strip everything else (ISSUE: converge to <= 3
        events).  A synthetic predicate keeps this millisecond-fast and
        makes the expected minimum exact."""
        events = tuple(
            FaultEvent(0.3 + 0.1 * i, "crash", (i,)) for i in range(12)
        )
        schedule = Schedule(seed=0, params=FAST, events=events)

        def failing(candidate: Schedule) -> bool:
            ids = {e.args[0] for e in candidate.events}
            return {4, 9} <= ids

        minimal, runs = shrink_schedule(schedule, failing=failing)
        assert len(minimal.events) == 2
        assert {e.args[0] for e in minimal.events} == {4, 9}
        assert runs < 200

    def test_shrink_requires_a_failing_schedule(self):
        schedule = Schedule(seed=0, params=FAST, events=())
        with pytest.raises(ValueError):
            shrink_schedule(schedule, failing=lambda s: False)

    def test_shrink_is_deterministic(self):
        events = tuple(
            FaultEvent(0.3 + 0.1 * i, "crash", (i,)) for i in range(8)
        )
        schedule = Schedule(seed=0, params=FAST, events=events)
        failing = lambda c: any(e.args[0] == 5 for e in c.events)  # noqa: E731
        a, _ = shrink_schedule(schedule, failing=failing)
        b, _ = shrink_schedule(schedule, failing=failing)
        assert a == b


class TestPinnedSeeds:
    """A slice of the CI soak matrix, in-suite: these seeds mined real
    bugs during development (client gov-chain fetch wedge, governance
    link lost to batch pruning, stale-configuration receipt acceptance)
    and must stay green."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_pinned_seed_runs_clean(self, seed):
        result = run_schedule(generate_schedule(seed, FAST))
        assert result.ok, (
            f"oracle violations: {result.violations}; "
            f"replay with: {result.replay_command}"
        )

    @pytest.mark.skipif(
        os.environ.get("CHAOS_SOAK") != "1",
        reason="full soak matrix runs in CI (CHAOS_SOAK=1)",
    )
    @pytest.mark.parametrize("seed", [3, 5, 8, 13, 21, 34])
    def test_soak_matrix(self, seed):
        result = run_schedule(generate_schedule(seed, FAST))
        assert result.ok, (
            f"oracle violations: {result.violations}; "
            f"replay with: {result.replay_command}"
        )
