"""Smoke test of the perf benchmark itself (a few minutes; not tier-1).

Run explicitly: ``python -m pytest benchmarks/perf -q``.
"""

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.perf import compare, recorder, scenarios, spans  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


@functools.lru_cache(maxsize=None)
def quick(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """One ``--quick`` run in the contract's form: (result, fingerprint)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    fingerprint = re.search(r"sim_fingerprint=(\w+)", done.stdout).group(1)
    return json.loads(done.stdout.strip().splitlines()[-1]), fingerprint


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in CONTRACT[section]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_emits_exactly_the_named_metrics(workload, trace, section):
    result, _ = quick(workload, 0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT[section]}
    for m in CONTRACT[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == 0:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_simulated_clock_repeats_exactly_and_follows_the_seed():
    first, first_print = quick("audit_replay", 0, 0)
    quick.cache_clear()  # a second, separate run of the same seed
    again, again_print = quick("audit_replay", 0, 0)
    other, other_print = quick("audit_replay", 1, 0)
    sim = [name for name in first["metrics"] if name.startswith("sim_")]
    assert first_print == again_print
    assert [first["metrics"][n] for n in sim] == [again["metrics"][n] for n in sim]
    assert other_print != first_print


def test_wrappers_install_and_uninstall_cleanly():
    before = spans.bindings()
    store = spans.install()
    try:
        from repro.crypto import hashing
        from repro.kvstore import store as kv_store

        assert spans.bindings() != before
        # Rebound where it was imported by name, not only where it is defined.
        assert kv_store.digest_value is hashing.digest_value
        kv_store.digest_value(("a", 1))
        stats = store.take()["stats"]
        assert stats["crypto.digest_value"][spans.CALLS] == 1
        assert stats["codec.encode"][spans.CALLS] == 1
        # The digest's span covers the encode inside it: self time excludes it.
        assert stats["crypto.digest_value"][spans.CHILD] == stats["codec.encode"][spans.TOTAL]
    finally:
        spans.uninstall(store)
    assert spans.bindings() == before


def test_due_time_latency_brackets_the_load_generators_own():
    spec = scenarios.Spec(
        name="tiny", accounts=1_000, rate=2_000, params=scenarios.SPECS["lan_steady"].params,
        warmup=0.02, window=0.2, drain=0.2,
    )
    run = scenarios.SimRun(spec, seed=3, scale=1.0)
    run.run()
    load = run.load
    due = run.arrivals.due_times(load.submitted)
    rows = recorder.latency_table(due, run.recorder.completions)
    assert load.submitted > 300 and all(row is not None for row in rows)
    assert sorted(due) == due
    own = load.metrics.latency  # the generator's own submit-time record
    assert (len(rows), max(row[2] for row in rows)) == (own.count, own.max())
    assert sum(row[2] for row in rows) / len(rows) == pytest.approx(own.mean())
    for _, due_latency, submit_latency in rows:
        # Due-time latency adds how late the generator ran: at most a 1 ms floor plus one tick.
        assert -1e-9 <= due_latency - submit_latency <= 2e-3 + 1e-9
    assert run.results()["problems"] == []


def test_a_request_that_never_got_an_answer_is_a_failed_operation():
    # Overload, so thousands of requests are refused, and no quorum from
    # 0.17 s on, so the requests admitted after that are never receipted.
    run = scenarios.SimRun(scenarios.SPECS["lan_overload"], seed=0, scale=0.5)
    for replica in (1, 2):
        run.dep.net.scheduler.at(0.17, lambda replica=replica: run.dep.crash_replica(replica))
    run.run()
    out = run.results()
    assert out["refused"] > 1000
    assert out["failed"] > 100
    assert out["failed"] == out["attempted"] - out["tx"] - out["refused"]


def results_file(goodput: float, host: list[float], fingerprint: str = "f") -> dict:
    values = {m["name"]: 1.0 for m in CONTRACT["end_to_end"]}
    values.update(sim_goodput_tps=goodput, host_us_per_tx=sorted(host)[len(host) // 2])
    side = {
        "correct": True, "attempted": 10, "failed": 0, "fingerprint": fingerprint,
        "metrics": {name: {"value": value} for name, value in values.items()},
        "raw": {"host_us_per_tx": host},
    }
    return {"seed": 0, "scale": 1.0, "workloads": {"lan_steady": {"end_to_end": side}}}


def test_compare_blocks_on_any_simulated_difference_and_on_unresolved_spread(capsys):
    base = results_file(40_000.0, [700.0, 705.0, 710.0])
    assert compare.compare(base, results_file(40_000.0, [690.0, 700.0, 715.0]))
    # One seed: a simulated value well inside its bound is still a change.
    assert not compare.compare(base, results_file(39_900.0, [700.0, 705.0, 710.0]))
    assert "changed, same" in capsys.readouterr().out
    assert not compare.compare(base, results_file(40_000.0, [700.0, 705.0, 710.0], "g"))
    # Another seed: the bound decides.
    other_seed = dict(results_file(39_900.0, [700.0, 705.0, 710.0], "g"), seed=1)
    assert compare.compare(base, other_seed)
    # Repetitions wider apart than the bound cannot tell same from worse.
    assert not compare.compare(base, results_file(40_000.0, [500.0, 720.0, 900.0]))
    assert "unresolved" in capsys.readouterr().out
    assert not compare.compare(base, results_file(40_000.0, [1000.0, 1005.0, 1010.0]))
    assert "worse" in capsys.readouterr().out
    # A zero base gives no ratio; it must not raise.
    assert not compare.compare(results_file(0.0, [700.0]), other_seed)
