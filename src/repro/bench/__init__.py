"""Benchmark harness regenerating the paper's tables and figures (§6)."""

from .runners import (
    BenchPoint,
    KneeResult,
    backpressure_client_kwargs,
    find_knee,
    run_iaccf_point,
    run_hotstuff_point,
    run_fabric_point,
    run_pompe_point,
    saturation_sweep,
    print_table,
    wan_sites,
)

__all__ = [
    "BenchPoint",
    "KneeResult",
    "backpressure_client_kwargs",
    "find_knee",
    "run_iaccf_point",
    "run_hotstuff_point",
    "run_fabric_point",
    "run_pompe_point",
    "saturation_sweep",
    "print_table",
    "wan_sites",
]
