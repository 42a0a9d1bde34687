"""Ablation: vector primitives versus bit-blasting (Table 3-2's 8 282 vs
53 833).

Each Timing Verifier primitive represents an arbitrarily wide data path; the
thesis credits this symmetry with a 6.5x reduction in primitive count on the
S-1 example.  We bit-blast the synthetic design — one scalar primitive per
bit — and verify both representations, measuring the primitive-count ratio
and the run-time cost of losing the symmetry.
"""

from __future__ import annotations

import time

from repro.core.verifier import TimingVerifier
from repro.netlist.bitblast import bit_blast
from repro.workloads.synth import SynthConfig, generate


def test_ablation_bit_blasting(benchmark, report):
    design = generate(SynthConfig(chips=300))
    vectorised, _ = design.circuit()
    blasted = bit_blast(vectorised)

    t0 = time.perf_counter()
    v_result = TimingVerifier(vectorised).verify()
    v_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    b_result = TimingVerifier(blasted).verify()
    b_time = time.perf_counter() - t0

    benchmark.pedantic(
        lambda: TimingVerifier(vectorised).verify(), rounds=3, iterations=1
    )

    nv, nb = len(vectorised.components), len(blasted.components)
    rows = [
        f"{'representation':<22} {'primitives':>11} {'events':>9} "
        f"{'verify s':>9} {'violations':>11}",
        f"{'vectorised':<22} {nv:>11,} {v_result.stats.events:>9,} "
        f"{v_time:>9.3f} {len(v_result.violations):>11}",
        f"{'bit-blasted':<22} {nb:>11,} {b_result.stats.events:>9,} "
        f"{b_time:>9.3f} {len(b_result.violations):>11}",
        "",
        f"primitive ratio: {nb / nv:.1f}x "
        "(paper: 53,833 / 8,282 = 6.5x on the S-1 example)",
        f"verify-time ratio: {b_time / max(v_time, 1e-9):.1f}x",
    ]
    report("Ablation — vector primitives vs bit-blasting", "\n".join(rows))

    # Both representations agree that the design is clean, and the vector
    # form is several times cheaper.
    assert v_result.ok and b_result.ok
    assert nb / nv >= 3.0
    assert b_result.stats.events > 2 * v_result.stats.events
