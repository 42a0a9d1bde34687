"""Table 3-1: execution statistics for the chip-design example.

The thesis timed the Macro Expander (read 1.92 min, Pass 1 8.42 min,
Pass 2 6.18 min) and the Timing Verifier (read/build 4.45 min, cross
reference 0.72 min, verify 6.75 min, summary 0.22 min) on a 6 357-chip
portion of the S-1 Mark IIA, on an IBM 370/168-class machine; the verify
phase processed 20 052 events at about 20 ms each, about 49 ms per
primitive.  We regenerate the same two tables on the synthetic S-1-scale
design and report our per-event and per-primitive costs beside the paper's.
"""

from __future__ import annotations

from repro.core.verifier import TimingVerifier
from repro.hdl.expander import MacroExpander

PAPER = {
    "expander_read_min": 1.92,
    "expander_pass1_min": 8.42,
    "expander_pass2_min": 6.18,
    "verifier_read_min": 4.45,
    "verifier_xref_min": 0.72,
    "verifier_verify_min": 6.75,
    "verifier_summary_min": 0.22,
    "events": 20_052,
    "ms_per_event": 20.0,
    "ms_per_primitive": 49.0,
}


def test_table_3_1_execution_statistics(benchmark, synth_design, report):
    source = synth_design.source

    def pipeline():
        expander = MacroExpander.from_source(source, filename="<synth>")
        circuit = expander.expand()
        result = TimingVerifier(circuit).verify()
        # The listing is rendered on first read; Table 3-1 times it.
        result.summary_listing()
        return expander, circuit, result

    expander, circuit, result = benchmark.pedantic(
        pipeline, rounds=1, iterations=1
    )

    assert result.ok, [str(v) for v in result.violations[:3]]
    n_prims = len(circuit.components)
    es, ps = expander.stats, result.phases
    ms_per_event = ps.verify * 1000 / max(1, result.stats.events)
    ms_per_prim = ps.verify * 1000 / n_prims

    rows = [
        f"design: {synth_design.chips} chips, {n_prims} primitives "
        f"(paper: 6357 chips, 8282 primitives)",
        "",
        f"{'phase':<42} {'paper':>12} {'measured':>12}",
        f"{'MACRO EXPANDER':<42}",
        f"{'  reading input / building structures':<42} "
        f"{PAPER['expander_read_min']:>9.2f} min {es.read_seconds:>10.2f} s",
        f"{'  Pass 1 of macro expansion':<42} "
        f"{PAPER['expander_pass1_min']:>9.2f} min {es.pass1_seconds:>10.2f} s",
        f"{'  Pass 2 of macro expansion':<42} "
        f"{PAPER['expander_pass2_min']:>9.2f} min {es.pass2_seconds:>10.2f} s",
        f"{'TIMING VERIFIER':<42}",
        f"{'  reading input / building structures':<42} "
        f"{PAPER['verifier_read_min']:>9.2f} min {ps.build:>10.2f} s",
        f"{'  generating cross reference listings':<42} "
        f"{PAPER['verifier_xref_min']:>9.2f} min {ps.cross_reference:>10.2f} s",
        f"{'  verifying circuit':<42} "
        f"{PAPER['verifier_verify_min']:>9.2f} min {ps.verify:>10.2f} s",
        f"{'  generating timing summary listing':<42} "
        f"{PAPER['verifier_summary_min']:>9.2f} min {ps.summary:>10.2f} s",
        "",
        f"events processed: {result.stats.events} "
        f"(paper: {PAPER['events']})",
        f"per-event cost:   {ms_per_event:.3f} ms "
        f"(paper: {PAPER['ms_per_event']:.0f} ms on a 370/168-class host)",
        f"per-primitive:    {ms_per_prim:.3f} ms "
        f"(paper: {PAPER['ms_per_primitive']:.0f} ms)",
    ]
    report("Table 3-1 — execution statistics", "\n".join(rows))

    # Shape assertions: verification dominated by the verify phase being
    # linear-ish in events, with nonzero work in every phase.
    assert result.stats.events > 0
    assert ps.verify > 0
    assert es.pass1_seconds > 0 and es.pass2_seconds > 0
