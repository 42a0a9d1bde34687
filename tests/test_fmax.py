"""Tests for the parametric Fmax solver (``repro.sta.parametric``).

Three layers of evidence:

* the :class:`Aff` affine-form algebra is exact and refuses every lossy
  coercion;
* a parametric pass at the design period reproduces the concrete static
  slack numbers record-for-record (the differential that licenses reusing
  the untouched window/slack passes);
* the two independent Fmax oracles — the analytic anchored solve and pure
  engine bisection — agree to within 1 ps, and the boundary is real: the
  engine is clean at Fmax and violating one picosecond below.
"""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import VerifyConfig
from repro.core.engine import Engine
from repro.core.verifier import TimingVerifier
from repro.session import Session
from repro.sta import analyze, parametric
from repro.sta.parametric import (
    Aff,
    _at_period,
    _record_key,
    _slack_form,
    bisect_fmax,
    run_parametric,
    solve_fmax,
    solve_static_fmax,
)
from repro.workloads import figures
from repro.workloads.synth import SynthConfig, generate


def _engine_clean(circuit, period_ps, config=None, constraints=None):
    with _at_period(circuit, period_ps):
        result = TimingVerifier(
            circuit, config or VerifyConfig(), constraints=constraints
        ).verify()
    return result.ok


def _synth_circuit(chips, seed, alu_fraction=0.0):
    design = generate(
        SynthConfig(chips=chips, seed=seed, alu_fraction=alu_fraction)
    )
    return design.circuit()[0]


class TestAffAlgebra:
    def test_arithmetic_is_exact(self):
        t = Aff(0, 1)
        form = (t * 3 + 250) - (t + 50)
        assert form == Aff(200, 2)
        assert form.at(100) == Fraction(400)

    def test_structural_equality_and_hash(self):
        assert Aff(5, 0) == 5 and hash(Aff(5, 0)) != hash(Aff(5, 1))
        assert Aff(5, 1) != Aff(5, 2)  # same value at some T, different form
        assert len({Aff(1, 2), Aff(1, 2), Aff(1, 3)}) == 2

    def test_constant_comparisons_need_no_context(self):
        assert Aff(3) > Aff(2)
        assert Aff(-1) < 0
        assert Aff(7) % Aff(4) == Aff(3)

    def test_sloped_comparison_outside_context_raises(self):
        with pytest.raises(RuntimeError):
            Aff(0, 1) > 5

    def test_lossy_coercions_raise(self):
        for op in (int, float, round):
            with pytest.raises(TypeError):
                op(Aff(1, 1))

    def test_quadratic_product_rejected(self):
        with pytest.raises(TypeError):
            Aff(0, 1) * Aff(0, 1)


# Designs whose parametric pass must reproduce the concrete slack exactly.
_DIFFERENTIAL = [
    ("fig_2_5", figures.fig_2_5_register_file),
    ("fig_4_1", figures.fig_4_1_correlation),
    ("synth40", lambda: _synth_circuit(40, 3)),
    ("synth80", lambda: _synth_circuit(80, 11)),
]


class TestParametricMatchesConcrete:
    @pytest.mark.parametrize(
        "builder", [b for _, b in _DIFFERENTIAL], ids=[n for n, _ in _DIFFERENTIAL]
    )
    def test_affine_slack_at_design_period_equals_concrete(self, builder):
        circuit = builder()
        period = circuit.timebase.period_ps
        run = run_parametric(circuit, t0=period)
        concrete = {
            _record_key(r): r for r in analyze(circuit).slack
        }
        assert run.records, "parametric pass produced no slack records"
        for rec in run.records:
            twin = concrete[_record_key(rec)]
            if rec.slack_ps is None:
                assert twin.slack_ps is None
                assert (rec.overflow, rec.no_edge) == (
                    twin.overflow, twin.no_edge
                )
                continue
            form = _slack_form(rec.slack_ps)
            assert form.at(period) == twin.slack_ps, (
                f"{_record_key(rec)}: affine {form.a}+{form.b}*T at "
                f"T={period} != concrete {twin.slack_ps}"
            )


class TestHandDerivedFmax:
    def test_shifter_fmax_is_28100_ps(self):
        """First-principles Fmax of examples/designs/shifter.scald.

        The critical path launches at the MAIN CLK rise (clock unit 2 =
        T/4, trimmed distribution, no wire delay) and must make the *next*
        cycle's rise at T + T/4:

          inreg REG          4.5 ns   (clock-to-out max)
          wire               2.0 ns   (default max)
          slow stage: CHG    6.5 ns + 2.0 wire
                      MUX2   3.3 ns + 2.0 wire
          fast stage: MUX2   3.3 ns + 2.0 wire   (one-hot cases: at most
                                                  one stage routes slow)
          outreg setup       2.5 ns
          ------------------------
          total             28.1 ns

        slack(T) = (T + T/4) - (T/4 + 25.6) - 2.5 = T - 28.1 ns, so the
        smallest clean period is exactly 28 100 ps.
        """
        from repro.hdl.expander import MacroExpander

        circuit = MacroExpander.from_file(
            "examples/designs/shifter.scald"
        ).expand()
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert analytic.period_limited and oracle.period_limited
        assert analytic.period_ps == oracle.period_ps == 28100
        assert analytic.binding is not None
        assert analytic.binding.component == "outreg/su"
        assert analytic.slope == 1  # slack gains 1 ps per ps of period

    def test_fig_2_5_fmax_is_63998_ps(self):
        """The register file is bound by the RAM address check, slope 1/8.

        ``rf/su addr`` guards ADR around the write-enable pulse.  Every
        term of the guard (AND-gate delay, wire, the 3.5/1.0 ns
        setup/hold) is constant, while the separation between the ADR
        select flip (clock unit 4 = T/2) and the WE CLK fall (unit 3 =
        3T/8) grows as T/8 — one picosecond per eight of period.  Solving
        the binding inequality gives T/8 >= 8.0 ns, i.e. T = 64 000 ps up
        to the integer rounding of the clock-unit edges; the engine's
        rounded edges first align two picoseconds earlier, at 63 998, and
        both oracles must land on that exact boundary.
        """
        circuit = figures.fig_2_5_register_file()
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert analytic.period_ps == oracle.period_ps == 63998
        assert analytic.binding is not None
        assert analytic.binding.component == "rf/su addr"
        assert analytic.binding.signal == "ADR"

    def test_fig_2_6_is_not_period_limited(self):
        """Pure combinational case-analysis circuit: no period-binding
        check, clean at every probed period — both oracles must say so."""
        circuit = figures.fig_2_6_case_analysis()
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert not analytic.period_limited and not oracle.period_limited
        assert analytic.period_ps is None and oracle.period_ps is None

    def test_fig_1_5_fails_at_every_period(self):
        """The gated-clock runt pulse can be arbitrarily short at any
        period (ENABLE may change anywhere in its window), so slowing the
        clock never fixes it: period-independent failure on both oracles."""
        circuit = figures.fig_1_5_gated_clock()
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert analytic.period_limited and oracle.period_limited
        assert analytic.period_ps is None and oracle.period_ps is None


class TestBoundaryIsReal:
    @pytest.mark.parametrize(
        "builder",
        [figures.fig_2_5_register_file, lambda: _synth_circuit(60, 1)],
        ids=["fig_2_5", "synth60"],
    )
    def test_engine_clean_at_fmax_violating_below(self, builder):
        circuit = builder()
        res = solve_fmax(circuit)
        assert res.period_limited and res.period_ps is not None
        assert _engine_clean(circuit, res.period_ps)
        assert not _engine_clean(circuit, res.period_ps - 1)


class TestOracleAgreement:
    @settings(max_examples=6, deadline=None)
    @given(
        chips=st.integers(min_value=20, max_value=70),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_analytic_equals_bisection_within_1ps(self, chips, seed):
        circuit = _synth_circuit(chips, seed)
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert analytic.period_limited == oracle.period_limited
        assert (analytic.period_ps is None) == (oracle.period_ps is None)
        if analytic.period_ps is not None:
            assert abs(analytic.period_ps - oracle.period_ps) <= 1

    def test_alu_mix_agrees_too(self):
        circuit = _synth_circuit(60, 1, alu_fraction=0.04)
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert analytic.period_ps == oracle.period_ps


class TestStaticSoundness:
    @pytest.mark.parametrize(
        "builder",
        [lambda: _synth_circuit(60, 1), lambda: _synth_circuit(120, 7)],
        ids=["synth60", "synth120"],
    )
    def test_static_root_never_below_engine_boundary(self, builder):
        """Constant pessimism only raises the static root: T_s >= T*."""
        circuit = builder()
        static = solve_static_fmax(circuit)
        engine = bisect_fmax(circuit)
        assert static.period_limited and engine.period_limited
        assert static.period_ps >= engine.period_ps
        # And the static root really is statically meaningful: the engine
        # must be clean there (static-positive implies engine-clean).
        assert _engine_clean(circuit, static.period_ps)


SHIFTER = "examples/designs/shifter.scald"
SHIFTER_SDC = "examples/designs/shifter.sdc"


def _shifter_with_sdc():
    from repro.constraints import load_constraints
    from repro.hdl.expander import MacroExpander

    circuit = MacroExpander.from_file(SHIFTER).expand()
    return circuit, load_constraints(SHIFTER_SDC, circuit)


def _worst_miss(violations):
    if not violations:
        return None
    return max((v.missed_by_ps or 0) for v in violations)


def _fresh(circuit, period_ps, constraints=None):
    """A from-scratch Session verify at ``period_ps``."""
    with _at_period(circuit, period_ps):
        return Session(circuit, constraints=constraints).verify()


@pytest.fixture
def probe_log(monkeypatch):
    """Every engine run a solve makes: ``(period, violations, events)``."""
    log = []
    run = parametric._Prober.violations

    def spy(self, period_ps):
        found = run(self, period_ps)
        log.append((period_ps, found, self.engine.stats.events))
        return found

    monkeypatch.setattr(parametric._Prober, "violations", spy)
    return log


def _assert_matches_fresh(circuit, log, constraints=None):
    """Each probe equals a fresh Session at its period; returns the fresh
    sessions' total events."""
    total = 0
    for period, found, events in log:
        fresh = _fresh(circuit, period, constraints)
        assert (not found) == fresh.ok, period
        assert _worst_miss(found) == _worst_miss(fresh.violations), period
        assert [v.message() for v in found] == [
            v.message() for v in fresh.violations
        ], period
        assert events == fresh.stats.events, period
        total += fresh.stats.events
    return total


_PROBED_DESIGNS = {
    "synth60": lambda: (_synth_circuit(60, 1), None),
    "fig_2_5": lambda: (figures.fig_2_5_register_file(), None),
    "shifter_sdc": _shifter_with_sdc,
}


class TestSharedEngineProbes:
    """Every probe of a solve runs on one engine, re-initialized per period;
    each must say exactly what a fresh Session says at that period."""

    @pytest.mark.parametrize("solver", [solve_fmax, bisect_fmax])
    @pytest.mark.parametrize("design", sorted(_PROBED_DESIGNS))
    def test_every_probe_equals_a_fresh_session(self, design, solver, probe_log):
        circuit, constraints = _PROBED_DESIGNS[design]()
        result = solver(circuit, constraints=constraints)
        assert len(probe_log) == result.engine_runs > 1
        fresh_events = _assert_matches_fresh(circuit, probe_log, constraints)
        assert result.engine_events == fresh_events

    @pytest.mark.parametrize("design", ["fig_2_5", "shifter_sdc"])
    def test_no_state_leaks_between_periods(self, design):
        """Down, up, then down again: each run matches a fresh session."""
        circuit, constraints = _PROBED_DESIGNS[design]()
        design_period = circuit.period_ps
        periods = [
            design_period,
            design_period // 2,
            design_period * 2,
            design_period // 3,
            design_period - 1,
        ]
        prober = parametric._Prober(circuit, VerifyConfig(), constraints)
        for period in periods:
            found = prober.violations(period)
            fresh = _fresh(circuit, period, constraints)
            assert [v.message() for v in found] == [
                v.message() for v in fresh.violations
            ], period
            assert _worst_miss(found) == _worst_miss(fresh.violations)
        assert circuit.period_ps == design_period
        assert prober.runs == len(periods)

    def test_reinitialized_engine_equals_fresh_engine(self):
        circuit, constraints = _shifter_with_sdc()
        cases = circuit.cases or [{}]

        def converge(engine):
            engine.initialize(cases[0])
            return [
                (index, events, [v.message() for v in found], engine.snapshot())
                for index, events, found in engine.run_cases(cases)
            ]

        reused = Engine(circuit, constraints=constraints)
        converge(reused)  # at the design period
        with _at_period(circuit, 20000):
            got = converge(reused)
            fresh = Engine(circuit, constraints=constraints)
            want = converge(fresh)
        assert reused.period == fresh.period == 20000
        assert got == want
        assert reused.stats.events == fresh.stats.events

    def test_each_solve_builds_exactly_one_engine(self, monkeypatch):
        built = []
        init = Engine.__init__

        def counting_init(self, *args, **kwargs):
            built.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "__init__", counting_init)
        # fig_2_5's solve falls back to bisection: still one engine.
        for solver, builder in [
            (solve_fmax, lambda: _synth_circuit(60, 1)),
            (bisect_fmax, lambda: _synth_circuit(60, 1)),
            (solve_fmax, figures.fig_2_5_register_file),
        ]:
            built.clear()
            result = solver(builder())
            assert result.engine_runs > 1
            assert len(built) == 1
            gc.collect()
            assert built[0]() is None, "the engine outlived its solve"

    def test_invalid_circuit_still_raises(self):
        from repro import Circuit, InvalidCircuitError

        circuit = Circuit("t", period_ns=50.0, clock_unit_ns=6.25)
        circuit.add("r", "REG", {"CLOCK": "CK", "OUT": "Q"})
        with pytest.raises(InvalidCircuitError):
            bisect_fmax(circuit)

    @pytest.mark.parametrize(
        "builder, binding, terminal, hops",
        [
            (figures.fig_1_5_gated_clock, None, "", []),
            (figures.fig_2_6_case_analysis, None, "", []),
            (figures.fig_4_1_correlation, None, "", []),
            (
                figures.fig_2_5_register_file,
                ("rf/su addr", "ADR"),
                "stable-assertion",
                [("adr mux", "MUX2", "ADR", (1200, 3300))],
            ),
        ],
        ids=["fig_1_5", "fig_2_6", "fig_4_1", "fig_2_5"],
    )
    def test_binding_and_witness_unchanged(self, builder, binding, terminal, hops):
        """The fallback names its binding from the probe record."""
        result = solve_fmax(builder())
        rec = result.binding
        assert (rec and (rec.component, rec.signal)) == binding
        assert result.witness_terminal == terminal
        assert [(h.component, h.prim, h.net, h.delay) for h in result.witness] == hops

    def test_engine_events_reported(self):
        from repro.reporting.stafmt import fmax_doc, fmax_text

        result = solve_fmax(figures.fig_2_5_register_file())
        assert result.engine_events > 0
        assert fmax_doc(result)["cost"]["engine_events"] == result.engine_events
        assert f"({result.engine_events} events)" in fmax_text(result)
