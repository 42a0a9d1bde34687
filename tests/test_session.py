"""Tests for the long-lived verification Session (repro.session)."""

import pytest

from repro import Session, TimingVerifier, VerifyConfig
from repro.hdl.expander import MacroExpander
from repro.incremental import ConstraintsEdit

SHIFTER = "examples/designs/shifter.scald"
MULTICYCLE = "examples/designs/multicycle.scald"
MULTICYCLE_SDC = "examples/designs/multicycle.sdc"


def _expand(path):
    return MacroExpander.from_file(path).expand()


class TestSessionVerify:
    @pytest.mark.parametrize("path", [SHIFTER, MULTICYCLE])
    def test_matches_one_shot_verifier(self, path):
        """A session's full run is byte-identical to TimingVerifier's."""
        session = Session.from_file(path)
        got = session.verify()
        want = TimingVerifier(_expand(path)).verify()
        assert got.error_listing() == want.error_listing()
        assert got.xref_assumed_stable == want.xref_assumed_stable
        for case in range(len(want.cases)):
            assert got.summary_listing(case=case) == want.summary_listing(
                case=case
            )

    def test_verifier_facade_is_a_session(self):
        """TimingVerifier still works (it delegates to a one-shot session)."""
        result = TimingVerifier(_expand(SHIFTER)).verify()
        assert result.ok
        assert result.stats.incremental_runs == 0

    def test_engine_persists_across_runs(self):
        session = Session.from_file(SHIFTER)
        session.verify()
        engine = session.engine
        session.verify()
        assert session.engine is engine
        assert session.runs == 2

    def test_repeated_runs_identical(self):
        session = Session.from_file(SHIFTER)
        first = session.verify()
        second = session.verify()
        assert first.error_listing() == second.error_listing()
        assert first.summary_listing() == second.summary_listing()

    def test_from_source(self):
        source = open(SHIFTER).read()
        result = Session.from_source(source, name="shifter").verify()
        assert result.ok

    def test_config_respected(self):
        config = VerifyConfig(memoize_evaluation=False)
        session = Session.from_file(SHIFTER, config=config)
        result = session.verify()
        assert result.ok
        assert result.stats.memo_hits == 0


class TestSessionInternTable:
    def test_table_is_session_owned(self):
        a = Session.from_file(SHIFTER)
        b = Session.from_file(SHIFTER)
        assert a.intern_table is not b.intern_table
        a.verify()
        assert len(a.intern_table) > 0
        assert len(b.intern_table) == 0  # never ran; nothing interned

    def test_engine_interns_into_session_table(self):
        session = Session.from_file(SHIFTER)
        result = session.verify()
        # Every stored waveform is the interned instance: re-interning a
        # structurally equal copy returns the stored object itself.
        engine = session.engine
        for wf in result.cases[0].waveforms.values():
            assert engine._intern(wf) is wf


class TestSessionStatic:
    def test_sta_over_session_circuit(self):
        session = Session.from_file(SHIFTER)
        analysis = session.sta()
        assert analysis.ok

    def test_fmax_over_session_circuit(self):
        session = Session.from_file(SHIFTER)
        res = session.fmax()
        assert res.fmax_mhz is not None and res.fmax_mhz > 0

    def test_sdc_loaded_from_file(self):
        clean = Session.from_file(MULTICYCLE, sdc=MULTICYCLE_SDC).verify()
        dirty = Session.from_file(MULTICYCLE).verify()
        assert clean.ok
        assert not dirty.ok  # by design: the path needs its 2-cycle waiver

    def test_constraints_edit_swaps_sdc(self):
        session = Session.from_file(MULTICYCLE)
        assert not session.verify().ok
        session.edit(ConstraintsEdit(path=MULTICYCLE_SDC))
        assert session.reverify(prescreen=False).ok
        session.edit(ConstraintsEdit(clear=True))
        assert not session.reverify(prescreen=False).ok


class TestSessionSurvivesFmax:
    def test_reverify_stays_incremental_after_fmax(self):
        """fmax() probes on its own engine: the session's converged state,
        and so the next reverify's dirty cone, are left as they were."""
        from repro.incremental import WireDelayEdit, assert_incremental_equivalent
        from repro.workloads.synth import SynthConfig, generate

        circuit, _ = generate(SynthConfig(chips=60, seed=1)).circuit()
        session = Session(circuit)
        session.verify()
        engine, period = session.engine, circuit.period_ps
        res = session.fmax()
        assert res.period_limited and res.engine_runs > 1
        assert session.engine is engine and engine.period == period
        assert circuit.period_ps == period
        net = next(n for n in circuit.nets if n.startswith("S0 R "))
        session.edit(WireDelayEdit(net, (0.0, 0.4)))
        inc = assert_incremental_equivalent(session, prescreen=False)
        assert inc.incremental
        total = sum(1 for c in circuit.iter_components() if not c.prim.is_checker)
        assert 0 < inc.stats.dirty_primitives < total

    def test_timebase_restored_when_a_probe_raises(self, monkeypatch):
        from repro.core.engine import Engine

        session = Session.from_file(SHIFTER)
        session.verify()
        timebase = session.circuit.timebase

        def boom(self):
            raise RuntimeError("probe failed")

        monkeypatch.setattr(Engine, "run", boom)
        with pytest.raises(RuntimeError, match="probe failed"):
            session.fmax()
        assert session.circuit.timebase is timebase


class TestStaticPrescreenCache:
    def _session(self):
        from repro.workloads.synth import SynthConfig, generate

        circuit, _ = generate(SynthConfig(chips=60, seed=1)).circuit()
        session = Session(circuit)
        session.verify()
        return session, circuit

    def test_built_at_the_first_prescreen_not_at_verify(self):
        session, circuit = self._session()
        assert session._static is None
        first = session.reverify()
        total = sum(1 for c in circuit.iter_components() if not c.prim.is_checker)
        assert first.prescreen.recomputed == total
        assert session.reverify().prescreen.recomputed == 0

    @pytest.mark.parametrize("change", ["period", "constraints", "reconnect"])
    def test_rebuilt_when_the_index_cannot_absorb_the_change(self, change):
        from repro.core.timeline import scaled_timebase
        from repro.incremental import (
            ReconnectEdit,
            assert_incremental_equivalent,
        )

        session, circuit = self._session()
        session.reverify()
        total = sum(1 for c in circuit.iter_components() if not c.prim.is_checker)
        if change == "period":
            circuit.timebase = scaled_timebase(
                circuit.timebase, circuit.period_ps + 5000
            )
            session.verify()  # the engine re-initializes at the new period
        elif change == "constraints":
            session.edit(ConstraintsEdit(source="set_false_path -to c3/su\n"))
        else:
            session.edit(ReconnectEdit("c3/su", "I", "S0 CORR 1"))
        inc = assert_incremental_equivalent(session, prescreen=True)
        assert inc.prescreen.recomputed == total


class TestSummaryOnFirstRead:
    def test_rendered_once_when_first_read(self):
        session = Session.from_file(SHIFTER)
        result = session.verify()
        assert result.phases.summary == 0.0
        text = result.summary_listing(case=1)
        assert result.phases.summary > 0.0
        assert result.summary_listing(case=1) is text
        want = TimingVerifier(_expand(SHIFTER)).verify()
        assert text == want.summary_listing(case=1)

    def test_pool_counts_a_snapshot_fetched_later(self):
        from repro.workloads.synth import SynthConfig, generate

        circuit, _ = generate(SynthConfig(chips=60, seed=1)).circuit()
        for k in range(4):
            circuit.add_case_by_name({"MUX CTL .S0-8": k % 2})
        session = Session(circuit, jobs=2)
        try:
            result = session.verify()
            assert result.pool.snapshots_fetched == 0
            assert result.pool.waveforms_shipped == 0
            result.summary_listing(case=3)
            assert result.pool.snapshots_fetched == 1
            assert result.pool.waveforms_shipped > 0
        finally:
            session.close()


class TestPooledSessionDirt:
    def test_pooled_runs_drain_the_parents_dirt(self):
        """The workers consume the edits; the parent must not keep
        accumulating them (nor re-validate structure on every run)."""
        from repro.incremental import ReconnectEdit, WireDelayEdit
        from repro.workloads.synth import SynthConfig, generate

        circuit, _ = generate(SynthConfig(chips=60, seed=1)).circuit()
        for k in range(4):
            circuit.add_case_by_name({"MUX CTL .S0-8": k % 2})
        session = Session(circuit, jobs=2)
        serial = Session(circuit)
        try:
            session.verify()
            session.edit(WireDelayEdit("S0 CORR 1", (0.0, 1.0)))
            session.edit(ReconnectEdit("c3/su", "I", "S0 CORR 1"))
            pooled = session.reverify(prescreen=False).result
            dirt = session._dirty
            assert not (dirt.components or dirt.stale_connections)
            assert not (dirt.topology or dirt.structure)
            want = serial.verify()
            assert pooled.error_listing() == want.error_listing()
            assert pooled.structure_warnings == want.structure_warnings
        finally:
            session.close()

    def test_an_edit_that_raises_is_not_shipped(self):
        """Edits before a failing one in the same call are applied in the
        parent, so the workers must get exactly those."""
        from repro.incremental import WireDelayEdit
        from repro.netlist.circuit import NetlistError
        from repro.workloads.synth import SynthConfig, generate

        def circuit():
            c, _ = generate(SynthConfig(chips=60, seed=1)).circuit()
            for k in range(4):
                c.add_case_by_name({"MUX CTL .S0-8": k % 2})
            return c

        good = WireDelayEdit("S0 CORR 1", (0.0, 9.0))
        session = Session(circuit(), jobs=2)
        serial = Session(circuit())
        try:
            session.verify()
            serial.verify()
            with pytest.raises(NetlistError):
                session.edit(good, WireDelayEdit("NO SUCH NET", (0.0, 1.0)))
            pooled = session.reverify(prescreen=False).result
            assert pooled.pool.edits_shipped == 1
            want = serial.edit(good).reverify(prescreen=False).result
            assert pooled.error_listing() == want.error_listing()
            assert pooled.summary_listing(case=3) == want.summary_listing(case=3)
        finally:
            session.close()
