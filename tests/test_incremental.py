"""Incremental re-verification must be byte-identical to from-scratch.

The correctness gate for the whole incremental layer: after any typed
edit (or sequence of edits), ``Session.reverify()`` and a from-scratch
``TimingVerifier`` on the same edited circuit must produce identical
error listings, summary listings and cross-references
(:func:`repro.incremental.assert_incremental_equivalent`).  Shipped
designs cover each edit type deterministically; a hypothesis sweep drives
randomized edit sequences over the synthetic generator's size x seed
matrix.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Session
from repro.incremental import (
    AssertionEdit,
    ConstraintsEdit,
    ParamEdit,
    PendingDirty,
    ReconnectEdit,
    WireDelayEdit,
    assert_incremental_equivalent,
    edit_from_doc,
    edit_to_doc,
)
from repro.netlist.circuit import NetlistError
from repro.workloads.synth import SynthConfig, generate

SHIFTER = "examples/designs/shifter.scald"
MULTICYCLE = "examples/designs/multicycle.scald"
RECOVERY = "examples/designs/recovery.scald"


def _session(path):
    session = Session.from_file(path)
    session.verify()
    return session


class TestEditTypes:
    def test_wire_delay_edit(self):
        session = _session(SHIFTER)
        session.edit(WireDelayEdit("AFTER 1", (0.0, 1.0)))
        inc = assert_incremental_equivalent(session)
        assert inc.incremental
        assert inc.stats.incremental_runs == 1
        assert inc.stats.reused_waveforms > 0

    def test_wire_delay_restore_default(self):
        session = _session(SHIFTER)
        session.edit(WireDelayEdit("AFTER 1", (0.0, 1.0)))
        session.reverify(prescreen=False)
        session.edit(WireDelayEdit("AFTER 1", None))
        inc = assert_incremental_equivalent(session)
        assert inc.incremental

    def test_param_edit_model_delay(self):
        session = _session(SHIFTER)
        session.edit(ParamEdit("s1/rot", {"delay": (2.0, 5.0)}))
        inc = assert_incremental_equivalent(session)
        assert inc.incremental

    def test_param_edit_checker(self):
        session = _session(SHIFTER)
        # Tighten the output register's setup far enough to fail: the
        # incremental run must report the identical violation listing.
        session.edit(ParamEdit("outreg/su", {"setup": 30.0}))
        inc = assert_incremental_equivalent(session)
        assert not inc.ok

    def test_checker_setup_edit_reaches_the_listing(self):
        """A checker edit leaves dirt of its own: no input of the checker
        changes (one case, so no case switch stores anything either), so
        only the recorded edit makes the next reverify visit it and the
        static prescreen recompute its slack."""
        circuit, _ = generate(SynthConfig(chips=60, seed=1)).circuit()
        session = Session(circuit)
        session.verify()
        before = session.reverify(prescreen=True)
        session.edit(ParamEdit("c3/su", {"setup": 40.0}))
        inc = assert_incremental_equivalent(session, prescreen=True)
        assert inc.result.error_listing() != before.result.error_listing()
        assert "c3/su" in inc.result.error_listing()
        assert inc.stats.checkers_visited == 1
        assert inc.stats.events == 0  # nothing re-evaluated
        assert inc.prescreen.worst_slack_ps < before.prescreen.worst_slack_ps

    def test_later_case_sees_earlier_case_stores(self):
        """An edit whose cone re-stores a net in both cases: each case's
        checkers on it must be re-checked, from that case's own log of
        stores."""
        circuit, _ = generate(SynthConfig(chips=60, seed=1)).circuit()
        for k in range(2):
            circuit.add_case_by_name({"MUX CTL .S0-8": k})
        session = Session(circuit)
        session.verify()
        session.edit(ParamEdit("corr1/d", {"delay": (2.5, 12.5)}))
        inc = assert_incremental_equivalent(session)
        assert {v.case_index for v in inc.violations} == {0, 1}

    def test_param_edit_rejects_unknown(self):
        session = _session(SHIFTER)
        with pytest.raises(NetlistError):
            session.edit(ParamEdit("s1/rot", {"bogus": 1.0}))

    def test_param_edit_rejects_width(self):
        session = _session(SHIFTER)
        with pytest.raises(NetlistError):
            session.edit(ParamEdit("s1/rot", {"width": 8}))

    def test_reconnect_edit(self):
        session = _session(SHIFTER)
        # Bypass the second shift stage at the output register.
        session.edit(ReconnectEdit("outreg/r", "DATA", "AFTER 1"))
        inc = assert_incremental_equivalent(session)
        assert inc.incremental

    def test_reconnect_rejects_unknown_pin(self):
        session = _session(SHIFTER)
        with pytest.raises(NetlistError):
            session.edit(ReconnectEdit("outreg/r", "NOPIN", "AFTER 1"))

    def test_assertion_edit(self):
        session = _session(MULTICYCLE)
        session.edit(AssertionEdit("DIN .S0-6", ".S1-6"))
        inc = assert_incremental_equivalent(session)
        assert inc.incremental

    def test_edit_sequence_batches(self):
        session = _session(SHIFTER)
        session.edit(
            WireDelayEdit("HELD", (0.0, 0.5)),
            ParamEdit("s2/rot", {"delay": (2.0, 6.0)}),
            ParamEdit("inreg/su", {"hold": 1.0}),
        )
        inc = assert_incremental_equivalent(session)
        assert inc.incremental

    def test_recovery_design(self):
        session = _session(RECOVERY)
        session.edit(ParamEdit("hold", {"delay": (1.0, 4.0)}))
        assert_incremental_equivalent(session)


class TestReverifySemantics:
    def test_falls_back_to_full_run(self):
        session = Session.from_file(SHIFTER)
        inc = session.reverify()
        assert not inc.incremental  # no converged state yet
        assert inc.ok

    def test_noop_reverify_reuses_everything(self):
        session = _session(SHIFTER)
        inc = session.reverify(prescreen=False)
        assert inc.incremental
        assert inc.stats.dirty_primitives == 0
        assert inc.stats.reused_waveforms > 0
        assert_incremental_equivalent(session)

    def test_prescreen_attached(self):
        session = _session(SHIFTER)
        session.edit(WireDelayEdit("AFTER 1", (0.0, 1.0)))
        inc = session.reverify(prescreen=True)
        assert inc.prescreen is not None
        assert inc.prescreen.seconds >= 0.0
        # Static analysis is conservative: a clean prescreen verdict can
        # never contradict an engine violation in the other direction,
        # but either way the engine result is the authority.
        if inc.prescreen.ok:
            assert inc.ok

    def test_prescreen_indeterminate_is_not_clean(self):
        """An overflowed static window makes no slack claim; the prescreen
        must not launder "no evidence" into "statically clean" while the
        engine goes on to find real violations."""
        session = _session(SHIFTER)
        session.edit(WireDelayEdit("AFTER 1", (0.0, 25.0)))
        inc = session.reverify(prescreen=True)
        assert not inc.ok  # engine authority: the design is broken
        assert inc.prescreen is not None
        assert inc.prescreen.indeterminate >= 1
        assert not inc.prescreen.ok

    def test_noop_reverify_costs_nothing(self):
        """No edit, no work: no net re-derived, no checker visited, no
        static window re-swept (after the first prescreen built them)."""
        circuit, _ = generate(SynthConfig(chips=60, seed=1)).circuit()
        session = Session(circuit)
        session.verify()
        first = session.reverify()
        assert first.prescreen.recomputed == sum(
            1 for c in circuit.iter_components() if not c.prim.is_checker
        )
        inc = assert_incremental_equivalent(session, prescreen=True)
        assert inc.stats.nets_reclassified == 0
        assert inc.stats.checkers_visited == 0
        assert inc.prescreen.recomputed == 0

    def test_gate_edit_stays_in_its_fanout_cone(self):
        """Every per-reverify counter is bounded by the edited gate's
        fanout, not the design."""
        circuit, _ = generate(SynthConfig(chips=60, seed=1)).circuit()
        session = Session(circuit)
        session.verify()
        session.reverify()  # builds the static index
        gate = circuit.components["c32/g"]
        lo, hi = gate.params["delay"]
        session.edit(ParamEdit(gate.name, {"delay": (lo / 1000, hi / 1000 + 1.0)}))
        inc = assert_incremental_equivalent(session, prescreen=True)
        cone = session.engine._dirty_cone([gate])
        cone_nets = {
            circuit.find(conn.net)
            for name in cone
            for _pin, conn in circuit.components[name].output_pins()
        }
        cone_checkers = {
            comp.name
            for rep in cone_nets
            for comp, _pin in circuit.loads_of(rep)
            if comp.prim.is_checker
        }
        checkers = sum(1 for c in circuit.iter_components() if c.prim.is_checker)
        primitives = len(circuit.components) - checkers
        assert inc.stats.nets_reclassified == 0
        assert 1 <= inc.prescreen.recomputed <= len(cone) < primitives
        assert inc.stats.checkers_visited <= len(cone_checkers) < checkers

    def test_dirty_cone_is_local(self):
        """A one-net edit dirties a strict subset of the primitives."""
        circuit, _ = generate(SynthConfig(chips=100)).circuit()
        session = Session(circuit)
        session.verify()
        total = sum(
            1 for c in circuit.iter_components() if not c.prim.is_checker
        )
        net = next(n for n in circuit.nets if n.startswith("S0 R "))
        session.edit(WireDelayEdit(net, (0.0, 0.4)))
        inc = assert_incremental_equivalent(session)
        assert 0 < inc.stats.dirty_primitives < total
        assert inc.stats.reused_waveforms > 0


class TestWireFormat:
    @pytest.mark.parametrize(
        "edit",
        [
            WireDelayEdit("A", (0.0, 1.5)),
            WireDelayEdit("A", None),
            ParamEdit("c", {"delay": (1.0, 2.0), "setup": 0.5}),
            ReconnectEdit("c", "DATA", "-B &H"),
            AssertionEdit("A", ".P2-3"),
            AssertionEdit("A", None),
        ],
    )
    def test_round_trip(self, edit):
        assert edit_from_doc(edit_to_doc(edit)) == edit

    def test_unknown_kind_rejected(self):
        with pytest.raises(NetlistError):
            edit_from_doc({"kind": "sorcery"})

    def test_unknown_key_rejected(self):
        # A misspelled field must not silently turn into a different edit
        # ("delay" dropped -> clear-wire-delay no-op reported as success).
        with pytest.raises(NetlistError, match="delay"):
            edit_from_doc(
                {"kind": "wire_delay", "net": "A", "delay": [0.0, 1.0]}
            )
        with pytest.raises(NetlistError, match="setup"):
            edit_from_doc({"kind": "param", "component": "c", "setup": 1.0})


# ----------------------------------------------------------------------
# randomized edit sequences over the synth matrix
# ----------------------------------------------------------------------

_SYNTH_CACHE = {}


def _synth_session(chips, seed):
    """A converged session on a cached synthetic circuit.

    Sessions edit circuits in place, so every draw gets a fresh expansion;
    only the (deterministic) generated source is cached.
    """
    key = (chips, seed)
    if key not in _SYNTH_CACHE:
        _SYNTH_CACHE[key] = generate(SynthConfig(chips=chips, seed=seed))
    circuit, _ = _SYNTH_CACHE[key].circuit()
    session = Session(circuit)
    session.verify()
    return session


@st.composite
def _edits(draw, session):
    """1-3 random timing edits valid for ``session``'s circuit."""
    circuit = session.circuit
    nets = sorted(circuit.nets)
    delayed = sorted(
        name
        for name, comp in circuit.components.items()
        if isinstance(comp.params.get("delay"), tuple)
    )
    checkers = sorted(
        name
        for name, comp in circuit.components.items()
        if comp.prim.is_checker and "setup" in comp.params
    )
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["wire", "wire_clear", "delay", "setup"]))
        if kind == "wire":
            lo = draw(st.integers(min_value=0, max_value=4)) / 4
            hi = lo + draw(st.integers(min_value=0, max_value=4)) / 4
            out.append(WireDelayEdit(draw(st.sampled_from(nets)), (lo, hi)))
        elif kind == "wire_clear":
            out.append(WireDelayEdit(draw(st.sampled_from(nets)), None))
        elif kind == "delay" and delayed:
            comp = draw(st.sampled_from(delayed))
            lo_ps, hi_ps = circuit.components[comp].params["delay"]
            stretch = draw(st.integers(min_value=2, max_value=6)) / 4
            new_hi = max(lo_ps, int(hi_ps * stretch))
            out.append(
                ParamEdit(comp, {"delay": (lo_ps / 1000, new_hi / 1000)})
            )
        elif checkers:
            comp = draw(st.sampled_from(checkers))
            out.append(
                ParamEdit(
                    comp,
                    {"setup": draw(st.integers(min_value=0, max_value=12)) / 4},
                )
            )
    return out


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
@pytest.mark.parametrize("chips,seed", [(30, 1), (30, 7), (60, 2)])
def test_randomized_edit_sequences(chips, seed, data):
    """Random edit batches: reverify == from-scratch, always."""
    session = _synth_session(chips, seed)
    # Two reverification rounds per example: dirt must not leak between
    # rounds, and the second round starts from an incremental converged
    # state rather than a full run's.
    for _ in range(2):
        session.edit(*data.draw(_edits(session)))
        assert_incremental_equivalent(session, prescreen=True)


def _multicase_circuit(chips, seed, lanes=False):
    """A synthetic circuit with four cases; with ``lanes``, two of the
    case keys address single lanes of a vector net (``"NAME [i]"``), so
    every case keeps lane overrides in its state."""
    circuit, _ = generate(SynthConfig(chips=chips, seed=seed)).circuit()
    for k in range(4):
        if lanes:
            case = {
                "MUX CTL .S0-8": k % 2,
                "ALU CTL .S0-8 [1]": k // 2,
                "ALU CTL .S0-8 [3]": 1 - k // 2,
            }
        else:
            case = {"MUX CTL .S0-8": k % 2, "CS CTL .S0-8": k // 2}
        circuit.add_case_by_name(case)
    return circuit


@st.composite
def _rescan_edit(draw, session):
    """An edit that makes the next reverify re-derive every net: a
    register's data input rewired (a topology edit; the register keeps
    every loop legal) or the constraint set swapped."""
    circuit = session.circuit
    if draw(st.booleans()):
        return ConstraintsEdit(clear=True)
    reg = draw(st.sampled_from(sorted(
        c.name for c in circuit.iter_components() if c.prim.name == "REG"
    )))
    width = circuit.components[reg].width
    target = draw(st.sampled_from(sorted(
        n.name for n in circuit.representatives()
        if n.width == width and n.assertion is None
    )))
    return ReconnectEdit(reg, "DATA", target)


def _assert_same_listings(got, want):
    """Pooled against serial, byte for byte."""
    assert got.error_listing() == want.error_listing()
    assert got.xref_assumed_stable == want.xref_assumed_stable
    for case in range(len(want.cases)):
        assert got.summary_listing(case=case) == want.summary_listing(case=case)


def _multicase_rounds(session, data):
    """Four reverify rounds, with an edit that re-derives every net in the
    middle: reverify == from-scratch, every case's summary listing
    included."""
    session.verify()
    for round_ in range(4):
        edits = data.draw(_edits(session))
        if round_ == 2:
            edits.append(data.draw(_rescan_edit(session)))
        session.edit(*edits)
        assert_incremental_equivalent(session, prescreen=True)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
@pytest.mark.parametrize("chips,seed", [(30, 1), (60, 2)])
def test_randomized_multicase_edit_sequences(chips, seed, data):
    """Each case re-enters from its own kept state."""
    _multicase_rounds(Session(_multicase_circuit(chips, seed)), data)


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
@pytest.mark.parametrize("chips,seed", [(30, 1), (60, 2)])
def test_randomized_multicase_lane_edit_sequences(chips, seed, data):
    """Per-lane case keys: each case's kept state carries lane overrides,
    parked while the other cases run."""
    _multicase_rounds(Session(_multicase_circuit(chips, seed, lanes=True)), data)


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
@pytest.mark.parametrize("chips,seed", [(30, 1), (60, 2)])
def test_randomized_multicase_edit_sequences_pooled(chips, seed, data):
    """The same rounds on a two-worker pool: pooled == from-scratch, and
    pooled == serial, per-case reverify events included."""
    serial = Session(_multicase_circuit(chips, seed))
    pooled = Session(_multicase_circuit(chips, seed), jobs=2)
    try:
        _assert_same_listings(pooled.verify(), serial.verify())
        for round_ in range(4):
            edits = data.draw(_edits(serial))
            if round_ == 2:
                edits.append(data.draw(_rescan_edit(serial)))
            serial.edit(*edits)
            pooled.edit(*edits)
            got = assert_incremental_equivalent(pooled).result
            want = serial.reverify(prescreen=False).result
            _assert_same_listings(got, want)
            # A full run's later blocks start from scratch, but a reverify
            # re-enters every case from its own state, pooled or not.
            assert got.stats.events_by_case == want.stats.events_by_case
    finally:
        pooled.close()


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
@pytest.mark.parametrize("chips,seed", [(30, 1), (30, 7)])
def test_static_dirt_survives_other_runs(chips, seed, data):
    """Edits consumed by a reverify without prescreen, and an Fmax solve
    that re-times the circuit in between, must still reach the next
    prescreen: its static analysis equals a from-scratch one."""
    session = _synth_session(chips, seed)
    session.reverify()  # builds the static index
    for _ in range(3):
        session.edit(*data.draw(_edits(session)))
        between = data.draw(st.sampled_from(["none", "engine", "fmax"]))
        if between == "engine":
            session.reverify(prescreen=False)
            session.edit(*data.draw(_edits(session)))
        elif between == "fmax":
            session.fmax()
        assert_incremental_equivalent(session, prescreen=True)


# ----------------------------------------------------------------------
# edit dirt against the full-scan lookups the net index replaced
# ----------------------------------------------------------------------


def _scan_readers(circuit, rep):
    """Reference: every (component, connection) reading ``rep``, found by
    scanning the whole design (the lookup before the net index)."""
    return [
        (comp, conn)
        for comp in circuit.iter_components()
        for _pin, conn in comp.input_pins()
        if circuit.find(conn.net) is rep
    ]


def _scan_driver(circuit, rep):
    for comp in circuit.iter_components():
        for _pin, conn in comp.output_pins():
            if circuit.find(conn.net) is rep:
                return comp
    return None


def _touch_by_scan(circuit, rep, want):
    """Reference dirt of touching ``rep``: its readers dirtied and their
    default-delay connections stale, found by full scan."""
    want.nets[rep] = None
    for comp, conn in _scan_readers(circuit, rep):
        if conn.wire_delay_ps is None:
            want.stale_connections.append(conn)
        want.merge_component(comp)


def _assert_same_dirt(got, want):
    assert list(got.components) == list(want.components)
    assert list(got.checkers) == list(want.checkers)
    assert list(got.nets) == list(want.nets)
    assert [id(c) for c in got.stale_connections] == [
        id(c) for c in want.stale_connections
    ]


class TestEditDirtMatchesFullScan:
    def test_wire_delay(self):
        circuit, _ = generate(SynthConfig(chips=60, seed=1)).circuit()
        for name in sorted(circuit.nets)[::7]:
            for delay in ((0.0, 1.5), None):
                got = PendingDirty()
                WireDelayEdit(name, delay).apply(circuit, got)
                want = PendingDirty()
                _touch_by_scan(circuit, circuit.find(circuit.nets[name]), want)
                _assert_same_dirt(got, want)

    def test_param(self):
        circuit = Session.from_file(SHIFTER).circuit
        for name in ("s1/rot", "outreg/su"):
            got = PendingDirty()
            comp = circuit.components[name]
            key = "setup" if comp.prim.is_checker else "delay"
            value = 2.0 if key == "setup" else (1.0, 3.0)
            ParamEdit(name, {key: value}).apply(circuit, got)
            want = PendingDirty()
            want.merge_component(comp)
            _assert_same_dirt(got, want)
        assert list(got.checkers) == ["outreg/su"]

    def test_reconnect(self):
        circuit = Session.from_file(SHIFTER).circuit
        comp = circuit.components["outreg/r"]
        old_rep = circuit.find(comp.pins["DATA"].net)
        old = comp.pins["DATA"]
        got = PendingDirty()
        ReconnectEdit("outreg/r", "DATA", "AFTER 1").apply(circuit, got)
        want = PendingDirty()
        want.merge_component(comp)
        want.stale_connections.append(old)
        for rep in (circuit.find(comp.pins["DATA"].net), old_rep):
            _touch_by_scan(circuit, rep, want)
            want.merge_component(_scan_driver(circuit, rep))
        assert got.topology and got.structure
        _assert_same_dirt(got, want)

    def test_assertion(self):
        circuit = Session.from_file(MULTICYCLE).circuit
        got = PendingDirty()
        AssertionEdit("DIN .S0-6", ".S1-6").apply(circuit, got)
        rep = circuit.find(circuit.nets["DIN .S0-6"])
        driver = _scan_driver(circuit, rep)
        want = PendingDirty()
        want.nets[rep] = None
        if driver is not None:
            want.merge_component(driver)
        _assert_same_dirt(got, want)


# ----------------------------------------------------------------------
# multi-case re-verify: each case from its own fixed point
# ----------------------------------------------------------------------


def _edit_stream(circuit, seed, count):
    """Seeded wire-delay and gate-delay edits, each reverted two edits on."""
    rng = random.Random(seed)
    read = {
        circuit.find(conn.net).name
        for comp in circuit.iter_components()
        for _pin, conn in comp.input_pins()
    }
    nets = sorted(
        n.name for n in circuit.representatives()
        if n.assertion is None and not n.is_case_signal and n.name in read
    )
    delays = {
        c.name: c.params["delay"]
        for c in circuit.iter_components()
        if not c.prim.is_checker and isinstance(c.params.get("delay"), tuple)
    }
    pending = []
    for k in range(count):
        if len(pending) >= 2:
            yield pending.pop(0)
        elif k % 2:
            net = rng.choice(nets)
            yield WireDelayEdit(net, (0.0, rng.choice((0.5, 4.0, 20.0))))
            pending.append(WireDelayEdit(net, None))
        else:
            name = rng.choice(sorted(delays))
            lo, hi = delays[name]
            extra = rng.choice((0.5, 6.0, 30.0))
            yield ParamEdit(name, {"delay": (lo / 1000, hi / 1000 + extra)})
            pending.append(ParamEdit(name, {"delay": (lo / 1000, hi / 1000)}))


class TestPerCaseReentry:
    """A multi-case reverify costs cases x cone: every case re-enters from
    the state its own last run left, not from the case before it."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_noop_reverify_costs_nothing_in_every_case(self, jobs):
        session = Session(_multicase_circuit(30, 1), jobs=jobs)
        try:
            session.verify()
            for _ in range(2):
                inc = session.reverify(prescreen=False)
                assert inc.incremental
                assert inc.stats.events_by_case == [0] * 4
                assert inc.stats.checkers_visited == 0
        finally:
            session.close()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_case_events_equal_single_case_sessions(self, jobs):
        """Per case, the edit's events are exactly those of a session
        that only ever knew that case."""
        session = Session(_multicase_circuit(60, 2), jobs=jobs)
        singles = []
        for case in session.circuit.cases:
            circuit = _multicase_circuit(60, 2)
            circuit.cases = [dict(case)]
            singles.append(Session(circuit))
        try:
            session.verify()
            for single in singles:
                single.verify()
            for k, edit in enumerate(_edit_stream(session.circuit, 1980, 12)):
                session.edit(edit)
                if k % 4 == 3:
                    inc = assert_incremental_equivalent(session)
                else:
                    inc = session.reverify(prescreen=False)
                want = []
                for single in singles:
                    single.edit(edit)
                    want.extend(single.reverify(prescreen=False).stats.events_by_case)
                assert inc.stats.events_by_case == want, k
        finally:
            session.close()

    def test_results_survive_later_runs(self):
        """A returned case snapshot is a view of the case's own state,
        which later runs copy instead of mutating: read only after an
        edit's reverify, it still shows the run that returned it."""
        session = Session(_multicase_circuit(30, 1))
        first = session.verify()
        want = Session(_multicase_circuit(30, 1)).verify()
        gate = next(
            c for c in session.circuit.iter_components()
            if not c.prim.is_checker and isinstance(c.params.get("delay"), tuple)
        )
        lo, hi = gate.params["delay"]
        session.edit(ParamEdit(gate.name, {"delay": (lo / 1000, hi / 1000 + 30.0)}))
        assert min(session.reverify(prescreen=False).stats.events_by_case) > 0
        for k in range(4):
            assert first.summary_listing(case=k) == want.summary_listing(case=k)
