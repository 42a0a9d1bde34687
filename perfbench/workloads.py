"""The four benchmark workloads and their oracles.

Every workload drives the verifier only through its public API and
feeds it only generated SCALD text.  Each one splits into:

* ``setup`` — timed as ``setup_s``, repeated ``setup_repeats`` times;
* ``prepare`` — untimed: builds the oracle's reference answers;
* ``op`` — one timed operation of the closed loop;
* ``check`` — untimed: the oracle's verdict on one operation, as a list
  of problems (empty when the output is right), or what the oracle
  keeps of it for ``finish``;
* ``finish`` — untimed: the deferred and final-state checks, made after
  the run's peak memory has been read, so the oracle's memory is not
  counted as the program's.

Per-layer values that the program already returns (``ExpanderStats``,
``PhaseTimes``, ``EngineStats``, ``PoolStats``, ``Prescreen``,
``FmaxResult``) are appended to a :class:`Layers` record; span durations
are added by the runner.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import statistics
from collections import deque

from repro.core.config import VerifyConfig
from repro.hdl.expander import MacroExpander
from repro.hdl.parser import parse
from repro.incremental import (
    ParamEdit,
    WireDelayEdit,
    assert_incremental_equivalent,
)
from repro.reporting import listing
from repro.session import Session
from repro.sta.parametric import bisect_fmax, solve_fmax, solve_static_fmax
from repro.workloads.synth import SynthConfig, generate, s1_scale_config

from spans import NO_TRACE

#: Design sizes.  ``full`` is what the benchmark measures; ``tiny`` is
#: for the benchmark's own smoke tests.
S1_CHIPS = {"full": 6_357, "tiny": 60}
CHIPS = {"full": 1_000, "tiny": 60}
STAGE_CHIPS = {"full": 400, "tiny": 30}
#: Generator seeds of the fixed 1 000-chip designs: the edit loops use
#: the design of ``benchmarks/test_parallel.py`` and the Fmax sweep that
#: of ``benchmarks/test_fmax.py``.  There the workload seed drives the
#: edit stream, not the design: the design's cost differs by seed (the
#: Fmax descent takes 13 engine runs on seed 11, 22 on seed 14), which
#: would make the run-to-run spread a matter of which seeds were drawn.
EDIT_DESIGN_SEED = 1980
FMAX_DESIGN_SEED = 7
#: Operations per run at least, whatever ``--seconds`` says: the p90 of
#: the two edit loops needs 100 samples to have 10 beyond it.
MIN_OPS = {
    "s1_cold": {"full": 4, "tiny": 2},
    "edit_loop": {"full": 100, "tiny": 4},
    "fmax_sweep": {"full": 3, "tiny": 2},
    "case_pool": {"full": 100, "tiny": 4},
}


class Layers:
    """Per-layer samples of one run: metric name -> list of values."""

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        vals = self.values.get(name)
        return statistics.median(vals) if vals else 0.0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _design(chips: int, stage_chips: int, seed: int, cases: int = 0) -> tuple[str, int]:
    """Synthetic SCALD text and its chip count; ``cases`` appends the
    case set of the parallel benchmark (primary inputs re-bound)."""
    design = generate(SynthConfig(chips=chips, stage_chips=stage_chips, seed=seed))
    text = design.source
    for k in range(cases):
        binds = ", ".join(
            f'"PRIMARY {i} .S0-6" = {(k >> (i % 3)) % 2}' for i in range(8)
        )
        text += f"case {binds};\n"
    return text, design.chips


def front_end(text: str, tr, layers: Layers):
    """Parse and expand ``text``, recording the expander's phase fields."""
    with tr.span("hdl.parser.parse"):
        design = parse(text, "<synth>")
    expander = MacroExpander(design)
    with tr.span("hdl.expander.expand"):
        circuit = expander.expand()
    es = expander.stats
    layers.add("hdl.expander.pass1_s", es.pass1_seconds)
    layers.add("hdl.expander.pass2_s", es.pass2_seconds)
    layers.add("hdl.expander.macro_calls", es.macro_calls)
    layers.add("hdl.expander.primitives", es.primitives)
    return circuit


def record_full_verify(result, layers: Layers) -> None:
    """``PhaseTimes`` and ``EngineStats`` of a from-scratch verify."""
    p, s = result.phases, result.stats
    layers.add("session.build_s", p.build)
    layers.add("session.run_s", p.verify)
    layers.add("session.summary_s", p.summary)
    layers.add("core.engine.events", s.events)
    layers.add("core.engine.evaluations", s.evaluations)
    layers.add("core.engine.memo_hit_rate", s.memo_hit_rate)
    layers.add("core.engine.intern_hit_rate", s.intern_hit_rate)
    layers.add("core.engine.prepared_hit_rate", s.prepared_hit_rate)


def record_reverify(inc, layers: Layers) -> None:
    """Dirty cone, reuse and pre-screen of one incremental re-verify."""
    s = inc.result.stats
    layers.add("core.engine.dirty_primitives", s.dirty_primitives)
    layers.add("core.engine.reused_waveforms", s.reused_waveforms)
    layers.add("core.engine.reverify_events", s.events)
    if inc.prescreen is not None:
        layers.add("sta.prescreen_ms", inc.prescreen.seconds * 1000)


def listings(result, tr) -> tuple[str, str]:
    """The error and cross-reference listings (Figure 3-11, section 2.5)."""
    with tr.span("reporting.listing"):
        return listing.violation_listing(result), listing.xref_listing(result)


def compare(label: str, got: str, want: str) -> list[str]:
    """One problem naming the first differing line, or none."""
    if got == want:
        return []
    for n, (g, w) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
        if g != w:
            return [f"{label} differs at line {n}: {g!r} != {w!r}"]
    return [f"{label} differs in length"]


# ----------------------------------------------------------------------
# s1_cold
# ----------------------------------------------------------------------

@dataclasses.dataclass
class ColdOutput:
    circuit: object
    result: object
    error: str
    xref: str


def cold_digests(out: ColdOutput) -> dict:
    """What the s1_cold oracle compares: the verdict and the digests of
    the error, cross-reference and summary (Figure 3-10) listings."""
    return {
        "ok": out.result.ok,
        "error": _digest(out.error),
        "xref": _digest(out.xref),
        "summary": _digest(out.result.summary_listing()),
    }


def check_cold(got: dict, reference: dict) -> list[str]:
    """Listings byte-identical to the naive engine's; design clean."""
    problems = [] if got["ok"] else ["synthetic design did not verify clean"]
    for name in ("error", "xref", "summary"):
        if got[name] != reference[name]:
            problems.append(f"{name} listing differs from the naive engine's")
    return problems


class S1Cold:
    """Text to listings at the S-1 scale of the thesis, from scratch."""

    name = "s1_cold"
    setup_repeats = 9

    def __init__(self, seed: int, scale: str) -> None:
        self.config = dataclasses.replace(
            s1_scale_config(), chips=S1_CHIPS[scale], seed=seed,
            stage_chips=STAGE_CHIPS[scale],
        )
        self.min_ops = MIN_OPS[self.name][scale]
        self.digests: dict[int, dict] = {}

    def setup(self, tr, layers) -> str:
        with tr.span("synth.generate"):
            design = generate(self.config)
        self.chips = design.chips
        self.text_bytes = len(design.source.encode("utf-8"))
        return design.source

    def discard(self, text) -> None:
        pass

    def prepare(self, text, tr, layers) -> list[str]:
        return []

    def op(self, text, tr, layers) -> ColdOutput:
        circuit = front_end(text, tr, layers)
        with tr.span("session.verify"):
            result = Session(circuit).verify()
        error, xref = listings(result, tr)
        record_full_verify(result, layers)
        self.primitives = result.primitive_count
        return ColdOutput(circuit, result, error, xref)

    def check(self, text, index: int, out: ColdOutput) -> list[str]:
        # The naive reference is made in ``finish``, after the peak
        # memory of the timed operations has been read; keep digests.
        self.digests[index] = cold_digests(out)
        return []

    def finish(self, text, last: ColdOutput | None, tr, layers) -> dict[int, list[str]]:
        # The naive engine runs on the last operation's circuit (or a
        # fresh expansion when that operation raised).
        circuit = last.circuit if last else front_end(text, NO_TRACE, Layers())
        naive = Session(circuit, VerifyConfig().naive()).verify()
        reference = cold_digests(ColdOutput(circuit, naive, *listings(naive, NO_TRACE)))
        problems = {}
        for index, got in self.digests.items():
            bad = check_cold(got, reference)
            if bad:
                problems[index] = bad
        return problems


# ----------------------------------------------------------------------
# the seeded edit stream shared by edit_loop and case_pool
# ----------------------------------------------------------------------

#: The golden ratio's fractional part: the step of a low-discrepancy
#: sequence (any window of it covers [0, 1) evenly).
GOLDEN = (5 ** 0.5 - 1) / 2


class EditStream:
    """Seeded typed edits; each is reverted ``revert_after`` edits later.

    Half the edits set the wire delay of a generated (non-clock, read)
    net, half widen the delay of a model primitive.  The largest choices
    cause setup violations, so listings change along the stream.  No
    target is edited again while an edit on it is outstanding, so every
    revert restores the text's own value and the design does not drift.
    """

    WIRE_DELAYS_NS = ((0.0, 1.0), (0.0, 4.0), (0.5, 8.0), (0.0, 20.0), (1.0, 45.0))
    EXTRA_DELAY_NS = (0.5, 2.0, 6.0, 30.0)

    def __init__(self, circuit, seed: str, revert_after: int = 3) -> None:
        self.offset = random.Random(seed).random()
        self.picks = 0
        self.revert_after = revert_after
        read = {
            circuit.find(conn.net).name
            for comp in circuit.iter_components()
            for _, conn in comp.input_pins()
        }
        self.nets = sorted(
            n.name
            for n in circuit.representatives()
            if n.assertion is None
            and not n.is_case_signal
            and n.wire_delay_ps is None
            and n.name in read
        )
        self.delays = {
            c.name: c.params["delay"]
            for c in circuit.iter_components()
            if not c.prim.is_checker and c.params.get("delay") is not None
        }
        self.comps = sorted(self.delays)
        self.pending: deque = deque()
        #: New edits made so far.
        self.made = 0

    def next(self):
        """The oldest outstanding revert, or a new edit.

        New edits alternate between the two kinds and walk through the
        delay choices in order.  Targets follow a golden-ratio sequence
        over the sorted candidates from a seeded offset, so any run of
        edits spreads over every stage and kind of the design and each
        seed makes a like mix of cheap and costly edits.
        """
        if len(self.pending) >= self.revert_after:
            return self.pending.popleft()[1]
        k = self.made
        self.made += 1
        busy = {key for key, _ in self.pending}
        while True:
            self.picks += 1
            spot = (self.offset + self.picks * GOLDEN) % 1.0
            if k % 2 == 0:
                net = self.nets[int(spot * len(self.nets))]
                key = ("net", net)
                delay = self.WIRE_DELAYS_NS[k // 2 % len(self.WIRE_DELAYS_NS)]
                edit = WireDelayEdit(net, delay)
                revert = WireDelayEdit(net, None)
            else:
                comp = self.comps[int(spot * len(self.comps))]
                key = ("comp", comp)
                lo, hi = self.delays[comp]
                extra = self.EXTRA_DELAY_NS[k // 2 % len(self.EXTRA_DELAY_NS)]
                edit = ParamEdit(comp, {"delay": (lo / 1000, hi / 1000 + extra)})
                revert = ParamEdit(comp, {"delay": (lo / 1000, hi / 1000)})
            if key not in busy:
                self.pending.append((key, revert))
                return edit


def error_listing(result, tr) -> str:
    """The error listing alone, as the edit loops render it."""
    with tr.span("reporting.listing"):
        return listing.violation_listing(result)


#: How each listing an oracle compares is rendered from a result.
RENDER = {
    "error": listing.violation_listing,
    "xref": listing.xref_listing,
    "summary": lambda result: result.summary_listing(),
}


def step_digests(**texts: str) -> dict[str, str]:
    """The digests of one step's listings, by listing name."""
    return {name: _digest(text) for name, text in texts.items()}


def check_digests(got: dict[str, str], result) -> list[str]:
    """One problem per recorded listing that differs from ``result``'s."""
    return [
        f"{name} listing differs from the reference"
        for name, digest in got.items()
        if digest != _digest(RENDER[name](result))
    ]


def replay(text: str, edits: list, digests: dict, reference):
    """Judge an edit loop's recorded steps once the timed loop is over.

    A serial Session on a fresh expansion of ``text`` verifies, then
    takes ``edits`` in order.  For every step ``i`` in ``digests`` (-1 is
    the state before the first edit) the recorded listing digests are
    compared with those of ``reference(session)``'s result.  Returns the
    problems by step and the session in its final state.
    """
    problems: dict[int, list[str]] = {}
    session = Session(front_end(text, NO_TRACE, Layers()))
    result = session.verify()
    for i in range(-1, len(edits)):
        if i >= 0:
            session.edit(edits[i])
        if i not in digests:
            continue
        try:
            if i >= 0:
                result = reference(session)
            bad = check_digests(digests[i], result)
        except AssertionError as exc:
            bad = [f"reference run diverges: {exc}"]
        if bad:
            problems[i] = bad
    return problems, session


# ----------------------------------------------------------------------
# edit_loop
# ----------------------------------------------------------------------

class EditLoop:
    """The designer's loop: edit, incremental re-verify, error listing.

    The oracle runs after the timed loop (and after the peak memory has
    been read): ``assert_incremental_equivalent`` must hold on the
    session's final state, and on a replay of the edits at every
    ``check_every``-th step, where it must also give the listings that
    step recorded.
    """

    name = "edit_loop"
    setup_repeats = 3
    check_every = 16

    def __init__(self, seed: int, scale: str) -> None:
        self.text, self.chips = _design(
            CHIPS[scale], STAGE_CHIPS[scale], EDIT_DESIGN_SEED
        )
        self.text_bytes = len(self.text.encode("utf-8"))
        self.seed = seed
        self.min_ops = MIN_OPS[self.name][scale]

    def setup(self, tr, layers) -> Session:
        circuit = front_end(self.text, tr, layers)
        session = Session(circuit)
        with tr.span("session.verify"):
            result = session.verify()
        record_full_verify(result, layers)
        self.primitives = result.primitive_count
        return session

    def discard(self, session) -> None:
        session.close()

    def prepare(self, session, tr, layers) -> list[str]:
        self.stream = EditStream(session.circuit, f"{self.name}-{self.seed}")
        self.edits: list = []
        self.digests: dict[int, dict[str, str]] = {}
        return []

    def op(self, session, tr, layers):
        edit = self.stream.next()
        self.edits.append(edit)
        with tr.span("session.edit"):
            session.edit(edit)
        with tr.span("session.reverify"):
            inc = session.reverify()
        error = error_listing(inc.result, tr)
        record_reverify(inc, layers)
        return inc.result, error

    def check(self, session, index: int, out) -> list[str]:
        if index % self.check_every == 0:
            result, error = out
            self.digests[index] = step_digests(
                error=error,
                xref=listing.xref_listing(result),
                summary=result.summary_listing(),
            )
        return []

    def finish(self, session, last, tr, layers) -> dict[int, list[str]]:
        problems, _ = replay(
            self.text, self.edits, self.digests,
            lambda s: assert_incremental_equivalent(s).result,
        )
        final = check_incremental(session)
        if final:
            problems[-1] = final
        return problems


def check_incremental(session) -> list[str]:
    """The session agrees with a from-scratch run on its edited circuit."""
    try:
        assert_incremental_equivalent(session)
    except AssertionError as exc:
        return [f"incremental state diverges from scratch: {exc}"]
    return []


# ----------------------------------------------------------------------
# fmax_sweep
# ----------------------------------------------------------------------

def check_fmax(result, engine_period_ps: int) -> list[str]:
    """Same period as engine bisection; static root not below it."""
    problems = []
    if not result.period_limited or result.period_ps != engine_period_ps:
        problems.append(
            f"Fmax period {result.period_ps} ps != bisection's "
            f"{engine_period_ps} ps"
        )
    if result.static_period_ps is None or result.static_period_ps < result.period_ps:
        problems.append(
            f"static root {result.static_period_ps} ps below engine period "
            f"{result.period_ps} ps"
        )
    return problems


class FmaxSweep:
    """Analytic Fmax with its engine-anchored descent."""

    name = "fmax_sweep"
    setup_repeats = 3

    def __init__(self, seed: int, scale: str) -> None:
        # The workload seed picks nothing here: see FMAX_DESIGN_SEED.
        self.text, self.chips = _design(
            CHIPS[scale], STAGE_CHIPS[scale], FMAX_DESIGN_SEED
        )
        self.text_bytes = len(self.text.encode("utf-8"))
        self.min_ops = MIN_OPS[self.name][scale]

    def setup(self, tr, layers):
        return front_end(self.text, tr, layers)

    def discard(self, circuit) -> None:
        pass

    def prepare(self, circuit, tr, layers) -> list[str]:
        with tr.span("sta.parametric.bisect_fmax"):
            oracle = bisect_fmax(circuit)
        self.engine_period_ps = oracle.period_ps
        with tr.span("sta.parametric.solve_static_fmax"):
            static = solve_static_fmax(circuit)
        with tr.span("session.verify"):
            result = Session(circuit).verify()
        record_full_verify(result, layers)
        self.primitives = result.primitive_count
        problems = []
        if not oracle.period_limited:
            problems.append("bisection found no period limit")
        if static.period_ps is None or static.period_ps < oracle.period_ps:
            problems.append(
                f"static root {static.period_ps} ps below the engine's "
                f"{oracle.period_ps} ps"
            )
        if not result.ok:
            problems.append("synthetic design did not verify clean")
        return problems

    def op(self, circuit, tr, layers):
        with tr.span("sta.parametric.solve_fmax"):
            result = solve_fmax(circuit)
        layers.add("sta.parametric.passes", result.parametric_passes)
        layers.add("sta.parametric.static_evals", result.static_evals)
        layers.add("sta.parametric.engine_runs", result.engine_runs)
        return result

    def check(self, circuit, index: int, result) -> list[str]:
        return check_fmax(result, self.engine_period_ps)

    def finish(self, circuit, last, tr, layers) -> dict[int, list[str]]:
        # Engine time per probe: what is left of a solve once the static
        # part is taken out, over the engine runs it made.
        solve = tr.durations("sta.parametric.solve_fmax") if tr.enabled else []
        static = tr.durations("sta.parametric.solve_static_fmax") if tr.enabled else []
        runs = layers.median("sta.parametric.engine_runs")
        if solve and static and runs:
            layers.add(
                "sta.parametric.probe_s",
                (statistics.median(solve) - statistics.median(static)) / runs,
            )
        return {}


# ----------------------------------------------------------------------
# case_pool
# ----------------------------------------------------------------------

POOL_COUNTERS = ("waveforms_shipped", "waveform_refs", "edits_shipped", "snapshots_fetched")


class CasePool:
    """Edits re-verified over a warm two-worker pool, eight cases.

    The oracle runs after the timed loop: a serial Session replays the
    edits, and at every ``check_every``-th step its error and
    cross-reference listings must equal the pooled run's; in the final
    state every case's summary listing must too.
    """

    name = "case_pool"
    setup_repeats = 3
    workers = 2
    cases = 8
    check_every = 8

    def __init__(self, seed: int, scale: str) -> None:
        self.text, self.chips = _design(
            CHIPS[scale], STAGE_CHIPS[scale], EDIT_DESIGN_SEED, cases=self.cases
        )
        self.text_bytes = len(self.text.encode("utf-8"))
        self.seed = seed
        self.min_ops = MIN_OPS[self.name][scale]

    def setup(self, tr, layers) -> Session:
        self.first = None  # release the previous set-up's result first
        circuit = front_end(self.text, tr, layers)
        session = Session(circuit, jobs=self.workers)
        with tr.span("session.verify"):
            result = session.verify()
        record_full_verify(result, layers)
        self.primitives = result.primitive_count
        self.first = result
        return session

    def discard(self, session) -> None:
        session.close()

    def prepare(self, session, tr, layers) -> list[str]:
        self.stream = EditStream(session.circuit, f"{self.name}-{self.seed}")
        self.edits: list = []
        first, self.first = self.first, None
        self.digests = {
            -1: step_digests(
                error=listing.violation_listing(first),
                xref=listing.xref_listing(first),
            )
        }
        self.last_pool = first.pool
        return []

    def op(self, session, tr, layers):
        edit = self.stream.next()
        self.edits.append(edit)
        with tr.span("session.edit"):
            session.edit(edit)
        with tr.span("parallel.reverify"):
            inc = session.reverify()
        error = error_listing(inc.result, tr)
        record_reverify(inc, layers)
        pool, last = inc.result.pool, self.last_pool
        for name in POOL_COUNTERS:
            layers.add(f"parallel.{name}", getattr(pool, name) - getattr(last, name))
        shipped = pool.waveforms_shipped - last.waveforms_shipped
        refs = pool.waveform_refs - last.waveform_refs
        if shipped + refs:
            layers.add("parallel.codec_hit_rate", refs / (shipped + refs))
        self.last_pool = pool
        return inc.result, error

    def check(self, session, index: int, out) -> list[str]:
        if index % self.check_every == 0:
            result, error = out
            self.digests[index] = step_digests(
                error=error, xref=listing.xref_listing(result)
            )
        return []

    def finish(self, session, last, tr, layers) -> dict[int, list[str]]:
        problems, serial = replay(
            self.text, self.edits, self.digests,
            lambda s: s.reverify(prescreen=False).result,
        )
        # Final state: both listings, and every case's summary listing
        # fetched from the workers, against the serial session's.
        pooled = session.reverify(prescreen=False).result
        want = serial.reverify(prescreen=False).result
        final = compare(
            "error listing", listing.violation_listing(pooled),
            listing.violation_listing(want),
        ) + compare(
            "cross-reference listing", listing.xref_listing(pooled),
            listing.xref_listing(want),
        )
        for case in range(len(want.cases)):
            final += compare(
                f"case {case} summary listing",
                pooled.summary_listing(case=case),
                want.summary_listing(case=case),
            )
        layers.add("parallel.pool_starts", pooled.pool.pool_starts)
        if final:
            problems[-1] = final
        return problems


WORKLOADS = {w.name: w for w in (S1Cold, EditLoop, FmaxSweep, CasePool)}
