"""Long-lived verification sessions with incremental re-verify.

The thesis's usage model is a designer iterating edit → verify → edit on
one large design; the engine, however, historically rebuilt every run
from scratch — intern table, memo caches, levelized ranks and stored
waveforms all died with the call.  A :class:`Session` owns that run-scoped
state explicitly and keeps it alive across runs:

* one expanded :class:`~repro.netlist.Circuit` (edited in place through
  the typed :mod:`repro.incremental` API),
* one persistent :class:`~repro.core.engine.Engine` holding the stored
  waveforms, the evaluation/prepared/checker memos and the levelized
  schedule,
* one session-owned :class:`~repro.core.waveform.InternTable`, so
  cross-run hash-consing is deterministic instead of riding on the
  garbage collector's treatment of a process-global weak table.

:meth:`Session.verify` is a full run (and :class:`TimingVerifier` is now
a thin wrapper that makes a one-shot session); :meth:`Session.reverify`
re-enters the fixed point from the converged state, seeding the worklist
from the edits' dirty cone and reusing every unchanged stored waveform.
The engine keeps each §2.7 case's converged state, so with several cases
every case re-enters from its own fixed point: an edit costs cases ×
cone, and a reverify with no edit costs no event and visits no checker.
Every step of a reverify scales with that cone, not the design: the
touched nets alone are reclassified, only checkers with a changed input
are visited, and the static windows pre-screen (on by default; the
engine's verdict stays the authority) re-sweeps only the edits' fanout
of an index kept from its first run.  On a 1 000-chip design (1 209
primitives) an edit plus a reverify with the pre-screen takes a median
1.2 ms of CPU on a 2-CPU host, against 75–90 ms when each step redid the
whole design (the pre-screen alone 50–60 ms); with 8 cases, a reverify
without the pre-screen takes about 1 ms, against 120 ms when each case
was reached from the one before.  Byte-identity with a from-scratch run
is the correctness gate
(:func:`repro.incremental.assert_incremental_equivalent`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core.config import VerifyConfig
from .core.engine import Engine
from .core.verifier import (
    CaseResult,
    LazySnapshot,
    PhaseTimes,
    VerificationResult,
)
from .core.violations import CheckReport
from .core.waveform import InternTable
from .incremental import ConstraintsEdit, Edit, PendingDirty
from .netlist.circuit import Circuit
from .netlist.validate import check as check_structure

__all__ = ["IncrementalResult", "Prescreen", "Session"]


@dataclass
class Prescreen:
    """The STA pre-screen's verdict, advisory next to the engine's.

    ``ok`` is advisory (static analysis is conservative: positive static
    slack implies an engine-clean check, not the reverse); the engine
    result carried alongside is always the authority.  A check whose
    static window overflowed the period (or whose clock has no static
    edge) yields no slack claim at all; any such ``indeterminate`` check
    forces ``ok=False`` — declaring "clean" on no evidence would be the
    optimism the value algebra forbids.
    """

    ok: bool
    worst_slack_ps: int | None
    cdc_errors: int
    indeterminate: int
    seconds: float
    #: Components whose static windows were re-swept: every one when the
    #: static index was (re)built, the edits' fanout up to where the
    #: windows stop changing otherwise, 0 when nothing was edited.
    recomputed: int = 0


@dataclass
class IncrementalResult:
    """One re-verification: the authoritative result plus reuse metadata."""

    result: VerificationResult
    #: False when the session fell back to a full run (first verification,
    #: or a re-verify requested with no prior converged state).
    incremental: bool
    prescreen: Prescreen | None = None

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def violations(self):
        return self.result.violations

    @property
    def stats(self):
        return self.result.stats


class Session:
    """One designer's edit-verify loop over one expanded circuit.

    Usage::

        session = Session.from_file("design.scald")
        first = session.verify()
        session.edit(WireDelayEdit("RF ADRS", (0.0, 6.0)))
        second = session.reverify()          # dirty cone only
        assert second.result.ok

    The session is not thread-safe; ``scald-serve`` wraps each one in a
    lock.
    """

    def __init__(
        self,
        circuit: Circuit,
        config: VerifyConfig | None = None,
        constraints=None,
        jobs: int = 1,
    ) -> None:
        self.circuit = circuit
        self.config = config or VerifyConfig()
        self.constraints = constraints
        self.intern_table = InternTable()
        self._engine: Engine | None = None
        self._dirty = PendingDirty()
        #: The prescreen's static analysis, built at the first prescreen
        #: and updated from then on, and the edits it has not seen yet
        #: (a ``reverify(prescreen=False)`` leaves them pending here).
        self._static = None
        self._static_dirty = PendingDirty()
        self._converged = False
        self._warnings: list | None = None
        self._primitives: tuple[int, int] | None = None
        #: Total verification runs (full + incremental) this session served.
        self.runs = 0
        #: Requested parallelism.  With ``jobs > 1`` the session owns a
        #: persistent :class:`repro.parallel.WorkerPool`: workers are
        #: forked lazily on the first pooled run and reused across
        #: verify/reverify calls, with edits and waveform digests (not
        #: circuits and snapshots) crossing the pipes.
        self.jobs = max(1, int(jobs or 1))
        self._pool = None
        if self.jobs > 1:
            from .parallel import WorkerPool

            self._pool = WorkerPool(self, self.jobs)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_file(
        cls,
        path: str,
        config: VerifyConfig | None = None,
        sdc: str | None = None,
        jobs: int = 1,
    ) -> "Session":
        """Expand a ``.scald`` source file into a fresh session."""
        from .hdl.expander import MacroExpander

        circuit = MacroExpander.from_file(path).expand()
        constraints = None
        if sdc is not None:
            from .constraints import load_constraints

            constraints = load_constraints(sdc, circuit)
        return cls(circuit, config, constraints=constraints, jobs=jobs)

    @classmethod
    def from_source(
        cls,
        source: str,
        config: VerifyConfig | None = None,
        sdc_source: str | None = None,
        name: str = "<session>",
        jobs: int = 1,
    ) -> "Session":
        """Expand ``.scald`` source text into a fresh session."""
        from .hdl.expander import MacroExpander

        circuit = MacroExpander.from_source(source, filename=name).expand()
        constraints = None
        if sdc_source is not None:
            from .constraints import parse_sdc, resolve

            commands, findings = parse_sdc(sdc_source, filename="<sdc>")
            constraints = resolve(
                commands, circuit, filename="<sdc>", parse_findings=findings
            )
        return cls(circuit, config, constraints=constraints, jobs=jobs)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def engine(self) -> Engine:
        """The persistent engine, built on first use."""
        if self._engine is None:
            self._engine = Engine(
                self.circuit,
                self.config,
                constraints=self.constraints,
                intern_table=self.intern_table,
            )
        return self._engine

    def edit(self, *edits: Edit) -> "Session":
        """Apply typed edits to the circuit, accumulating their dirt.

        Edits take effect immediately (``sta()``/``fmax()`` see them at
        once); the engine state is reconciled lazily by the next
        :meth:`reverify` or :meth:`verify`.  Returns the session for
        chaining.
        """
        for e in edits:
            dirt = PendingDirty()
            if isinstance(e, ConstraintsEdit):
                self.constraints = e.load(self.circuit)
                dirt.constraints = True
                if self._engine is not None:
                    self._engine.set_constraints(self.constraints)
            else:
                e.apply(self.circuit, dirt)
            self._dirty.merge(dirt)
            if self._static is not None:
                self._static_dirty.merge(dirt)
            if self._pool is not None:
                # Workers reconcile lazily too: each applied edit travels
                # over the pipes with the next pooled run (a ConstraintsEdit
                # re-resolves against the worker's own circuit copy).  An
                # edit that raised above was never applied, so is not sent.
                self._pool.queue_edits((e,))
        return self

    def close(self) -> None:
        """Release the worker pool, if any; the session stays usable.

        Outstanding lazy snapshots are materialized first, so results
        already returned remain complete.  A later pooled run restarts
        the pool transparently.
        """
        if self._pool is not None:
            self._pool.close()

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def verify(self) -> VerificationResult:
        """A full verification: serial, or over the warm worker pool.

        With ``jobs > 1`` and several cases, the case axis is sharded
        into contiguous blocks over the session's persistent pool, and the
        merged result is byte-identical to the serial run (unique fixed
        point; see ``repro.parallel``).  A single-case design has no case
        axis and takes the serial path.
        """
        if self._pool is not None and self._pool_viable():
            return self._verify_pooled()
        return self._verify_serial()

    def _verify_serial(self) -> VerificationResult:
        """A full from-scratch verification on the persistent engine."""
        phases = PhaseTimes()

        t0 = time.perf_counter()
        warnings = check_structure(self.circuit)
        self._warnings = warnings
        cases = self.circuit.cases or [{}]
        self._begin(cases[0], incremental=False)
        engine = self.engine
        phases.build = time.perf_counter() - t0

        # Cross-reference generation: in the thesis this lists where every
        # signal is used; the part that matters to verification is the list
        # of signals assumed stable for lack of an assertion (section 2.5).
        t0 = time.perf_counter()
        xref = list(engine.xref_assumed_stable)
        phases.cross_reference = time.perf_counter() - t0

        t0 = time.perf_counter()
        report, case_results = self._run_cases(cases)
        phases.verify = time.perf_counter() - t0

        result = self._package(report, case_results, xref, warnings, phases)
        self.runs += 1
        return result

    def _run_cases(self, cases) -> tuple[CheckReport, list[CaseResult]]:
        """Every case to its fixed point on the engine, snapshotting each.

        A snapshot is a lazy view over the case's own kept state, named
        only when a listing reads it.  A run that raises leaves the
        session unconverged, so the next reverify is a full run.
        """
        engine = self.engine
        report = CheckReport()
        case_results: list[CaseResult] = []
        self._converged = False
        for index, events, found in engine.run_cases(cases):
            report.extend(found)
            case_results.append(
                CaseResult(
                    index=index,
                    assignments=dict(cases[index]),
                    waveforms=engine.snapshot(),
                    events=events,
                )
            )
        self._converged = True
        return report, case_results

    def reverify(self, prescreen: bool = True) -> IncrementalResult:
        """Re-verify after edits, re-entering the fixed point incrementally.

        Reuses every stored waveform outside the edits' dirty cone; the
        worklist starts from the directly dirtied primitives and event
        propagation walks the rest.  With ``prescreen=True`` the static
        windows pass runs first and its verdict is attached to the result
        (the engine remains the authority either way).  Falls back to a
        full :meth:`verify` when the session has no converged state yet.
        """
        pooled = self._pool is not None and self._pool_viable()
        if self.runs == 0 or not (pooled or self._converged):
            return IncrementalResult(result=self.verify(), incremental=False)

        pre = self._run_prescreen() if prescreen else None

        if pooled:
            # Warm pooled re-verify: the shipped edits reconcile on each
            # worker's engine through the same incremental path serial
            # uses, so the reused pool is the incremental run.
            return IncrementalResult(
                result=self._verify_pooled(), incremental=True, prescreen=pre
            )

        phases = PhaseTimes()
        t0 = time.perf_counter()
        warnings = self._structure_warnings()
        cases = self.circuit.cases or [{}]
        self._begin(cases[0], incremental=True)
        engine = self.engine
        phases.build = time.perf_counter() - t0

        t0 = time.perf_counter()
        xref = list(engine.xref_assumed_stable)
        phases.cross_reference = time.perf_counter() - t0

        t0 = time.perf_counter()
        report, case_results = self._run_cases(cases)
        phases.verify = time.perf_counter() - t0

        result = self._package(report, case_results, xref, warnings, phases)
        self.runs += 1
        return IncrementalResult(result=result, incremental=True, prescreen=pre)

    def _begin(self, case, incremental: bool) -> None:
        """Fold the pending edits into the engine and ready its next
        :meth:`Engine.run_cases`: re-entering every case's converged
        state, or from scratch at ``case``."""
        dirty, self._dirty = self._dirty, PendingDirty()
        engine = self.engine
        if dirty.topology:
            engine.rebuild_topology()
        if not incremental:
            engine.initialize(case)
            return
        engine.forget_connections(dirty.stale_connections)
        engine.incremental_begin(
            dirty.components.values(),
            nets=dirty.nets,
            checkers=dirty.checkers.values(),
            everything=dirty.rescan,
        )

    def _run_prescreen(self) -> Prescreen:
        """The static windows pass as an advisory verdict.

        The static analysis is built at the first prescreen and kept;
        later prescreens re-sweep only the edits' fanout
        (:meth:`repro.sta.StaAnalysis.update`).  Edits the static index
        cannot absorb — topology, structure or constraints dirt, or a
        period or config other than the one it was built under (Fmax
        solves re-time the circuit in between) — make it rebuild from
        scratch.
        """
        t0 = time.perf_counter()
        from .sta import analyze

        dirt, self._static_dirty = self._static_dirty, PendingDirty()
        sta = self._static
        if (
            sta is None
            or dirt.rescan
            or sta.windows.period != self.circuit.period_ps
            or sta.windows.config != self.config
            or sta.constraints is not self.constraints
        ):
            sta = self._static = analyze(
                self.circuit, self.config, constraints=self.constraints
            )
        else:
            sta.update(
                dirt.components.values(),
                dirt.checkers.values(),
                dirt.stale_connections,
            )
        worst = None
        indeterminate = 0
        for r in sta.table:
            if r.slack_ps is not None:
                if worst is None or r.slack_ps < worst:
                    worst = r.slack_ps
            elif not r.waived:
                indeterminate += 1
        cdc_errors = len(sta.cdc_errors)
        return Prescreen(
            ok=(worst is None or worst >= 0)
            and not cdc_errors
            and not indeterminate,
            worst_slack_ps=worst,
            cdc_errors=cdc_errors,
            indeterminate=indeterminate,
            seconds=time.perf_counter() - t0,
            recomputed=sta.windows.swept,
        )

    def _package(
        self,
        report,
        case_results,
        xref,
        warnings,
        phases,
        stats=None,
        phases_cpu=None,
        pool=None,
    ):
        result = VerificationResult(
            circuit_name=self.circuit.name,
            report=report,
            cases=case_results,
            stats=stats if stats is not None else self._engine.stats,
            phases=phases,
            xref_assumed_stable=xref,
            structure_warnings=warnings,
            primitive_count=self._primitive_count(),
            config=self.config,
            phases_cpu=phases_cpu,
        )
        if pool is not None:
            result.pool = pool.stats.copy()
            # A snapshot a later listing fetches still counts for this
            # result (VerificationResult.summary_listing).
            result._pool_live = pool.stats
        return result

    def _primitive_count(self) -> int:
        """Evaluated (non-checker) primitives.  Edits never add or remove
        a component, so the count stands while the component set does."""
        n = len(self.circuit.components)
        if self._primitives is None or self._primitives[0] != n:
            self._primitives = (n, sum(
                1 for c in self.circuit.iter_components()
                if not c.prim.is_checker
            ))
        return self._primitives[1]

    # ------------------------------------------------------------------
    # pooled verification (repro.parallel)
    # ------------------------------------------------------------------

    def _structure_warnings(self) -> list:
        """Cached structural validation.

        Structural validation inspects only pins/connections and
        assertions; delay and parameter edits cannot change its verdict,
        so the cached warnings stand unless an edit said otherwise.
        """
        if (
            self._warnings is None
            or self._dirty.topology
            or self._dirty.structure
        ):
            self._warnings = check_structure(self.circuit)
        return self._warnings

    def _pool_viable(self) -> bool:
        """Does this run shard into more than one case block?  When not,
        the serial paths are the honest answer."""
        from .parallel import case_blocks

        cases = self.circuit.cases or [{}]
        return len(case_blocks(len(cases), self.jobs)) > 1

    def _verify_pooled(self) -> VerificationResult:
        from .parallel import case_blocks

        cases = self.circuit.cases or [{}]
        return self._pooled_blocks(cases, case_blocks(len(cases), self.jobs))

    def _pooled_blocks(self, cases, blocks) -> VerificationResult:
        """Contiguous case blocks, one per warm worker (§2.7 case axis)."""
        from .core.engine import EngineStats

        pool = self._pool
        phases, cpu = PhaseTimes(), PhaseTimes()
        t0, c0 = time.perf_counter(), time.process_time()
        warnings = self._structure_warnings()
        # The workers reconcile the edits themselves; the parent keeps
        # only its own engine's topology (if it ever built one) current.
        dirty, self._dirty = self._dirty, PendingDirty()
        if dirty.topology and self._engine is not None:
            self._engine.rebuild_topology()
        parent_build_wall = time.perf_counter() - t0
        parent_build_cpu = time.process_time() - c0

        parts = pool.run_blocks(cases, blocks)
        parts.sort(key=lambda p: p.start)

        phases.build = parent_build_wall + max(p.build_wall for p in parts)
        cpu.build = parent_build_cpu + sum(p.build_cpu for p in parts)
        phases.verify = max(p.verify_wall for p in parts)
        cpu.verify = sum(p.verify_cpu for p in parts)
        # The cross-reference is a property of initialization, not of any
        # case, so every worker computed the same list; take block 0's.
        xref = parts[0].xref_assumed_stable

        report = CheckReport()
        case_results: list[CaseResult] = []
        for k, part in enumerate(parts):
            for i, per_case in enumerate(part.violations):
                report.extend(per_case)
                index = part.start + i
                snap = LazySnapshot(
                    lambda k=k, index=index: pool.fetch_case(k, index)
                )
                pool.watch(snap)
                case_results.append(
                    CaseResult(
                        index=index,
                        assignments=part.assignments[i],
                        waveforms=snap,
                        events=part.events[i],
                    )
                )

        result = self._package(
            report,
            case_results,
            xref,
            warnings,
            phases,
            stats=EngineStats.merged(p.stats for p in parts),
            phases_cpu=cpu,
            pool=pool,
        )
        self.runs += 1
        return result

    # ------------------------------------------------------------------
    # static analyses over the session's (edited) circuit
    # ------------------------------------------------------------------

    def sta(self):
        """Static windows/domains/slack over the current circuit state."""
        from .sta import analyze

        return analyze(self.circuit, self.config, constraints=self.constraints)

    def fmax(self):
        """Analytic Fmax (period-affine windows) for the current state."""
        from .sta.parametric import solve_fmax

        return solve_fmax(
            self.circuit, self.config, constraints=self.constraints
        )
