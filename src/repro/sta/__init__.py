"""Static arrival-window and clock-domain analysis (no event loop).

The `sta` package is the block-oriented counterpart to the event-driven
verifier: a handful of dataflow passes over the expanded circuit graph
that bound every net's behaviour without running the fixed point.

* :mod:`repro.sta.windows` — per-net may-rise/may-fall arrival intervals,
  integer picoseconds on the circular clock-period axis.
* :mod:`repro.sta.domains` — clock trees traced from the asserted periodic
  inputs; every register/latch gets a domain, crossings are reported.
* :mod:`repro.sta.slack` — setup/hold slack bounds at every checker.
* :mod:`repro.sta.crosscheck` — enclosure check against engine waveforms,
  the machine-checked soundness contract between the two analyses.
* :mod:`repro.sta.parametric` — window bounds affine in the clock period;
  solves min-slack(T) = 0 for Fmax in closed form, anchored by engine
  confirmation, with an independent engine-bisection oracle.

:func:`analyze` bundles the three static passes into one result, sharing
the window computation they all feed from; :meth:`StaAnalysis.update`
brings that result up to date after timing-only edits by re-sweeping the
edits' fanout alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.config import VerifyConfig
from ..netlist.circuit import Circuit, Component, Connection
from .crosscheck import (
    CrosscheckResult,
    EnclosureFailure,
    VerdictFailure,
    check_encloses,
)
from .domains import ClockRoot, Crossing, DomainAnalysis, StorageDomain, infer_domains
from .parametric import (
    FmaxResult,
    StaticFmax,
    WitnessHop,
    bisect_fmax,
    solve_fmax,
    solve_static_fmax,
)
from .slack import SlackRecord, SlackTable, compute_slack
from .windows import FeedbackCut, IntervalSet, WindowAnalysis, compute_windows, waveform_windows

__all__ = [
    "ClockRoot",
    "Crossing",
    "CrosscheckResult",
    "DomainAnalysis",
    "EnclosureFailure",
    "FeedbackCut",
    "FmaxResult",
    "IntervalSet",
    "SlackRecord",
    "SlackTable",
    "StaAnalysis",
    "StaticFmax",
    "StorageDomain",
    "VerdictFailure",
    "WindowAnalysis",
    "WitnessHop",
    "analyze",
    "bisect_fmax",
    "check_encloses",
    "compute_slack",
    "compute_windows",
    "infer_domains",
    "solve_fmax",
    "solve_static_fmax",
    "waveform_windows",
]


@dataclass
class StaAnalysis:
    """All three static passes over one circuit."""

    circuit: Circuit
    windows: WindowAnalysis
    domains: DomainAnalysis
    table: SlackTable
    #: Resolved SDC constraints the passes honoured (None = unconstrained).
    constraints: object | None = None

    @property
    def slack(self) -> list[SlackRecord]:
        """Every slack record, worst first."""
        return self.table.records()

    def update(
        self,
        components: Iterable[Component],
        checkers: Iterable[Component] = (),
        stale: Iterable[Connection] = (),
    ) -> None:
        """Bring the analysis up to date after timing-only edits.

        ``components`` and ``checkers`` are the edited primitives and
        checkers, plus the readers of every net whose wire delay changed;
        ``stale`` the connections whose wire delay changed
        (:class:`repro.incremental.PendingDirty` collects all three).
        Windows are re-swept from ``components`` only
        (:meth:`WindowAnalysis.update`); slack is recomputed only at the
        edited components and the readers of every net whose windows
        changed.  Clock domains depend on topology and assertions alone
        and are kept.
        """
        components = list(components)
        changed = self.windows.update(components, stale)
        names = {c.name for c in components}
        names.update(c.name for c in checkers)
        for rep in changed:
            names.update(comp.name for comp, _pin in self.circuit.loads_of(rep))
        self.table.update(names)

    @property
    def ok(self) -> bool:
        """No negative static slack anywhere."""
        return all(r.ok for r in self.slack)

    @property
    def cdc_errors(self) -> list[Crossing]:
        """Clock-domain crossings that do not look synchronized."""
        return [c for c in self.domains.crossings if not c.synchronized]


def analyze(
    circuit: Circuit,
    config: VerifyConfig | None = None,
    constraints=None,
) -> StaAnalysis:
    """Run window propagation, domain inference and slack in one pass."""
    windows = compute_windows(circuit, config, constraints=constraints)
    return StaAnalysis(
        circuit=circuit,
        windows=windows,
        domains=infer_domains(circuit, windows),
        table=SlackTable(circuit, windows, constraints),
        constraints=constraints,
    )
