"""Time model for the Timing Verifier.

The thesis expresses time in two unit systems (section 2.3): *absolute* units
(nanoseconds) for component timing properties, and *clock units* for clocks
and assertions, where one clock unit is a designer-chosen fraction of the
clock period (6.25 ns — one eighth of the 50 ns cycle — in the Chapter III
examples).

Internally every time is an integer count of picoseconds.  Integer time makes
the modular interval arithmetic over the clock period exact, so the engine's
fixed-point convergence test can be a structural equality comparison.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

#: Picoseconds per nanosecond; the resolution of the internal time base.
PS_PER_NS = 1000


@functools.lru_cache(maxsize=4096, typed=True)
def ns_to_ps(t_ns: float) -> int:
    """Convert a time in nanoseconds to integer picoseconds.

    Uses round-half-even via ``Fraction`` to avoid binary-float surprises on
    values such as ``6.25`` or ``0.1``.  Memoized: a design repeats a few
    dozen delay values across thousands of components.  The cache is
    bounded because a long-lived server converts client-supplied values,
    and typed so that ``True`` is still rejected rather than read as ``1``.
    """
    return round(Fraction(str(t_ns)) * PS_PER_NS)


def ps_to_ns(t_ps: int) -> float:
    """Convert integer picoseconds back to (float) nanoseconds."""
    return t_ps / PS_PER_NS


def format_ns(t_ps: int) -> str:
    """Format a picosecond time as nanoseconds the way the thesis prints them.

    The listings in Figures 3-10 and 3-11 print times like ``11.5`` and
    ``47.5``; we use one decimal when exact, more when needed.
    """
    ns = t_ps / PS_PER_NS
    text = f"{ns:.1f}"
    if abs(float(text) - ns) > 1e-12:
        text = f"{ns:.3f}".rstrip("0")
    return text


@dataclass(frozen=True)
class Timebase:
    """The time context of a verification run.

    Attributes:
        period_ps: circuit clock period (section 2.2) in picoseconds.  If
            sections of the design run at different rates, this is the least
            common multiple of their periods.
        clock_unit_ps: duration of one designer clock unit in picoseconds
            (section 2.3).  Clock and stable assertions are written in these
            units and scale automatically with the clock rate.
    """

    period_ps: int
    clock_unit_ps: int

    def __post_init__(self) -> None:
        if self.period_ps <= 0:
            raise ValueError(f"period must be positive, got {self.period_ps} ps")
        if self.clock_unit_ps <= 0:
            raise ValueError(
                f"clock unit must be positive, got {self.clock_unit_ps} ps"
            )

    @classmethod
    def from_ns(cls, period_ns: float, clock_unit_ns: float | None = None) -> "Timebase":
        """Build a timebase from nanosecond quantities.

        Args:
            period_ns: the clock period.
            clock_unit_ns: one clock unit; defaults to one eighth of the
                period, the convention used throughout Chapter III.
        """
        period_ps = ns_to_ps(period_ns)
        if clock_unit_ns is None:
            if period_ps % 8:
                raise ValueError(
                    "default clock unit is period/8 but the period "
                    f"{period_ns} ns is not divisible by 8 in picoseconds"
                )
            unit_ps = period_ps // 8
        else:
            unit_ps = ns_to_ps(clock_unit_ns)
        return cls(period_ps=period_ps, clock_unit_ps=unit_ps)

    @property
    def period_ns(self) -> float:
        return ps_to_ns(self.period_ps)

    @property
    def clock_unit_ns(self) -> float:
        return ps_to_ns(self.clock_unit_ps)

    @property
    def units_per_period(self) -> float:
        """How many clock units make up one period (8 in the thesis examples)."""
        return self.period_ps / self.clock_unit_ps

    def units_to_ps(self, units: float) -> int:
        """Convert a clock-unit time (assertion syntax) to picoseconds."""
        return round(Fraction(str(units)) * self.clock_unit_ps)

    def wrap(self, t_ps: int) -> int:
        """Reduce a time into the canonical ``[0, period)`` window.

        Assertion times are taken modulo the cycle (section 3.2: "the
        assertion specification is taken to be modulo the cycle time").
        """
        return t_ps % self.period_ps


def scaled_timebase(base: Timebase, period_ps: int) -> Timebase:
    """The timebase of the same design run at a different clock period.

    Clock-unit times scale with the cycle (section 2.3: a clock unit is a
    designer-chosen *fraction* of the period), so the unit is stretched by
    the same ratio as the period.  The unit may become a non-integer
    :class:`~fractions.Fraction` of a picosecond — ``units_to_ps`` still
    rounds every derived time to integer picoseconds, so all downstream
    interval arithmetic stays exact.  This is the knob the Fmax solvers
    (``repro.sta.parametric``) turn to re-run a design at a trial period.
    """
    if period_ps == base.period_ps:
        return base
    unit = Fraction(base.clock_unit_ps) * period_ps / base.period_ps
    return Timebase(period_ps=period_ps, clock_unit_ps=unit)


def wrap_interval(start: int, end: int, period: int) -> list[tuple[int, int]]:
    """Split a possibly wrapping interval into non-wrapping pieces.

    ``start`` and ``end`` are arbitrary integers; the interval covers
    ``end - start`` picoseconds beginning at ``start`` (mod period).  Returns
    one or two ``(lo, hi)`` pairs with ``0 <= lo < hi <= period``.  An
    interval at least one period long covers everything.
    """
    if end < start:
        raise ValueError(f"interval end {end} precedes start {start}")
    if end - start >= period:
        return [(0, period)]
    lo = start % period
    hi = lo + (end - start)
    if hi <= period:
        return [(lo, hi)] if hi > lo else []
    return [(lo, period), (0, hi - period)]


def interval_overlap(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Length of overlap of two non-wrapping intervals."""
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return max(0, hi - lo)


def circular_distance_forward(t_from: int, t_to: int, period: int) -> int:
    """Distance travelled moving forward in time from ``t_from`` to ``t_to``."""
    return (t_to - t_from) % period
