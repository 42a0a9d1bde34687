"""Tests for the time model (sections 2.2 and 2.3)."""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import config as config_module
from repro.core.config import EXACT, VerifyConfig
from repro.core.timeline import (
    Timebase,
    circular_distance_forward,
    format_ns,
    interval_overlap,
    ns_to_ps,
    ps_to_ns,
    wrap_interval,
)


class TestConversions:
    def test_ns_to_ps_exact(self):
        assert ns_to_ps(1.0) == 1000
        assert ns_to_ps(6.25) == 6250
        assert ns_to_ps(0.1) == 100

    def test_round_trip(self):
        assert ps_to_ns(ns_to_ps(3.3)) == pytest.approx(3.3)

    def test_negative_times_allowed(self):
        assert ns_to_ps(-1.0) == -1000

    @given(st.integers(min_value=-10**9, max_value=10**9))
    def test_ps_ns_round_trip_integer(self, ps):
        assert ns_to_ps(ps_to_ns(ps)) == ps

    def test_format_one_decimal(self):
        assert format_ns(11500) == "11.5"
        assert format_ns(47500) == "47.5"

    def test_format_finer_resolution(self):
        assert format_ns(1250) == "1.25"

    def test_format_negative(self):
        assert format_ns(-1000) == "-1.0"


class TestTimebase:
    def test_paper_example(self):
        """50 ns cycle with 6.25 ns clock units gives 8 units per cycle."""
        tb = Timebase.from_ns(50.0, 6.25)
        assert tb.period_ps == 50000
        assert tb.units_per_period == 8.0

    def test_default_clock_unit_is_period_over_eight(self):
        tb = Timebase.from_ns(50.0)
        assert tb.clock_unit_ps == 6250

    def test_units_to_ps(self):
        tb = Timebase.from_ns(50.0, 6.25)
        assert tb.units_to_ps(4) == 25000
        assert tb.units_to_ps(2.5) == 15625

    def test_wrap_modulo_cycle(self):
        """Section 3.2: 'the assertion specification is taken modulo the
        cycle time' — unit 9 of an 8-unit cycle is unit 1."""
        tb = Timebase.from_ns(50.0, 6.25)
        assert tb.wrap(tb.units_to_ps(9)) == tb.units_to_ps(1)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            Timebase(period_ps=0, clock_unit_ps=1)

    def test_rejects_nonpositive_unit(self):
        with pytest.raises(ValueError):
            Timebase(period_ps=100, clock_unit_ps=0)

    def test_scaling_with_clock_rate(self):
        """Clock units scale with the period (section 2.3): the same
        assertion covers the same fraction of a slower cycle."""
        fast = Timebase.from_ns(50.0)
        slow = Timebase.from_ns(100.0)
        assert fast.units_to_ps(2) * 2 == slow.units_to_ps(2)


class TestWrapInterval:
    def test_plain_interval(self):
        assert wrap_interval(10, 20, 100) == [(10, 20)]

    def test_empty_interval(self):
        assert wrap_interval(10, 10, 100) == []

    def test_wrapping_interval(self):
        assert wrap_interval(90, 110, 100) == [(90, 100), (0, 10)]

    def test_negative_start(self):
        assert wrap_interval(-10, 10, 100) == [(90, 100), (0, 10)]

    def test_full_period_saturates(self):
        assert wrap_interval(30, 170, 100) == [(0, 100)]

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            wrap_interval(20, 10, 100)

    @given(
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=300),
    )
    def test_total_length_preserved(self, start, length, period):
        pieces = wrap_interval(start, start + length, period)
        covered = sum(hi - lo for lo, hi in pieces)
        assert covered == min(length, period)
        for lo, hi in pieces:
            assert 0 <= lo < hi <= period


class TestIntervalHelpers:
    def test_overlap(self):
        assert interval_overlap((0, 10), (5, 20)) == 5
        assert interval_overlap((0, 10), (10, 20)) == 0
        assert interval_overlap((0, 10), (20, 30)) == 0

    def test_circular_distance(self):
        assert circular_distance_forward(90, 10, 100) == 20
        assert circular_distance_forward(10, 90, 100) == 80
        assert circular_distance_forward(10, 10, 100) == 0


class TestConfigConversion:
    """``VerifyConfig``'s ps forms are converted once, and stay correct."""

    @staticmethod
    def _assert_converted(config: VerifyConfig) -> None:
        lo, hi = config.default_wire_delay_ns
        assert config.default_wire_delay_ps == (ns_to_ps(lo), ns_to_ps(hi))
        assert config.wire_delay_per_load_ps == ns_to_ps(config.wire_delay_per_load_ns)

    def test_variants_agree_with_ns_fields(self):
        base = VerifyConfig(default_wire_delay_ns=(0.3, 2.7), wire_delay_per_load_ns=0.15)
        base.default_wire_delay_ps, base.wire_delay_per_load_ps  # fill the cache
        edited = replace(base, default_wire_delay_ns=(1.1, 4.4), wire_delay_per_load_ns=0.35)
        variants = [base, edited, base.naive(), edited.naive(), EXACT, VerifyConfig()]
        variants += [pickle.loads(pickle.dumps(c)) for c in variants]
        for config in variants:
            self._assert_converted(config)
        assert edited.default_wire_delay_ps == (1_100, 4_400)
        assert edited.wire_delay_per_load_ps == 350
        assert EXACT.default_wire_delay_ps == (0, 0)
        assert pickle.loads(pickle.dumps(base)) == base

    def test_converted_once(self, monkeypatch):
        config = VerifyConfig(wire_delay_per_load_ns=0.25)
        first = (config.default_wire_delay_ps, config.wire_delay_per_load_ps)

        def refuse(ns):
            raise AssertionError("ns_to_ps called again")

        monkeypatch.setattr(config_module, "ns_to_ps", refuse)
        assert (config.default_wire_delay_ps, config.wire_delay_per_load_ps) == first
