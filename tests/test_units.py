"""Tests for :mod:`repro.units` — aliases, conversions, tolerances."""

from __future__ import annotations

import pytest

from repro import units
from repro.sim.clock import MBps, Mbps


def test_aliases_are_plain_numbers_at_runtime() -> None:
    # Annotated aliases add zero runtime wrapping: a Seconds IS a float.
    duration: units.Seconds = 1.5
    size: units.Bytes = 4096
    assert isinstance(duration, float)
    assert isinstance(size, int)


def test_alias_metadata_names_the_dimension() -> None:
    assert units.SECOND.dimension == "time"
    assert units.JOULE.dimension == "energy"
    assert units.WATT.dimension == "power"
    assert units.BYTE.dimension == "data"
    assert units.BYTE_PER_SECOND.dimension == "bandwidth"


def test_conversions_match_the_paper_figures() -> None:
    # Aironet 350: 11 Mb/s; Hitachi DK23DA: 35 MB/s media rate.
    assert units.megabits_per_second(11.0) == pytest.approx(1_375_000.0)
    assert units.megabytes_per_second(35.0) == pytest.approx(35e6)
    assert units.milliseconds(13.0) == pytest.approx(0.013)
    assert units.microseconds(250.0) == pytest.approx(250e-6)


def test_clock_module_delegates_to_units() -> None:
    assert Mbps(11.0) == units.megabits_per_second(11.0)
    assert MBps(35.0) == units.megabytes_per_second(35.0)


def test_negative_bandwidth_rejected() -> None:
    with pytest.raises(ValueError):
        units.megabits_per_second(-1.0)
    with pytest.raises(ValueError):
        units.megabytes_per_second(-0.5)


def test_energy_of_is_power_times_time() -> None:
    assert units.energy_of(2.0, 3.5) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        units.energy_of(2.0, -1.0)


def test_transfer_seconds_edge_cases() -> None:
    assert units.transfer_seconds(0, 0.0) == 0.0
    assert units.transfer_seconds(1_375_000, 1_375_000.0) == \
        pytest.approx(1.0)
    with pytest.raises(ValueError):
        units.transfer_seconds(-1, 1.0)
    with pytest.raises(ValueError):
        units.transfer_seconds(1, 0.0)
    assert units.transfer_seconds(2_750_000, Mbps(11.0)) == \
        pytest.approx(2.0)
    # a zero-byte transfer is free even over a nonsense bandwidth
    assert units.transfer_seconds(0, -5.0) == 0.0


def test_approx_eq_mixed_tolerance() -> None:
    assert units.approx_eq(1.0, 1.0 + 1e-12)
    assert units.approx_eq(1e9, 1e9 + 0.5)          # relative kicks in
    assert not units.approx_eq(1.0, 1.001)
    assert units.approx_eq(0.0, 1e-10)              # absolute kicks in
    assert not units.approx_eq(0.0, 1e-6)


def test_is_zero() -> None:
    assert units.is_zero(0.0)
    assert units.is_zero(-1e-12)
    assert not units.is_zero(1e-3)
    assert units.is_zero(0.5, abs_tol=1.0)
