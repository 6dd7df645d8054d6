"""Unit-conversion helpers."""

import pytest

from repro import units


def test_gb_is_decimal():
    assert units.gb(1) == 1_000_000_000


def test_gib_is_binary():
    assert units.gib(1) == 2**30


def test_mib():
    assert units.mib(2) == 2 * 2**20


def test_mb_decimal():
    assert units.mb(3) == 3_000_000


def test_gbps_converts_bits_to_bytes():
    assert units.gbps(56) == 56e9 / 8


def test_gb_per_s():
    assert units.gb_per_s(15.75) == 15.75e9


def test_mhz():
    assert units.mhz(1455) == 1_455_000_000


def test_us_ms():
    assert units.us(25) == pytest.approx(25e-6)
    assert units.ms(3) == pytest.approx(3e-3)


def test_bytes_per_param_is_fp32():
    assert units.BYTES_PER_PARAM == 4


@pytest.mark.parametrize(
    "nbytes,expected",
    [
        (512, "512.0 B"),
        (2048, "2.0 KiB"),
        (548 * 2**20, "548.0 MiB"),
        (3 * 2**30, "3.0 GiB"),
    ],
)
def test_fmt_bytes(nbytes, expected):
    assert units.fmt_bytes(nbytes) == expected


@pytest.mark.parametrize(
    "seconds,expected",
    [
        (5e-6, "5.0us"),
        (0.25, "250.0ms"),
        (42, "42.00s"),
        (3672, "1h 1m 12s"),
        (150, "2m 30s"),
    ],
)
def test_fmt_seconds(seconds, expected):
    assert units.fmt_seconds(seconds) == expected


def test_fmt_bytes_huge_value_uses_tib():
    assert units.fmt_bytes(5 * 2**40).endswith("TiB")
