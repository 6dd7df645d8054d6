"""Unit helpers and constants used throughout the reproduction.

All internal computation uses SI base units: **bytes** for sizes,
**seconds** for durations, **bytes/second** for bandwidth and **FLOP/s**
for compute throughput.  The helpers here exist so that configuration
code can be written in the units the paper uses (GB, Gb/s, MHz, images/s)
without sprinkling conversion factors around.
"""

from __future__ import annotations

MEGA = 1_000_000
GIGA = 1_000_000_000

MIB = 1 << 20
GIB = 1 << 30

#: Bytes per model parameter (fp32 training, as in the paper's TF 1.12 setup).
BYTES_PER_PARAM = 4


def gb(value: float) -> float:
    """Decimal gigabytes to bytes (matches GPU marketing numbers)."""
    return value * GIGA


def gib(value: float) -> float:
    """Binary gibibytes to bytes."""
    return value * GIB


def mib(value: float) -> float:
    """Binary mebibytes to bytes."""
    return value * MIB


def mb(value: float) -> float:
    """Decimal megabytes to bytes."""
    return value * MEGA


def gbps(value: float) -> float:
    """Gigabits per second to bytes per second (network links)."""
    return value * GIGA / 8


def gb_per_s(value: float) -> float:
    """Gigabytes per second to bytes per second (PCIe, memory BW)."""
    return value * GIGA


def mhz(value: float) -> float:
    """Megahertz to hertz."""
    return value * MEGA


def us(value: float) -> float:
    """Microseconds to seconds."""
    return value * 1e-6


def ms(value: float) -> float:
    """Milliseconds to seconds."""
    return value * 1e-3


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count, e.g. ``fmt_bytes(548*MIB) == '548.0 MiB'``."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024 or unit == "TiB":
            return f"{value:.1f} {unit}"
        value /= 1024
    raise AssertionError("unreachable")


def fmt_seconds(seconds: float) -> str:
    """Human-readable duration, e.g. ``fmt_seconds(3672) == '1h 1m 12s'``."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 60:
        return f"{seconds:.2f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h {minutes}m {secs}s"
    return f"{minutes}m {secs}s"
