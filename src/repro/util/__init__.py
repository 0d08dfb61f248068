"""Utility helpers shared across the reproduction: timing and tables."""

from __future__ import annotations

from .timing import Timer, TimingStats, repeat_timed
from .tables import Table, format_float, geometric_mean

__all__ = [
    "Timer",
    "TimingStats",
    "repeat_timed",
    "Table",
    "format_float",
    "geometric_mean",
]
