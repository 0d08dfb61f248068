"""Utility helpers shared across the reproduction: timing, tables and vector shape checks."""

from __future__ import annotations

from .timing import Timer, TimingStats, repeat_timed
from .tables import Table, format_float, geometric_mean
from .vectors import as_vector

__all__ = [
    "Timer",
    "TimingStats",
    "repeat_timed",
    "Table",
    "format_float",
    "geometric_mean",
    "as_vector",
]
