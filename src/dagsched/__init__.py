"""Offline semi-partitioned scheduling of periodic hard real-time DAG task sets."""

__version__ = "0.1.0"
