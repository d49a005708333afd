"""Seeded benchmark of the tokenjoin join pipeline; see ``perfbench/run.py``."""
