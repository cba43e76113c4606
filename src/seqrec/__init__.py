"""Sequence-aware recommenders via tensor factorization with positional attention."""

__version__ = "0.1.0"
