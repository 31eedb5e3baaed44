"""Simulated federated training of financial-fraud classifiers."""

__version__ = "0.1.0"
