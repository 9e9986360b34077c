"""Workbench for subspace quantum logic, sequential measurement statistics,
classical event algebra, and dispersion-free hidden-variable ensembles."""

__version__ = "0.1.0"
