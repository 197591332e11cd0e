"""Exact and asymptotic tools for the overcrowded Ginibre ensemble.

The package simulates N eigenvalues of a Ginibre matrix conditioned on the
rare event that at least a fixed fraction of them lies outside a disk of
radius R < 1, and evaluates the attendant kernels, mixture weights and
asymptotic probability formulas.

Modules
-------
gamma       log-space regularized incomplete gamma functions
partitions  integer partition counts and the partition series (Euler's product)
mixture     mixture representation of the conditioned point process
kernels     finite-N and limiting correlation kernels
sampler     exact sampling of the conditioned ensemble
validation  the ten-criterion acceptance suite
cli         command line entry points
"""

from __future__ import annotations

__version__ = "0.1.0"

__all__ = ["__version__"]
