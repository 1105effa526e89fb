"""Polarization-dependent thermal-neutron capture on polarized helium-3.

Exact cross-section evaluators for ordinary and L=1 orbital-angular-momentum
neutrons, an independent angular-momentum-coupling oracle that adjudicates
the closed forms, and experiment-design tooling (sweeps, strength fitting,
transmission simulation).

The package root carries only the names of the README's library example;
everything else is imported from its module (he3cap.experiment,
he3cap.levels, ...).  Importing the root does not load numpy.
"""

from .angular import cg
from .cross_sections import (
    CaptureMode,
    CaptureModel,
    channel_cross_sections,
    compare_with_oracle,
)
from .polarization import PolarizationTriple

__version__ = "0.1.0"

__all__ = [
    "CaptureMode",
    "CaptureModel",
    "PolarizationTriple",
    "cg",
    "channel_cross_sections",
    "compare_with_oracle",
]
