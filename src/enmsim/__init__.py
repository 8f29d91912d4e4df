"""Covariant qubit decoherence channels and the correlations they preserve.

The package simulates qubit open-system dynamics generated by
time-dependent decoherence matrices, provides the family of phase-covariant
channels whose eternally non-Markovian member optimally preserves
correlations and coherence, and computes the associated correlation,
coherence, Fisher-information and process-spectrum quantities.  The
modules are the API: ``from enmsim import covariant``.
"""

from . import correlations, covariant, lindblad, metrology, qstate, tomography

__version__ = "0.1.0"
