"""Exception types raised across the package."""


class EnmError(Exception):
    """Base class for all enmsim errors."""


class BlochOutOfBall(EnmError):
    """Bloch vector has norm larger than 1 (beyond tolerance)."""


class NotAState(EnmError):
    """Matrix is not a valid density matrix."""


class NonHermitianGamma(EnmError):
    """Decoherence matrix is not Hermitian at a sampled time."""


class IntegratorDiverged(EnmError):
    """ODE integration failed (step underflow or non-finite values)."""


class SingularIntermediateMap(EnmError):
    """Intermediate map is not computable: the map at time s is singular."""


class OptimizerFailed(EnmError):
    """Inner minimization over product states did not converge."""


class QuadratureFailed(EnmError):
    """Adaptive quadrature could not reach the requested accuracy."""


class InfeasibleRates(EnmError):
    """Rate functions do not admit the requested channel (CPTP violated)."""


class NotXState(EnmError):
    """Not a unit-trace X state with a maximally mixed first marginal."""


class SingularPureState(EnmError):
    """Fisher information formula singular: |r| = 1 with non-tangent derivative."""


class ConfigError(EnmError):
    """Invalid command-line configuration."""
