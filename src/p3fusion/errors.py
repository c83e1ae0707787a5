"""Exception types shared across the package."""


class P3FusionError(Exception):
    """Base class for all package errors."""


class PrimeMismatchError(P3FusionError):
    """Two elements or structures live over different primes."""


class MorphismError(P3FusionError):
    """A generator-image assignment does not define an injective homomorphism."""


class InconsistentSpecError(P3FusionError):
    """A fusion-system description fails one of its arithmetic consistency checks."""


class UnknownSystemError(P3FusionError):
    """A system name or config did not resolve to a usable fusion system."""


class ConditionAViolationError(P3FusionError):
    """A formal biset is supported on a class outside the fusion system.

    Carries the offending class in ``self.biset_class``.
    """

    def __init__(self, biset_class):
        self.biset_class = biset_class
        super().__init__(f"support class outside the fusion system: {biset_class}")


class StabilityViolationError(P3FusionError):
    """A biset expected to be stable failed a stability requirement."""


class TheoremViolationError(P3FusionError):
    """A machine check contradicts a proved statement; indicates a defect."""


class InfeasibleCoefficientsError(P3FusionError):
    """A coefficient assignment violates a nonnegativity or divisibility bound.

    Carries a human-readable witness in ``self.witness``.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"infeasible coefficients: {witness}")
