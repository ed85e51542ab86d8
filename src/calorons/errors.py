"""Exception types shared across the package."""


class CaloronError(Exception):
    """Base class for all package-specific errors."""


class InvalidGroupError(CaloronError, ValueError):
    """Unknown or out-of-range simple Lie type (series, rank)."""


class HolonomyParameterError(CaloronError, ValueError):
    """Holonomy parameter outside its admissible interval / alcove."""


class SingularPointError(CaloronError):
    """Field evaluation requested exactly at a Dirac-monopole singularity."""


class ChartDomainError(CaloronError):
    """Evaluation outside the domain of the requested local chart (for
    example on the Dirac string of a patch)."""


class GluingInfeasibleError(CaloronError):
    """Gluing annuli would overlap; epsilon is too large for the given
    constituent separation."""


class ResonanceError(CaloronError, ValueError):
    """Non-generic spectral parameter s hit a jump locus s_w; carries the
    offending weight."""

    def __init__(self, s, weight):
        self.s = s
        self.weight = tuple(weight)
        super().__init__(
            f"non-generic parameter s={s}: coincides with s_w for weight {self.weight}"
        )


class FluxAmbiguityError(CaloronError):
    """Recovered magnetic flux too far from the integer lattice to round."""


class InputError(CaloronError, ValueError):
    """Malformed user input (config files, CLI flags)."""
