"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An input is outside the physically/mathematically valid domain."""


class ConfigError(ValueError):
    """A run configuration is malformed (unknown keys, bad values, bad axes)."""


class NonPhysicalChannelError(ValueError):
    """A map fails the CPTP checks beyond tolerance.

    Carries the eigenvalues of the channel's 4x4 coherence matrix C as
    ``choi_eigenvalues`` (its Choi spectrum is these plus 12 zeros) and the
    trace-preservation defect, so the caller can see *how* the map is broken.
    """

    def __init__(self, message: str, choi_eigenvalues=None, tp_defect=None):
        super().__init__(message)
        self.choi_eigenvalues = choi_eigenvalues
        self.tp_defect = tp_defect
