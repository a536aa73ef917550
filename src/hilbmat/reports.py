"""What a verdict is: the ResidualReport every check returns, its
constructor, the slack for one-sided bounds, and the one rule for when a
report counts as a failure.  The identities' own tolerance tiers stay in
``identities``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

INEQ_SLACK = 1e-10      # slack for one-sided bounds


@dataclass(frozen=True, slots=True)
class ResidualReport:
    """Outcome of one check.

    ``passed`` is equivalent to ``max_residual <= tolerance * scale``.
    ``applicable`` is False when a hypothesis of the statement is not met
    (recorded, not a failure); ``probe`` marks conjecture probes whose
    outcome is reported but never asserted.  Slotted, because a ``verify``
    run holds every report at once: without an instance dict a report takes
    96 bytes, not 192, beside its ``details``.
    """

    name: str
    max_residual: float
    scale: float
    tolerance: float
    passed: bool
    applicable: bool = True
    probe: bool = False
    details: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Applicable, not a probe, and not passed."""
        return self.applicable and not self.probe and not self.passed


def residual_report(name, residual, scale, tolerance, applicable=True, probe=False,
                    **details) -> ResidualReport:
    """A report with ``passed`` decided here; a scale <= 0 counts as 1."""
    scale = float(scale) if scale > 0 else 1.0
    residual = float(residual)
    return ResidualReport(name=name, max_residual=residual, scale=scale,
                          tolerance=float(tolerance),
                          passed=bool(residual <= tolerance * scale),
                          applicable=applicable, probe=probe, details=details)
