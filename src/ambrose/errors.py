"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class AmbroseError(Exception):
    """Base class for all engine errors."""


class AxisMismatch(AmbroseError):
    """Tensor axes have incompatible markers or dimensions."""


class SingularFrame(AmbroseError):
    """A frame or coframe matrix is singular or non-finite."""


class OutOfDomain(AmbroseError):
    """A point or finite-difference stencil leaves the chart box."""


class DegenerateMetric(AmbroseError):
    """Metric matrix is not positive definite at the sampled point."""


class RepMismatch(AmbroseError):
    """An axis has no registered representation of the right size."""


class NotInvariant(AmbroseError):
    """An inner product failed the ad-invariance bracket check."""


class NotReductive(AmbroseError):
    """A stabilizer is not closed under the bracket, so it has no
    ad(h)-invariant complement."""


class DepthMismatch(AmbroseError):
    """Two derivative towers disagree on depth or entry shapes."""


class NotMetric(AmbroseError):
    """A connection failed the metric-compatibility precondition."""


class UnknownFixture(AmbroseError):
    """Requested fixture name is not in the catalog."""


class BadParameters(AmbroseError):
    """Fixture parameters outside their documented valid range."""


class UnsupportedFieldKind(AmbroseError):
    """Total-space field outside the generated class."""


class ConfigError(AmbroseError):
    """CLI configuration is invalid (exit code 2)."""


class NumericalFailure(AmbroseError):
    """A numerical step failed irrecoverably (exit code 3)."""
