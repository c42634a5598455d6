"""Exception types shared across the package."""


class SpeedStudyError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SpeedStudyError):
    """Invalid scene config, manifest, simulation config or phase summary
    (includes the file and the field path)."""


class TooFewPoints(SpeedStudyError):
    """Fewer than four correspondences were supplied to the calibration solver."""


class DegenerateConfiguration(SpeedStudyError):
    """Collinear or duplicate points make the calibration system rank-deficient,
    or its coordinates span too wide a range to normalize and solve."""


class AtInfinity(SpeedStudyError):
    """A projected point's homogeneous denominator vanished."""


class MalformedRow(SpeedStudyError):
    """A detection CSV row could not be parsed."""

    def __init__(self, line_no: int, reason: str, source: str):
        self.line_no = line_no
        self.reason = reason
        self.source = source
        super().__init__(f"malformed row at {source}:{line_no}: {reason}")


class EmptyInput(SpeedStudyError):
    """An aggregate was requested over zero values."""


class NonPositiveBaseline(SpeedStudyError):
    """Percent change is undefined for a non-positive baseline (or overflows a
    float for a tiny one)."""


class LocationMismatch(SpeedStudyError):
    """Phase summaries being compared belong to different locations."""


class InvariantViolation(SpeedStudyError):
    """An internal consistency check failed; indicates a bug, not bad input."""
