"""Exception types shared across the library."""


class ForecastError(Exception):
    """Base class for all library errors."""


class ShapeError(ForecastError):
    """Operation inputs are not conformable."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = shapes
        detail = " and ".join(str(tuple(s)) for s in shapes)
        super().__init__(f"{op}: shapes {detail} are not conformable")


class NotScalar(ForecastError):
    """Reverse pass requested from a non-scalar node."""


class NumericalError(ForecastError):
    """A non-finite value surfaced where finite values are required."""


class ConfigError(ForecastError):
    """Inconsistent or out-of-range configuration."""


class InvalidQuantile(ConfigError):
    """Quantile level outside the open interval (0, 1) or not increasing."""


class MissingMedian(ConfigError):
    """The 0.5 quantile is required but absent from the quantile set."""


class TrainingDiverged(ForecastError):
    """Loss, gradient or update became non-finite during a fit."""


class InsufficientData(ForecastError):
    """Series too short for the requested window/horizon geometry."""


class SchemaError(ForecastError):
    """CSV file is missing required columns, or a run report file lacks
    the fields of a run report."""


class ParseError(ForecastError):
    """CSV cell could not be parsed; reports the 1-based file row."""

    def __init__(self, message: str, row: int):
        super().__init__(f"{message} (row {row})")
        self.row = row


class DegenerateFeature(ForecastError):
    """Feature has zero range so min-max scaling is undefined."""


class EmptyEval(ForecastError):
    """Metric requested over an empty prediction set."""
