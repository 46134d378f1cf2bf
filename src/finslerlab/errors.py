"""Exception hierarchy shared by all finslerlab modules."""


class FinslerError(Exception):
    """Base class for every error raised by this package."""


# --- jet kernel ---

class BadConfig(FinslerError):
    """An input is unusable: a jet configuration (dimension < 1, order < 1),
    a non-finite vector, an empty span, an unknown option value, ..."""


class ZeroVector(FinslerError):
    """A direction vector that must be nonzero was zero."""


class ShapeMismatch(FinslerError):
    """Operands live in incompatible jet spaces or tensor shapes."""


class DivisionByZero(FinslerError, ZeroDivisionError):
    """Division by a jet whose value part is zero."""


class DomainError(FinslerError):
    """Function evaluated outside its real domain (sqrt/log/pow at <= 0)."""


class OrderExceeded(FinslerError):
    """A derivative or coefficient beyond the truncation order was requested."""


# --- expression language ---

class LexError(FinslerError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (byte {pos})")
        self.pos = pos


class ParseError(FinslerError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (byte {pos})")
        self.pos = pos


class ArityError(FinslerError):
    """Known function called with the wrong number of arguments."""


class UnboundVariable(FinslerError):
    """Expression referenced a variable or constant absent from the environment."""


# --- metric catalog ---

class SpecError(FinslerError):
    """Metric specification is malformed (asymmetry, bad family, parse failure)."""


class OutOfChart(FinslerError):
    """Base point lies outside the metric's chart domain."""


class SingularMetric(FinslerError):
    """Fundamental tensor not positive definite at the evaluation point, or F
    not positive and finite there; the message names the value that failed."""


# --- curvature engine ---

class DegenerateFlag(FinslerError):
    """Flag edge is parallel to the flagpole, flag curvature undefined."""


class CrossCheckFailure(FinslerError):
    """Two independent computation routes for one tensor disagree."""


# --- analysis ---

class UndefinedFit(FinslerError):
    """Least-squares fit is degenerate (design tensor numerically zero)."""


class RiemannianPoint(FinslerError):
    """Quantity undefined because the Cartan torsion vanishes at this point."""


class DimensionError(FinslerError):
    """Operation requires a different manifold dimension."""


class NotConstantCurvature(FinslerError):
    """Flag curvature spread too large for a constant-curvature analysis."""


# --- transport ---

class ChartExit(FinslerError):
    """Integrated curve left the chart; carries the estimated exit time,
    which the message's ``{t}`` field shows, so moving ``t_exit`` to
    another clock moves the message with it."""

    def __init__(self, message, t_exit=None):
        super().__init__(message)
        self.t_exit = t_exit

    def __str__(self):
        return self.args[0] if self.t_exit is None else self.args[0].format(t=self.t_exit)


class StepFailure(FinslerError):
    """Adaptive integrator could not meet tolerances above the minimum step
    at time ``t``, which the message's ``{t}`` field shows."""

    def __init__(self, message, t):
        super().__init__(message)
        self.t = t

    def __str__(self):
        return self.args[0].format(t=self.t)


class VanishingVector(FinslerError):
    """Transported vector collapsed below the usable norm threshold."""
