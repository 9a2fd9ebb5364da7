"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain of the operation.

    That covers arguments that are not real numbers (bools included),
    values outside the mathematical domain, and metrics whose derived
    quantities double precision cannot hold, such as an ``i1/i3`` that
    overflows.
    """


class SingularDenominator(ArithmeticError):
    """A closed-form quotient was evaluated too close to a zero denominator."""


class NormalizationError(RuntimeError):
    """A conserved quantity drifted beyond tolerance during integration."""


class NoConjugatePoint(RuntimeError):
    """No conjugate point was detected within the requested horizon."""
