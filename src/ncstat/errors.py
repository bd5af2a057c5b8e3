"""Exception types shared across the package.

Structural problems (bad shapes, mismatched algebras) raise; numeric
violations of tolerance-laden axioms are returned in validation reports
instead, so callers can inspect residuals.
"""


class ShapeError(ValueError):
    """Malformed shapes or inconsistent block layout."""


class AlgebraMismatchError(ValueError):
    """Operands live on different algebras."""


class ObjectMismatchError(ValueError):
    """Morphisms do not share the boundary object (algebra or state differ)."""


class NotAHomomorphismError(ValueError):
    """A raw linear map failed one of the unital *-homomorphism axioms."""

    def __init__(self, axiom: str, residual: float, message: str | None = None):
        self.axiom = axiom
        self.residual = float(residual)
        super().__init__(
            message
            or f"not a unital *-homomorphism: {axiom} axiom fails "
            f"(residual {self.residual:.3e})"
        )


class FactorizationError(ValueError):
    """A density segment does not factor through the expected tensor product."""

    def __init__(self, residual: float, detail: str = ""):
        self.residual = float(residual)
        self.detail = detail
        super().__init__(
            detail or f"segment factorization failed (residual {self.residual:.3e})"
        )
