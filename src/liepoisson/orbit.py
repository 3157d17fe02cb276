"""Coadjoint orbit descriptors: principal orbit ideals and quotient algebras.

An orbit is represented by a single polynomial relation (a Casimir level
set, or the central-character level set z = c for the Heisenberg algebra).
The quotient context provides the projection onto the orbit's polynomial
algebra via normal forms, and the descriptor tags the orbit type used by
the structure checks.

An ``OrbitIdeal`` is the ``poly.Reducer`` of its relation, so the normal
form of each reducible monomial is computed once per ideal and then
reused; the cache grows with the distinct monomials reduced.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .liealg import LieAlgebra
from .poisson import PoissonContext
from .poly import Polynomial, Reducer, format_polynomial


class OrbitType(Enum):
    SEMISIMPLE = "semisimple"
    NILPOTENT = "nilpotent"
    OTHER = "other"


class OrbitIdeal(Reducer):
    """Principal ideal generated by a single nonconstant relation.

    Reduction is inherited from ``Reducer``; a ``PoissonContext`` built
    from the ideal checks that the relation is bracket-closed.
    """

    def __init__(self, relation: Polynomial):
        if not relation:
            raise ValueError("orbit relation must be nonzero")
        if relation.degree() == 0:
            raise ValueError("orbit relation must be nonconstant")
        super().__init__(relation)
        self.relation = relation

    def __repr__(self) -> str:
        names = tuple(f"x{i}" for i in range(self.relation.nvars))
        return f"OrbitIdeal({format_polynomial(self.relation, names)!r})"


class OrbitDescriptor:
    """An orbit: its quotient context, which owns the algebra and ideal, and its type tag."""

    def __init__(self, context: PoissonContext, orbit_type: OrbitType):
        self.context = context
        self.orbit_type = orbit_type


def _classify(algebra: LieAlgebra, relation: Polynomial) -> OrbitType:
    # For the built-in semisimple algebras a Casimir level set through the
    # origin (zero constant term) is the nilpotent cone; any other level is
    # an orbit through a semisimple element.  Everything else is untagged.
    if algebra.name in ("sl2r", "so3"):
        return OrbitType.NILPOTENT if relation.constant_term() == 0 else OrbitType.SEMISIMPLE
    return OrbitType.OTHER


def make_orbit(
    algebra: LieAlgebra,
    relation: Polynomial,
    orbit_type: OrbitType | None = None,
) -> OrbitDescriptor:
    """Build an orbit descriptor with its quotient Poisson context.

    Raises BracketClosureError when the relation is not bracket-closed
    (the level set is then not a union of symplectic leaves at this scale).
    ``orbit_type`` overrides the built-in classification rule.
    """
    context = PoissonContext(algebra, OrbitIdeal(relation))
    tag = orbit_type if orbit_type is not None else _classify(algebra, relation)
    return OrbitDescriptor(context, tag)


def builtin_casimir(algebra: LieAlgebra) -> Polynomial:
    """The canonical invariant whose level sets cut out the built-in orbits."""
    d = algebra.dim
    if algebra.name == "sl2r":
        x, y, z = (Polynomial.variable(d, i) for i in range(3))
        return x * x + y * y - z * z
    if algebra.name == "so3":
        x, y, z = (Polynomial.variable(d, i) for i in range(3))
        return x * x + y * y + z * z
    if algebra.name == "heisenberg":
        return Polynomial.variable(d, d - 1)
    raise ValueError(f"no built-in Casimir for algebra {algebra.name or '<user-defined>'}")


def casimir_orbit(
    algebra: LieAlgebra,
    level: Fraction | int,
    orbit_type: OrbitType | None = None,
) -> OrbitDescriptor:
    """Orbit cut out by (built-in Casimir) = level."""
    relation = builtin_casimir(algebra) - Polynomial.constant(algebra.dim, level)
    return make_orbit(algebra, relation, orbit_type=orbit_type)

