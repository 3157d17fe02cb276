"""The Lie-Poisson bracket on polynomial algebras and its quotients.

On linear functions the bracket is the Lie bracket of the underlying
algebra; it extends to all polynomials by the Leibniz rule, which gives the
closed bidifferential formula

    {f, g} = sum_{i<j} (df/dxi_i dg/dxi_j - df/dxi_j dg/dxi_i) [xi_i, xi_j].

A context is either the free polynomial algebra or its quotient by a
principal orbit ideal; quotient contexts reduce every result to normal
form and refuse relations whose bracket with some generator does not
vanish modulo the ideal (those do not generate Poisson ideals).

The formula is evaluated term by term through the derivation table: for
monomials x^a, x^b and each pair i < j with [xi_i, xi_j] = sum_k c_ij^k xi_k,

    {x^a, x^b} gets (a_i b_j - a_j b_i) c_ij^k  at  x^(a + b - e_i - e_j + e_k),

with coefficients kept as integer numerators: the structure constants
over one common denominator, times the operands' numerators, over the
product of the three denominators.
"""

from __future__ import annotations

from math import lcm
from operator import add
from typing import TYPE_CHECKING

from .liealg import LieAlgebra
from .poly import Monomial, Polynomial, format_polynomial, monomials_of_degree

if TYPE_CHECKING:  # pragma: no cover
    from .orbit import OrbitIdeal


class BracketClosureError(ValueError):
    """The quotient relation is not closed under brackets with generators."""

    def __init__(self, generator: str, residual: str):
        super().__init__(
            f"relation is not bracket-closed: {{relation, {generator}}} reduces to {residual}, not 0"
        )
        self.generator = generator
        self.residual = residual


class PoissonContext:
    """Free or quotient Poisson algebra over a fixed Lie algebra.

    ``bracket`` and ``reduce`` are pure functions of their arguments; the
    context and its ideal only cache basis monomials and normal forms.
    """

    def __init__(self, algebra: LieAlgebra, ideal: "OrbitIdeal | None"):
        self.algebra = algebra
        self.ideal = ideal
        constants = {key: c for key, c in algebra.structure.items() if key[0] < key[1]}
        self._den = lcm(*(c.denominator for c in constants.values()))
        # derivation table: (i, j, [(k, c_ij^k * den), ...]) for each pair i < j with [xi_i, xi_j] != 0
        rows: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (i, j, k), c in sorted(constants.items()):
            rows.setdefault((i, j), []).append((k, c.numerator * (self._den // c.denominator)))
        self._table = [(i, j, row) for (i, j), row in rows.items()]
        self._monomial_cache: dict[int, tuple[Monomial, ...]] = {}

    @classmethod
    def free(cls, algebra: LieAlgebra) -> "PoissonContext":
        return cls(algebra, None)

    @classmethod
    def quotient(cls, algebra: LieAlgebra, ideal: "OrbitIdeal") -> "PoissonContext":
        """Quotient context; fails loudly if the relation is not bracket-closed."""
        if ideal.relation.nvars != algebra.dim:
            raise ValueError("relation does not match the algebra's variable count")
        ctx = cls(algebra, ideal)
        for i in range(algebra.dim):
            defect = ctx.bracket(ideal.relation, algebra.variable(i))
            if defect:
                raise BracketClosureError(algebra.names[i], ctx.format(defect))
        return ctx

    @property
    def is_quotient(self) -> bool:
        return self.ideal is not None

    @property
    def nvars(self) -> int:
        return self.algebra.dim

    def variable(self, i: int) -> Polynomial:
        return self.algebra.variable(i)

    def parse(self, text: str) -> Polynomial:
        from .poly import parse_polynomial

        return parse_polynomial(text, self.algebra.names)

    def format(self, p: Polynomial) -> str:
        return format_polynomial(p, self.algebra.names)

    def reduce(self, p: Polynomial) -> Polynomial:
        """Normal form modulo the orbit ideal (identity in free mode)."""
        if self.ideal is None:
            return p
        return self.ideal.reduce(p)

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """Lie-Poisson bracket, reduced to normal form in quotient mode."""
        if f.nvars != self.nvars or g.nvars != self.nvars:
            raise ValueError("polynomials do not match the context's variables")
        acc: dict[Monomial, int] = {}
        get = acc.get
        for ma, ca in f.num.items():
            for mb, cb in g.num.items():
                cab = ca * cb
                s = list(map(add, ma, mb))
                for i, j, row in self._table:
                    w = ma[i] * mb[j] - ma[j] * mb[i]
                    if w:
                        w *= cab
                        s[i] -= 1
                        s[j] -= 1
                        for k, c in row:
                            s[k] += 1
                            m = tuple(s)
                            s[k] -= 1
                            acc[m] = get(m, 0) + w * c
                        s[i] += 1
                        s[j] += 1
        den = f.den * g.den * self._den
        if self.ideal is None:
            return Polynomial.from_numerators(self.nvars, acc, den)
        return self.ideal.reduce_numerators(acc, den)

    def basis_monomials(self, degree: int) -> tuple[Monomial, ...]:
        """Canonical monomials of the given degree, descending in the order.

        In quotient mode only normal-form monomials (those not divisible by
        the relation's leading monomial) are returned, so they enumerate a
        basis of the quotient's degree-``degree`` coefficient space.
        """
        cached = self._monomial_cache.get(degree)
        if cached is None:
            mons = monomials_of_degree(self.nvars, degree)
            if self.ideal is not None:
                mons = [m for m in mons if not self.ideal.divisible(m)]
            cached = tuple(mons)
            self._monomial_cache[degree] = cached
        return cached

    def basis_monomials_up_to(self, degree: int) -> tuple[Monomial, ...]:
        """Canonical monomials of degree at most ``degree``, descending in the
        order: the graded order puts higher degrees first."""
        return tuple(m for d in range(degree, -1, -1) for m in self.basis_monomials(d))


def jacobi_defect(ctx: PoissonContext, f: Polynomial, g: Polynomial, h: Polynomial) -> Polynomial:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}; exactly zero for a Poisson bracket."""
    return (
        ctx.bracket(f, ctx.bracket(g, h))
        + ctx.bracket(g, ctx.bracket(h, f))
        + ctx.bracket(h, ctx.bracket(f, g))
    )


def leibniz_defect(
    ctx: PoissonContext, f: Polynomial, g: Polynomial, h: Polynomial
) -> tuple[Polynomial, Polynomial]:
    """Defects of the product rule and of its symmetrized form.

    Returns ({fg,h} - f{g,h} - g{f,h}, {fg,h} - {f,gh} - {g,fh});
    both are exactly zero for a Poisson bracket.
    """
    fg = ctx.reduce(f * g)
    gh = ctx.reduce(g * h)
    fh = ctx.reduce(f * h)
    lead = ctx.bracket(fg, h)
    product_rule = lead - ctx.reduce(f * ctx.bracket(g, h)) - ctx.reduce(g * ctx.bracket(f, h))
    symmetrized = lead - ctx.bracket(f, gh) - ctx.bracket(g, fh)
    return product_rule, symmetrized
