"""The Lie-Poisson bracket on polynomial algebras and its quotients.

On linear functions the bracket is the Lie bracket of the underlying
algebra; it extends to all polynomials by the Leibniz rule:

    {f, g} = sum over ordered pairs (i, j) of df/dxi_i dg/dxi_j [xi_i, xi_j].

A context is either the free polynomial algebra or its quotient by a
principal orbit ideal; quotient contexts reduce every result to normal
form and refuse relations whose bracket with some generator does not
vanish modulo the ideal (those do not generate Poisson ideals).

The bracket reads a per-generator table: ``ad[i]`` lists each j with
[xi_i, xi_j] = sum_k c_ij^k xi_k != 0, with its (E_k - E_i - E_j, c_ij^k)
for E_k the packed key of x_k (see ``poly``).  For a term a x^m of f, each
nonzero exponent m_i (read from the nonzero fields of m only), each j in
``ad[i]`` and each term b x^w of g with w_j != 0, the bracket gets
m_i w_j a b c_ij^k at the key m + w + (E_k - E_i - E_j): one integer
addition per target monomial.  So a linear first factor {x_i, g} reads
only ``ad[i]``.  ``ad_numerators`` reads the same table for {x_i, x^m} at
every generator i at once, without building a ``Polynomial``: each term is
m_j c_ij^k at x^(m - E_j + E_k).  Coefficients stay integer numerators: the
structure constants over one common denominator ``den``, times the
operands' numerators, over the product of the three denominators.

That loop nest, ``_add_bracket``, adds s times these numerators into a
dict the caller passes, as ``poly.add_product`` does for a product; both
take numerators keyed by monomial.  Every claim brackets through these
kernels and no ``Polynomial``: each bracket span reads its sources from
``ad_numerators``, the closures and the lemma bracket a stored row with
x_i through ``_add_bracket`` (see ``structure``), and on an orbit
``normal_numerators`` reduces the result, up to a positive factor, without
making it canonical.  ``bracket`` and
``product`` are one kernel call each plus one normal-form step, which
checks the degree cap and, on an orbit, reduces once.  ``bracket`` serves
the axiom defects, the relation check, the witness search of a failing
grading record and the tests.  The axiom defects sum their outer brackets
and products in one dict over the lcm of the denominators, so each defect
is also reduced once; a normal form modulo one divisor is linear and
unique, so the result is the one the separately reduced terms would sum to.
"""

from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING, Callable, Mapping

from .liealg import LieAlgebra, require_lie
from .poly import (
    FIELD_BITS, FIELD_MASK, Polynomial, add_product, check_degree, format_polynomial, monomial_keys, parse_polynomial,
)

if TYPE_CHECKING:  # pragma: no cover
    from .orbit import OrbitIdeal


class BracketClosureError(ValueError):
    """The quotient relation is not closed under brackets with generators."""

    def __init__(self, generator: str, residual: str):
        super().__init__(f"relation is not bracket-closed: {{relation, {generator}}} reduces to {residual}, not 0")
        self.generator = generator
        self.residual = residual


class PoissonContext:
    """Free or quotient Poisson algebra over a fixed Lie algebra.

    A context refuses an algebra that is not Lie (InvalidLieAlgebraError,
    naming the first Jacobi violation), and a quotient context then checks
    its relation (ValueError on another variable count, BracketClosureError
    if its bracket with a generator does not reduce to zero).  ``bracket``,
    ``product`` and ``reduce`` are pure functions; the context and its ideal
    only cache basis monomials and normal forms.
    """

    def __init__(self, algebra: LieAlgebra, ideal: "OrbitIdeal | None"):
        require_lie(algebra)
        self.algebra = algebra
        self.ideal = ideal
        self.nvars = n = algebra.dim
        self._den = lcm(*(c.denominator for row in algebra.brackets.values() for c in row.values()))
        # ad[i]: (j, [(E_k - E_i - E_j, c_ij^k * den), ...]) for each j with [xi_i, xi_j] != 0
        unit = [1 << FIELD_BITS * i for i in range(n + 1)]  # the degree field's unit last
        self._ad: list[list[tuple[int, list[tuple[int, int]]]]] = [[] for _ in range(n)]
        for (i, j), row in algebra.brackets.items():
            delta = unit[i] + unit[j] + unit[n]
            deltas = [(unit[k] - delta, c.numerator * (self._den // c.denominator)) for k, c in row.items()]
            self._ad[i].append((j, deltas))
        self._monomial_cache: dict[int, tuple[int, ...]] = {}
        if ideal is not None:
            if ideal.relation.nvars != algebra.dim:
                raise ValueError("relation does not match the algebra's variable count")
            for i in range(algebra.dim):
                defect = self.bracket(ideal.relation, algebra.variable(i))
                if defect:
                    raise BracketClosureError(algebra.names[i], self.format(defect))

    @classmethod
    def free(cls, algebra: LieAlgebra) -> "PoissonContext":
        return cls(algebra, None)

    @property
    def den(self) -> int:
        """The common denominator of the structure constants."""
        return self._den

    @property
    def is_quotient(self) -> bool:
        return self.ideal is not None

    def variable(self, i: int) -> Polynomial:
        return self.algebra.variable(i)

    def monomial(self, key: int) -> Polynomial:
        """The monomial of a packed key, as ``basis_monomials`` gives them."""
        return Polynomial.from_numerators(self.nvars, {key: 1}, 1)

    def parse(self, text: str) -> Polynomial:
        return parse_polynomial(text, self.algebra.names)

    def format(self, p: Polynomial) -> str:
        return format_polynomial(p, self.algebra.names)

    def reduce(self, p: Polynomial) -> Polynomial:
        """Normal form modulo the orbit ideal (identity in free mode)."""
        if p.nvars != self.nvars:
            raise ValueError("polynomials do not match the context's variables")
        return p if self.ideal is None else self.ideal.reduce(p)

    def normal_numerators(self, num: Mapping[int, int]) -> Mapping[int, int]:
        """Numerators keyed by monomial, zeros allowed, in normal form times a
        positive integer on an orbit; ``num`` itself in free mode."""
        return num if self.ideal is None else self.ideal.remainder(num)[0]

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """Lie-Poisson bracket, reduced to normal form in quotient mode."""
        if f.nvars != self.nvars or g.nvars != self.nvars:
            raise ValueError("polynomials do not match the context's variables")
        return self._normal_form(self._add_bracket({}, f.num, g.num), f.den * g.den * self._den, "bracket")

    def product(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """The product f * g, reduced to normal form in quotient mode."""
        if f.nvars != self.nvars or g.nvars != self.nvars:
            raise ValueError("polynomials do not match the context's variables")
        return self._normal_form(add_product({}, f.num, g.num), f.den * g.den, "product")

    def _add_bracket(self, acc: dict[int, int], f: Mapping[int, int], g: Mapping[int, int], s: int = 1) -> dict:
        """Add ``s`` times the bracket of the numerators ``f`` and ``g``, keyed
        by monomial, into ``acc`` and return it; for numerators over dens a
        and b it lies over ``a * b * den``.  The package's one bracket loop."""
        n, ad, g_terms = self.nvars, self._ad, g.items()
        get = acc.get
        below_degree = (1 << FIELD_BITS * n) - 1
        for ma, ca in f.items():
            ca *= s
            rest = ma & below_degree
            while rest:  # the nonzero exponent fields e = m_i of ma, from the top
                i = (rest.bit_length() - 1) // FIELD_BITS
                e = rest >> FIELD_BITS * i
                rest -= e << FIELD_BITS * i
                for j, deltas in ad[i]:
                    shift = FIELD_BITS * j
                    for mb, cb in g_terms:
                        if b := mb >> shift & FIELD_MASK:
                            m0, w = ma + mb, e * b * ca * cb
                            for delta, c in deltas:
                                m = m0 + delta
                                acc[m] = get(m, 0) + w * c
        return acc

    def _normal_form(self, acc: dict[int, int], den: int, what: str) -> Polynomial:
        """The canonical polynomial ``acc / den``, reduced once in quotient
        mode, after the cap check on a sum of ``what``s."""
        check_degree(acc, self.nvars, what)
        if self.ideal is None:
            return Polynomial.from_numerators(self.nvars, acc, den)
        return self.ideal.reduce_numerators(acc, den)

    def ad_numerators(self, m: int) -> list[dict[int, int]]:
        """Numerators over ``den`` of {x_i, x^m} for each generator i, keyed by
        monomial, with a zero where terms cancel; not reduced on an orbit (see
        ``normal_numerators``)."""
        out = []
        m1 = m + (1 << FIELD_BITS * self.nvars)  # x^m with the degree unit of a linear factor
        for i, row in enumerate(self._ad):
            acc: dict[int, int] = {}
            get = acc.get
            m0 = m1 + (1 << FIELD_BITS * i)  # x_i x^m: each delta then gives m - E_j + E_k
            for j, deltas in row:
                if b := m >> FIELD_BITS * j & FIELD_MASK:
                    for delta, c in deltas:
                        t = m0 + delta
                        acc[t] = get(t, 0) + b * c
            out.append(acc)
        return out

    def basis_monomials(self, degree: int) -> tuple[int, ...]:
        """Keys of the canonical monomials of the given degree, descending:
        ``poly.monomial_keys``, cached per degree.

        In quotient mode only normal-form monomials (those not divisible by
        the relation's leading monomial) are returned, so they enumerate a
        basis of the quotient's degree-``degree`` coefficient space.
        """
        if degree not in self._monomial_cache:
            keys = monomial_keys(self.nvars, degree)
            self._monomial_cache[degree] = tuple(k for k in keys if self.ideal is None or not self.ideal.divisible(k))
        return self._monomial_cache[degree]

    def basis_monomials_up_to(self, degree: int) -> tuple[int, ...]:
        """Keys of the canonical monomials of degree at most ``degree``,
        descending: the graded order puts higher degrees first."""
        return tuple(m for d in range(degree, -1, -1) for m in self.basis_monomials(d))


def jacobi_defect(ctx: PoissonContext, f: Polynomial, g: Polynomial, h: Polynomial) -> Polynomial:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}; exactly zero for a Poisson bracket.

    The inner brackets are reduced; the outer three are summed in one
    numerator dict over the lcm of their denominators and reduced once."""
    pairs = [(f, ctx.bracket(g, h)), (g, ctx.bracket(h, f)), (h, ctx.bracket(f, g))]
    den = lcm(*(a.den * b.den for a, b in pairs))
    acc: dict[int, int] = {}
    for a, b in pairs:
        ctx._add_bracket(acc, a.num, b.num, den // (a.den * b.den))
    return ctx._normal_form(acc, den * ctx.den, "bracket")


def leibniz_defect(
    ctx: PoissonContext, f: Polynomial, g: Polynomial, h: Polynomial
) -> tuple[Polynomial, Polynomial]:
    """Defects of the product rule and of its symmetrized form.

    Returns ({fg,h} - f{g,h} - g{f,h}, {fg,h} - {f,gh} - {g,fh});
    both are exactly zero for a Poisson bracket.  The products fg, gh, fh
    and the inner brackets are reduced; {fg,h} is evaluated once into a
    numerator dict, and each defect adds its two other terms to a copy of
    it and is reduced once.
    """
    fg, gh, fh = ctx.product(f, g), ctx.product(g, h), ctx.product(f, h)
    lead = ctx._add_bracket({}, fg.num, h.num)
    check_degree(lead, ctx.nvars, "bracket")
    lead_den = fg.den * h.den * ctx.den
    products = [(f, ctx.bracket(g, h)), (g, ctx.bracket(f, h))]
    product_rule = _lead_minus(ctx, lead, lead_den, add_product, products, 1, "product")
    symmetrized = _lead_minus(ctx, lead, lead_den, ctx._add_bracket, [(f, gh), (g, fh)], ctx.den, "bracket")
    return product_rule, symmetrized


def _lead_minus(
    ctx: PoissonContext,
    lead: dict[int, int],
    lead_den: int,
    kernel: Callable[[dict[int, int], Mapping[int, int], Mapping[int, int], int], dict[int, int]],
    pairs: list[tuple[Polynomial, Polynomial]],
    unit: int,
    what: str,
) -> Polynomial:
    """``lead / lead_den`` minus the sum over ``pairs`` of ``kernel``'s terms,
    each over ``a.den * b.den * unit``, as one numerator dict reduced once."""
    den = lcm(lead_den, *(a.den * b.den * unit for a, b in pairs))
    s = den // lead_den
    acc = {m: c * s for m, c in lead.items()}
    for a, b in pairs:
        kernel(acc, a.num, b.num, -(den // (a.den * b.den * unit)))
    return ctx._normal_form(acc, den, what)
