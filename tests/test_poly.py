"""Polynomial arithmetic, normal forms, parsing, and printing."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liepoisson.liealg import builtin
from liepoisson.poisson import PoissonContext
from liepoisson.poly import (
    EXPONENT_CAP,
    Polynomial,
    PolynomialSyntaxError,
    Reducer,
    format_polynomial,
    monomial_keys,
    monomials_of_degree,
    pack,
    parse_polynomial,
    unpack,
)

from oracles import (
    NORMAL_FORM_RELATIONS,
    Terms,
    assert_canonical,
    divides,
    division_normal_form,
    graded_lex_key,
    random_monomial,
    random_polynomial,
    terms_add,
    terms_mul,
    terms_scale,
)

XYZ = ("x", "y", "z")


def p(text):
    return parse_polynomial(text, XYZ)


def test_difference_of_squares():
    assert p("x + y") * p("x - y") == p("x^2 - y^2")


def test_multiplicative_unit():
    f = p("3/2*x*y - z + 7")
    assert f * p("1") == f


def test_casimir_times_z_hand_expansion():
    assert p("x^2 + y^2 - z^2") * p("z") == p("x^2*z + y^2*z - z^3")


def test_normal_form_single_division_step():
    divisor = p("x^2 + y^2 - z^2 - 1")
    assert Reducer(divisor).reduce(p("z^2")) == p("x^2 + y^2 - 1")
    assert Reducer(divisor).reduce(p("x")) == p("x")
    assert Reducer(divisor).reduce(divisor) == Polynomial.zero(3)


def test_normal_form_zero_divisor_rejected():
    with pytest.raises(ValueError):
        Reducer(Polynomial.zero(3)).reduce(p("x"))


def test_normal_form_kills_ideal_multiples():
    rng = random.Random(11)
    divisor = p("x^2 + y^2 - z^2 - 1")
    for _ in range(40):
        f = random_polynomial(rng, 3, 4)
        g = random_polynomial(rng, 3, 2)
        assert Reducer(divisor).reduce(f + g * divisor) == Reducer(divisor).reduce(f)


def test_normal_form_idempotent():
    rng = random.Random(13)
    divisor = p("x^2 + y^2 - z^2")
    for _ in range(40):
        f = random_polynomial(rng, 3, 5)
        nf = Reducer(divisor).reduce(f)
        assert Reducer(divisor).reduce(nf) == nf


@pytest.mark.parametrize("relation", NORMAL_FORM_RELATIONS)
def test_normal_form_matches_division_oracle(relation):
    divisor = p(relation)
    rng = random.Random(61)
    for f in [p("z^12")] + [random_polynomial(rng, 3, 8, max_terms=6) for _ in range(30)]:
        nf = Reducer(divisor).reduce(f)
        assert_canonical(nf)
        assert nf == division_normal_form(f, divisor)


@pytest.mark.parametrize("relation", NORMAL_FORM_RELATIONS + ["z^2 - x^2 - y^2 + 1", "-3/2*z^2 + x*y"])
def test_reduce_numerators_matches_division_oracle(relation):
    # numerators with a common factor and zeros over a denominator of either
    # sign, modulo relations whose leading coefficient is also -1 or -3/2, so
    # that memo denominators are negative
    divisor = p(relation)
    rng = random.Random(67)
    for _ in range(30):
        f = random_polynomial(rng, 3, 6, max_terms=6)
        k, den = rng.choice([1, 2, 6]), rng.choice([-6, -1, 1, 4])
        num = {m: k * a for m, a in f.num.items()}
        num[pack(random_monomial(rng, 3, 6))] = 0
        nf = Reducer(divisor).reduce_numerators(num, den * f.den)
        assert_canonical(nf)
        assert nf == division_normal_form(f * Fraction(k, den), divisor)


def test_normal_form_result_avoids_leading_monomial():
    divisor = p("x^2 + y^2 - z^2 - 1")
    nf = Reducer(divisor).reduce(p("z^4 + x*z^3 - 2*z^2 + y"))
    assert all(m[2] <= 1 for m in nf.terms)


def rational_terms(rng: random.Random, max_degree: int = 3, max_terms: int = 5) -> Terms:
    """Coefficients with mostly non-unit denominators, and a content that
    sums and graded components can change."""
    terms: Terms = {}
    for _ in range(rng.randint(0, max_terms)):
        c = Fraction(rng.choice([-9, -6, -4, -3, -1, 1, 2, 3, 6, 10]), rng.choice([1, 2, 3, 4, 6, 9, 14]))
        terms = terms_add(terms, {random_monomial(rng, 3, max_degree): c})
    return terms


def test_arithmetic_matches_fraction_oracle_and_stays_canonical():
    rng = random.Random(71)
    divisors = [p(text) for text in NORMAL_FORM_RELATIONS]
    for _ in range(150):
        a = rational_terms(rng)
        if rng.random() < 0.5:
            # b shares a's monomials, so that a + b and a - b cancel
            shared = terms_scale(a, Fraction(rng.choice([-2, -1, 1]), rng.choice([1, 3])))
            b = terms_add(shared, rational_terms(rng, max_terms=1))
        else:
            b = rational_terms(rng)
        c = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 7]))
        f, g = Polynomial(3, a), Polynomial(3, b)
        cases = [
            (f, a),
            (f + g, terms_add(a, b)),
            (f - g, terms_add(a, terms_scale(b, Fraction(-1)))),
            (-f, terms_scale(a, Fraction(-1))),
            (f * g, terms_mul(a, b)),
            (f * c, terms_scale(a, c)),
            (c * f, terms_scale(a, c)),
            (c - f, terms_add({(0, 0, 0): c}, terms_scale(a, Fraction(-1)))),
        ]
        if c:
            cases.append((f * (1 / c), terms_scale(a, 1 / c)))
        divisor = rng.choice(divisors)
        cases.append((Reducer(divisor).reduce(f), division_normal_form(f, divisor).terms))
        for result, expected in cases:
            assert_canonical(result)
            assert result.terms == expected
            assert result == Polynomial(3, expected)


def test_terms_renders_fractions_and_is_read_only():
    f = p("3/2*x*y - 2/3*z + 4")
    expected = {(1, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(-2, 3), (0, 0, 0): Fraction(4)}
    assert f.terms == expected
    assert all(type(c) is Fraction for c in f.terms.values())
    assert ({unpack(m, 3): a for m, a in f.num.items()}, f.den) == ({(1, 1, 0): 9, (0, 0, 1): -4, (0, 0, 0): 24}, 6)
    view = f.terms
    view[(0, 0, 0)] = Fraction(99)
    del view[(1, 1, 0)]
    assert f.terms == expected
    assert f == p("3/2*x*y - 2/3*z + 4")
    with pytest.raises(AttributeError):
        f.terms = {}


def test_parse_hyperboloid_relation():
    f = p("x^2 + y^2 - z^2")
    assert f.terms == {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(-1)}


def test_parse_rational_coefficients():
    f = p("3/2*x*y - z")
    assert f.terms == {(1, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(-1)}


def test_parse_zero():
    assert p("0") == Polynomial.zero(3)


def test_parse_reports_position():
    with pytest.raises(PolynomialSyntaxError) as err:
        p("x + $")
    assert err.value.position == 4


def test_parse_unknown_variable():
    with pytest.raises(PolynomialSyntaxError) as err:
        p("x + w^2")
    assert "unknown variable 'w'" in str(err.value)
    assert err.value.position == 4


def test_parse_rejects_trailing_junk():
    with pytest.raises(PolynomialSyntaxError):
        p("x + y )")


def test_parse_rejects_zero_denominator():
    with pytest.raises(PolynomialSyntaxError):
        p("1/0*x")


def test_parse_sums_repeated_terms_like_monomial_polynomials():
    # seeded texts in which monomials repeat, terms cancel and a variable
    # recurs within a term, against a sum of Polynomial.monomial terms
    rng = random.Random(73)
    for _ in range(40):
        pieces, expected = [], Polynomial.zero(3)
        for k in range(rng.randint(1, 12)):
            m = random_monomial(rng, 3, 3)
            c = Fraction(rng.randint(0, 9), rng.choice([1, 1, 2, 7]))
            sign = rng.choice("+-")
            factors = [str(c)] if c != 1 or not any(m) else []
            for name, e in zip(XYZ, m):
                if e > 1 and rng.random() < 0.5:
                    factors += [name, f"{name}^{e - 1}"]
                elif e:
                    factors.append(name if e == 1 else f"{name}^{e}")
            pieces.append(("-" if sign == "-" else "" if k == 0 else "+") + " " + "*".join(factors))
            expected = expected + Polynomial.monomial(3, m, c if sign == "+" else -c)
        result = p(" ".join(pieces))
        assert_canonical(result)
        assert result == expected


LIMIT = "exceeds the limit of 4300"


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("  ", "empty expression", 2),
        ("x + $", "expected a number or a variable", 4),
        ("x -", "expected a number or a variable", 3),
        ("1/ y", "expected an integer", 3),
        ("x ^ *", "expected an integer", 4),
        ("3*x^\u00b2", "expected an integer", 4),
        ("1/0*x", "zero denominator", 2),
        ("x + w^2", "unknown variable 'w'", 4),
        ("x + y )", "unexpected character ')'", 6),
        ("2 x", "unexpected character 'x'", 2),
        # Python converts at most 4,300 digits to an int by default
        pytest.param("x^" + "9" * 5000, f"integer of 5000 digits {LIMIT}", 2, id="long-exponent"),
        pytest.param("3*x + " + "9" * 5000, f"integer of 5000 digits {LIMIT}", 6, id="long-coefficient"),
    ],
)
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(PolynomialSyntaxError) as err:
        p(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@given(st.text(st.sampled_from("xyzw_0123456789/^*+-$ \t\u00b2\u00e9") | st.characters(), max_size=16))
@example("x^\u00b2")
@example("\u00b2*x")
@settings(deadline=None, max_examples=300)
def test_parse_accepts_or_raises_a_positioned_syntax_error(text):
    try:
        p(text)
    except PolynomialSyntaxError as err:
        assert 0 <= err.position <= len(text)


def test_format_descending_graded_lex():
    f = p("x + z^2 - 3*y^2 + 1/2")
    assert format_polynomial(f, XYZ) == "z^2 - 3*y^2 + x + 1/2"


def test_format_parse_round_trip():
    rng = random.Random(17)
    for _ in range(60):
        f = random_polynomial(rng, 3, 4)
        assert parse_polynomial(format_polynomial(f, XYZ), XYZ) == f


small_polys = st.builds(
    lambda seed: random_polynomial(random.Random(seed), 3, 3),
    st.integers(0, 10**6),
)


@given(small_polys, small_polys, small_polys)
@settings(deadline=None, max_examples=60)
def test_ring_axioms(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_monomial_enumeration_counts():
    assert len(monomials_of_degree(3, 4)) == 15
    assert len(PoissonContext.free(builtin("sl2r")).basis_monomials_up_to(3)) == 20
    assert monomials_of_degree(3, 2)[0] == (0, 0, 2)  # z^2 leads its degree
    # the enumeration is generated in order, so compare it with a sorted
    # brute-force list, including the edge cases of zero and one variable
    for nvars in (0, 1, 2, 3, 4, 5, 6):
        for degree in range(6 if nvars < 5 else 4):
            box = [m for m in itertools.product(range(degree + 1), repeat=nvars) if sum(m) == degree]
            assert monomials_of_degree(nvars, degree) == sorted(box, key=graded_lex_key, reverse=True)


def test_monomial_keys_refuse_a_degree_outside_the_cap():
    for degree in (-1, EXPONENT_CAP + 1):
        for enumerate_degree in (monomial_keys, monomials_of_degree):
            with pytest.raises(ValueError, match="outside 0..32767"):
                enumerate_degree(3, degree)
    assert monomial_keys(1, EXPONENT_CAP) == [pack((EXPONENT_CAP,))]
    assert monomial_keys(0, 0) == [0] and monomial_keys(0, 1) == []


def test_monomial_enumeration_does_not_recurse_per_variable():
    # 1,200 variables is past the default recursion limit of 1,000
    n = 1200
    assert monomials_of_degree(n, 0) == [(0,) * n]
    linear = monomials_of_degree(n, 1)
    assert linear == [tuple(int(k == i) for k in range(n)) for i in range(n - 1, -1, -1)]


def test_degree_conventions():
    assert Polynomial.zero(3).degree() == -1
    assert p("5").degree() == 0
    assert p("x*y*z^2").degree() == 4
    rng = random.Random(19)
    for _ in range(30):
        f = random_polynomial(rng, 3, 3)
        g = random_polynomial(rng, 3, 3)
        if f and g:
            assert (f * g).degree() == f.degree() + g.degree()


def exponent_tuples(nvars: int):
    """Exponent tuples in ``nvars`` variables whose degree stays within the
    cap: small exponents, so that ties and divisibility are common, mixed
    with exponents up to the cap's share, so that the top bit of a field is
    reached."""
    share = EXPONENT_CAP // max(nvars, 1)
    exponent = st.one_of(st.integers(0, 3), st.integers(0, share), st.just(share))
    return st.lists(exponent, min_size=nvars, max_size=nvars).map(tuple)


def monomial_pairs():
    """(a, b) in one variable count; b is often a plus a small tuple, so that
    a divides b, or a itself."""

    def pair(nvars):
        a = exponent_tuples(nvars)
        shifted = st.tuples(a, st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars)).map(
            lambda t: (t[0], tuple(x + y if sum(t[0]) + sum(t[1]) <= EXPONENT_CAP else x for x, y in zip(*t)))
        )
        return st.one_of(st.tuples(a, exponent_tuples(nvars)), shifted, a.map(lambda m: (m, m)))

    return st.integers(0, 7).flatmap(pair)


@given(monomial_pairs())
@example(((EXPONENT_CAP,), (EXPONENT_CAP - 1,)))
@example(((0, 1), (1, 0)))
@settings(deadline=None, max_examples=200)
def test_packed_order_is_the_graded_lex_order(pair):
    a, b = pair
    assert (pack(a) < pack(b)) == (graded_lex_key(a) < graded_lex_key(b))
    assert (pack(a) == pack(b)) == (a == b)


@given(st.integers(0, 9).flatmap(exponent_tuples))
@example((EXPONENT_CAP,))
@example((0, EXPONENT_CAP, 0))
@settings(deadline=None, max_examples=200)
def test_pack_unpack_round_trip(m):
    assert unpack(pack(m), len(m)) == m
    assert Polynomial.monomial(len(m), m).leading_term()[0] == m
    assert pack(m) >> 16 * len(m) == sum(m)  # the degree in the top field


@given(monomial_pairs())
@example(((EXPONENT_CAP,), (EXPONENT_CAP,)))
@example(((EXPONENT_CAP, 0), (EXPONENT_CAP - 1, 1)))
@example(((1, 0, 2), (0, 5, 9)))
@settings(deadline=None, max_examples=200)
def test_guard_bit_divisibility_is_componentwise(pair):
    a, b = pair
    reducer = Reducer(Polynomial.monomial(len(a), a))
    assert reducer.divisible(pack(b)) is divides(a, b)


@pytest.mark.parametrize(
    "m",
    [(EXPONENT_CAP + 1, 0, 0), (0, 0, 40000), (20000, 20000, 0), (EXPONENT_CAP, 1, 0)],
    ids=["exponent-past-cap", "exponent-40000", "degree-past-cap", "degree-one-past-cap"],
)
def test_constructor_refuses_a_monomial_past_the_cap(m):
    with pytest.raises(ValueError, match=f"exceeds the exponent and degree cap {EXPONENT_CAP}"):
        Polynomial.monomial(3, m)
    assert Polynomial.monomial(3, (EXPONENT_CAP, 0, 0)).degree() == EXPONENT_CAP


@pytest.mark.parametrize(
    "text,degree,position",
    [("x^32768", 32768, 0), ("y + x^20000*z^20000", 40000, 12), ("x^99999999999999999999", 99999999999999999999, 0)],
)
def test_parse_refuses_a_term_past_the_cap(text, degree, position):
    with pytest.raises(PolynomialSyntaxError) as err:
        p(text)
    assert str(err.value) == f"degree {degree} exceeds the cap {EXPONENT_CAP} (at position {position})"
    assert p(f"x^{EXPONENT_CAP}") == Polynomial.monomial(3, (EXPONENT_CAP, 0, 0))


def test_products_and_brackets_past_the_cap_raise():
    half = Polynomial.monomial(3, (0, 0, 16384))
    with pytest.raises(ValueError, match=f"a product of degree 32768 exceeds the cap {EXPONENT_CAP}"):
        half * half
    ctx = PoissonContext.free(builtin("sl2r"))
    with pytest.raises(ValueError, match=f"a bracket of degree 32768 exceeds the cap {EXPONENT_CAP}"):
        ctx.bracket(half * p("x"), half)
    assert (half * p("x")).degree() == 16385 and ctx.bracket(half, half) == Polynomial.zero(3)
