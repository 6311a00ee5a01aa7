from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from u6n_ncg import closed_forms
from u6n_ncg.polynomials import IntPolynomial, _divisors, integer_roots

X = IntPolynomial.monomial(1)

small_polys = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=0, max_size=5
).map(lambda cs: IntPolynomial.from_terms(enumerate(cs)))


def scan_integer_roots(poly):
    """Integer roots by evaluating every integer in the Cauchy bound
    interval."""
    terms = poly.terms()
    lead = abs(terms[-1][1])
    bound = 1 + max(abs(c) for _, c in terms) // lead
    return tuple(r for r in range(-bound, bound + 1) if poly.evaluate(r) == 0)


def exact_integer_roots(poly):
    """Integer roots by evaluating every divisor candidate exactly."""
    low_exp, trailing = poly.terms()[0]
    candidates = {0} if low_exp else set()
    for d in range(1, isqrt(abs(trailing)) + 1):
        if trailing % d == 0:
            candidates.update((d, -d, trailing // d, -trailing // d))
    return tuple(sorted(r for r in candidates if poly.evaluate(r) == 0))


@st.composite
def rooted_polys(draw):
    """x^k times linear factors (x - r) times a small nonzero cofactor:
    zero constant terms, negative coefficients, and trailing coefficients
    of +-1 and primes all occur."""
    poly = IntPolynomial.monomial(draw(st.integers(min_value=0, max_value=3)))
    for r in draw(st.lists(st.integers(min_value=-7, max_value=7), max_size=3)):
        poly = poly * (X + (-r))
    cofactor = draw(small_polys.filter(bool))
    return poly * cofactor


@st.composite
def sparse_rooted_polys(draw):
    """x^k times linear factors times a sparse cofactor of high degree whose
    terms above the constant have large coefficients, so that the exponent
    gaps vary; the constant stays small, and so does the divisor search."""
    poly = IntPolynomial.monomial(draw(st.integers(min_value=0, max_value=40)))
    for r in draw(st.lists(st.integers(min_value=-20, max_value=20), max_size=3)):
        poly = poly * (X + (-r))
    constant = draw(st.integers(min_value=-999, max_value=999).filter(bool))
    terms = st.tuples(
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=-(10**30), max_value=10**30),
    )
    cofactor = IntPolynomial.from_terms([(0, constant), *draw(st.lists(terms, max_size=3))])
    return poly * cofactor


class TestConstruction:
    def test_from_terms_merges_and_drops_zeros(self):
        p = IntPolynomial.from_terms([(2, 1), (2, 1), (0, 3), (1, 0)])
        assert p.terms() == ((0, 3), (2, 2))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            IntPolynomial.from_terms([(-1, 2)])
        with pytest.raises(ValueError):
            IntPolynomial({-2: 1})

    @pytest.mark.parametrize("exp", [True, 1.0])
    def test_bool_and_float_exponents_rejected(self, exp):
        # after an equal valid key too: a merged dict keeps the first key
        with pytest.raises(ValueError):
            IntPolynomial.from_terms([(1, 2), (exp, 3)])
        with pytest.raises(ValueError):
            IntPolynomial.from_terms([(exp, 3)])
        with pytest.raises(ValueError):
            IntPolynomial({exp: 3})

    @pytest.mark.parametrize("coeff", [1.5, 2.9, True, "7"])
    def test_non_int_coefficients_rejected(self, coeff):
        # int() would truncate a float, take a bool as 1 and parse a str
        with pytest.raises(ValueError, match="coefficient must be an integer"):
            IntPolynomial({0: coeff})
        with pytest.raises(ValueError, match="coefficient must be an integer"):
            IntPolynomial.from_terms([(1, coeff)])

    def test_zero_polynomial(self):
        zero = IntPolynomial()
        assert not zero
        assert zero.degree() == -1
        assert str(zero) == "0"

    def test_sparse_term_rendering(self):
        p = IntPolynomial.from_terms([(3, 6), (4, 5), (5, 1)])
        assert str(p) == "6*x^3 + 5*x^4 + x^5"


class TestArithmetic:
    def test_add_same_exponent(self):
        assert X**2 + X**2 == IntPolynomial.monomial(2, 2)

    def test_square_of_x_plus_one(self):
        assert (X + 1) * (X + 1) == IntPolynomial.from_terms([(0, 1), (1, 2), (2, 1)])

    def test_int_coercion(self):
        assert 2 * X + 1 == IntPolynomial.from_terms([(0, 1), (1, 2)])

    def test_pow(self):
        assert (X + 1) ** 3 == IntPolynomial.from_terms([(0, 1), (1, 3), (2, 3), (3, 1)])
        assert (X + 1) ** 0 == IntPolynomial.constant(1)
        with pytest.raises(ValueError):
            X ** -1


class TestEvaluation:
    def test_resolving_polynomial_roots_n1(self):
        p = IntPolynomial.from_terms([(3, 6), (4, 5), (5, 1)])
        assert p.evaluate(-2) == 0
        assert p.evaluate(-3) == 0
        assert p.evaluate(0) == 0

    def test_evaluate_at_zero_gives_constant_term(self):
        p = IntPolynomial.from_terms([(0, 7), (2, 5)])
        assert p.evaluate(0) == 7

    def test_derivative_at_one(self):
        assert IntPolynomial.monomial(4, 10).derivative_at_one() == 40
        assert IntPolynomial.monomial(9, 45).derivative_at_one() == 405
        assert IntPolynomial.constant(12).derivative_at_one() == 0

    def test_integer_roots(self):
        p = IntPolynomial.monomial(3) * (X + 2) * (X + 3)
        assert integer_roots(p) == (-3, -2, 0)
        with pytest.raises(ValueError):
            integer_roots(IntPolynomial())

    @given(rooted_polys())
    def test_integer_roots_match_the_cauchy_scan(self, poly):
        assert integer_roots(poly) == scan_integer_roots(poly)

    @given(rooted_polys() | sparse_rooted_polys())
    def test_integer_roots_match_exact_evaluation(self, poly):
        assert integer_roots(poly) == exact_integer_roots(poly)

    def test_candidates_that_vanish_modulo_a_prime_are_no_roots(self):
        # 2^62 = 2 * (2^61 - 1) + 2, so x^62 - 2 vanishes at 2 and -2 modulo
        # the prime 2^61 - 1, though neither is a root
        poly = IntPolynomial.from_terms([(62, 1), (0, -2)])
        for r in (2, -2):
            assert poly.evaluate(r) % (2**61 - 1) == 0 != poly.evaluate(r)
        assert integer_roots(poly) == ()
        assert integer_roots(poly * X * X) == (0,)

    @pytest.mark.parametrize("n", [*range(1, 9), 1000])
    def test_resolving_roots_unchanged(self, n):
        # the trailing coefficient is 2n^4 (6 at n = 1)
        poly = closed_forms.cf_resolving_polynomial(n)
        roots = integer_roots(poly)
        assert roots == exact_integer_roots(poly)
        assert set(roots) == closed_forms.cf_resolving_roots(n)

    def test_prime_trailing_coefficient(self):
        # (x + p)(x - 1) x^2 with p = 2^31 - 1: the factorisation runs to sqrt(p)
        p = 2**31 - 1
        poly = (X + p) * (X + -1) * X * X
        assert poly.terms()[0] == (2, -p)
        assert integer_roots(poly) == exact_integer_roots(poly) == (-p, 0, 1)

    def test_divisors_match_trial_division(self):
        for value in [*range(1, 400), 2 * 1000**4, 2**31 - 1, 999_983 * 1_000_003, 2**40, 3**25]:
            expected = set()
            for d in range(1, isqrt(value) + 1):
                if value % d == 0:
                    expected.update((d, value // d))
            divisors = _divisors(value)
            assert len(divisors) == len(expected) and set(divisors) == expected, value


class TestCanonicalStrings:
    @pytest.mark.parametrize(
        "terms,expected",
        [
            ([], "0"),
            ([(0, 1), (1, 5), (2, 1)], "1 + 5*x + x^2"),
            ([(2, 9)], "9*x^2"),
            ([(1, 1)], "x"),
            ([(0, -4), (3, -1)], "-4 + -1*x^3"),
        ],
    )
    def test_rendering(self, terms, expected):
        assert str(IntPolynomial.from_terms(terms)) == expected

    def test_json_terms_round_trip(self):
        p = IntPolynomial.from_terms([(0, 1), (6, 32), (10, 1)])
        assert p.to_json_terms() == [[0, "1"], [6, "32"], [10, "1"]]

    @given(small_polys)
    def test_json_terms_rebuild_the_polynomial(self, p):
        terms = p.to_json_terms()
        assert [k for k, _ in terms] == sorted({k for k, _ in terms})
        assert all(isinstance(c, str) and c != "0" for _, c in terms)
        assert IntPolynomial.from_terms((k, int(c)) for k, c in terms) == p


class TestRingAxioms:
    @given(small_polys, small_polys)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(small_polys, small_polys)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(small_polys, small_polys, small_polys)
    def test_add_associates(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(small_polys, small_polys, small_polys)
    def test_mul_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(small_polys, small_polys, small_polys)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(small_polys, small_polys, st.integers(min_value=-5, max_value=5))
    def test_evaluation_is_a_ring_homomorphism(self, p, q, v):
        assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)
        assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)

    @given(small_polys, small_polys)
    def test_canonical_string_tells_polynomials_apart(self, p, q):
        assert (str(p) == str(q)) == (p == q)
