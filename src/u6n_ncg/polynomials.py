"""Sparse univariate polynomials with exact integer coefficients.

Coefficients are plain Python ints, so binomial-sized values never lose
precision; equality between a brute-force count and a closed-form value is
therefore an honest exact comparison.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

# _divisors trial-divides by no number above this, so integer_roots takes
# well under a second on any coefficient
_TRIAL_LIMIT = 10**6


class IntPolynomial:
    """Immutable polynomial stored as {exponent: coefficient}.

    Zero coefficients are never stored; the zero polynomial is the empty
    map. Exponents are non-negative integers.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        coeffs = coeffs or {}
        for exp, coeff in coeffs.items():
            self._check_exponent(exp)
            self._check_coefficient(coeff)
        self._coeffs = {exp: coeff for exp, coeff in coeffs.items() if coeff}

    @staticmethod
    def _check_exponent(exp) -> None:
        if not isinstance(exp, int) or isinstance(exp, bool) or exp < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exp!r}")

    @staticmethod
    def _check_coefficient(coeff) -> None:
        """An int, never a float or str (which int() would truncate or
        parse) nor a bool."""
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise ValueError(f"coefficient must be an integer, got {coeff!r}")

    @classmethod
    def _checked(cls, coeffs: dict[int, int]) -> "IntPolynomial":
        """Wrap int coefficients whose exponents are already checked,
        dropping zeros."""
        poly = cls.__new__(cls)
        poly._coeffs = {exp: coeff for exp, coeff in coeffs.items() if coeff}
        return poly

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int]]) -> "IntPolynomial":
        """Build from (exponent, coefficient) pairs, merging duplicates.
        Every exponent is checked, since the merge keeps only the first of
        two equal keys (1, 1.0 and True are equal)."""
        acc: dict[int, int] = {}
        for exp, coeff in terms:
            cls._check_exponent(exp)
            cls._check_coefficient(coeff)
            acc[exp] = acc.get(exp, 0) + coeff
        return cls._checked(acc)

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "IntPolynomial":
        return cls({exp: coeff})

    @classmethod
    def constant(cls, value: int) -> "IntPolynomial":
        return cls({0: value})

    def terms(self) -> tuple[tuple[int, int], ...]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return tuple(sorted(self._coeffs.items()))

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else -1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = IntPolynomial.constant(other)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self.terms())

    @staticmethod
    def _coerce(value) -> "IntPolynomial":
        if isinstance(value, IntPolynomial):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return IntPolynomial.constant(value)
        raise TypeError(f"cannot treat {value!r} as a polynomial")

    def __add__(self, other) -> "IntPolynomial":
        other = self._coerce(other)
        acc = dict(self._coeffs)
        for exp, coeff in other._coeffs.items():
            acc[exp] = acc.get(exp, 0) + coeff
        return IntPolynomial._checked(acc)

    __radd__ = __add__

    def __mul__(self, other) -> "IntPolynomial":
        other = self._coerce(other)
        acc: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                exp = e1 + e2
                acc[exp] = acc.get(exp, 0) + c1 * c2
        return IntPolynomial._checked(acc)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "IntPolynomial":
        if power < 0:
            raise ValueError("negative powers are not supported")
        result = IntPolynomial.constant(1)
        for _ in range(power):
            result = result * self
        return result

    def evaluate(self, value: int) -> int:
        """Exact evaluation at an integer point (sparse Horner)."""
        acc = 0
        prev_exp = None
        for exp, coeff in sorted(self._coeffs.items(), reverse=True):
            if prev_exp is None:
                acc = coeff
            else:
                acc = acc * value ** (prev_exp - exp) + coeff
            prev_exp = exp
        if prev_exp is None:
            return 0
        return acc * value**prev_exp

    def derivative_at_one(self) -> int:
        return sum(exp * coeff for exp, coeff in self._coeffs.items())

    def __str__(self) -> str:
        """Canonical form: ascending exponents joined by " + ".

        A coefficient of exactly 1 is omitted on x-terms, exponent 1 drops
        the caret, so e.g. "1 + 5*x + x^2".
        """
        if not self._coeffs:
            return "0"
        parts = []
        for exp, coeff in self.terms():
            if exp == 0:
                parts.append(str(coeff))
                continue
            var = "x" if exp == 1 else f"x^{exp}"
            parts.append(var if coeff == 1 else f"{coeff}*{var}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"

    def to_json_terms(self) -> list[list]:
        """[[exponent, "coefficient"], ...] ascending, coefficients as
        decimal strings so arbitrary precision survives any JSON reader."""
        return [[exp, str(coeff)] for exp, coeff in self.terms()]


def integer_roots(poly: IntPolynomial) -> tuple[int, ...]:
    """All integer roots of a nonzero polynomial, ascending.

    Once x^k is factored out, a nonzero integer root divides the lowest
    coefficient, so the candidates are 0 (when k > 0) and plus or minus
    each divisor of that coefficient, read off its factorisation. The
    quotient by x^k is evaluated exactly at every candidate at once, by
    Horner's rule a term at a time. Raises ValueError when the lowest
    coefficient cannot be factored by trial division up to _TRIAL_LIMIT.
    """
    if not poly:
        raise ValueError("the zero polynomial vanishes everywhere")
    terms = poly.terms()
    low_exp, trailing = terms[0]
    candidates = [r for d in _divisors(abs(trailing)) for r in (d, -d)]
    powers = {1: candidates}  # gap -> each candidate to that power
    (prev, top), *rest = reversed(terms)
    values = [top] * len(candidates)
    for exp, coeff in rest:
        gap, prev = prev - exp, exp
        if gap not in powers:
            powers[gap] = [r**gap for r in candidates]
        values = [v * f + coeff for v, f in zip(values, powers[gap])]
    roots = [r for r, v in zip(candidates, values) if not v]
    if low_exp:
        roots.append(0)
    return tuple(sorted(roots))


def _divisors(value: int) -> list[int]:
    """The positive divisors of a positive integer, each once. Trial
    division by 2 and the odd numbers factors it, and stops once the
    cofactor left has no divisor up to its square root, so it is prime
    or 1: 2n^4 at n = 1000 is factored by d = 5. Past _TRIAL_LIMIT it
    stops anyway, and a cofactor left that could still be composite is
    refused with ValueError; every value below _TRIAL_LIMIT^2 is
    factored."""
    divisors, rest, d = [1], value, 2
    while d * d <= rest and d <= _TRIAL_LIMIT:
        layer = divisors
        while rest % d == 0:
            rest //= d
            layer = [x * d for x in layer]
            divisors = divisors + layer
        d += 1 if d == 2 else 2
    if d * d <= rest:
        raise ValueError(
            f"cannot factor {value}: its cofactor {rest} has no divisor up to "
            f"{_TRIAL_LIMIT} and may be composite"
        )
    if rest > 1:
        divisors += [x * rest for x in divisors]
    return divisors
