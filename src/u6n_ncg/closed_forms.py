"""Closed-form predictions for the non-commuting graph of U(6n).

Every function here is a pure formula in n. Nothing touches the group or
graph machinery, so the exhaustive side and this side can only agree by
actually agreeing.

The four centralizer classes Omega1..Omega4 of the non-central elements
live here and nowhere else: cf_omega_classes gives them and cf_center the
center, and every centralizer is the center together with one class.

The two eccentricity-based polynomials are exceptional: their formulas
presuppose that every vertex has eccentricity 2, which fails at n = 1
where three parts of the graph are singletons adjacent to everything.
They are therefore returned as Prediction values that apply only from
n = 2 instead of bare polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import U6nElement
from .polynomials import IntPolynomial

_X = IntPolynomial.monomial(1)


@dataclass(frozen=True)
class Prediction:
    """A closed-form value, and whether the formula claims the n it was
    computed for."""

    value: object
    applies: bool


def _check_n(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")


def _check_class(omega_class: int) -> None:
    if omega_class not in (1, 2, 3, 4):
        raise ValueError(f"omega class must be 1..4, got {omega_class!r}")


def cf_degree(omega_class: int, n: int) -> int:
    """4n on the three odd-power classes, 3n on the even*b class."""
    _check_class(omega_class)
    _check_n(n)
    return 4 * n if omega_class in (1, 2, 3) else 3 * n


def cf_edge_count(n: int) -> int:
    _check_n(n)
    return 9 * n * n


def cf_alpha(n: int) -> int:
    _check_n(n)
    return 2 * n


def cf_tau(n: int) -> int:
    _check_n(n)
    return 3 * n


def cf_chi_omega(n: int) -> int:
    _check_n(n)
    return 4


def cf_partition_sizes(n: int) -> tuple[int, ...]:
    """Multipartite class sizes as a sorted multiset."""
    _check_n(n)
    return tuple(sorted((n, n, n, 2 * n)))


def cf_metric_dimension(n: int) -> int:
    _check_n(n)
    return 3 if n == 1 else 5 * n - 4


def cf_resolving_polynomial(n: int) -> IntPolynomial:
    """Expanded product form; the coefficients are never hard-coded."""
    _check_n(n)
    if n == 1:
        return IntPolynomial.monomial(3) * (_X + 2) * (_X + 3)
    return IntPolynomial.monomial(5 * n - 4) * (_X + n) ** 3 * (_X + 2 * n)


def cf_resolving_sequence(n: int) -> tuple[int, ...]:
    """The counting identities behind the resolving polynomial, stated
    directly so they can be checked independently of the product form."""
    _check_n(n)
    if n == 1:
        return (6, 5, 1)
    return (2 * n**4, 7 * n**3, 9 * n**2, 5 * n, 1)


def cf_resolving_roots(n: int) -> frozenset[int]:
    _check_n(n)
    if n == 1:
        return frozenset({0, -2, -3})
    return frozenset({0, -n, -2 * n})


def cf_detour_polynomial(n: int) -> IntPolynomial:
    _check_n(n)
    return IntPolynomial.monomial(5 * n - 1, 5 * n * (5 * n - 1) // 2)


def cf_detour_index(n: int) -> int:
    _check_n(n)
    return 5 * n * (5 * n - 1) ** 2 // 2


def cf_total_eccentricity_polynomial(n: int) -> Prediction:
    _check_n(n)
    return Prediction(IntPolynomial.monomial(2, 5 * n), applies=n >= 2)


def cf_eccentric_connectivity_polynomial(n: int) -> Prediction:
    _check_n(n)
    return Prediction(IntPolynomial.monomial(2, 18 * n * n), applies=n >= 2)


def _binomials(m: int) -> list[int]:
    """C(m, 0..m) by the running product C(m, k) = C(m, k-1) (m-k+1) / k."""
    row = [1]
    for k in range(1, m + 1):
        row.append(row[-1] * (m - k + 1) // k)
    return row


def cf_independence_polynomial(n: int) -> IntPolynomial:
    """1 + sum_{k<=n} (C(2n,k) + 3C(n,k)) x^k + sum_{n<k<=2n} C(2n,k) x^k."""
    _check_n(n)
    counts = _binomials(2 * n)
    for k, count in enumerate(_binomials(n)[1:], 1):
        counts[k] += 3 * count
    return IntPolynomial.from_terms(enumerate(counts))


def cf_vertex_cover_polynomial(n: int) -> IntPolynomial:
    """The independence counts mirrored onto cover sizes 5n - k."""
    return IntPolynomial.from_terms(
        (5 * n - k, count) for k, count in cf_independence_polynomial(n).terms()
    )


def cf_center(n: int) -> frozenset[int]:
    """The center of U(6n), as element indices: the even powers of a."""
    _check_n(n)
    return frozenset(range(0, 6 * n, 6))


def cf_omega_classes(n: int) -> tuple[frozenset[int], ...]:
    """The centralizer classes Omega1..Omega4 of the non-central elements,
    as element indices (a^i b^k is 3i + k): odd powers of a, odd*b,
    odd*b^2, and even*b^(1 or 2). Sizes n, n, n, 2n. An index mod 6 names
    its class: 3, 4, 5, then 1 or 2; 0 is the center."""
    _check_n(n)
    order = 6 * n
    return (
        frozenset(range(3, order, 6)),
        frozenset(range(4, order, 6)),
        frozenset(range(5, order, 6)),
        frozenset(range(1, order, 6)) | frozenset(range(2, order, 6)),
    )


def cf_centralizer(omega_class: int, representative: U6nElement, n: int) -> frozenset[int]:
    """Predicted centralizer of a class representative, as element indices:
    the center together with the representative's class. Sizes 2n, 2n,
    2n, 3n.
    """
    _check_class(omega_class)
    _check_n(n)
    if representative.a_exp >= 2 * n:
        raise ValueError(
            f"representative a exponent {representative.a_exp} out of range for n={n}"
        )
    members = cf_omega_classes(n)[omega_class - 1]
    if representative.index not in members:
        raise ValueError(
            f"element {representative.label()!r} is not in omega class {omega_class}"
        )
    return cf_center(n) | members
