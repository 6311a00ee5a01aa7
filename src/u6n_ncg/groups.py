"""Finite groups: U(6n) built from its presentation, plus Cayley tables.

U(6n) is the group <a, b | a^(2n) = b^3 = 1, b*a = a*b^2> of order 6n.
Elements carry the normal form a^i b^k with 0 <= i < 2n and 0 <= k < 3,
and the product obeys

    (a^i b^k)(a^j b^l) = a^((i+j) mod 2n) b^(((-1)^j k + l) mod 3).

The table is built a row at a time from a lemma: a^2 is central and
a^2 x has index x + 6 (mod 6n), so (a^2 x) y = x (a^2 y) makes row x + 6
the row of x rotated left by 6 entries. Row 6t + r is row r rotated left
by 6t, and u6n_group joins every row as a slice of one of six rows.

Everything here is computed from the multiplication table by definition;
no closed-form shortcuts, so these routines stay honest inputs for the
verification pipeline.

A FiniteGroup stores its table as one flat `bytes` object, `cells`: each
entry is one native unsigned 16-bit integer, row-major, so entry x*y is
memoryview(cells).cast("H")[x * order + y]; the table takes 2 * order^2
bytes, 72n^2 for U(6n). Routines read whole rows and strided columns of
the cells with C-level slicing and big-int arithmetic. Commutation is read
from one primitive, the commutation row of x: byte y is 1 when x*y !=
y*x. The center, the centralizers and the non-commuting graph all derive
from these rows.

The rows of every element are computed once per group, on its first
commutation query, and equal rows are held as one object, so U(6n) holds 5
distinct rows at every n. The pass rests on the group axioms, which
group_from_table checks and u6n_group meets by construction:

- For z in the center Z, (x*z)*y = (x*y)*z and y*(x*z) = (y*x)*z, so x*z
  commutes with y exactly when x does: the row of x is the row of every
  element of its coset xZ.
- Z is the set of elements that commute with each member of a generating
  set S. In a finite group, closing {1} under right multiplication by S
  gives the subgroup S generates; no inverses are needed.

So the pass finds S greedily and computes by definition only the rows of
S and of one element per coset of Z: O(order * (|S| + order / |Z|))
table entries, 6 rows of U(6n), every row of a centerless group.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, product
from operator import itemgetter
from typing import Callable, Iterator, Sequence

# u6n_group and group_from_table refuse a table with more entries than this:
# order 6000 (n = 1000) still builds, as 72 MB of cells. Every group's order
# is therefore below 2^16, so one 16-bit entry holds any element index.
_DENSE_TABLE_LIMIT = 6000 * 6000

# a byte of a commutation row: 0 stays 0, any difference becomes 1
_NONZERO = bytes(1) + b"\x01" * 255
# a lane of commutation rows OR-ed: 1 where it is 0 in every row, else 0
_COMMUTES = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _commutation_row(cells: bytes, order: int, x: int) -> bytes:
    """The row of x by definition: for byte 0 and byte 1 of each entry,
    row x XORed as a big int with strided column x; a lane that differs in
    either byte becomes 1."""
    differs = 0
    for byte in (0, 1):
        row = cells[2 * x * order + byte : 2 * (x + 1) * order : 2]
        column = cells[2 * x + byte :: 2 * order]
        differs |= int.from_bytes(row, "big") ^ int.from_bytes(column, "big")
    return differs.to_bytes(order, "big").translate(_NONZERO)


def _generators(
    order: int, identity: int, column: Callable[[int], Sequence[int]]
) -> Iterator[int]:
    """A generating set S, yielded greedily in index order: each element
    outside the set built so far joins S, and the set is closed again under
    right multiplication by each s in S, whose column(s) maps h to h*s.
    Every element is then a generator or a product of generators."""
    member = bytearray(order)
    member[identity] = 1
    members = [identity]
    columns: list[Sequence[int]] = []
    for s in range(order):
        if member[s]:
            continue
        yield s
        columns.append(column(s))
        grown: list[int] = []
        for h in chain(members, grown):  # grown lengthens while it is read
            for c in columns:
                y = c[h]
                if not member[y]:
                    member[y] = 1
                    grown.append(y)
        members += grown


def _label(a_exp: int, b_exp: int) -> str:
    """The normal-form label of a^a_exp b^b_exp, "1" for the identity."""
    a = "" if a_exp == 0 else "a" if a_exp == 1 else f"a^{a_exp}"
    return a + ("", "b", "b^2")[b_exp] or "1"


@dataclass(frozen=True)
class U6nElement:
    """Normal form a^i b^k; the index 3*i + k orders all elements."""

    a_exp: int
    b_exp: int

    def __post_init__(self):
        if self.a_exp < 0:
            raise ValueError(f"a exponent must be non-negative, got {self.a_exp}")
        if self.b_exp not in (0, 1, 2):
            raise ValueError(f"b exponent must be 0, 1 or 2, got {self.b_exp}")

    @property
    def index(self) -> int:
        return 3 * self.a_exp + self.b_exp

    @classmethod
    def from_index(cls, index: int, n: int) -> "U6nElement":
        if not 0 <= index < 6 * n:
            raise IndexError(f"element index {index} out of range for order {6 * n}")
        return cls(index // 3, index % 3)

    def label(self) -> str:
        return _label(self.a_exp, self.b_exp)


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as labels plus a multiplication table on indices.

    `cells` is the table row-major, each entry one native unsigned 16-bit
    integer: x*y is memoryview(cells).cast("H")[x * order + y]. Immutable;
    all methods are pure lookups or scans over the cells. The cells must be
    a group table, as the commutation rows rest on the group axioms. A
    group is its table: U(6n) from u6n_group equals the same table loaded
    with group_from_table.
    """

    labels: tuple[str, ...]
    cells: bytes
    identity: int

    @property
    def order(self) -> int:
        return len(self.labels)

    def _check_index(self, x: int) -> None:
        if not 0 <= x < self.order:
            raise IndexError(f"element index {x} out of range for order {self.order}")

    def mul(self, x: int, y: int) -> int:
        self._check_index(x)
        self._check_index(y)
        return memoryview(self.cells).cast("H")[x * self.order + y]

    @cached_property
    def _commutation_rows(self) -> tuple[bytes, ...]:
        """The commutation row of every element, computed on the first
        commutation query and kept; the cells must be a group table.

        The center is the lanes that are 0 in the row of every generator
        _generators finds. Each element x still without a row, in index
        order, gives its row to every x*z, z in the center, read from row x
        of the cells."""
        cells, order = self.cells, self.order
        entries = memoryview(cells).cast("H")
        generators = {  # each generator and its row
            s: _commutation_row(cells, order, s)
            for s in _generators(order, self.identity, lambda s: entries[s::order].tolist())
        }
        differs = 0  # the lanes where some generator's row is 1
        for row in generators.values():
            differs |= int.from_bytes(row, "big")
        center = [*compress(range(order), differs.to_bytes(order, "big").translate(_COMMUTES))]
        interned: dict[bytes, bytes] = {}
        rows: list[bytes | None] = [None] * order
        for x in range(order):
            if rows[x] is None:
                row = generators[x] if x in generators else _commutation_row(cells, order, x)
                row = interned.setdefault(row, row)
                at = x * order
                for z in center:
                    rows[entries[at + z]] = row
        return tuple(rows)

    def non_commuting_row(self, x: int) -> bytes:
        """Byte y is 1 when x*y != y*x and 0 when x and y commute. Elements
        with equal rows get the same bytes object."""
        self._check_index(x)
        return self._commutation_rows[x]

    def is_abelian(self) -> bool:
        return not any(1 in row for row in self._commutation_rows)

    def centralizer(self, x: int) -> frozenset[int]:
        """All y with x*y == y*x."""
        row = self.non_commuting_row(x)
        return frozenset(y for y, differs in enumerate(row) if not differs)

    def center(self) -> frozenset[int]:
        """Elements commuting with everything."""
        return frozenset(x for x, row in enumerate(self._commutation_rows) if 1 not in row)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _find_identity(table: Sequence[Sequence[int]]) -> int | None:
    order = len(table)
    for e in range(order):
        if all(table[e][x] == x and table[x][e] == x for x in range(order)):
            return e
    return None


def _validate_table(labels: Sequence[str], table: Sequence[Sequence[int]]) -> int:
    """Check every group axiom, exactly at every order, and return the
    identity index; raise ValueError naming the offending row, entry or
    triple. Associativity is Light's test on the row pass's generators S:
    the a with (x*a)*y = x*(a*y) for all x, y are closed under products, as
    (x*(ab))*y = ((xa)*b)*y = (xa)*(b*y) = x*(a*(b*y)) = x*((ab)*y), so it
    is enough that each s in S is one: row x*s must equal row x read at row
    s. Inverses come first, as 1 in every row, which makes a finite monoid a
    group; then each s that passes doubles the group built before it, so
    no table costs more than log2(order) + 1 generators of order^2 entries.
    """
    order = len(labels)
    if order == 0:
        raise ValueError("a group needs at least one element")
    if len(set(labels)) != order:
        raise ValueError("element labels must be unique")
    if len(table) != order:
        raise ValueError(f"table has {len(table)} rows for {order} labels")
    for i, row in enumerate(table):
        if len(row) != order:
            raise ValueError(f"row {i} ({labels[i]!r}) has {len(row)} entries, expected {order}")
        if {*map(type, row)} != {int} or min(row) < 0 or max(row) >= order:
            for label, v in zip(labels, row):  # names the entry; int subclasses pass
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < order:
                    raise ValueError(f"closure fails at ({labels[i]!r}, {label!r}): entry {v!r}")

    identity = _find_identity(table)
    if identity is None:
        raise ValueError("no two-sided identity element found")

    for x, row in enumerate(table):
        if identity not in row:
            raise ValueError(f"element {labels[x]!r} has no two-sided inverse")
    for s in _generators(order, identity, lambda s: [row[s] for row in table]):
        gather = itemgetter(*table[s])
        for x, row in enumerate(table):
            if gather(row) != tuple(table[xs := row[s]]):  # rows may be lists or tuples
                y = next(y for y in range(order) if table[xs][y] != row[table[s][y]])
                a, b, c = labels[x], labels[s], labels[y]
                raise ValueError(
                    f"associativity fails at ({a!r}, {b!r}, {c!r}): ({a}*{b})*{c} = "
                    f"{labels[table[xs][y]]} but {a}*({b}*{c}) = {labels[row[table[s][y]]]}"
                )
    return identity


def _cells(table: Sequence[Sequence[int]]) -> bytes:
    """The table's entries as native 16-bit integers, row after row. Each
    row, a list or a tuple, converts to an array("H") at C speed, so the
    entries are never held as a second table of ints."""
    return b"".join([array("H", row).tobytes() for row in table])


def group_from_table(labels: Sequence[str], table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate a Cayley table (closure, identity, associativity, inverses),
    exactly at every order, and wrap it as a FiniteGroup. The identity may
    sit at any index.

    Rows, lists or tuples, are read as given, not copied, and a float or
    bool entry is rejected rather than coerced to an int. A table of more
    than _DENSE_TABLE_LIMIT entries is refused before it is validated or
    packed.
    """
    if not isinstance(labels, (list, tuple)):
        raise ValueError(f"labels must be a list, got {type(labels).__name__}")
    if not isinstance(table, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in table
    ):
        raise ValueError("table must be a list of rows, each a list of entries")
    entries = sum(len(row) for row in table)
    if entries > _DENSE_TABLE_LIMIT:
        raise ValueError(f"table has {entries} entries, over the limit of {_DENSE_TABLE_LIMIT}")
    labels = tuple(str(s) for s in labels)
    identity = _validate_table(labels, table)
    return FiniteGroup(labels=labels, cells=_cells(table), identity=identity)


def group_from_json(text: str) -> FiniteGroup:
    """Load a group from the JSON schema {"labels": [...], "table": [[...]]}."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("the JSON is nested too deeply") from None
    if not isinstance(data, dict) or "labels" not in data or "table" not in data:
        raise ValueError('expected a JSON object with "labels" and "table" keys')
    return group_from_table(data["labels"], data["table"])


def u6n_order(n: int) -> int:
    """The order 6n of U(6n). Raises ValueError when n is not a positive
    integer, or when the dense table would hold more than
    _DENSE_TABLE_LIMIT entries."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    order = 6 * n
    if order * order > _DENSE_TABLE_LIMIT:
        raise ValueError(
            f"U(6n) at n = {n} needs a Cayley table of {order * order} entries, "
            f"over the limit of {_DENSE_TABLE_LIMIT}"
        )
    return order


def u6n_group(n: int) -> FiniteGroup:
    """Construct U(6n) from its presentation, order 6n, identity at index 0.

    Refuses n through u6n_order, before anything of the table's size is
    built.
    """
    order = u6n_order(n)
    # the labels _label gives, a-parts joined with b-parts
    a_parts = ["", "a", *(f"a^{i}" for i in range(2, 2 * n))]
    labels = list(map("".join, product(a_parts, ("", "b", "b^2"))))
    labels[0] = "1"
    # Row 6t + r is row r rotated left by 6t (the module docstring's
    # lemma). Row 3 + k, of a b^k = b^(-k) a, is row -k mod 3 rotated left
    # by 3, as a y has index y + 3. Rows 0-5 are held twice over, rows 3-5
    # as rows 0, 2 and 1 from entry 3 on, so that every rotation is one
    # slice, and the cells are joined from the slices at once. In row
    # k < 3, the entries y = 3j + l with j of one parity p step by 6 and
    # map to 3j + ((-1)^p k + l) mod 3: one strided slice of the identity
    # row each.
    identity = array("H", [*range(order)])
    rows = []
    for k in range(3):
        row = array("H", identity)
        for p, sign in ((0, 1), (1, -1)):
            for l in range(3):
                row[3 * p + l :: 6] = identity[3 * p + (sign * k + l) % 3 :: 6]
        rows.append(memoryview(row * 2))
    rows += [rows[0][3:], rows[2][3:], rows[1][3:]]
    spans = [slice(6 * t, 6 * t + order) for t in range(n)]
    cells = b"".join([row[span] for span in spans for row in rows])
    return FiniteGroup(labels=tuple(labels), cells=cells, identity=0)
