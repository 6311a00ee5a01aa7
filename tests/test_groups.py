import json
import random
import re
import tracemalloc
from functools import cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from u6n_ncg import groups
from u6n_ncg.closed_forms import cf_omega_classes
from u6n_ncg.groups import (
    FiniteGroup,
    U6nElement,
    group_from_json,
    group_from_table,
    u6n_group,
)

# Cyclic group of order 3 (abelian reference input).
C3_LABELS = ["e", "g", "g2"]
C3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

# A loop of order 5: latin square with two-sided identity 0, but
# (g1*g1)*g2 = g2 while g1*(g1*g2) = g4, so it is not associative.
NONASSOC_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def reduce_word(word: str, n: int, max_steps: int = 10_000) -> str:
    """Free-reduction oracle: rewrite with a^(2n) -> 1, b^3 -> 1 and
    ba -> ab^2 until nothing applies. Independent of the table code."""
    a_power = "a" * (2 * n)
    for _ in range(max_steps):
        if "ba" in word:
            word = word.replace("ba", "abb", 1)
        elif "bbb" in word:
            word = word.replace("bbb", "", 1)
        elif a_power in word:
            word = word.replace(a_power, "", 1)
        else:
            return word
    raise RuntimeError("rewrite step cap exceeded")


def element_word(index: int) -> str:
    return "a" * (index // 3) + "b" * (index % 3)


def word_to_index(word: str) -> int:
    return 3 * word.count("a") + word.count("b")


class TestU6nConstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_order(self, n):
        assert u6n_group(n).order == 6 * n

    @pytest.mark.parametrize("bad", [0, -1, -7, 2.5, "3"])
    def test_invalid_n(self, bad):
        with pytest.raises(ValueError):
            u6n_group(bad)

    def test_labels_are_normal_forms(self):
        g = u6n_group(2)
        assert g.labels[:6] == ("1", "b", "b^2", "a", "ab", "ab^2")
        assert g.labels[6:9] == ("a^2", "a^2b", "a^2b^2")

    @pytest.mark.parametrize("n", [*range(1, 13), 150])
    def test_labels_match_the_elements(self, n):
        assert u6n_group(n).labels == tuple(
            U6nElement.from_index(i, n).label() for i in range(6 * n)
        )

    def test_element_index_bijection(self):
        for n in (1, 2, 3):
            seen = set()
            for idx in range(6 * n):
                e = U6nElement.from_index(idx, n)
                assert e.index == idx
                seen.add((e.a_exp, e.b_exp))
            assert len(seen) == 6 * n

    def test_element_validation(self):
        with pytest.raises(ValueError):
            U6nElement(1, 3)
        with pytest.raises(ValueError):
            U6nElement(-1, 0)
        with pytest.raises(IndexError):
            U6nElement.from_index(6, 1)

    def test_b_times_a_is_a_b_squared(self):
        g = u6n_group(1)
        b, a = 1, 3
        assert g.labels[g.mul(b, a)] == "ab^2"
        assert g.mul(b, a) != g.mul(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_agrees_with_free_reduction(self, n):
        g = u6n_group(n)
        for x in range(g.order):
            for y in range(g.order):
                reduced = reduce_word(element_word(x) + element_word(y), n)
                assert g.mul(x, y) == word_to_index(reduced)

    def test_a_squared_is_identity_at_n1(self):
        g = u6n_group(1)
        a = 3
        assert g.mul(a, a) == g.identity

    def test_identity_law(self):
        for n in (1, 3):
            g = u6n_group(n)
            for x in range(g.order):
                assert g.mul(g.identity, x) == x
                assert g.mul(x, g.identity) == x

    def test_mul_index_out_of_range(self):
        g = u6n_group(1)
        with pytest.raises(IndexError):
            g.mul(0, 6)
        with pytest.raises(IndexError):
            g.mul(-1, 0)


class TestInverses:
    # each element's inverse read off the table through mul
    def test_identity_inverse(self):
        g = u6n_group(2)
        assert g.mul(g.identity, g.identity) == g.identity

    def test_a_has_order_2n(self):
        g = u6n_group(2)
        a, a3 = 3, 9
        assert g.mul(a, a3) == g.identity == g.mul(a3, a)
        assert g.mul(a, a) != g.identity

    def test_b_inverse_is_b_squared(self):
        g = u6n_group(1)
        assert g.mul(1, 2) == g.identity == g.mul(2, 1)

    def test_all_inverses_two_sided(self):
        g = u6n_group(3)
        for x in range(g.order):
            right = [y for y in range(g.order) if g.mul(x, y) == g.identity]
            left = [y for y in range(g.order) if g.mul(y, x) == g.identity]
            assert len(right) == 1 and right == left


class TestCenterAndCentralizers:
    def test_center_n1_trivial(self):
        assert u6n_group(1).center() == {0}

    def test_center_n2(self):
        g = u6n_group(2)
        assert sorted(g.labels[x] for x in g.center()) == ["1", "a^2"]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_center_is_even_powers_of_a(self, n):
        g = u6n_group(n)
        assert g.center() == {6 * r for r in range(n)}

    def test_abelian_group_center_is_everything(self):
        g = group_from_table(C3_LABELS, C3_TABLE)
        assert g.center() == {0, 1, 2}

    def test_centralizer_of_a_n2(self):
        g = u6n_group(2)
        cz = g.centralizer(3)
        assert sorted(g.labels[x] for x in cz) == ["1", "a", "a^2", "a^3"]
        assert len(cz) == 4

    def test_centralizer_of_b_n1(self):
        g = u6n_group(1)
        assert g.centralizer(1) == {0, 1, 2}

    def test_centralizer_of_identity(self):
        g = u6n_group(2)
        assert g.centralizer(g.identity) == frozenset(range(g.order))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lagrange_divisibility(self, n):
        g = u6n_group(n)
        for x in range(g.order):
            assert g.order % len(g.centralizer(x)) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_centralizer_sizes_by_class(self, n):
        g = u6n_group(n)
        for cls, expected in zip(cf_omega_classes(n), (2 * n, 2 * n, 2 * n, 3 * n)):
            for x in cls:
                assert len(g.centralizer(x)) == expected


class TestAbelian:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_u6n_never_abelian(self, n):
        assert not u6n_group(n).is_abelian()

    def test_cyclic_is_abelian(self):
        assert group_from_table(C3_LABELS, C3_TABLE).is_abelian()


class TestCayleyTableLoading:
    def test_trivial_group(self):
        g = group_from_table(["e"], [[0]])
        assert g.order == 1 and g.identity == 0

    def test_cyclic3(self):
        g = group_from_table(C3_LABELS, C3_TABLE)
        assert g.order == 3
        assert g.identity == 0
        assert g.mul(1, 2) == g.mul(2, 1) == 0

    def test_identity_detected_off_index_zero(self):
        # C3 with the identity stored at index 1
        labels = ["g", "e", "g2"]
        table = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
        g = group_from_table(labels, table)
        assert g.identity == 1

    def test_non_associative_names_triple(self):
        labels = [f"g{i}" for i in range(5)]
        with pytest.raises(ValueError, match="associativity fails at .*'g1', 'g1', 'g2'"):
            group_from_table(labels, NONASSOC_TABLE)

    def test_closure_violation_named(self):
        with pytest.raises(ValueError, match="closure fails"):
            group_from_table(["e", "x"], [[0, 1], [1, 7]])

    @pytest.mark.parametrize("entry", [1.9, 1.0, True])
    def test_non_integer_entry_rejected(self, entry):
        # int() would turn each of these into 1 and accept the table as Z2
        with pytest.raises(ValueError, match="closure fails"):
            group_from_table(["e", "x"], [[0, entry], [1, 0]])

    def test_non_square_table(self):
        with pytest.raises(ValueError, match="row 1"):
            group_from_table(["e", "x"], [[0, 1], [1]])

    def test_missing_identity(self):
        # left-projection table x*y = x has no two-sided identity
        with pytest.raises(ValueError, match="identity"):
            group_from_table(["p", "q"], [[0, 0], [1, 1]])

    def test_missing_inverse(self):
        # OR-monoid on {0, 1}: associative with identity 0, but 1 has no inverse
        with pytest.raises(ValueError, match="no two-sided inverse"):
            group_from_table(["e", "x"], [[0, 1], [1, 1]])

    def test_empty_table_refused(self):
        with pytest.raises(ValueError) as info:
            group_from_table([], [])
        assert str(info.value) == "a group needs at least one element"

    def test_fewer_rows_than_labels(self):
        with pytest.raises(ValueError) as info:
            group_from_table(C3_LABELS, C3_TABLE[:2])
        assert str(info.value) == "table has 2 rows for 3 labels"

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            group_from_table(["e", "e"], [[0, 1], [1, 0]])

    def test_json_round_trip(self):
        text = json.dumps({"labels": C3_LABELS, "table": C3_TABLE})
        g = group_from_json(text)
        assert g.order == 3 and g.is_abelian()

    def test_json_missing_keys(self):
        with pytest.raises(ValueError, match="labels"):
            group_from_json(json.dumps({"table": C3_TABLE}))

    def test_group_equality_and_immutability(self):
        g1 = group_from_table(C3_LABELS, C3_TABLE)
        g2 = group_from_table(C3_LABELS, C3_TABLE)
        assert g1 == g2
        with pytest.raises(AttributeError):
            g1.identity = 2

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_u6n_equality_and_hash(self, n):
        g1, g2 = u6n_group(n), u6n_group(n)
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != u6n_group(n + 1)
        # a group is its table: the same table loaded as data is the same group
        loaded = group_from_table(list(g1.labels), double_loop_u6n_table(n))
        assert loaded == g1 and hash(loaded) == hash(g1)
        assert repr(loaded) == repr(g1) == f"FiniteGroup(order={6 * n})"


# -- reference scans, kept as oracles for the commutation rows -------------

def double_loop_u6n_table(n):
    """The table entry by entry from the normal-form product."""
    two_n, order = 2 * n, 6 * n
    rows = []
    for x in range(order):
        i, k = divmod(x, 3)
        row = []
        for y in range(order):
            j, l = divmod(y, 3)
            a = (i + j) % two_n
            b = ((k if j % 2 == 0 else -k) + l) % 3
            row.append(3 * a + b)
        rows.append(tuple(row))
    return tuple(rows)


# The scans read a table of ints given alongside the group, never the
# group's own cells.

def scan_is_abelian(t):
    return all(t[x][y] == t[y][x] for x in range(len(t)) for y in range(x + 1, len(t)))


def scan_centralizer(t, x):
    return frozenset(y for y in range(len(t)) if t[x][y] == t[y][x])


def scan_center(t):
    return frozenset(
        x for x in range(len(t)) if all(t[x][y] == t[y][x] for y in range(len(t)))
    )


# every group the suite loads from a table, and S3 (= U(6)) from its table
TABLE_GROUPS = [
    (["e"], [[0]]),
    (["e", "x"], [[0, 1], [1, 0]]),
    (C3_LABELS, C3_TABLE),
    (["g", "e", "g2"], [[2, 0, 1], [0, 1, 2], [1, 2, 0]]),
    (list(u6n_group(1).labels), [list(row) for row in double_loop_u6n_table(1)]),
]


def assert_lookups_match_scans(g, t):
    """mul and every commutation query of g against the table t."""
    order = len(t)
    assert g.order == order
    assert all(g.mul(x, y) == t[x][y] for x in range(order) for y in range(order))
    assert g.is_abelian() == scan_is_abelian(t)
    assert g.center() == scan_center(t)
    for x in range(order):
        row = g.non_commuting_row(x)
        assert row == bytes(t[x][y] != t[y][x] for y in range(order))
        assert g.centralizer(x) == scan_centralizer(t, x)


class TestCommutationRowsAgainstScans:
    # n = 43 (order 258) is the first with a nonzero high byte, and n = 150
    # (order 900) the largest the benchmark builds
    @pytest.mark.parametrize("n", [*range(1, 14), 32, 43, 57, 150])
    def test_cells_match_double_loop(self, n):
        # the high bytes of every entry, rows in order, then the low bytes
        entries = [v for row in double_loop_u6n_table(n) for v in row]
        cells = bytes(v >> 8 for v in entries) + bytes(v & 0xFF for v in entries)
        assert u6n_group(n).cells == cells

    @pytest.mark.parametrize("n", range(1, 13))
    def test_u6n(self, n):
        assert_lookups_match_scans(u6n_group(n), double_loop_u6n_table(n))

    @pytest.mark.parametrize("labels, table", TABLE_GROUPS)
    def test_table_groups(self, labels, table):
        assert_lookups_match_scans(group_from_table(labels, table), table)

    @pytest.mark.parametrize(
        "g",
        [u6n_group(n) for n in range(1, 13)]
        + [group_from_table(labels, table) for labels, table in TABLE_GROUPS],
        ids=repr,
    )
    def test_equal_rows_are_one_object(self, g):
        rows = [g.non_commuting_row(x) for x in range(g.order)]
        assert len({id(r) for r in rows}) == len(set(rows))

    def test_row_index_checked(self):
        with pytest.raises(IndexError):
            u6n_group(1).non_commuting_row(6)


# -- the row-at-a-time pass, kept as the oracle for the coset pass ---------

def row_by_row_commutation(g):
    """Every commutation row from its own pass: row x of each plane of the
    cells against strided column x of that plane, XORed as big ints, the
    high and the low plane apart."""
    cells, order = g.cells, g.order
    size = order * order
    rows = []
    for x in range(order):
        differs = 0
        for plane in (cells[:size], cells[size:]):
            row = plane[x * order : (x + 1) * order]
            differs |= int.from_bytes(row, "big") ^ int.from_bytes(plane[x::order], "big")
        rows.append(differs.to_bytes(order, "big").translate(groups._NONZERO))
    return tuple(rows)


def dihedral_table(m):
    """D_m of order 2m: r^i at index i and s r^i at index m + i, with
    r^i s = s r^-i."""
    table = []
    for x in range(2 * m):
        i, flip_x = x % m, x >= m
        row = []
        for y in range(2 * m):
            j, flip_y = y % m, y >= m
            row.append(m * (flip_x != flip_y) + ((j - i) if flip_y else (i + j)) % m)
        table.append(row)
    return table


def relabelled(table, seed):
    """The table with its elements renumbered by a seeded permutation, so
    the identity and the classes of equal rows land at scattered indices."""
    perm = list(range(len(table)))
    random.Random(seed).shuffle(perm)
    return permuted(table, perm)


def permuted(table, perm):
    """The table with element x renumbered perm[x]."""
    order = len(table)
    out = [[0] * order for _ in range(order)]
    for x in range(order):
        for y in range(order):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


# Orders past 256, where the high byte of a cell is nonzero: 258 and 342
# (U(6n)), 300 (dihedral, loaded) and 258 again with every index moved
# (loaded).
@cache
def wide_group(name):
    if name == "dihedral150":
        table = dihedral_table(150)
    elif name == "relabelled43":
        table = relabelled(double_loop_u6n_table(43), seed=43)
    else:
        n = int(name.removeprefix("u6n"))
        return u6n_group(n), double_loop_u6n_table(n)
    return group_from_table([f"g{i}" for i in range(len(table))], table), table


WIDE_GROUPS = ["u6n43", "u6n57", "dihedral150", "relabelled43"]


class TestTiledCommutationPass:
    @pytest.mark.parametrize("name", WIDE_GROUPS)
    def test_wide_orders_match_scans(self, name):
        g, table = wide_group(name)
        assert any(g.cells[: g.order * g.order])  # some high byte is nonzero
        assert g._commutation_rows == row_by_row_commutation(g)
        assert_lookups_match_scans(g, table)

    @pytest.mark.parametrize("name", ["dihedral150", "relabelled43"])
    def test_loaded_tables_round_trip(self, name):
        # decoded from the planes directly, not through mul, the cells give
        # back the table, and loading that table again gives the same group
        g, table = wide_group(name)
        size = g.order * g.order
        decoded = [
            [g.cells[i] << 8 | g.cells[size + i] for i in range(x * g.order, (x + 1) * g.order)]
            for x in range(g.order)
        ]
        assert decoded == table
        assert group_from_table(list(g.labels), decoded) == g

    @pytest.mark.parametrize("name", WIDE_GROUPS)
    def test_wide_orders_hold_equal_rows_once(self, name):
        rows = wide_group(name)[0]._commutation_rows
        assert len({id(r) for r in rows}) == len(set(rows))

    @pytest.mark.parametrize("n", [*range(1, 61), 64, 128, 150, 300])
    def test_u6n_matches_row_by_row(self, n):
        # from n = 43 (order 258) on, element indices take two bytes
        g = u6n_group(n)
        assert g._commutation_rows == row_by_row_commutation(g)


def cyclic_table(k):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def direct_product_table(left, right):
    """The table of left x right, with (a, b) at index a * len(right) + b."""
    width = len(right)
    return [
        [left[a][c] * width + right[b][d] for c in range(len(left)) for d in range(width)]
        for a in range(len(left))
        for b in range(width)
    ]


def dihedral_center_size(m):
    """|Z(D_m)|, with m = 0 standing for the trivial group: D_1 = C_2 and
    D_2 = C_2 x C_2 are abelian, and past that r^(m/2) is central when m is
    even and nothing but 1 is central when m is odd."""
    return {0: 1, 1: 2, 2: 4}.get(m, 2 - m % 2)


def table_group(table):
    """A FiniteGroup on the table, built without validation: each table
    given here is a group by construction."""
    entries = [v for row in table for v in row]
    cells = bytes(v >> 8 for v in entries) + bytes(v & 0xFF for v in entries)
    labels = tuple(f"g{i}" for i in range(len(table)))
    return FiniteGroup(labels, cells, groups._find_identity(table))


class TestCenterCosetPass:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 19), st.integers(0, 2**32 - 1))
    @example(1, 7, 0)  # a trivial center
    @example(5, 0, 1)  # C_5: abelian, a single coset
    @example(3, 4, 2)  # a center of 6 in 24
    @example(2, 75, 3)  # order 300: the high byte of a cell is nonzero
    def test_relabelled_products_match_row_by_row(self, k, m, seed):
        # C_k x D_m (D_0 the trivial group) with its elements renumbered, so
        # the identity and the center sit at scattered indices
        dihedral = dihedral_table(m) if m else [[0]]
        g = table_group(relabelled(direct_product_table(cyclic_table(k), dihedral), seed))
        rows = g._commutation_rows
        assert rows == row_by_row_commutation(g)
        assert all(rows[x][y] == rows[y][x] for x in range(g.order) for y in range(x))
        assert len({id(r) for r in rows}) == len(set(rows))
        assert len(g.center()) == k * dihedral_center_size(m)

    def test_products_apart_in_the_high_byte_only(self):
        # in D_150, r*s = s r^-1 is index 299 and s*r = s r is 151; with 151
        # and 43 swapped the two products differ by 256, in the high byte
        # alone, so r and s commute by the low plane but not by the table
        r, s = 1, 150
        swap = list(range(300))
        swap[43], swap[151] = 151, 43
        g = table_group(permuted(dihedral_table(150), swap))
        assert (g.mul(r, s), g.mul(s, r)) == (299, 43)
        rows = g._commutation_rows
        assert rows[r][s] == rows[s][r] == 1
        assert rows == row_by_row_commutation(g)

    def test_u6n_computes_a_row_per_generator_and_coset(self, monkeypatch):
        # the generators b and a lie in two of the 900 / 150 = 6 cosets of
        # the center: 6 rows are computed by definition, the rest handed on
        computed = []
        by_definition = groups._commutation_row

        def counted(cells, order, x):
            computed.append(x)
            return by_definition(cells, order, x)

        monkeypatch.setattr(groups, "_commutation_row", counted)
        g = u6n_group(150)
        assert g._commutation_rows == row_by_row_commutation(g)
        assert len(computed) == 6


class TestTrianglePass:
    @pytest.mark.parametrize("n, planes", [(300, 1), (1000, 1 / 4)])
    def test_row_pass_peak_memory(self, n, planes):
        # no plane (order^2 bytes) is ever copied whole: the pass holds a
        # few rows and columns of order bytes each, and the rows it hands on
        g = u6n_group(n)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            g._commutation_rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - baseline < planes * g.order * g.order


class TestTableSizeLimit:
    def test_baseline_order_fits(self):
        # n = 1000 (order 6000), the recorded large-n baseline, must still build
        assert groups._DENSE_TABLE_LIMIT >= 6000 * 6000

    def test_limit_is_on_the_entry_count(self, monkeypatch):
        monkeypatch.setattr(groups, "_DENSE_TABLE_LIMIT", 12 * 12)
        assert u6n_group(2).order == 12
        with pytest.raises(ValueError, match="144"):
            u6n_group(3)

    def test_loaded_table_limit_is_on_the_entry_count(self, monkeypatch):
        monkeypatch.setattr(groups, "_DENSE_TABLE_LIMIT", 3 * 3)
        assert group_from_table(C3_LABELS, C3_TABLE).order == 3
        monkeypatch.setattr(groups, "_DENSE_TABLE_LIMIT", 3 * 3 - 1)
        with pytest.raises(ValueError, match="9 entries, over the limit of 8"):
            group_from_table(C3_LABELS, C3_TABLE)

    def test_loaded_table_refused_before_validation(self, monkeypatch):
        # a table that fails validation is refused for its size first
        monkeypatch.setattr(groups, "_DENSE_TABLE_LIMIT", 24)
        with pytest.raises(ValueError, match="25 entries"):
            group_from_table([f"g{i}" for i in range(5)], NONASSOC_TABLE)

    def test_u6n_cells_stay_small(self):
        # 2 bytes per entry: 6.5 MB of cells at n = 300, and no table of ints
        tracemalloc.start()
        try:
            g = u6n_group(300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
        assert len(g.cells) == 2 * 1800 * 1800


# -- the all-triples loop, kept as the oracle for Light's test -------------

def failing_triple(table):
    """The first (x, y, z) in index order with (x*y)*z != x*(y*z), or None:
    order^3 products."""
    for x, y, z in product(range(len(table)), repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return x, y, z
    return None


def has_inverses(table, identity):
    """Whether every x has a y with x*y = y*x = identity."""
    order = len(table)
    return all(
        any(table[x][y] == identity == table[y][x] for y in range(order)) for x in range(order)
    )


def validated(table):
    """The identity _validate_table returns for the table, or its error;
    element i is labelled gi."""
    try:
        return groups._validate_table([f"g{i}" for i in range(len(table))], table)
    except ValueError as error:
        return error


def assert_refused_at_a_failing_triple(verdict, table):
    """The verdict is an associativity refusal, and the triple it names
    fails in the table."""
    match = re.fullmatch(r"associativity fails at \('g(\d+)', 'g(\d+)', 'g(\d+)'\): .*", str(verdict))
    assert isinstance(verdict, ValueError) and match, verdict
    x, s, y = map(int, match.groups())
    assert table[table[x][s]][y] != table[x][table[s][y]]


def assert_verdict_agrees_with_the_oracles(table):
    """A row without the identity is refused first, then a failing triple;
    what is left is accepted, and each of its elements has an inverse."""
    verdict = validated(table)
    identity = groups._find_identity(table)
    if any(identity not in row for row in table):
        assert isinstance(verdict, ValueError) and "no two-sided inverse" in str(verdict)
    elif failing_triple(table) is not None:
        assert_refused_at_a_failing_triple(verdict, table)
    else:
        assert verdict == identity and has_inverses(table, identity)


def intercalate_swapped_cyclic_table(half, x, y):
    """C_2half with the 2x2 Latin subsquare of rows x, x + half and columns
    y, y + half swapped: a Latin square, and with 0 < x, y < half the
    identity 0 is kept, so the table is a loop."""
    table = cyclic_table(2 * half)
    for r in (x, x + half):
        table[r][y], table[r][y + half] = table[r][y + half], table[r][y]
    return table


@st.composite
def magmas_with_identity(draw):
    """Order 1 to 6, a two-sided identity at a drawn index, every other
    entry drawn, and sometimes the identity planted in every row: seldom
    Latin, seldom associative."""
    order = draw(st.integers(1, 6))
    identity = draw(st.integers(0, order - 1))
    table = [[draw(st.integers(0, order - 1)) for _ in range(order)] for _ in range(order)]
    others = [x for x in range(order) if x != identity]
    if others and draw(st.booleans()):
        for x in others:
            table[x][draw(st.sampled_from(others))] = identity
    for x in range(order):
        table[identity][x] = table[x][identity] = x
    return table


@st.composite
def loops(draw):
    """A Latin square of order 1 to 6 with a two-sided identity, filled cell
    by cell in a drawn order of values, backtracking at a dead end, then
    renumbered: mostly not associative past order 4."""
    order = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    table = [[x if y == 0 else y if x == 0 else None for y in range(order)] for x in range(order)]
    cells = [(x, y) for x in range(1, order) for y in range(1, order)]

    def fill(i):
        if i == len(cells):
            return True
        x, y = cells[i]
        free = [v for v in range(order) if v not in table[x] and v not in (r[y] for r in table)]
        rng.shuffle(free)
        for table[x][y] in free:
            if fill(i + 1):
                return True
        table[x][y] = None
        return False

    assert fill(0)
    return permuted(table, draw(st.permutations(range(order))))


# associative tables with an identity: groups, and monoids that are not
ASSOCIATIVE_TABLES = [
    *(cyclic_table(k) for k in range(1, 7)),
    direct_product_table(cyclic_table(2), cyclic_table(2)),
    dihedral_table(3),
    *([[max(x, y) for y in range(k)] for x in range(k)] for k in range(2, 7)),
    *([[min(x + y, k - 1) for y in range(k)] for x in range(k)] for k in range(2, 7)),
    direct_product_table(cyclic_table(2), [[max(x, y) for y in range(3)] for x in range(3)]),
]


@st.composite
def near_monoids(draw):
    """A renumbered associative table, sometimes with one entry off the
    identity's row and column redrawn."""
    base = draw(st.sampled_from(ASSOCIATIVE_TABLES))
    order = len(base)
    table = permuted(base, draw(st.permutations(range(order))))
    identity = groups._find_identity(table)
    others = [x for x in range(order) if x != identity]
    if others and draw(st.booleans()):
        x, y = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        table[x][y] = draw(st.integers(0, order - 1))
    return table


class TestLightsAssociativityTest:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(magmas_with_identity(), loops(), near_monoids()))
    @example(NONASSOC_TABLE)
    @example([[0, 1], [1, 1]])  # a monoid, not a group
    def test_agrees_with_all_triples(self, table):
        assert_verdict_agrees_with_the_oracles(table)

    @pytest.mark.parametrize("order", [2, 3])
    def test_agrees_with_all_triples_on_every_magma_with_identity_0(self, order):
        free = (order - 1) ** 2
        for entries in product(range(order), repeat=free):
            table = [list(range(order))]
            for x in range(1, order):
                table.append([x, *entries[(x - 1) * (order - 1) : x * (order - 1)]])
            assert_verdict_agrees_with_the_oracles(table)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(101, 200), st.data())
    def test_intercalate_swapped_cyclic_tables_refused(self, half, data):
        # orders 202 to 400; the witness is found here, among the products
        # that read a swapped entry, not taken from the refusal
        x = data.draw(st.integers(1, half - 1))
        y = data.draw(st.integers(1, half - 1))
        table = intercalate_swapped_cyclic_table(half, x, y)
        witness = next(
            (
                (a, b, c)
                for a in (x, x + half)
                for b in (y, y + half)
                for c in range(2 * half)
                if table[table[a][b]][c] != table[a][table[b][c]]
            ),
            None,
        )
        assert witness is not None
        labels = [f"g{i}" for i in range(2 * half)]
        with pytest.raises(ValueError, match="associativity fails") as info:
            group_from_table(labels, table)
        assert_refused_at_a_failing_triple(info.value, table)

    def test_c2000_loop_refused(self):
        # 1*2 and 1*1002 swapped, and 1001*2 and 1001*1002: a loop whose
        # faulty products are too few for a sample of triples to meet
        table = intercalate_swapped_cyclic_table(1000, 1, 2)
        with pytest.raises(ValueError, match="associativity fails") as info:
            group_from_table([f"g{i}" for i in range(2000)], table)
        assert_refused_at_a_failing_triple(info.value, table)

    def test_a_generator_in_the_nucleus_found_first(self):
        # C_2 x NONASSOC_TABLE with (c, l) at c + 2l: the greedy search takes
        # the C_2 generator 1 first, and it passes Light's test alone
        table = direct_product_table(NONASSOC_TABLE, cyclic_table(2))
        assert next(groups._generators(10, 0, lambda s: [row[s] for row in table])) == 1
        assert all(
            table[table[x][1]][y] == table[x][table[1][y]] for x in range(10) for y in range(10)
        )
        with pytest.raises(ValueError, match="associativity fails") as info:
            group_from_table([f"g{i}" for i in range(10)], table)
        assert_refused_at_a_failing_triple(info.value, table)

    @pytest.mark.parametrize("kinds", [(list,), (tuple,), (list, tuple)], ids=repr)
    def test_rows_read_as_given(self, kinds):
        def shaped(table):
            return [kinds[x % len(kinds)](row) for x, row in enumerate(table)]

        labels = [f"g{i}" for i in range(10)]
        assert group_from_table(labels, shaped(dihedral_table(5))) == table_group(
            dihedral_table(5)
        )
        # packed row by row, past order 256 too, into the cells of the table
        wide = [f"g{i}" for i in range(300)]
        g = group_from_table(wide, shaped(dihedral_table(150)))
        assert g.cells == table_group(dihedral_table(150)).cells
        with pytest.raises(ValueError, match="associativity fails at .*'g1', 'g1', 'g2'"):
            group_from_table(labels[:5], shaped(NONASSOC_TABLE))

    def test_validator_and_row_pass_share_one_generator_search(self, monkeypatch):
        found = []
        search = groups._generators

        def recorded(*args):
            found.append([])
            for s in search(*args):
                found[-1].append(s)
                yield s

        monkeypatch.setattr(groups, "_generators", recorded)
        g = group_from_table(list(u6n_group(4).labels), double_loop_u6n_table(4))
        assert g._commutation_rows == row_by_row_commutation(g)
        assert found == [[1, 3], [1, 3]]  # b, then a

    @pytest.mark.parametrize(
        "product, drawn",
        [
            # 1 in every row, every other element a greedy generator, and
            # the first of them fails Light's test
            (lambda x, y: 0, [1]),
            # a left-zero monoid: associative, every other element a greedy
            # generator, and 1 in no other row, so the search never starts
            (lambda x, y: x, []),
        ],
        ids=["products-are-1", "left-zero"],
    )
    def test_generators_drawn_stay_within_log2_order(self, monkeypatch, product, drawn):
        # a table that is not a group may have a greedy generating set of
        # nearly every element; the validator draws from it only while
        # each generator passes, and then the group built doubles
        order = 512
        table = [
            [x if y == 0 else y if x == 0 else product(x, y) for y in range(order)]
            for x in range(order)
        ]
        found = []
        search = groups._generators

        def counted(*args):
            for s in search(*args):
                found.append(s)
                assert len(found) <= 9  # log2(512) passing, then one more
                yield s

        monkeypatch.setattr(groups, "_generators", counted)
        assert isinstance(validated(table), ValueError)
        assert found == drawn
