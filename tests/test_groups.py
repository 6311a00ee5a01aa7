import json
import random
import tracemalloc
from functools import cache

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
    @pytest.mark.parametrize("n", [*range(1, 14), 32, 57])
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
    """A FiniteGroup on the table, built without validation (which takes
    order^3 steps up to order 200): each table given here is a group by
    construction."""
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
        # the generators b and a, and 900 / 150 = 6 cosets of the center:
        # at most 8 rows are computed by definition, the rest handed on
        computed = []
        by_definition = groups._commutation_row

        def counted(cells, order, x):
            computed.append(x)
            return by_definition(cells, order, x)

        monkeypatch.setattr(groups, "_commutation_row", counted)
        g = u6n_group(150)
        assert g._commutation_rows == row_by_row_commutation(g)
        assert len(computed) <= 2 + 900 // 150


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
