"""The value types: construction, equality and hashing by fields,
immutability and repr, for each of the eight, and the modules a bare
`import u6n_ncg.cli` loads."""

import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from u6n_ncg import (
    Caps,
    FiniteGroup,
    Graph,
    Prediction,
    ReportEntry,
    ResolvingSequence,
    U6nElement,
    VerificationReport,
    u6n_group,
)
from u6n_ncg.polynomials import IntPolynomial

C3_CELLS = array("H", [(x + y) % 3 for x in range(3) for y in range(3)]).tobytes()
P3 = ("u", "v", "w"), (0b010, 0b101, 0b010)

# each type: its fields in order, a value for each, and another value for
# each that differs from the first
SAMPLES = {
    Caps: (("resolving", "chromatic", "indep", "metric"), (16, 40, 24, 20), (15, 39, 23, 19)),
    Prediction: (("value", "applies"), (IntPolynomial.monomial(2, 5), True), (None, False)),
    ResolvingSequence: (("beta", "counts"), (2, (6, 5, 1)), (3, (6, 5))),
    ReportEntry: (
        ("name", "predicted", "computed", "status", "error"),
        ("alpha", 2, 2, "match", None),
        ("tau", 3, None, "error", "ValueError: x"),
    ),
    VerificationReport: (
        ("n", "entries"),
        (1, (ReportEntry("alpha", 2, 2, "match"),)),
        (2, ()),
    ),
    U6nElement: (("a_exp", "b_exp"), (1, 2), (0, 1)),
    # C_3, and other labels, C_3's rows 0 and 1 swapped, another identity
    FiniteGroup: (
        ("labels", "cells", "identity"),
        (("e", "g", "g2"), C3_CELLS, 0),
        (("e", "h", "h2"), C3_CELLS[6:12] + C3_CELLS[:6] + C3_CELLS[12:], 1),
    ),
    # a path's labels relabelled, and its rows those of the path v, u, w
    Graph: (("labels", "adj"), P3, (("x", "v", "w"), (0b110, 0b001, 0b001))),
}


class TestConstruction:
    @pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
    def test_positional_and_keyword_agree(self, cls):
        fields, values, _ = SAMPLES[cls]
        value = cls(*values)
        assert value == cls(**dict(zip(fields, values)))
        assert tuple(getattr(value, f) for f in fields) == values

    def test_caps_defaults(self):
        assert Caps() == Caps(resolving=16, chromatic=40, indep=24, metric=20)
        assert Caps(metric=7) == Caps(16, 40, 24, 7)

    def test_report_entry_error_defaults_to_none(self):
        assert ReportEntry("alpha", 2, 2, "match").error is None
        assert ReportEntry("alpha", 2, 2, "match") == ReportEntry("alpha", 2, 2, "match", None)

    def test_records_are_tuples_of_their_fields(self):
        # the documented cost of the records being named tuples
        assert Caps() == (16, 40, 24, 20)
        assert Caps()._replace(metric=100) == Caps(metric=100)
        assert list(ResolvingSequence(2, (1,))) == [2, (1,)]


class TestEquality:
    @pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
    def test_equal_fields_are_equal_and_hash_alike(self, cls):
        _, values, _ = SAMPLES[cls]
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
    def test_each_field_tells_values_apart(self, cls):
        fields, values, others = SAMPLES[cls]
        for i, field in enumerate(fields):
            changed = values[:i] + (others[i],) + values[i + 1 :]
            assert cls(*values) != cls(*changed), field

    def test_kept_values_do_not_enter_equality(self):
        g, h = u6n_group(3), u6n_group(3)
        g.center()  # g now keeps its commutation rows, h none
        assert g == h and hash(g) == hash(h)
        graph = Graph(*P3)
        graph._memo(lambda graph: 1)
        assert graph == Graph(*P3)

    def test_other_classes_are_never_equal(self):
        assert U6nElement(1, 2) != (1, 2)
        assert Graph(*P3) != P3
        assert FiniteGroup(*SAMPLES[FiniteGroup][1]) != SAMPLES[FiniteGroup][1]


class TestImmutability:
    @pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        fields, values, _ = SAMPLES[cls]
        value = cls(*values)
        for field in fields:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before

    @pytest.mark.parametrize(
        "value", [Caps(), U6nElement(0, 0), Graph(*P3)], ids=["Caps", "U6nElement", "Graph"]
    )
    def test_no_new_attribute(self, value):
        with pytest.raises(AttributeError):
            value.extra = 1


class TestRepr:
    def test_caps(self):
        assert repr(Caps()) == "Caps(resolving=16, chromatic=40, indep=24, metric=20)"

    def test_records_and_elements(self):
        assert repr(ReportEntry("alpha", 2, 2, "match")) == (
            "ReportEntry(name='alpha', predicted=2, computed=2, status='match', error=None)"
        )
        assert repr(ResolvingSequence(2, (6, 5, 1))) == (
            "ResolvingSequence(beta=2, counts=(6, 5, 1))"
        )
        assert repr(Prediction(1, True)) == "Prediction(value=1, applies=True)"
        assert repr(VerificationReport(3, ())) == "VerificationReport(n=3, entries=())"
        assert repr(U6nElement(1, 2)) == "U6nElement(a_exp=1, b_exp=2)"

    def test_graph_and_group(self):
        assert repr(Graph(*P3)) == "Graph(labels=('u', 'v', 'w'), adj=(2, 5, 2))"
        assert repr(u6n_group(2)) == "FiniteGroup(order=12)"


class TestRefusals:
    def test_element_exponents(self):
        with pytest.raises(ValueError, match=r"^a exponent must be non-negative, got -1$"):
            U6nElement(-1, 0)
        with pytest.raises(ValueError, match=r"^b exponent must be 0, 1 or 2, got 3$"):
            U6nElement(0, 3)

    @pytest.mark.parametrize(
        "labels, adj, message",
        [
            (("u", "v"), (0,), "1 adjacency rows for 2 labels"),
            (("u", "u"), (0, 0), "vertex labels must be unique"),
            (("u", "v"), (0b100, 0), "adjacency row 0 has bits outside the vertex range"),
            (("u", "v"), (-1, 0), "adjacency row 0 has bits outside the vertex range"),
            (("u", "v"), (0b01, 0), "loop at vertex 0 ('u')"),
            (("u", "v"), (0b10, 0), "asymmetric adjacency between 0 and 1"),
        ],
    )
    def test_graph(self, labels, adj, message):
        with pytest.raises(ValueError) as caught:
            Graph(labels, adj)
        assert str(caught.value) == message


def test_the_cli_imports_no_class_or_annotation_machinery():
    # python -S keeps site's .pth files from preloading any of them
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import u6n_ncg.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & sys.modules.keys()))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"
