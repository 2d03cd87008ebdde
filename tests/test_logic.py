"""Logic values, generator functions, table families, classification."""

import itertools
import math
import time

import pytest
from hypothesis import given, strategies as st

from cyclogic import logic
from oracles import (
    PRINTED_BINARY_TABLES,
    PRINTED_UNARY_TABLES,
    binary_exponents,
    unary_exponents,
)


class TestValues:
    def test_make_value_examples(self):
        assert logic.make_value(2, 0) == logic.LogicValue(2, 0)
        assert logic.make_value(2, 3) == logic.LogicValue(2, 1)
        assert logic.make_value(5, -1) == logic.LogicValue(5, 4)

    def test_arity_too_small(self):
        with pytest.raises(ValueError, match="arity too small"):
            logic.make_value(1, 0)

    @given(st.integers(2, 60), st.integers(-10**9, 10**9))
    def test_make_value_normalizes(self, n, a):
        v = logic.make_value(n, a)
        assert 0 <= v.exponent < n
        assert v.exponent == a % n

    def test_to_complex_examples(self):
        assert logic.to_complex(logic.LogicValue(2, 0)) == (1.0, 0.0)
        re, im = logic.to_complex(logic.LogicValue(2, 1))
        assert abs(re + 1) < 1e-12 and abs(im) < 1e-12
        re, im = logic.to_complex(logic.LogicValue(4, 1))
        assert abs(re) < 1e-12 and abs(im - 1) < 1e-12

    def test_to_complex_unit_modulus(self):
        for n in range(2, 40):
            for e in range(n):
                re, im = logic.to_complex(logic.LogicValue(n, e))
                assert abs(re * re + im * im - 1) <= 1e-12

    def test_to_complex_shift_matches_complex_multiplication(self):
        for n in range(2, 25):
            for e in range(n):
                for k in range(n):
                    v = logic.LogicValue(n, e)
                    shifted = logic.to_complex(logic.cyclic_shift(n, k, v))
                    a = complex(*logic.to_complex(v))
                    b = complex(*logic.to_complex(logic.LogicValue(n, k)))
                    prod = a * b
                    assert abs(shifted[0] - prod.real) <= 1e-9
                    assert abs(shifted[1] - prod.imag) <= 1e-9


class TestGenerators:
    def test_product_examples(self):
        assert logic.exponent_product(2, 1, 1) == logic.LogicValue(2, 1)
        assert logic.exponent_product(2, 0, 1) == logic.LogicValue(2, 0)
        assert logic.exponent_product(3, 2, 2) == logic.LogicValue(3, 1)

    def test_product_range_errors(self):
        with pytest.raises(ValueError):
            logic.exponent_product(2, 2, 0)
        with pytest.raises(ValueError):
            logic.exponent_product(2, 0, -1)

    def test_shift_examples(self):
        assert logic.cyclic_shift(2, 1, logic.LogicValue(2, 1)) == logic.LogicValue(2, 0)
        assert logic.cyclic_shift(2, 0, logic.LogicValue(2, 0)) == logic.LogicValue(2, 0)
        assert logic.cyclic_shift(3, 2, logic.LogicValue(3, 2)) == logic.LogicValue(3, 1)

    def test_shift_errors(self):
        with pytest.raises(ValueError, match="modulus mismatch"):
            logic.cyclic_shift(3, 0, logic.LogicValue(2, 0))
        with pytest.raises(ValueError):
            logic.cyclic_shift(3, 3, logic.LogicValue(3, 0))

    def test_shift_is_a_bijection_and_composes_additively(self):
        for n in range(2, 7):
            values = [logic.LogicValue(n, e) for e in range(n)]
            for k in range(n):
                image = {logic.cyclic_shift(n, k, v) for v in values}
                assert len(image) == n
            for k1, k2, v in itertools.product(range(n), range(n), values):
                two_step = logic.cyclic_shift(n, k2, logic.cyclic_shift(n, k1, v))
                assert two_step == logic.cyclic_shift(n, (k1 + k2) % n, v)

    def test_product_commutes_and_zero_annihilates(self):
        for n in range(2, 7):
            for a in range(n):
                assert logic.exponent_product(n, a, 0) == logic.LogicValue(n, 0)
                for b in range(n):
                    assert logic.exponent_product(n, a, b) == logic.exponent_product(n, b, a)


class TestTables:
    def test_printed_unary_tables_reproduced(self):
        for flat, expected in PRINTED_UNARY_TABLES.items():
            table = logic.unary_from_index(logic.UnaryIndex(2, flat))
            assert unary_exponents(table) == expected

    def test_printed_binary_tables_reproduced(self):
        for flat, expected in PRINTED_BINARY_TABLES.items():
            idx = logic.BinaryIndex(2, (flat[:2], flat[2:]))
            table = logic.binary_from_index(idx)
            assert binary_exponents(table) == expected

    def test_unary_ternary_example(self):
        # direct evaluation of (a + i_a) mod 3 for a = 0, 1, 2
        table = logic.unary_from_index(logic.UnaryIndex(3, (0, 2, 1)))
        assert unary_exponents(table) == (0, 0, 0)

    def test_binary_ternary_all_zero_corner(self):
        table = logic.binary_from_index(logic.BinaryIndex(3, ((0,) * 3,) * 3))
        assert table.outputs[2][2] == 1  # 2*2 mod 3

    def test_unary_cells_equal_the_generators(self):
        for n in range(2, 6):
            for idx, table in logic.enumerate_unary(n):
                assert table.outputs == tuple(
                    logic.cyclic_shift(n, idx.indices[a], logic.LogicValue(n, a)).exponent
                    for a in range(n)
                )

    def test_binary_cells_equal_the_generators(self):
        for n in range(2, 4):
            for idx, table in logic.enumerate_binary(n):
                assert table.outputs == tuple(
                    tuple(
                        logic.cyclic_shift(
                            n, idx.matrix[a][b], logic.exponent_product(n, a, b)
                        ).exponent
                        for b in range(n)
                    )
                    for a in range(n)
                )

    @pytest.mark.parametrize("modulus, outputs", [
        (2, (0, 2)), (2, (-1, 0)), (2, (0,)), (2, (0, 0, 0)), (1, (0,)),
    ])
    def test_unary_table_rejects_outside_input(self, modulus, outputs):
        with pytest.raises(ValueError):
            logic.UnaryTable(modulus, outputs)

    @pytest.mark.parametrize("modulus, outputs", [
        (2, ((0, 0), (0, 2))), (2, ((0, -1), (0, 0))), (2, ((0, 0),)),
        (2, ((0, 0), (0, 0), (0, 0))), (2, ((0, 0), (0,))), (2, ((0, 0), (0, 0, 0))),
        (1, ((0,),)),
    ])
    def test_binary_table_rejects_outside_input(self, modulus, outputs):
        with pytest.raises(ValueError):
            logic.BinaryTable(modulus, outputs)

    def test_index_invariants(self):
        with pytest.raises(ValueError):
            logic.UnaryIndex(3, (0, 1))
        with pytest.raises(ValueError):
            logic.UnaryIndex(2, (0, 2))
        with pytest.raises(ValueError):
            logic.BinaryIndex(2, ((0, 0),))

    def test_apply_unary(self):
        identity = logic.unary_from_index(logic.UnaryIndex(2, (0, 0)))
        assert logic.apply_unary(identity, logic.LogicValue(2, 1)) == logic.LogicValue(2, 1)
        with pytest.raises(ValueError):
            logic.apply_unary(identity, logic.LogicValue(3, 1))

    def test_apply_binary(self):
        all_zero = logic.binary_from_index(logic.BinaryIndex(2, ((0, 0), (0, 0))))
        assert logic.apply_binary(
            all_zero, logic.LogicValue(2, 1), logic.LogicValue(2, 1)
        ) == logic.LogicValue(2, 1)
        tern = logic.binary_from_index(logic.BinaryIndex(3, ((0,) * 3,) * 3))
        assert logic.apply_binary(
            tern, logic.LogicValue(3, 2), logic.LogicValue(3, 2)
        ) == logic.LogicValue(3, 1)
        with pytest.raises(ValueError):
            logic.apply_binary(all_zero, logic.LogicValue(3, 0), logic.LogicValue(2, 0))


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in logic.enumerate_unary(2)) == 4
        assert sum(1 for _ in logic.enumerate_unary(3)) == 27
        assert sum(1 for _ in logic.enumerate_binary(2)) == 16

    def test_lexicographic_from_all_zeros(self):
        unary = [idx.indices for idx, _ in logic.enumerate_unary(3)]
        assert unary[0] == (0, 0, 0)
        assert unary == sorted(unary)
        assert len(set(unary)) == len(unary)
        first_binary_idx, _ = next(iter(logic.enumerate_binary(2)))
        assert first_binary_idx.matrix == ((0, 0), (0, 0))

    def test_guards(self):
        with pytest.raises(logic.EnumerationTooLarge):
            logic.enumerate_unary(9)
        with pytest.raises(logic.EnumerationTooLarge):
            logic.enumerate_binary(4)
        # the override returns a live stream without materializing it
        stream = logic.enumerate_binary(4, allow_large=True)
        idx, _ = next(stream)
        assert idx.matrix == ((0, 0, 0, 0),) * 4

    def test_distinctness_small(self):
        assert logic.distinctness_report(2, "unary") == (4, 4)
        assert logic.distinctness_report(3, "unary") == (27, 27)
        assert logic.distinctness_report(2, "binary") == (16, 16)

    # distinctness_report counts in closed form; these build and hash every
    # table of the family, at the sizes of the acceptance suite.
    def test_unary_injective_up_to_n5(self):
        for n in range(2, 6):
            tables = [table for _, table in logic.enumerate_unary(n)]
            assert len(tables) == len(set(tables)) == n**n
            assert logic.distinctness_report(n, "unary") == (n**n, n**n)

    def test_binary_injective_up_to_n3(self):
        for n in range(2, 4):
            tables = [table for _, table in logic.enumerate_binary(n)]
            assert len(tables) == len(set(tables)) == n ** (n * n)
            assert logic.distinctness_report(n, "binary") == (n ** (n * n),) * 2

    def test_distinctness_is_closed_form(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("distinctness_report built a table")

        for name in ("enumerate_unary", "enumerate_binary",
                     "unary_from_index", "binary_from_index"):
            monkeypatch.setattr(logic, name, refuse)
        start = time.perf_counter()
        assert logic.distinctness_report(9, "unary", allow_large=True) == (9**9, 9**9)
        assert logic.distinctness_report(4, "binary", allow_large=True) == (4**16, 4**16)
        assert time.perf_counter() - start < 0.5

    def test_guard_order_is_family_arity_size(self):
        with pytest.raises(ValueError, match="unknown family 'ternary'") as exc:
            logic.distinctness_report(1, "ternary")
        assert not isinstance(exc.value, logic.EnumerationTooLarge)
        with pytest.raises(ValueError, match="arity too small"):
            logic.distinctness_report(1, "binary")
        with pytest.raises(ValueError, match="arity too small"):
            logic.enumerate_binary(1)
        with pytest.raises(logic.EnumerationTooLarge,
                           match=r"unary enumeration for n=9 yields 9\^9 tables"):
            logic.distinctness_report(9, "unary")
        with pytest.raises(logic.EnumerationTooLarge,
                           match=r"binary enumeration for n=4 yields 4\^16 tables"):
            logic.enumerate_binary(4)

    def test_binary_family_is_every_boolean_function(self):
        generated = {
            binary_exponents(table) for _, table in logic.enumerate_binary(2)
        }
        everything = {
            ((a, b), (c, d))
            for a, b, c, d in itertools.product((0, 1), repeat=4)
        }
        assert generated == everything


class TestClassification:
    def test_unary_examples(self):
        conv = logic.TruthConvention(0)
        identity = logic.unary_from_index(logic.UnaryIndex(2, (0, 0)))
        assert logic.classify_unary(identity, conv) == "identity"
        negation = logic.unary_from_index(logic.UnaryIndex(2, (1, 1)))
        assert logic.classify_unary(negation, conv) == "negation"
        assert logic.classify_unary(negation, logic.TruthConvention(1)) == "negation"
        const = logic.unary_from_index(logic.UnaryIndex(2, (0, 1)))
        assert logic.classify_unary(const, conv) == "constant-true"

    def test_unary_multiset(self):
        names = sorted(
            logic.classify_unary(t) for _, t in logic.enumerate_unary(2)
        )
        assert names == ["constant-false", "constant-true", "identity", "negation"]

    def test_binary_examples(self):
        conv = logic.TruthConvention(0)
        all_zero = logic.binary_from_index(logic.BinaryIndex(2, ((0, 0), (0, 0))))
        assert logic.classify_binary(all_zero, conv) == "or"
        all_one = logic.binary_from_index(logic.BinaryIndex(2, ((1, 1), (1, 1))))
        assert logic.classify_binary(all_one, conv) == "nor"
        nand_idx = logic.BinaryIndex(2, ((1, 0), (0, 1)))
        nand_table = logic.binary_from_index(nand_idx)
        assert binary_exponents(nand_table) == ((1, 0), (0, 0))
        assert logic.classify_binary(nand_table, conv) == "nand"

    def test_not_boolean(self):
        tern = logic.unary_from_index(logic.UnaryIndex(3, (0, 0, 0)))
        with pytest.raises(ValueError, match="not boolean"):
            logic.classify_unary(tern)
        tern2 = logic.binary_from_index(logic.BinaryIndex(3, ((0,) * 3,) * 3))
        with pytest.raises(ValueError, match="not boolean"):
            logic.classify_binary(tern2)

    @pytest.mark.parametrize("true_exponent", [0, 1])
    def test_classification_is_a_bijection(self, true_exponent):
        conv = logic.TruthConvention(true_exponent)
        names = [logic.classify_binary(t, conv) for _, t in logic.enumerate_binary(2)]
        assert sorted(names) == sorted(logic.BINARY_NAMES)
        unary_names = [logic.classify_unary(t, conv) for _, t in logic.enumerate_unary(2)]
        assert sorted(unary_names) == sorted(logic.UNARY_NAMES)


class TestCatalog:
    def test_every_arity2_index_is_cataloged(self):
        for idx, _ in logic.enumerate_unary(2):
            assert logic.catalog_label("unary", idx.indices) is not None
        for idx, _ in logic.enumerate_binary(2):
            flat = idx.matrix[0] + idx.matrix[1]
            assert logic.catalog_label("binary", flat) is not None

    def test_unary_report(self):
        report = logic.label_report("unary")
        agreement = {check.index: check.agrees for check in report}
        assert agreement == {
            (0, 0): True,   # self projection really is the identity
            (0, 1): False,  # constant-true labeled as if it were always false
            (1, 0): False,  # constant-false labeled as if it were always true
            (1, 1): True,   # complementation really is negation
        }

    def test_binary_report_disagreements(self):
        report = logic.label_report("binary")
        assert len(report) == 16
        disagreements = [c for c in report if not c.agrees]
        assert disagreements, "the catalog is known to disagree with the tables"
        agreeing = {c.index for c in report if c.agrees}
        assert agreeing == {(0, 1, 0, 0), (0, 1, 1, 1), (1, 0, 0, 0)}

    def test_disagreements_under_both_conventions(self):
        for true_exponent in (0, 1):
            report = logic.label_report("binary", logic.TruthConvention(true_exponent))
            assert any(not c.agrees for c in report)

    def test_all_zero_flagged_as_or_vs_nand(self):
        report = {c.index: c for c in logic.label_report("binary")}
        check = report[(0, 0, 0, 0)]
        assert check.computed == "or"
        assert check.catalog == "nand"
        assert not check.agrees

    def test_check_label(self):
        assert logic.check_label("binary", (0, 0, 0, 0), "or") == logic.LabelCheck(
            (0, 0, 0, 0), "or", "nand", "nand", False
        )
        assert logic.check_label("unary", (1, 1), "negation").agrees
        assert logic.check_label("unary", (0, 1, 2), "negation") is None

    def test_label_report_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family 'ternary'"):
            logic.label_report("ternary")


class TestHashingAndEquality:
    def test_value_equality_is_structural(self):
        assert logic.LogicValue(2, 1) == logic.LogicValue(2, 1)
        assert logic.LogicValue(2, 1) != logic.LogicValue(4, 1)
        assert len({logic.LogicValue(2, 1), logic.LogicValue(2, 1)}) == 1

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            logic.LogicValue(2, 2)
        with pytest.raises(ValueError):
            logic.LogicValue(2, -1)
