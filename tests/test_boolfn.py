import operator
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aesbool.anf import Anf
from aesbool.boolfn import (
    MAX_ARITY,
    TruthTable,
    algebraic_degree,
    anf_from_truth_table,
    evaluate,
    is_balanced,
    mobius_transform,
    random_truth_table,
    support,
    truth_table_from_anf,
    weight,
)

MAJPARMI3 = "00010111"


def anf_sets(anf):
    return {tuple(sorted(t)) for t in anf.terms_as_sets()}


# ---------------------------------------------------------------------------
# TruthTable basics

def test_from_string_round_trip():
    tt = TruthTable.from_string(MAJPARMI3)
    assert tt.arity == 3
    assert tt.to_string() == MAJPARMI3


@pytest.mark.parametrize("bad", ["", "1", "012", "0101010", "2222"])
def test_from_string_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        TruthTable.from_string(bad)


def test_outputs_must_be_bits():
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 2, 1])
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 1])


@pytest.mark.parametrize("make, message", [
    (lambda: TruthTable(1, np.array([0, 257])), "outputs must be 0 or 1"),
    (lambda: TruthTable(1, np.array([0, 256])), "outputs must be 0 or 1"),
    (lambda: TruthTable(1, [0, 1.5]), "outputs must be 0 or 1"),
    (lambda: TruthTable(1, [0, -1]), "outputs must be 0 or 1"),
    (lambda: TruthTable.from_string(""), "length 0 is not a power of two >= 2"),
], ids=["257", "256", "1.5", "-1", "empty-string"])
def test_outputs_are_checked_before_the_cast(make, message):
    with pytest.raises(ValueError) as got:
        make()
    assert str(got.value) == message


@pytest.mark.parametrize("bits", [[False, True], [0.0, 1.0], np.array([0, 1], dtype=np.int64),
                                  np.array([1, 0], dtype=np.int8)])
def test_outputs_equal_to_0_or_1_pass_in_any_dtype(bits):
    tt = TruthTable(1, bits)
    assert tt.bits.dtype == np.uint8 and tt.to_string() == "".join(str(int(b)) for b in bits)


def test_arity_cap():
    with pytest.raises(ValueError):
        TruthTable(MAX_ARITY + 1, np.zeros(1 << (MAX_ARITY + 1), dtype=np.uint8))


@pytest.mark.parametrize("n", [1, 4, 12])
def test_to_string_matches_the_per_bit_join(n):
    tt = TruthTable(n, np.random.default_rng(1_000 + n).integers(0, 2, 1 << n, dtype=np.uint8))
    assert tt.to_string() == "".join("1" if b else "0" for b in tt.bits)
    assert TruthTable.from_string(tt.to_string()) == tt


def test_tables_are_immutable():
    tt = TruthTable.from_string("0110")
    with pytest.raises(ValueError):
        tt.bits[0] = 1


# ---------------------------------------------------------------------------
# Mobius transform

def test_mobius_majparmi3():
    assert mobius_transform(TruthTable.from_string(MAJPARMI3)).to_string() == "00010110"


def test_mobius_all_zero():
    for n in (1, 3, 6):
        z = TruthTable(n, np.zeros(1 << n, dtype=np.uint8))
        assert mobius_transform(z) == z


def test_mobius_docstring_vector():
    got = mobius_transform(TruthTable.from_string("1010011101010100"))
    assert got.to_string() == "1100101110001010"


def test_mobius_does_not_mutate_input():
    tt = TruthTable.from_string("1010011101010100")
    mobius_transform(tt)
    assert tt.to_string() == "1010011101010100"


def _all_tables(n):
    rows = np.arange(1 << (1 << n), dtype=np.uint32)
    cols = np.arange(1 << n, dtype=np.uint32)
    return ((rows[:, None] >> cols[None, :]) & 1).astype(np.uint8)[:, ::-1]


def _subset_matrix(n):
    # M[u, v] = 1 iff v's index bits are a subset of u's
    idx = np.arange(1 << n, dtype=np.uint32)
    return ((idx[:, None] & idx[None, :]) == idx[None, :]).astype(np.uint8)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mobius_matches_naive_subset_sum_exhaustively(n):
    tables = _all_tables(n)
    naive = (tables @ _subset_matrix(n).T) % 2
    for row, expect in zip(tables, naive):
        got = mobius_transform(TruthTable(n, row))
        assert np.array_equal(got.bits, expect)


@pytest.mark.parametrize("n", range(5, 13))
def test_mobius_involution_random(n):
    rng = random.Random(1000 + n)
    for _ in range(1000):
        tt = random_truth_table(n, rng)
        assert mobius_transform(mobius_transform(tt)) == tt


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mobius_involution_exhaustive(n):
    for row in _all_tables(n):
        tt = TruthTable(n, row)
        assert mobius_transform(mobius_transform(tt)) == tt


# ---------------------------------------------------------------------------
# ANF conversions

def test_anf_majparmi3():
    anf = anf_from_truth_table(TruthTable.from_string(MAJPARMI3))
    assert anf_sets(anf) == {(1, 2), (0, 2), (0, 1)}


def test_anf_worked_three_variable_example():
    # f = 1 at rows 001, 101, 111; expanding the three atomic products
    # (1^x0)(1^x1)x2 ^ x0(1^x1)x2 ^ x0x1x2 reduces to x2 ^ x1x2 ^ x0x1x2.
    anf = anf_from_truth_table(TruthTable.from_string("01000101"))
    assert anf_sets(anf) == {(2,), (1, 2), (0, 1, 2)}


def test_anf_constant_one():
    anf = anf_from_truth_table(TruthTable.from_string("1111"))
    assert anf_sets(anf) == {()}


def test_anf_zero_function():
    anf = anf_from_truth_table(TruthTable.from_string("0000"))
    assert anf.is_zero


def test_truth_table_from_anf_majparmi3():
    anf = Anf.from_terms(3, [(1, 2), (0, 2), (0, 1)])
    assert truth_table_from_anf(anf, 3).to_string() == MAJPARMI3


def test_truth_table_from_constant():
    assert truth_table_from_anf(Anf.one(2), 2).to_string() == "1111"


def test_truth_table_from_anf_rejects_wide_variables():
    with pytest.raises(ValueError):
        truth_table_from_anf(Anf.variable(8, 5), 3)


def test_truth_table_from_anf_names_the_highest_variable_beyond_the_arity():
    wide = Anf.from_terms(8, [(0, 1), (2, 6), (5,), ()])
    with pytest.raises(ValueError, match=r"^ANF uses variable 6, outside arity 3$"):
        truth_table_from_anf(wide, 3)
    # a wider space whose used variables fit the arity is accepted
    narrow = Anf.from_terms(8, [(0, 2), (1,), ()])
    assert truth_table_from_anf(narrow, 3) == truth_table_from_anf(
        Anf.from_terms(3, [(0, 2), (1,), ()]), 3)
    assert truth_table_from_anf(Anf.zero(30), 1).to_string() == "00"


def test_round_trip_random_six_variable_tables():
    rng = random.Random(42)
    for _ in range(64):
        tt = random_truth_table(6, rng)
        assert truth_table_from_anf(anf_from_truth_table(tt), 6) == tt


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trip_exhaustive_small(n):
    for row in _all_tables(n):
        tt = TruthTable(n, row)
        assert truth_table_from_anf(anf_from_truth_table(tt), n) == tt


@pytest.mark.parametrize("n", range(5, 13))
def test_round_trip_random_medium(n):
    rng = random.Random(2000 + n)
    for _ in range(250):
        tt = random_truth_table(n, rng)
        assert truth_table_from_anf(anf_from_truth_table(tt), n) == tt


# ---------------------------------------------------------------------------
# converters against oracles that do not use the transform's index reversal

def _row_assignment(k, n):
    """Truth-table row k as an evaluate_mask assignment (bit j = x_j)."""
    return sum(((k >> (n - 1 - j)) & 1) << j for j in range(n))


def _random_sparse_anf(n, rng):
    """A handful of monomials of degree at most 3, plus maybe the constant."""
    terms = [rng.sample(range(n), rng.randint(0, min(n, 3))) for _ in range(rng.randint(1, 12))]
    return Anf.from_terms(n, terms)


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_truth_table_from_anf_matches_evaluate_mask(n):
    rng = random.Random(3000 + n)
    for _ in range(10):
        anf = _random_sparse_anf(n, rng)
        expected = [anf.evaluate_mask(_row_assignment(k, n)) for k in range(1 << n)]
        assert truth_table_from_anf(anf, n).bits.tolist() == expected


def test_truth_table_from_anf_matches_evaluate_mask_at_max_arity():
    rng = random.Random(3024)
    anf = _random_sparse_anf(MAX_ARITY, rng)
    bits = truth_table_from_anf(anf, MAX_ARITY).bits
    for k in [0, (1 << MAX_ARITY) - 1, *(rng.getrandbits(MAX_ARITY) for _ in range(2000))]:
        assert bits[k] == anf.evaluate_mask(_row_assignment(k, MAX_ARITY)), k


def _anf_terms_per_coefficient(tt):
    """Reference: read the transform one coefficient at a time, mapping
    row bit n-1-j to variable j."""
    n = tt.arity
    terms = set()
    for u in np.flatnonzero(mobius_transform(tt).bits):
        terms.add(sum(1 << j for j in range(n) if (int(u) >> (n - 1 - j)) & 1))
    return frozenset(terms)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_anf_from_truth_table_matches_per_coefficient_reference(n):
    rng = random.Random(4000 + n)
    for _ in range(20):
        tt = random_truth_table(n, rng)
        assert anf_from_truth_table(tt).terms == _anf_terms_per_coefficient(tt)


# ---------------------------------------------------------------------------
# the packed transform against the byte butterfly it replaced

def _reference_mobius(bits):
    """The halving butterfly on one uint8 per row, one pass per variable."""
    a = bits.copy()
    half = 1
    while half < a.size:
        a = a.reshape(-1, 2 * half)
        a[:, half:] ^= a[:, :half]
        half *= 2
    return a.reshape(-1)


def _reference_reverse_variables(bits, arity):
    """The whole table with index bit j moved to bit n-1-j: rows <-> masks."""
    return bits.reshape((2,) * arity).transpose().ravel()


def _reference_terms(bits, arity):
    coefficients = _reference_reverse_variables(_reference_mobius(bits), arity)
    return frozenset(np.flatnonzero(coefficients).tolist())


def _reference_table(terms, arity):
    coefficients = np.zeros(1 << arity, dtype=np.uint8)
    coefficients[list(terms)] = 1
    return _reference_mobius(_reference_reverse_variables(coefficients, arity))


@pytest.mark.parametrize("n", [*range(1, 13), 20, 24])
def test_conversions_match_the_byte_butterfly_reference(n):
    rng = np.random.default_rng(11_000 + n)
    for _ in range(20 if n <= 12 else 1):
        bits = rng.integers(0, 2, 1 << n, dtype=np.uint8)
        tt = TruthTable(n, bits)
        assert np.array_equal(mobius_transform(tt).bits, _reference_mobius(bits))
        if n <= 20:  # a random table at 24 has ~2^23 terms
            terms = _reference_terms(bits, n)
            assert anf_from_truth_table(tt).terms == terms
            assert np.array_equal(truth_table_from_anf(Anf(n, _terms=terms), n).bits, bits)
    # sparse ANFs reach every arity, and their tables have few terms back
    sparse_rng = random.Random(11_000 + n)
    for _ in range(5 if n <= 12 else 2):
        anf = _random_sparse_anf(n, sparse_rng)
        table = _reference_table(anf.terms, n)
        assert np.array_equal(truth_table_from_anf(anf, n).bits, table)
        assert anf_from_truth_table(TruthTable(n, table)).terms == anf.terms


@st.composite
def tables(draw):
    n = draw(st.integers(1, 12))
    size = max(1, (1 << n) // 8)
    raw = draw(st.binary(min_size=size, max_size=size))
    return n, np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=1 << n)


@given(tables())
def test_property_packed_transform_matches_the_reference(case):
    n, bits = case
    tt = TruthTable(n, bits)
    assert np.array_equal(mobius_transform(tt).bits, _reference_mobius(bits))
    assert anf_from_truth_table(tt).terms == _reference_terms(bits, n)


_ROW_POINTS = {n: [_row_assignment(k, n) for k in range(1 << n)] for n in range(1, 13)}


def _table_readers(anf, n):
    """What the readers of a dense ANF's table give: the term count, the
    degree, the value at every row and at all ones beyond the space, and
    the table."""
    return (anf.term_count(), anf.degree(), [anf.evaluate_mask(x) for x in _ROW_POINTS[n]],
            anf.evaluate_mask(-1), truth_table_from_anf(anf, n))


@st.composite
def narrow_tables(draw):
    """A table of n variables whose last ``ignored`` variables, the low
    bits of its row, it does not read: each row repeated 2^ignored times."""
    n, bits = draw(tables())
    ignored = draw(st.integers(0, n - 1))
    return n, ignored, np.repeat(bits[:1 << (n - ignored)], 1 << ignored)


@given(narrow_tables())
def test_property_dense_anf_agrees_with_its_term_set_twin(case):
    n, ignored, bits = case
    twin = Anf(n, _terms=frozenset(_reference_terms(bits, n)))
    # the twin's values are the table's rows
    expected = _table_readers(twin, n)
    assert expected[2] == bits.tolist() and expected[4] == TruthTable(n, bits)
    dense = anf_from_truth_table(TruthTable(n, bits))
    table = dense._table.copy()
    assert _table_readers(dense, n) == expected
    # the readers left the set unbuilt and the table as it was
    assert dense._table is not None and np.array_equal(dense._table, table)
    # above its width, and at the arity of the variables it uses, below it
    used = n - ignored
    for arity, table in ((n + 1, np.repeat(bits, 2)), (used, bits[::1 << ignored])):
        dense = anf_from_truth_table(TruthTable(n, bits))
        assert truth_table_from_anf(dense, arity) == truth_table_from_anf(twin, arity) \
            == TruthTable(arity, table)
    # each comparison derives the set of a fresh dense ANF beside its
    # table, which stays held as it was
    for same in (operator.eq, lambda a, b: hash(a) == hash(b), lambda a, b: (a ^ b).is_zero,
                 lambda a, b: a ^ Anf.one(n) == b ^ Anf.one(n),
                 lambda a, b: np.array_equal(a.bit_rows(), b.bit_rows())):
        dense = anf_from_truth_table(TruthTable(n, bits))
        held = dense._table.copy()
        assert same(dense, twin)
        assert dense._table.tobytes() == held.tobytes() and dense.terms == twin.terms
    assert _table_readers(dense, n) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_held_table_is_the_packed_transform_with_zero_pad_bits(n):
    # every table up to 3 variables, in one part-filled or whole byte; the
    # one-word int path up to 6; the numpy path from 7
    cases = _all_tables(n) if n <= 3 else np.random.default_rng(13_000 + n).integers(
        0, 2, (50, 1 << n), dtype=np.uint8)
    for bits in cases:
        anf = anf_from_truth_table(TruthTable(n, bits))
        assert anf._table.shape == (max(1, (1 << n) // 8),)
        # packbits pads with zero bits, so the pad bits must be zero too
        assert np.array_equal(anf._table, np.packbits(_reference_mobius(bits), bitorder="little"))
        assert truth_table_from_anf(anf, n).bits.tolist() == bits.tolist()
        assert [anf.evaluate_mask(x) for x in _ROW_POINTS[n]] == bits.tolist()
        assert anf.terms == _reference_terms(bits, n)


def test_evaluate_mask_reads_a_held_table_of_20_variables():
    bits = np.random.default_rng(20).integers(0, 2, 1 << 20, dtype=np.uint8)
    anf = anf_from_truth_table(TruthTable(20, bits))
    table = anf._table.copy()
    assert len(table) == 131_072
    # all zeros reads only the constant coefficient, all ones every one
    assert anf.evaluate_mask(0) == bits[0] == table[0] & 1
    assert anf.evaluate_mask((1 << 20) - 1) == anf.evaluate_mask(-1) == bits[-1] == anf.term_count() & 1
    # each variable alone, and all but it
    for j in range(20):
        row = 1 << (19 - j)
        assert anf.evaluate_mask(1 << j) == bits[row], j
        assert anf.evaluate_mask(~(1 << j)) == bits[~row], j
    assert anf._table is not None and np.array_equal(anf._table, table)


def test_round_trip_through_a_table_leaves_the_term_set_unbuilt():
    tt = TruthTable(12, np.random.default_rng(12).integers(0, 2, 1 << 12, dtype=np.uint8))
    anf = anf_from_truth_table(tt)
    count = anf.term_count()
    # twice: the second call sees the table the first one read
    assert truth_table_from_anf(anf, 12) == tt and truth_table_from_anf(anf, 12) == tt
    assert anf._table is not None and anf.term_count() == count
    assert repr(anf) == f"Anf(width=12, terms={count})" and anf._table is not None


@pytest.mark.parametrize("n", [1, 6, 7, 20])
def test_conversions_leave_inputs_alone_and_return_read_only_tables(n):
    # below one word, exactly one word, two words, many words
    tt = TruthTable(n, np.random.default_rng(12_000 + n).integers(0, 2, 1 << n, dtype=np.uint8))
    bits = tt.bits.copy()
    anf = anf_from_truth_table(tt)
    terms = set(anf.terms)
    results = [mobius_transform(tt), truth_table_from_anf(anf, n)]
    assert np.array_equal(tt.bits, bits) and anf.terms == terms
    assert results[1] == tt
    # an ANF that still holds its table is read from it, unchanged
    held = anf_from_truth_table(tt)
    table = held._table.copy()
    assert truth_table_from_anf(held, n) == tt
    assert held._table is not None and np.array_equal(held._table, table)
    for result in results:
        assert result.bits.dtype == np.uint8 and result.bits.shape == (1 << n,)
        assert not result.bits.flags.writeable
        assert not np.shares_memory(result.bits, tt.bits)
        with pytest.raises(ValueError):
            result.bits[0] ^= 1


def test_evaluate_majparmi3_row():
    anf = anf_from_truth_table(TruthTable.from_string(MAJPARMI3))
    assert evaluate(anf, (1, 1, 0)) == 1
    assert evaluate(anf, (1, 0, 0)) == 0


def test_evaluate_zero_anf():
    assert evaluate(Anf.zero(4), (1, 0, 1, 1)) == 0


def test_evaluate_requires_full_assignment():
    anf = Anf.from_terms(4, [(3,)])
    with pytest.raises(ValueError):
        evaluate(anf, (1, 0))


def test_weight_support_or_function():
    tt = TruthTable.from_string("0111")
    assert weight(tt) == 3
    assert support(tt) == {(0, 1), (1, 0), (1, 1)}
    assert not is_balanced(tt)


def test_xor_function_balanced():
    tt = TruthTable.from_string("0110")
    assert weight(tt) == 2
    assert is_balanced(tt)


def test_degrees():
    maj = anf_from_truth_table(TruthTable.from_string(MAJPARMI3))
    assert algebraic_degree(maj) == 2
    assert algebraic_degree(Anf.one(3)) == 0
    assert algebraic_degree(Anf.zero(3)) == -1


def test_weight_preserved_through_anf():
    rng = random.Random(7)
    for _ in range(50):
        tt = random_truth_table(5, rng)
        anf = anf_from_truth_table(tt)
        ones = sum(
            anf.evaluate(tuple((k >> (4 - j)) & 1 for j in range(5)))
            for k in range(32)
        )
        assert ones == weight(tt)


# ---------------------------------------------------------------------------
# the sixteen two-variable functions

TWO_VAR_TABLES = [
    "0000", "0001", "0010", "0011", "0100", "0101", "0110", "0111",
    "1000", "1001", "1010", "1011", "1100", "1101", "1110", "1111",
]


@pytest.mark.parametrize("table", TWO_VAR_TABLES)
def test_all_two_variable_functions_round_trip(table):
    tt = TruthTable.from_string(table)
    anf = anf_from_truth_table(tt)
    assert truth_table_from_anf(anf, 2) == tt


def test_known_two_variable_anfs():
    known = {
        "0000": set(),
        "0001": {(0, 1)},                 # AND
        "0011": {(0,)},
        "0101": {(1,)},
        "0110": {(0,), (1,)},             # XOR
        "0111": {(0,), (1,), (0, 1)},     # OR
        "1111": {()},
    }
    for table, terms in known.items():
        assert anf_sets(anf_from_truth_table(TruthTable.from_string(table))) == terms
