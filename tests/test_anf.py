import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aesbool import aes
from aesbool.anf import (_ROW_BLOCK, Anf, Kernel, TermLimitError, VarSpace, anfs_from_rows,
                         batch_evaluate)
from aesbool.boolfn import TruthTable, anf_from_truth_table, truth_table_from_anf
from aesbool.serial import parse_equation_lines, render_equation_lines


def random_anf(width, rng, max_terms=12):
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        terms.append([v for v in range(width) if rng.random() < 0.4])
    return Anf.from_terms(width, terms)


# ---------------------------------------------------------------------------
# VarSpace

def test_varspace_layout():
    space = VarSpace([("state", 128), ("key", 128)])
    assert space.width == 256
    assert space.start("state") == 0
    assert space.start("key") == 128
    assert space.segment("key") == range(128, 256)
    assert space.names == ("state", "key")


def test_varspace_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        VarSpace([("a", 4), ("a", 4)])
    with pytest.raises(ValueError):
        VarSpace([("a", 0)])


# ---------------------------------------------------------------------------
# construction and canonical order

def test_from_terms_folds_duplicates():
    anf = Anf.from_terms(3, [(0,), (0,), (1,)])
    assert anf == Anf.from_terms(3, [(1,)])


def test_variable_out_of_range():
    with pytest.raises(ValueError):
        Anf.from_terms(3, [(3,)])
    with pytest.raises(ValueError):
        Anf.variable(3, 3)


def test_monomials_canonical_order():
    anf = Anf.from_terms(3, [(0, 1), (1, 2), (0, 2)])
    # ascending big-endian mask: 011 < 101 < 110
    assert anf.monomials() == [(1, 2), (0, 2), (0, 1)]
    assert anf.to_str() == "x1x2 + x0x2 + x0x1"


def test_to_str_constants():
    assert Anf.zero(4).to_str() == "0"
    assert Anf.one(4).to_str() == "1"


def _per_row_decode(rows):
    """The per-row decoder from_bit_rows replaced, kept as the reference:
    one little-endian int per packed row, XOR-folded and range-checked."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return Anf(rows.shape[1], [int.from_bytes(row.tobytes(), "little") for row in packed])


@pytest.mark.parametrize("width", [0, 1, 7, 8, 63, 64, 65, 127, 128, 129, 256])
def test_from_bit_rows_matches_the_per_row_decoder(width):
    rng = np.random.default_rng(width)
    for trial in range(30):
        distinct = rng.integers(0, 2, size=(int(rng.integers(0, 25)), width), dtype=np.uint8)
        distinct[:trial % 2] = 0   # every other trial holds the constant monomial
        distinct = np.unique(distinct, axis=0)
        # each row once, twice (cancelling) or three times, in shuffled order
        times = rng.integers(1, 4, size=len(distinct))
        rows = np.repeat(distinct, times, axis=0)
        rows = rows[rng.permutation(len(rows))]
        # with a leading column, as the reader hands over its byte matrix
        framed = np.concatenate((np.ones((len(rows), 1), dtype=np.uint8), rows), axis=1)
        got = Anf.from_bit_rows(framed[:, 1:])
        assert got == _per_row_decode(rows)
        assert got.width == width and isinstance(got.terms, frozenset)
        assert len(got.terms) == int((times % 2).sum())
        assert Anf.from_bit_rows(got.bit_rows()) == got
    empty = Anf.from_bit_rows(np.zeros((0, width), dtype=np.uint8))
    assert empty == Anf.zero(width)


# ---------------------------------------------------------------------------
# xor

def test_xor_self_inverse():
    rng = random.Random(0)
    for _ in range(20):
        a = random_anf(6, rng)
        assert (a ^ a).is_zero


def test_xor_singletons():
    got = Anf.variable(4, 0) ^ Anf.variable(4, 1)
    assert got == Anf.from_terms(4, [(0,), (1,)])


def test_xor_mismatched_spaces():
    with pytest.raises(ValueError):
        Anf.one(3) ^ Anf.one(4)


def test_xor_matches_truth_table_xor():
    rng = random.Random(1)
    for _ in range(100):
        a, b = random_anf(8, rng), random_anf(8, rng)
        ta = truth_table_from_anf(a, 8).bits
        tb = truth_table_from_anf(b, 8).bits
        tc = truth_table_from_anf(a ^ b, 8).bits
        assert ((ta ^ tb) == tc).all()


def test_xor_group_laws():
    rng = random.Random(2)
    zero = Anf.zero(6)
    for _ in range(50):
        a, b, c = (random_anf(6, rng) for _ in range(3))
        assert a ^ b == b ^ a
        assert (a ^ b) ^ c == a ^ (b ^ c)
        assert a ^ zero == a
        assert (a ^ a).is_zero


# ---------------------------------------------------------------------------
# multiply

def test_multiply_idempotent_variable():
    x = Anf.variable(3, 0)
    assert x * x == x


def test_multiply_worked_product():
    # (1 ^ x0)(1 ^ x1) x2 expands to x2 ^ x0x2 ^ x1x2 ^ x0x1x2
    one = Anf.one(3)
    x0, x1, x2 = (Anf.variable(3, i) for i in range(3))
    got = (one ^ x0) * (one ^ x1) * x2
    assert got == Anf.from_terms(3, [(2,), (0, 2), (1, 2), (0, 1, 2)])


def test_multiply_matches_truth_table_and():
    rng = random.Random(3)
    for _ in range(100):
        a, b = random_anf(8, rng), random_anf(8, rng)
        ta = truth_table_from_anf(a, 8).bits
        tb = truth_table_from_anf(b, 8).bits
        tc = truth_table_from_anf(a * b, 8).bits
        assert ((ta & tb) == tc).all()


def test_multiply_ring_laws():
    rng = random.Random(4)
    one = Anf.one(6)
    zero = Anf.zero(6)
    for _ in range(30):
        a, b, c = (random_anf(6, rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b ^ c) == (a * b) ^ (a * c)
        assert (a * zero).is_zero
        assert a * one == a
        assert a * a == a  # every element idempotent over GF(2)


def test_multiply_term_limit():
    a = Anf.from_terms(8, [(i,) for i in range(8)])
    b = Anf.from_terms(8, [(i, (i + 1) % 8) for i in range(8)])
    with pytest.raises(TermLimitError):
        a.multiply(b, max_terms=4)


def test_multiply_mismatched_spaces():
    with pytest.raises(ValueError):
        Anf.one(3) * Anf.one(4)


# ---------------------------------------------------------------------------
# substitute

def test_substitute_identity():
    rng = random.Random(5)
    for _ in range(20):
        f = random_anf(5, rng)
        identity = {v: Anf.variable(5, v) for v in range(5)}
        assert f.substitute(identity) == f


def test_substitute_negation_majparmi3():
    maj = Anf.from_terms(3, [(1, 2), (0, 2), (0, 1)])
    bindings = {0: Anf.variable(3, 0) ^ Anf.one(3),
                1: Anf.variable(3, 1),
                2: Anf.variable(3, 2)}
    negated = maj.substitute(bindings)
    # MajParmi3 with x0 negated, evaluated at (1,1,0), equals MajParmi3(0,1,0)
    assert negated.evaluate((1, 1, 0)) == maj.evaluate((0, 1, 0)) == 0


def test_substitute_composes():
    rng = random.Random(6)
    for _ in range(15):
        f = random_anf(6, rng, max_terms=6)
        g = {v: random_anf(6, rng, max_terms=4) for v in range(6)}
        h = {v: random_anf(6, rng, max_terms=3) for v in range(6)}
        via_two_steps = f.substitute(g).substitute(h)
        g_after_h = {v: g[v].substitute(h) for v in range(6)}
        direct = f.substitute(g_after_h)
        assert truth_table_from_anf(via_two_steps, 6) == truth_table_from_anf(direct, 6)


def test_substitute_unbound_variable():
    f = Anf.from_terms(3, [(0, 1)])
    with pytest.raises(ValueError):
        f.substitute({0: Anf.variable(3, 0)})


def test_substitute_mixed_spaces():
    f = Anf.from_terms(2, [(0, 1)])
    with pytest.raises(ValueError):
        f.substitute({0: Anf.variable(3, 0), 1: Anf.variable(4, 1)})


def test_substitute_term_limit():
    f = Anf.from_terms(2, [(0, 1)])
    big = Anf.from_terms(10, [(i,) for i in range(10)])
    other = Anf.from_terms(10, [(i, (i + 3) % 10) for i in range(10)])
    with pytest.raises(TermLimitError):
        f.substitute({0: big, 1: other}, max_terms=8)


def test_substitute_changes_width():
    f = Anf.from_terms(2, [(0,), (1,)])
    wide = f.substitute({0: Anf.variable(10, 7), 1: Anf.variable(10, 2)})
    assert wide.width == 10
    assert wide == Anf.from_terms(10, [(7,), (2,)])


# ---------------------------------------------------------------------------
# rename

def test_rename_identity_permutation():
    rng = random.Random(8)
    f = random_anf(6, rng)
    assert f.rename(list(range(6))) == f


def test_rename_offset_round_trip():
    f = Anf.from_terms(8, [(0, 3), (5,)])
    shifted = f.rename(128, width=136)
    assert shifted.variables() == frozenset({128, 131, 133})
    assert shifted.rename(-128, width=8) == f


def test_rename_rejects_non_injective():
    f = Anf.from_terms(3, [(0,), (1,)])
    with pytest.raises(ValueError):
        f.rename({0: 2, 1: 2})


def test_rename_rejects_out_of_space():
    f = Anf.from_terms(3, [(2,)])
    with pytest.raises(ValueError):
        f.rename(5, width=6)


def test_rename_by_offset_matches_the_dict_rename():
    rng = random.Random(11)
    for width, low, high in ((8, 0, 8), (16, 4, 12), (130, 60, 70), (256, 128, 256)):
        anfs = [Anf.zero(width), Anf.one(width)]
        for _ in range(20):
            anfs.append(Anf.from_terms(width, [
                [v for v in range(low, high) if rng.random() < 0.3]
                for _ in range(rng.randrange(1, 12))]))
        # offsets that put the used range at either end of the target space
        for offset in (-low, -low // 2, 0, 1, 64, 128 - high % 128 + 3):
            target = high + max(offset, 0)
            table = {v: v + offset for v in range(width)}
            for f in anfs:
                assert f.rename(offset, width=target) == f.rename(table, width=target)


def test_rename_by_offset_rejects_indices_at_the_edges():
    f = Anf.from_terms(8, [(2, 5), (3,)])
    assert f.rename(-2).variables() == frozenset({0, 1, 3})
    assert f.rename(2).variables() == frozenset({4, 5, 7})
    with pytest.raises(ValueError, match=r"^renamed index -1 outside space of width 8$"):
        f.rename(-3)
    with pytest.raises(ValueError, match=r"^renamed index 8 outside space of width 8$"):
        f.rename(3)
    with pytest.raises(ValueError, match=r"^renamed index 5 outside space of width 5$"):
        f.rename(0, width=5)
    # nothing to move: constants rename into any width
    assert Anf.one(8).rename(-100, width=1) == Anf.one(1)
    assert Anf.zero(8).rename(300, width=0) == Anf.zero(0)


def test_rename_permuted_evaluation():
    rng = random.Random(9)
    for _ in range(30):
        f = random_anf(6, rng)
        perm = list(range(6))
        rng.shuffle(perm)
        g = f.rename(perm)
        x = [rng.getrandbits(1) for _ in range(6)]
        permuted = [0] * 6
        for old, new in enumerate(perm):
            permuted[new] = x[old]
        assert g.evaluate(permuted) == f.evaluate(x)


def _per_variable_rename(anf, mapping, width):
    """The per-variable rename that sequences and mappings took before the
    distance groups, kept as the reference: each monomial rebuilt one
    variable at a time, an offset k read as the table v -> v + k."""
    if isinstance(mapping, int):
        mapping = {v: v + mapping for v in range(anf.width)}
    table = {v: mapping[v] for v in anf.variables()}
    assert len(set(table.values())) == len(table)
    return Anf.from_terms(width, ([table[v] for v in mono] for mono in anf.monomials()))


@pytest.mark.parametrize("width", [0, 1, 8, 128, 256])
def test_rename_matches_the_per_variable_reference(width):
    rng = random.Random(2000 + width)
    anfs = [Anf.zero(width), Anf.one(width)]
    for _ in range(10 if width else 0):
        # monomials over a window of the space, so offsets can move them
        low = rng.randrange(width)
        high = rng.randrange(low, min(width, low + 40)) + 1
        anfs.append(Anf.from_terms(width, [
            [v for v in range(low, high) if rng.random() < 0.4]
            for _ in range(rng.randrange(1, 10))]))
    if width == 128:
        anfs += aes.inv_subbytes_equations(VarSpace([("state", 128)]))[::9]
    for f in anfs:
        used = sorted(f.variables()) or [0]
        low, high = used[0], used[-1]
        cases = []
        # negative, zero and positive offsets: the used variables flush with
        # the bottom edge, within the space, and flush with the top edge
        for offset in (-low, -(low // 2), 0, 1, 64):
            cases += [(offset, high + offset + 1), (offset, width + max(offset, 0) + 3)]
        perm = list(range(width))
        rng.shuffle(perm)
        spread = dict(zip(range(width), rng.sample(range(2 * width + 1), width)))
        cases += [(perm, width), (spread, 2 * width + 1)]
        if width == 128:
            cases.append((aes.INV_SHIFTROWS_SOURCE, width))
        for mapping, target in cases:
            assert f.rename(mapping, width=target) == _per_variable_rename(f, mapping, target)


def test_rename_names_the_lowest_negative_image_or_else_the_highest():
    f = Anf.from_terms(8, [(1, 4), (6,), ()])
    for mapping, width, named in (
            ({1: 9, 4: 2, 6: 12}, 8, 12),             # several too high: the highest
            ([0, 11, 2, 3, 10, 5, 9, 7], 10, 11),
            ({1: 5, 4: -2, 6: -7}, 8, -7),            # several negative: the lowest
            ({1: 20, 4: -2, 6: 3}, 8, -2),            # negative and too high: the negative
            (-2, 8, -1), (2, 8, 8), (-3, 3, -2), (0, 6, 6)):
        with pytest.raises(ValueError, match=rf"^renamed index {named} outside space of width {width}$"):
            f.rename(mapping, width=width)
    # injectivity is checked before the range
    with pytest.raises(ValueError, match=r"^rename mapping is not injective$"):
        f.rename({1: 0, 4: 0, 6: 20})
    # unused variables' images are never looked at
    assert f.rename({1: 1, 4: 4, 6: 6, 7: -5}) == f
    assert f.rename([99, 1, 99, 99, 4, 99, 6, -1]) == f
    assert Anf.one(8).rename({}, width=1) == Anf.one(1)
    assert Anf.zero(8).rename([], width=0) == Anf.zero(0)


# ---------------------------------------------------------------------------
# point evaluation

def _scan_evaluate(anf, ones):
    """The term scan evaluate_mask ran on every point before the subset
    walk, kept as the reference: the parity of the terms within ``ones``."""
    acc = 0
    for m in anf.terms:
        if m & ones == m:
            acc ^= 1
    return acc


def _subsets(ones):
    sub, out = ones, [ones]
    while sub:
        sub = (sub - 1) & ones
        out.append(sub)
    return out


def _sparse_point(width, bits, rng):
    return sum(1 << v for v in rng.sample(range(width), min(bits, width)))


def _terms_near(width, ones, count, rng):
    """``count`` distinct masks of the space, many of them within ``ones``."""
    inside = _subsets(ones)
    rng.shuffle(inside)
    terms = set(inside[:rng.randint(min(count, len(inside)) // 2, min(count, len(inside)))])
    while len(terms) < count:
        terms.add(rng.getrandbits(width))
    return terms


def _rows_of(arity):
    """Each truth-table row's assignment mask (x_0 is the row's top bit)."""
    return [int(format(row, f"0{arity}b")[::-1], 2) for row in range(1 << arity)]


@pytest.mark.parametrize("width", [0, 1, 8, 20, 64, 128, 256])
def test_evaluate_mask_matches_the_term_scan(width):
    rng = random.Random(width)
    full = (1 << width) - 1
    anfs = [Anf.zero(width), Anf.one(width)]
    anfs += [Anf(width, [rng.getrandbits(width)]) for _ in range(4)]
    anfs += [Anf(width, [full]), Anf(width, [1 << (width - 1)] if width else [])]
    anfs += [random_anf(width, rng, max_terms=40) for _ in range(6)]
    points = [0, full, -1, full + 1, -1 << width, rng.getrandbits(width + 8)]
    points += [rng.getrandbits(width) for _ in range(4)]
    points += [_sparse_point(width, bits, rng) for bits in range(7)]
    points += [p | rng.getrandbits(16) << width for p in points[-7:]]
    for anf in anfs:
        for ones in points:
            assert anf.evaluate_mask(ones) == _scan_evaluate(anf, ones), (anf.terms, ones)
    # term counts either side of the 2^|x| subsets the walk would visit
    for ones in points:
        size = 1 << (ones & full).bit_count()
        for count in (size - 1, size, size + 1):
            if not 0 <= count <= 1 << min(width, 16):
                continue
            for _ in range(3):
                anf = Anf(width, _terms_near(width, ones & full, count, rng))
                assert anf.term_count() == count
                assert anf.evaluate_mask(ones) == _scan_evaluate(anf, ones), (anf.terms, ones)


@pytest.mark.parametrize("arity", [8, 10, 12, 14, 16])
def test_evaluate_mask_matches_the_truth_table_on_dense_anfs(arity):
    rng = np.random.default_rng(arity)
    bits = rng.integers(0, 2, size=1 << arity, dtype=np.uint8)
    anf = anf_from_truth_table(TruthTable(arity, bits))
    assert anf.term_count() > 1 << (arity - 2)
    table = truth_table_from_anf(anf, arity).bits
    assert (table == bits).all()
    rows = range(1 << arity)
    if arity == 16:
        # every row takes about 5 s here: the rows where the scan is no
        # longer than the walk, the sparsest rows and a seeded sample
        rows = sorted({*(row for row in rows if row.bit_count() in (0, 1, 15, 16)),
                       *rng.integers(0, 1 << arity, size=4096).tolist()})
    masks = _rows_of(arity)
    for row in rows:
        assert anf.evaluate_mask(masks[row]) == table[row], row


class _CountedTerms(frozenset):
    """A term set that counts membership tests and iterated terms, failing
    once they pass ``budget``, so that a walk that never ends fails too."""

    def _spend(self):
        self.cost += 1
        if self.cost > self.budget:
            raise AssertionError(f"more than {self.budget} term lookups")

    def __contains__(self, mask):
        self._spend()
        return super().__contains__(mask)

    def __iter__(self):
        for mask in super().__iter__():
            self._spend()
            yield mask


def _counted(width, terms, budget):
    counted = _CountedTerms(terms)
    counted.cost, counted.budget = 0, budget
    return Anf(width, _terms=counted)


def test_evaluate_mask_costs_the_fewer_of_terms_and_subsets():
    rng = random.Random(11)
    dense = anf_from_truth_table(TruthTable(12, np.random.default_rng(11).integers(
        0, 2, size=1 << 12, dtype=np.uint8)))
    full = (1 << 12) - 1
    for ones in (0, 1, 0b1011, full, -1, full + 1, -1 << 12, 0b101 | 1 << 40,
                 *(rng.getrandbits(12) for _ in range(20))):
        clipped = ones & full
        cost = min(dense.term_count(), 1 << clipped.bit_count())
        counted = _counted(12, dense.terms, cost)
        assert counted.evaluate_mask(ones) == _scan_evaluate(dense, ones), ones
        assert counted.terms.cost == cost, ones
    # a sparse equation of a wide space: a handful of terms, many set bits
    sparse = _counted(128, [0, 1 << 127, 3 << 60], 3)
    assert sparse.evaluate_mask(-1) == 1
    assert sparse.terms.cost == 3


def test_evaluate_checks_coverage_only_when_the_assignment_is_short():
    anf = Anf.from_terms(8, [(0, 1), (5,)])
    with pytest.raises(ValueError, match=r"^assignment of length 5 does not cover variable 5$"):
        anf.evaluate((1, 1, 0, 0, 0))
    assert anf.evaluate((1, 1, 0, 0, 0, 0)) == 1
    assert anf.evaluate((1, 1, 0, 0, 0, 1, 0, 0, 1, 1)) == 0
    assert Anf.one(8).evaluate(()) == 1
    # a full assignment walks the point's subsets and never scans the terms
    dense = anf_from_truth_table(TruthTable(12, np.random.default_rng(12).integers(
        0, 2, size=1 << 12, dtype=np.uint8)))
    x = (1, 0, 1, 1) + (0,) * 8
    counted = _counted(12, dense.terms, 8)
    assert counted.evaluate(x) == _scan_evaluate(dense, 0b1101)
    assert counted.terms.cost == 8


# ---------------------------------------------------------------------------
# equality and batch evaluation

def test_equality_is_term_set_equality():
    a = Anf.from_terms(4, [(0,), (1, 2)])
    b = Anf.from_terms(4, [(1, 2), (0,)])
    assert a == b and hash(a) == hash(b)
    assert a != Anf.from_terms(4, [(0,)])
    assert Anf.from_terms(4, [(0,)]) != Anf.from_terms(5, [(0,)])


def test_batch_evaluate_matches_single(enc_system, dec_system):
    # the table kernel against the term-by-term evaluator: every stage
    # kind, plus a zero and a constant-1 equation, on batch sizes either
    # side of 64 samples
    rng = random.Random(10)
    sources = {"random": [random_anf(8, rng) for _ in range(5)]}
    for system in (enc_system, dec_system):
        for stage in system.stages:
            sources.setdefault(stage.kind, list(stage.equations))
    assert sorted(sources) == ["AddRoundKey", "FinalRound", "InvMixColumns",
                               "InvRound", "Round", "random"]
    for eqs in sources.values():
        width = eqs[0].width
        eqs = eqs + [Anf.zero(width), Anf.one(width)]
        for n in (1, 63, 64, 65, 1000):
            inputs = [rng.getrandbits(width) for _ in range(n)]
            outs = batch_evaluate(eqs, inputs)
            assert len(outs) == n
            for ones, out in zip(inputs, outs):
                assert out >> len(eqs) == 0
                for j, eq in enumerate(eqs):
                    assert (out >> j) & 1 == eq.evaluate_mask(ones)


def test_batch_evaluate_rejects_inputs_outside_space():
    with pytest.raises(ValueError):
        batch_evaluate([Anf.one(4)], [1 << 4])
    with pytest.raises(ValueError):
        batch_evaluate([Anf.one(4)], [-1])


def test_kernel_rejects_wrong_column_count():
    kernel = Kernel([Anf.one(4)])
    with pytest.raises(ValueError):
        kernel(np.zeros((1, 2), dtype=np.uint8))


@pytest.mark.parametrize("rows", [np.array([[0x180, 0]], dtype=np.int64),
                                  np.array([[-1, 0]], dtype=np.int8)], ids=["int64", "negative"])
def test_kernel_rejects_rows_that_are_not_uint8(rows):
    # read as table indices, 0x180 would land in byte 1's table and -1 at
    # the end of the table run: bits of the wrong byte
    kernel = Kernel([Anf.variable(16, 0), Anf.variable(16, 8)])
    with pytest.raises(ValueError, match="uint8"):
        kernel(rows)


def _row_points(rows, width):
    """Each ``uint8`` row as an int mask: bit 7-i of byte c is x_{8c+i}, and
    the bits past the width meet no variable."""
    return [int("".join(map(str, row[:width][::-1])) or "0", 2)
            for row in np.unpackbits(rows, axis=1).tolist()]


@pytest.mark.parametrize("n", [0, 1, 1000, _ROW_BLOCK + 1])
def test_kernel_words_of_every_lookup_count_match_evaluate_mask(n):
    # six output words over 5 bytes: one byte, every byte, constants only,
    # zero, residual only, and the fifth's residual plus a constant (a
    # partial word), so one residual monomial sets outputs in two words; all
    # but the second read the all-zero pad table, and N past one row block
    # leaves a block of one row
    rng = random.Random(14)
    width = 40

    def within(c):
        return (rng.getrandbits(8) or 1) << 8 * c

    def spanning():
        a, b = rng.sample(range(5), 2)
        return within(a) | within(b)

    residual = [Anf(width, [spanning() for _ in range(3)]) for _ in range(32)]
    equations = [*(Anf(width, [within(2) for _ in range(3)]) for _ in range(32)),
                 *(Anf(width, [*map(within, range(5)), *[0] * (j % 2)]) for j in range(32)),
                 *(Anf.one(width) if j % 3 else Anf.zero(width) for j in range(32)),
                 *(Anf.zero(width) for _ in range(32)),
                 *residual,
                 *(eq ^ Anf.one(width) for eq in residual[:12])]
    rows = np.frombuffer(rng.randbytes(n * 5), dtype=np.uint8).reshape(n, 5)
    out = Kernel(equations)(rows)
    assert out.shape == (n, 22)
    bits = np.unpackbits(out, axis=1)
    assert not bits[:, len(equations):].any()
    assert bits[:, :len(equations)].tolist() == [[eq.evaluate_mask(x) for eq in equations]
                                                 for x in _row_points(rows, width)]


def test_batch_evaluate_empty():
    assert batch_evaluate([Anf.one(4)], []) == []


# points -> ANF: one transform of (2^k, B) value rows

def _truth_table_order(k):
    """The sample of each truth-table row: row r sets x_v to bit k-1-v of
    r, sample i sets it to bit v of i."""
    r = np.arange(1 << k)
    return sum((r >> (k - 1 - v) & 1) << v for v in range(k))


def _column_tables(rows, columns):
    """Outputs ``columns`` of the rows (output j is bit 7 - j % 8 of byte
    j // 8) as truth tables."""
    k = len(rows).bit_length() - 1
    ordered = rows[_truth_table_order(k)]
    return [TruthTable(k, ordered[:, j >> 3] >> (7 - j % 8) & 1) for j in columns]


def test_anfs_from_rows_at_arity_20_over_16_bytes():
    # byte c of row i is bits c..c+7 of i, so output 8c+t is x_{c+7-t}, or
    # zero past x_19; bytes 0 and 15 are random instead
    i = np.arange(1 << 20)
    rows = np.stack([(i >> c).astype(np.uint8) for c in range(16)], axis=1)
    rows[:, [0, 15]] = np.random.default_rng(20).integers(0, 256, (1 << 20, 2), dtype=np.uint8)
    anfs = anfs_from_rows(rows)
    assert len(anfs) == 128
    columns = (0, 3, 7, 120, 124, 127)
    for j, table in zip(columns, _column_tables(rows, columns)):
        assert anfs[j] == anf_from_truth_table(table)
    for j in range(8, 120):
        c, t = divmod(j, 8)
        assert anfs[j] == (Anf.variable(20, c + 7 - t) if c + 7 - t < 20 else Anf.zero(20))


@pytest.mark.parametrize("rows", [np.zeros((0, 1), dtype=np.uint8), np.zeros((3, 1), dtype=np.uint8),
                                  np.zeros((12, 2), dtype=np.uint8), np.zeros((4, 1), dtype=np.int64),
                                  np.zeros((4, 1), dtype=bool)],
                         ids=["0-rows", "3-rows", "12-rows", "int64", "bool"])
def test_anfs_from_rows_rejects_counts_off_a_power_of_two_and_rows_not_uint8(rows):
    with pytest.raises(ValueError):
        anfs_from_rows(rows)


# ---------------------------------------------------------------------------
# properties (the derandomized profile in conftest.py bounds the examples)

@st.composite
def anfs_and_points(draw):
    """An ANF and a point in or beyond its space; many terms lie within the
    point, and sparse points make the subset walk the shorter path."""
    width = draw(st.integers(0, 24))
    sparse = st.sets(st.integers(0, width + 2), max_size=5).map(lambda vs: sum(1 << v for v in vs))
    ones = draw(st.one_of(sparse, sparse.map(lambda m: -m),
                          st.integers(-(1 << (width + 2)), 1 << (width + 2))))
    inside, outside = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    rng = draw(st.randoms(use_true_random=False))
    return Anf(width, [*(rng.getrandbits(width) & ones for _ in range(inside)),
                       *(rng.getrandbits(width) for _ in range(outside))]), ones


@given(anfs_and_points())
def test_property_evaluate_mask_is_the_term_scan(case):
    anf, ones = case
    assert anf.evaluate_mask(ones) == _scan_evaluate(anf, ones)


@st.composite
def kernel_batches(draw):
    width = draw(st.integers(0, 70))
    full = (1 << width) - 1
    equations = draw(st.lists(
        st.lists(st.integers(0, full), max_size=20).map(lambda terms: Anf(width, terms)),
        min_size=1, max_size=4))
    n = draw(st.one_of(st.integers(1, 3), st.integers(62, 66), st.integers(126, 130)))
    inputs = draw(st.lists(st.integers(0, full), min_size=n, max_size=n))
    return equations, inputs


@given(kernel_batches())
def test_property_kernel_agrees_with_evaluate_mask(case):
    equations, inputs = case
    width = equations[0].width
    # one row per input, x_{8c+i} at bit 7-i of byte c
    bits = np.array([[x >> v & 1 for v in range(width)] for x in inputs],
                    dtype=np.uint8).reshape(len(inputs), width)
    out = np.unpackbits(Kernel(equations)(np.packbits(bits, axis=1)), axis=1,
                        count=len(equations)).T
    assert out.tolist() == [[eq.evaluate_mask(x) for x in inputs] for eq in equations]


@st.composite
def table_kernel_batches(draw):
    """Equations over 0-260 variables, of kinds drawn from zero,
    constant-only, byte-local, cross-byte and mixed, on N random byte rows
    (padding bits past the width included); no equations at all is
    ``Kernel([])``."""
    rng = draw(st.randoms(use_true_random=False))
    outputs = draw(st.one_of(st.just(0), st.integers(1, 130)))
    width = draw(st.integers(0, 260)) if outputs else 0
    nbytes = -(-width // 8)

    def within(c):   # a nonzero monomial of byte c's variables
        return (rng.getrandbits(min(8, width - 8 * c)) or 1) << 8 * c

    def spanning():   # a monomial over two or three bytes, if there are two
        if nbytes < 2:
            return 0
        return sum(map(within, rng.sample(range(nbytes), rng.randint(2, min(3, nbytes)))))

    kinds = draw(st.sets(st.sampled_from(["zero", "constant", "local", "cross", "mixed"]),
                         min_size=1))
    equations = []
    for _ in range(outputs):
        kind = rng.choice(sorted(kinds)) if width else rng.choice(["zero", "constant"])
        local = [within(rng.randrange(nbytes)) for _ in range(rng.randint(1, 6))] if width else []
        cross = [spanning() for _ in range(rng.randint(1, 4))]
        terms = {"zero": [], "constant": [0], "local": local, "cross": cross,
                 "mixed": local[:3] + cross[:2] + [0] * rng.randint(0, 1)}[kind]
        equations.append(Anf(width, terms))
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 66, 1000]))
    rows = np.frombuffer(rng.randbytes(n * nbytes), dtype=np.uint8).reshape(n, nbytes)
    return equations, rows


@given(table_kernel_batches())
def test_property_table_kernel_agrees_with_evaluate_mask(case):
    equations, rows = case
    points = _row_points(rows, equations[0].width if equations else 0)
    out = Kernel(equations)(rows)
    assert out.shape == (len(rows), -(-len(equations) // 8))
    bits = np.unpackbits(out, axis=1)
    assert not bits[:, len(equations):].any()
    assert bits[:, :len(equations)].tolist() == [[eq.evaluate_mask(x) for eq in equations]
                                                 for x in points]


@given(table_kernel_batches())
def test_property_held_rows_compile_to_the_same_kernel(case):
    # the same equations parsed from their files hold their packed rows;
    # every third keeps its term set, so output words mix the two forms
    equations, rows = case
    held = [parse_equation_lines(render_equation_lines(eq), eq.width) for eq in equations]
    assert all(eq._rows is not None for eq in held)
    assert [eq.term_count() for eq in held] == [len(eq.terms) for eq in equations]
    assert all((a.bit_rows() == b.bit_rows()).all() for a, b in zip(held, equations))
    mixed = [eq if j % 3 == 0 else h for j, (eq, h) in enumerate(zip(equations, held))]
    want = Kernel(equations)
    for kernel in (Kernel(held), Kernel(mixed)):
        for name in ("_table", "_columns", "_offsets", "_constant", "_residual", "_selector"):
            plan, other = getattr(kernel, name), getattr(want, name)
            assert (plan.dtype, plan.shape, plan.tobytes()) == (other.dtype, other.shape,
                                                                 other.tobytes())
        assert (kernel(rows) == want(rows)).all()
    assert held == equations


@st.composite
def substitutions(draw):
    """An ANF over 1-8 variables and a binding of each variable into 1-8
    variables; zero and constant ANFs come up on both sides."""
    width, target = draw(st.integers(1, 8)), draw(st.integers(1, 8))

    def anfs(w):
        return st.one_of(st.just(Anf.zero(w)), st.just(Anf.one(w)),
                         st.lists(st.integers(0, (1 << w) - 1), max_size=6)
                         .map(lambda terms: Anf(w, terms)))

    return draw(anfs(width)), {v: draw(anfs(target)) for v in range(width)}, target


@given(substitutions())
def test_property_substitute_is_composed_evaluation(case):
    f, bindings, target = case
    composed = f.substitute(bindings)
    assert composed.width == target
    for x in range(1 << target):
        inner = sum(g.evaluate_mask(x) << v for v, g in bindings.items())
        assert composed.evaluate_mask(x) == f.evaluate_mask(inner)


def _big_endian(mask, width):
    """The mask read with variable 0 as the most significant of ``width`` bits."""
    return sum(1 << (width - 1 - v) for v in range(width) if mask >> v & 1)


@given(st.integers(0, 130).flatmap(lambda w: st.lists(st.integers(0, (1 << w) - 1), max_size=20)
                                   .map(lambda terms: Anf(w, terms))))
def test_property_bit_rows_round_trip_in_big_endian_mask_order(anf):
    rows = anf.bit_rows()
    assert rows.shape == (len(anf.terms), anf.width)
    assert Anf.from_bit_rows(rows) == anf
    # each row read as a binary number, variable 0 leftmost, ascending
    assert ([int("0" + "".join(map(str, row)), 2) for row in rows.tolist()]
            == sorted(_big_endian(m, anf.width) for m in anf.terms))


@st.composite
def ring_operands(draw):
    """A width of 0-40 and makers of three fresh ANFs over it: random
    terms, zero, constant-only, or (for widths 1-8) a dense ANF from
    ``anf_from_truth_table`` that still holds its mask array."""
    width = draw(st.integers(0, 40))
    kinds = ["terms", "zero", "one", *(["dense"] * (1 <= width <= 8))]

    def operand():
        kind = draw(st.sampled_from(kinds))
        if kind == "dense":
            bits = draw(st.lists(st.integers(0, 1), min_size=1 << width, max_size=1 << width))
            return lambda: anf_from_truth_table(TruthTable(width, bits))
        terms = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=8)) if kind == "terms" else []
        return lambda: Anf(width, [0] if kind == "one" else terms)

    return width, [operand() for _ in range(3)], draw(st.integers(0, (1 << width) - 1))


@given(ring_operands())
def test_property_anf_ring_laws(case):
    width, makers, x = case

    def fresh():   # dense operands enter each law with their sets unbuilt
        return [make() for make in makers]

    zero, one = Anf.zero(width), Anf.one(width)
    a, b, c = fresh()
    assert (a ^ b) ^ c == fresh()[0] ^ (fresh()[1] ^ fresh()[2])
    a, b, _ = fresh()
    assert a ^ b == fresh()[1] ^ fresh()[0]
    assert fresh()[0] ^ zero == a and (fresh()[0] ^ fresh()[0]).is_zero
    assert fresh()[0] * one == a and one * fresh()[0] == a and (fresh()[0] * zero).is_zero
    assert fresh()[0] * fresh()[0] == a   # x^2 = x makes every element idempotent
    assert fresh()[0] * fresh()[1] == fresh()[1] * fresh()[0]
    a, b, c = fresh()
    assert a * (b ^ c) == fresh()[0] * fresh()[1] ^ fresh()[0] * fresh()[2]
    # the laws hold of the functions: sum and product evaluate pointwise
    a, b, _ = fresh()
    assert (a ^ b).evaluate_mask(x) == fresh()[0].evaluate_mask(x) ^ fresh()[1].evaluate_mask(x)
    a, b, _ = fresh()
    assert (a * b).evaluate_mask(x) == fresh()[0].evaluate_mask(x) & fresh()[1].evaluate_mask(x)


@st.composite
def value_rows(draw):
    """(2^k, B) ``uint8`` rows for k in 1-12 and B in 1-3: random, all zero
    (every ANF zero) or all ones (every ANF the constant 1)."""
    k, nbytes = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    fill = draw(st.sampled_from([None, 0x00, 0xFF]))
    data = rng.randbytes(nbytes << k) if fill is None else bytes([fill]) * (nbytes << k)
    return np.frombuffer(data, dtype=np.uint8).reshape(1 << k, nbytes).copy()


@given(value_rows())
def test_property_anfs_from_rows_is_anf_from_truth_table_per_column(rows):
    before = rows.copy()
    anfs = anfs_from_rows(rows)
    assert np.array_equal(rows, before)
    assert len(anfs) == 8 * rows.shape[1]
    for anf, table in zip(anfs, _column_tables(rows, range(len(anfs)))):
        # the masks stay an array until the comparison builds the set
        assert anf._masks is not None and anf._masks.dtype == np.uint32
        assert anf == anf_from_truth_table(table)
