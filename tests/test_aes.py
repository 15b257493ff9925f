import random

import numpy as np
import pytest

from aesbool import aes
from aesbool.anf import Anf, Kernel, VarSpace, batch_evaluate
from aesbool.boolfn import TruthTable, anf_from_truth_table, is_balanced, weight

from expected_equations import (
    INV_SBOX_BIT0_TERMS,
    KEY_WORD4_BIT0_TERMS,
    SBOX_BIT127_TERMS,
)

SPACE = VarSpace([("state", 128)])
ARK_SPACE = VarSpace([("state", 128), ("key", 128)])

FIPS_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_CIPHER = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def random_states(count, seed):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(16)) for _ in range(count)]


def assert_equations_match_oracle(equations, oracle, states):
    outs = batch_evaluate(equations, [aes.block_to_mask(s) for s in states])
    for state, out in zip(states, outs):
        assert aes.mask_to_block(out) == oracle(state)


# ---------------------------------------------------------------------------
# tables

def test_sbox_table_spot_values():
    assert aes.SBOX[0x00] == 0x63
    assert aes.SBOX[0x01] == 0x7C
    assert aes.SBOX[0x53] == 0xED
    assert aes.SBOX[0xFF] == 0x16
    assert sorted(aes.SBOX) == list(range(256))


def test_inv_sbox_inverts():
    for x in range(256):
        assert aes.INV_SBOX[aes.SBOX[x]] == x
        assert aes.SBOX[aes.INV_SBOX[x]] == x


def test_sbox_matches_field_inversion_oracle():
    # independent derivation: multiplicative inverse in GF(2^8) followed by
    # the affine map with constant 0x63
    def gf_inv(a):
        if a == 0:
            return 0
        r, p, e = 1, a, 254
        while e:
            if e & 1:
                r = aes.gf_mul(r, p)
            p = aes.gf_mul(p, p)
            e >>= 1
        return r

    for x in range(256):
        b = gf_inv(x)
        out = 0
        for i in range(8):
            bit = (
                (b >> i) ^ (b >> ((i + 4) % 8)) ^ (b >> ((i + 5) % 8))
                ^ (b >> ((i + 6) % 8)) ^ (b >> ((i + 7) % 8)) ^ (0x63 >> i)
            ) & 1
            out |= bit << i
        assert aes.SBOX[x] == out


def test_xtime_and_gf_mul():
    assert aes.xtime(0x57) == 0xAE
    assert aes.xtime(0xAE) == 0x47
    assert aes.gf_mul(0x57, 0x13) == 0xFE
    assert aes.gf_mul(0x01, 0xC3) == 0xC3


def test_bit_packing_round_trip():
    rng = random.Random(0)
    for _ in range(50):
        block = bytes(rng.randrange(256) for _ in range(16))
        assert aes.mask_to_block(aes.block_to_mask(block)) == block
    # bit 0 is the most significant bit of the first byte
    assert aes.block_to_mask(bytes([0x80] + [0] * 15)) == 1
    for i in range(128):
        one_hot = bytes(0x80 >> i % 8 if byte == i // 8 else 0 for byte in range(16))
        assert aes.block_to_mask(one_hot) == 1 << i
        assert aes.mask_to_block(1 << i) == one_hot


# ---------------------------------------------------------------------------
# byte-level reference

def test_reference_fips_vectors():
    assert aes.reference_encrypt(FIPS_PLAIN, FIPS_KEY) == FIPS_CIPHER
    assert aes.reference_decrypt(FIPS_CIPHER, FIPS_KEY) == FIPS_PLAIN


def test_reference_key_schedule_known_vector():
    # key expansion example for 2b7e1516 28aed2a6 abf71588 09cf4f3c
    keys = aes.reference_key_schedule(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    assert keys[0].hex() == "2b7e151628aed2a6abf7158809cf4f3c"
    assert keys[1].hex() == "a0fafe1788542cb123a339392a6c7605"
    assert keys[10].hex() == "d014f9a8c9ee2589e13f0cc8b6630ca6"


def test_round_key_zero_is_cipher_key():
    keys = aes.reference_key_schedule(FIPS_KEY)
    assert keys[0] == FIPS_KEY
    assert len(keys) == 11


def test_reference_inversion_random():
    rng = random.Random(99)
    for _ in range(1000):
        block = bytes(rng.randrange(256) for _ in range(16))
        key = bytes(rng.randrange(256) for _ in range(16))
        assert aes.reference_decrypt(aes.reference_encrypt(block, key), key) == block


def test_shift_rows_inverse():
    state = bytes(range(16))
    assert aes.inv_shift_rows(aes.shift_rows(state)) == state
    assert aes.shift_rows(state)[:4] == bytes([0, 5, 10, 15])


def test_mix_columns_known_column():
    # single-column check: d4 bf 5d 30 -> 04 66 81 e5
    state = bytes.fromhex("d4bf5d30") + bytes(12)
    assert aes.mix_columns(state)[:4] == bytes.fromhex("046681e5")
    assert aes.inv_mix_columns(aes.mix_columns(state)) == state


# ---------------------------------------------------------------------------
# the table-driven oracle against loop references kept here: one Python step
# per byte, MixColumns through gf_mul, the key schedule on byte lists

def ref_sub_bytes(state):
    return bytes(aes.SBOX[b] for b in state)


def ref_inv_sub_bytes(state):
    return bytes(aes.INV_SBOX[b] for b in state)


def ref_shift_rows(state):
    # state byte r + 4c; row r rotates left by r columns
    return bytes(state[(b + 4 * (b % 4)) % 16] for b in range(16))


def ref_inv_shift_rows(state):
    return bytes(state[(b - 4 * (b % 4)) % 16] for b in range(16))


def _ref_mix_single(col, coeffs):
    return bytes(
        aes.gf_mul(coeffs[-r % 4], col[0])
        ^ aes.gf_mul(coeffs[(1 - r) % 4], col[1])
        ^ aes.gf_mul(coeffs[(2 - r) % 4], col[2])
        ^ aes.gf_mul(coeffs[(3 - r) % 4], col[3])
        for r in range(4)
    )


def ref_mix_columns(state):
    return b"".join(_ref_mix_single(state[c:c + 4], aes.MIX_COEFFS) for c in range(0, 16, 4))


def ref_inv_mix_columns(state):
    return b"".join(_ref_mix_single(state[c:c + 4], aes.INV_MIX_COEFFS) for c in range(0, 16, 4))


def ref_add_round_key(state, round_key):
    return bytes(a ^ b for a, b in zip(state, round_key))


def ref_key_schedule(key):
    words = [key[4 * i:4 * i + 4] for i in range(4)]
    for i in range(4, 44):
        prev = words[i - 1]
        if i % 4 == 0:
            rotated = prev[1:] + prev[:1]
            prev = bytes(aes.SBOX[b] for b in rotated)
            prev = bytes((prev[0] ^ aes.RCON[i // 4 - 1],)) + prev[1:]
        words.append(bytes(a ^ b for a, b in zip(words[i - 4], prev)))
    return [b"".join(words[4 * r:4 * r + 4]) for r in range(11)]


def ref_encrypt_trace(block, key):
    keys = ref_key_schedule(key)
    trace = []
    state = ref_add_round_key(block, keys[0])
    trace.append(("addRoundKey0", state))
    for r in range(9):
        state = ref_mix_columns(ref_shift_rows(ref_sub_bytes(state)))
        trace.append((f"Round{r}", state))
        state = ref_add_round_key(state, keys[r + 1])
        trace.append((f"addRoundKey{r + 1}", state))
    state = ref_shift_rows(ref_sub_bytes(state))
    trace.append(("Round9", state))
    state = ref_add_round_key(state, keys[10])
    trace.append(("addRoundKey10", state))
    return trace


def ref_decrypt_trace(block, key):
    keys = ref_key_schedule(key)
    trace = []
    state = ref_add_round_key(block, keys[10])
    trace.append(("addRoundKey10", state))
    for r in range(9, 0, -1):
        state = ref_inv_sub_bytes(ref_inv_shift_rows(state))
        trace.append((f"Round{r}", state))
        state = ref_add_round_key(state, keys[r])
        trace.append((f"addRoundKey{r}", state))
        state = ref_inv_mix_columns(state)
        trace.append((f"invMixColumns{r}", state))
    state = ref_inv_sub_bytes(ref_inv_shift_rows(state))
    trace.append(("Round0", state))
    state = ref_add_round_key(state, keys[0])
    trace.append(("addRoundKey0", state))
    return trace


ORACLE_STATES = random_states(2000, 21) + [bytes(16), b"\xff" * 16]


@pytest.mark.parametrize("name, reference", [
    ("sub_bytes", ref_sub_bytes),
    ("inv_sub_bytes", ref_inv_sub_bytes),
    ("shift_rows", ref_shift_rows),
    ("inv_shift_rows", ref_inv_shift_rows),
    ("mix_columns", ref_mix_columns),
    ("inv_mix_columns", ref_inv_mix_columns),
])
def test_primitive_matches_loop_reference(name, reference):
    primitive = getattr(aes, name)
    for state in ORACLE_STATES:
        assert primitive(state) == reference(state)


def test_add_round_key_matches_loop_reference():
    round_keys = random_states(2000, 22) + [b"\xff" * 16, bytes(16)]
    for state, round_key in zip(ORACLE_STATES, round_keys):
        assert aes.add_round_key(state, round_key) == ref_add_round_key(state, round_key)
    for state in ORACLE_STATES[-2:]:
        for round_key in ORACLE_STATES[-2:]:
            assert aes.add_round_key(state, round_key) == ref_add_round_key(state, round_key)


def test_product_tables_match_gf_mul():
    for coeffs, tables in ((aes.MIX_COEFFS, aes._MIX_TABLES),
                           (aes.INV_MIX_COEFFS, aes._INV_MIX_TABLES)):
        assert len(tables) == len(coeffs) == 4
        for coeff, table in zip(coeffs, tables):
            assert table == bytes(aes.gf_mul(coeff, x) for x in range(256))


def test_key_schedule_and_traces_match_loop_references():
    rng = random.Random(23)
    pairs = [(rng.randbytes(16), rng.randbytes(16)) for _ in range(1000)]
    pairs += [(bytes(16), bytes(16)), (b"\xff" * 16, b"\xff" * 16), (FIPS_PLAIN, FIPS_KEY)]
    for block, key in pairs:
        assert aes.reference_key_schedule(key) == ref_key_schedule(key)
        assert (aes.reference_encrypt_states(block, key)
                == [state for _, state in ref_encrypt_trace(block, key)])
        assert (aes.reference_decrypt_states(block, key)
                == [state for _, state in ref_decrypt_trace(block, key)])


@pytest.mark.parametrize("length", [0, 15, 17])
@pytest.mark.parametrize("trace", [aes.reference_encrypt_states, aes.reference_decrypt_states,
                                   aes.reference_encrypt, aes.reference_decrypt])
def test_wrong_length_block_is_rejected(trace, length):
    with pytest.raises(ValueError) as excinfo:
        trace(bytes(length), FIPS_KEY)
    assert str(excinfo.value) == f"block must be 16 bytes, got {length}"


# ---------------------------------------------------------------------------
# substitution coordinates

def _byte_assignment(x):
    # variable j is bit j of the byte, most significant first
    return int(f"{x:08b}"[::-1], 2)


def test_sbox_coordinates_match_table_columns():
    coords = aes.sbox_coordinate_anfs()
    for x in range(256):
        got = 0
        for c in range(8):
            got |= coords[c].evaluate_mask(_byte_assignment(x)) << (7 - c)
        assert got == aes.SBOX[x]


def test_inv_sbox_coordinates_match_table_columns():
    coords = aes.inv_sbox_coordinate_anfs()
    for x in range(256):
        for c in range(8):
            got = coords[c].evaluate_mask(_byte_assignment(x))
            assert got == (aes.INV_SBOX[x] >> (7 - c)) & 1


@pytest.mark.parametrize("direction", ["sbox", "inv_sbox"])
def test_sbox_coordinates_equal_the_per_bit_truth_table_anfs(direction):
    # the reference: one 8-variable truth table per output bit, variable 0
    # the most significant bit of the input byte
    coords = getattr(aes, f"{direction}_coordinate_anfs")()
    table = aes.SBOX if direction == "sbox" else aes.INV_SBOX
    assert len(coords) == 8
    for c in range(8):
        reference = anf_from_truth_table(TruthTable(8, [(table[x] >> (7 - c)) & 1 for x in range(256)]))
        assert coords[c].width == 8
        assert coords[c].terms == reference.terms


def test_sbox_coordinates_degree_and_balance():
    for coords, table in ((aes.sbox_coordinate_anfs(), aes.SBOX),
                          (aes.inv_sbox_coordinate_anfs(), aes.INV_SBOX)):
        for c in range(8):
            assert coords[c].degree() == 7
            tt = TruthTable(8, [(table[x] >> (7 - c)) & 1 for x in range(256)])
            assert weight(tt) == 128
            assert is_balanced(tt)


def test_sbox_bit127_equation_matches_expected_set():
    got = aes.sbox_coordinate_anfs()[7].rename(120, width=128)
    assert got.terms_as_sets() == {frozenset(t) for t in SBOX_BIT127_TERMS}
    # leading terms, canonical order
    assert got.monomials()[:5] == [(), (127,), (126, 127), (125,), (125, 126)]


def test_inv_sbox_bit0_equation_matches_expected_set():
    got = aes.inv_sbox_coordinate_anfs()[0]
    assert got.terms_as_sets() == {frozenset(t) for t in INV_SBOX_BIT0_TERMS}


# ---------------------------------------------------------------------------
# per-bit equation builders

def test_subbytes_equations_against_oracle():
    eqs = aes.subbytes_equations(SPACE)
    assert_equations_match_oracle(eqs, aes.sub_bytes, random_states(1000, 5))
    assert_equations_match_oracle(eqs, aes.sub_bytes, [bytes(16), b"\xff" * 16])


def test_subbytes_zero_block():
    eqs = aes.subbytes_equations(SPACE)
    out = batch_evaluate(eqs, [0])[0]
    assert aes.mask_to_block(out) == bytes([0x63] * 16)


def test_subbytes_byte_independence():
    eqs = aes.subbytes_equations(SPACE)
    assert eqs[127].variables() <= frozenset(range(120, 128))
    assert eqs[0].variables() <= frozenset(range(0, 8))


def test_shiftrows_equations():
    eqs = aes.shiftrows_equations(SPACE)
    assert eqs[0] == Anf.variable(128, 0)
    for i in range(8, 16):
        assert eqs[i] == Anf.variable(128, 32 + i)  # bits 8..15 read x40..x47
    states = random_states(1000, 6) + [bytes(16), b"\xff" * 16]
    assert_equations_match_oracle(eqs, aes.shift_rows, states)


def test_shiftrows_table_matches_byte_formula():
    for i in range(128):
        byte, bit = divmod(i, 8)
        row, col = byte % 4, byte // 4
        src_byte = row + 4 * ((col + row) % 4)
        assert aes.SHIFTROWS_SOURCE[i] == 8 * src_byte + bit


def test_shiftrows_permutation_inverse():
    for i in range(128):
        assert aes.INV_SHIFTROWS_SOURCE[aes.SHIFTROWS_SOURCE[i]] == i
        assert aes.SHIFTROWS_SOURCE[aes.INV_SHIFTROWS_SOURCE[i]] == i


def test_mixcolumns_last_byte_equations():
    eqs = aes.mixcolumns_equations(SPACE)
    expected = {
        120: [{97}, {96}, {104}, {112}, {121}],
        121: [{98}, {97}, {105}, {113}, {122}],
        122: [{99}, {98}, {106}, {114}, {123}],
        123: [{100}, {99}, {96}, {107}, {115}, {124}, {120}],
        124: [{101}, {100}, {96}, {108}, {116}, {125}, {120}],
        125: [{102}, {101}, {109}, {117}, {126}],
        126: [{103}, {102}, {96}, {110}, {118}, {127}, {120}],
        127: [{103}, {96}, {111}, {119}, {120}],
    }
    for bit, terms in expected.items():
        assert eqs[bit] == Anf.from_terms(128, terms)


def test_mixcolumns_equations_against_oracle():
    states = random_states(1000, 7) + [bytes(16), b"\xff" * 16]
    assert_equations_match_oracle(aes.mixcolumns_equations(SPACE), aes.mix_columns, states)


def test_inv_shiftrows_bit0():
    assert aes.inv_shiftrows_equations(SPACE)[0] == Anf.variable(128, 0)


def test_inv_mixcolumns_bit0():
    got = aes.inv_mixcolumns_equations(SPACE)[0]
    assert got == Anf.from_terms(
        128, [{3}, {2}, {1}, {11}, {9}, {8}, {19}, {18}, {16}, {27}, {24}])


def test_inverse_equations_against_oracles():
    states = random_states(1000, 8) + [bytes(16), b"\xff" * 16]
    assert_equations_match_oracle(aes.inv_subbytes_equations(SPACE), aes.inv_sub_bytes, states)
    assert_equations_match_oracle(aes.inv_shiftrows_equations(SPACE), aes.inv_shift_rows, states)
    assert_equations_match_oracle(aes.inv_mixcolumns_equations(SPACE), aes.inv_mix_columns, states)


def test_inverse_substitution_composes_to_identity():
    # symbolic composition at the byte level collapses to the projections
    sb = aes.sbox_coordinate_anfs()
    isb = aes.inv_sbox_coordinate_anfs()
    bindings = {j: sb[j] for j in range(8)}
    for c in range(8):
        assert isb[c].substitute(bindings) == Anf.variable(8, c)


def test_inverse_substitution_identity_on_states():
    sb_eqs = aes.subbytes_equations(SPACE)
    isb_eqs = aes.inv_subbytes_equations(SPACE)
    states = random_states(1000, 12)
    masks = [aes.block_to_mask(s) for s in states]
    through = batch_evaluate(isb_eqs, batch_evaluate(sb_eqs, masks))
    assert through == masks


def test_linearity_structure():
    assert all(eq.degree() == 1 for eq in aes.shiftrows_equations(SPACE))
    assert all(eq.degree() == 1 for eq in aes.mixcolumns_equations(SPACE))
    assert all(eq.degree() == 1 for eq in aes.inv_mixcolumns_equations(SPACE))
    assert all(eq.degree() == 7 for eq in aes.subbytes_equations(SPACE))
    assert all(eq.degree() == 7 for eq in aes.inv_subbytes_equations(SPACE))


# ---------------------------------------------------------------------------
# AddRoundKey

def test_addroundkey_shape():
    eqs = aes.addroundkey_equations(ARK_SPACE)
    for i, eq in enumerate(eqs):
        assert eq.term_count() == 2
        assert eq.degree() == 1
        assert eq.variables() == frozenset({i, 128 + i})


def test_addroundkey_zero_key_is_identity():
    eqs = aes.addroundkey_equations(ARK_SPACE)
    state = aes.block_to_mask(FIPS_PLAIN)
    out = batch_evaluate(eqs, [state])[0]
    assert aes.mask_to_block(out) == FIPS_PLAIN


def test_addroundkey_fips_value():
    eqs = aes.addroundkey_equations(ARK_SPACE)
    assignment = aes.block_to_mask(FIPS_PLAIN) | (aes.block_to_mask(FIPS_KEY) << 128)
    out = batch_evaluate(eqs, [assignment])[0]
    assert aes.mask_to_block(out).hex() == "00102030405060708090a0b0c0d0e0f0"


# ---------------------------------------------------------------------------
# key expansion words

def test_key_words_below_four_are_identity():
    for num in range(4):
        eqs = aes.key_expansion_word_anf(num)
        for j, eq in enumerate(eqs):
            assert eq == Anf.variable(128, 32 * num + j)


def test_key_word_indices_validated():
    with pytest.raises(ValueError):
        aes.key_expansion_word_anf(44)
    with pytest.raises(ValueError):
        aes.key_expansion_word_anf(-1)


def test_key_word4_bit0_matches_expected_set():
    got = aes.key_expansion_word_anf(4)[0]
    assert got.terms_as_sets() == {frozenset(t) for t in KEY_WORD4_BIT0_TERMS}
    # rotated substitution input plus the terminal previous-word variable
    assert frozenset({109}) in got.terms_as_sets()
    assert frozenset({109, 111}) in got.terms_as_sets()
    assert frozenset({0}) in got.terms_as_sets()


def test_key_word_anfs_reproduce_concrete_schedule():
    keys = aes.reference_key_schedule(FIPS_KEY)
    for round_index in range(1, 11):
        prev_mask = aes.block_to_mask(keys[round_index - 1])
        got_bits = []
        for w in range(4):
            eqs = aes.key_expansion_word_anf(4 * round_index + w)
            got_bits.extend(eq.evaluate_mask(prev_mask) for eq in eqs)
        got = 0
        for i, bit in enumerate(got_bits):
            got |= bit << i
        assert aes.mask_to_block(got) == keys[round_index]


def test_key_word_anfs_reproduce_the_schedule_of_random_keys():
    keys = [bytes(random.Random(seed).randbytes(16)) for seed in range(200)]
    schedules = [aes.reference_key_schedule(key) for key in keys]
    rows = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, 16)
    for round_index in range(1, 11):
        eqs = [eq for w in range(4) for eq in aes.key_expansion_word_anf(4 * round_index + w)]
        assert all(eq._rows is not None for eq in eqs)
        rows = Kernel(eqs)(rows)
        assert rows.tobytes() == b"".join(s[round_index] for s in schedules)


def test_reading_a_coordinate_term_set_leaves_the_builders_their_tables():
    # reading the term set of an Anf keeps its table; each call returns new
    # Anfs over one read-only array of the 16 tables
    tables = aes._coordinate_tables()
    assert tables.shape == (16, 32) and tables.dtype == np.uint8
    assert not tables.flags.writeable
    first = aes.sbox_coordinate_anfs()
    first[0].terms
    again = aes.sbox_coordinate_anfs()
    assert again[0] is not first[0] and again[0]._table is not None
    assert again == first
    assert aes.subbytes_equations(SPACE)[0] == first[0].rename(0, width=128)


# ---------------------------------------------------------------------------
# composed round
# ---------------------------------------------------------------------------
# composed round

@pytest.fixture(scope="module")
def round_equations():
    sb = aes.subbytes_equations(SPACE)
    mc = aes.mixcolumns_equations(SPACE)
    bindings = {j: sb[aes.SHIFTROWS_SOURCE[j]] for j in range(128)}
    return [mc[i].substitute(bindings) for i in range(128)]


def test_round_composition_against_oracle(round_equations):
    def oracle(state):
        return aes.mix_columns(aes.shift_rows(aes.sub_bytes(state)))

    assert_equations_match_oracle(round_equations, oracle, random_states(1000, 13))
    assert_equations_match_oracle(round_equations, oracle, [bytes(16), b"\xff" * 16])


def test_round_bit0_structure(round_equations):
    eq = round_equations[0]
    assert eq.degree() == 7
    # depends only on the bytes ShiftRows selects into column 0
    used_bytes = {v // 8 for v in eq.variables()}
    assert used_bytes == {0, 5, 10, 15}
    terms = eq.terms_as_sets()
    assert frozenset({4}) in terms
    assert frozenset({4, 6}) in terms
    assert frozenset({4, 6, 7}) in terms
    # the two constant contributions of the column mix cancel: evaluating the
    # byte oracle at the zero state gives 0x63, whose leading bit is 0
    assert frozenset() not in terms


def test_round_equations_max_degree(round_equations):
    assert max(eq.degree() for eq in round_equations) == 7


def test_round_equations_are_the_column_mix_with_the_substitution_substituted_in(round_equations):
    built = aes.round_equations(SPACE)
    assert all(eq._rows is not None for eq in built)
    assert [eq.term_count() for eq in built] == [len(eq.terms) for eq in round_equations]
    assert built == round_equations
