import random
import tracemalloc

import pytest

from aesbool import aes
from aesbool import system as system_mod
from aesbool.anf import Anf

from conftest import DEC_TRACE_VALUES, ENC_TRACE, FIPS_CIPHER, FIPS_KEY, FIPS_PLAIN

PLAIN = bytes.fromhex(FIPS_PLAIN)
KEY = bytes.fromhex(FIPS_KEY)
CIPHER = bytes.fromhex(FIPS_CIPHER)


def random_pairs(count, seed):
    rng = random.Random(seed)
    return (
        [bytes(rng.randrange(256) for _ in range(16)) for _ in range(count)],
        [bytes(rng.randrange(256) for _ in range(16)) for _ in range(count)],
    )


# ---------------------------------------------------------------------------
# structure

def test_encryption_stage_sequence(enc_system):
    assert enc_system.direction == "enc"
    assert len(enc_system.stages) == 21
    expected = ["AddRoundKey0"]
    for r in range(9):
        expected += [f"Round{r}", f"AddRoundKey{r + 1}"]
    expected += ["Round9", "AddRoundKey10"]
    assert [s.gen_label for s in enc_system.stages] == expected
    kinds = [s.kind for s in enc_system.stages]
    assert kinds.count("AddRoundKey") == 11
    assert kinds.count("Round") == 9
    assert kinds.count("FinalRound") == 1


def test_decryption_stage_sequence(dec_system):
    assert dec_system.direction == "dec"
    assert len(dec_system.stages) == 30
    expected = ["AddRoundKey10"]
    for r in range(9, 0, -1):
        expected += [f"Round {r}", f"AddRoundKey{r}", f"InvMixColumns {r}"]
    expected += ["Round 0", "AddRoundKey0"]
    assert [s.gen_label for s in dec_system.stages] == expected
    kinds = [s.kind for s in dec_system.stages]
    assert kinds.count("AddRoundKey") == 11
    assert kinds.count("InvRound") == 10
    assert kinds.count("InvMixColumns") == 9


def test_stage_widths(enc_system, dec_system):
    for system in (enc_system, dec_system):
        for st in system.stages:
            assert len(st.equations) == 128
            if st.kind == "AddRoundKey":
                assert st.state_width == 128 and st.key_width == 128
                assert st.space.width == 256
            else:
                assert st.state_width == 128 and st.key_width == 0


def test_variable_accounting(enc_system, dec_system):
    for system in (enc_system, dec_system):
        acct = system.variable_accounting()
        assert acct["state_variables"] == 1280
        assert acct["key_variables"] == 1280
        assert acct["total"] == 2560
        assert acct["key_segments"] == 11
        assert acct["state_segments"] == 11
        assert system.key_segment_count() == 11


def test_stage_degrees(enc_system, dec_system):
    for st in enc_system.stages:
        degrees = [eq.degree() for eq in st.equations]
        if st.kind == "AddRoundKey":
            assert max(degrees) == 1
            assert all(eq.term_count() == 2 for eq in st.equations)
        else:
            assert max(degrees) == 7
    for st in dec_system.stages:
        degrees = [eq.degree() for eq in st.equations]
        if st.kind == "InvRound":
            assert max(degrees) == 7
        elif st.kind == "InvMixColumns":
            assert max(degrees) == 1


def test_final_round_is_shift_of_substitution(enc_system):
    final = enc_system.stages[19]
    assert final.kind == "FinalRound"
    sb = aes.subbytes_equations(system_mod.STATE_SPACE)
    for i in range(128):
        assert final.equations[i] == sb[aes.SHIFTROWS_SOURCE[i]]
    # the row shift composed over the substitution, by substitution alone
    bindings = dict(enumerate(sb))
    assert final.equations == tuple(
        eq.substitute(bindings) for eq in aes.shiftrows_equations(system_mod.STATE_SPACE))


def test_inv_round_is_substitution_after_inverse_shift(dec_system):
    isb = aes.inv_subbytes_equations(system_mod.STATE_SPACE)
    expected = tuple(eq.rename(aes.INV_SHIFTROWS_SOURCE) for eq in isb)
    inv_rounds = [st for st in dec_system.stages if st.kind == "InvRound"]
    assert len(inv_rounds) == 10
    for stage in inv_rounds:
        assert stage.equations == expected


def test_make_stage_validation():
    with pytest.raises(ValueError):
        system_mod.Stage("Round", 0, [Anf.one(128)] * 127)
    with pytest.raises(ValueError):
        system_mod.Stage("Round", 0, [Anf.one(64)] * 128)
    with pytest.raises(ValueError):
        system_mod.Stage("NoSuchKind", 0, [Anf.one(128)] * 128)
    with pytest.raises(ValueError):
        system_mod.Stage("Round", 11, [Anf.one(128)] * 128)


@pytest.mark.parametrize("direction, stages", [
    ("enc", [("InvMixColumns", 1)]),   # a decryption-only kind
    ("sideways", []),                  # no such direction
    ("enc", [("Round", 9)]),           # the encryption Round9 is the FinalRound
    ("enc", [("Round", 10)]),          # AES-128 has rounds 0..9 only
    ("dec", [("InvRound", 10)]),
    ("dec", [("InvMixColumns", 0)]),   # round 0 has no column mix
], ids=["enc-invmixcolumns", "sideways", "enc-round9", "enc-round10", "dec-round10",
        "dec-invmixcolumns0"])
def test_system_rejects_stages_its_files_cannot_name(direction, stages):
    # each of these would write a tree that reads back as an error or as another system
    with pytest.raises(ValueError):
        system_mod.EquationSystem(direction, tuple(
            system_mod.Stage(kind, r, [Anf.one(128)] * 128) for kind, r in stages))


def test_trace_labels_are_the_stages_of_the_built_systems(enc_system, dec_system):
    assert system_mod.DIRECTIONS == ("enc", "dec")
    labels = {(system.direction, st.trace_label): (st.kind, st.round_index)
              for system in (enc_system, dec_system) for st in system.stages}
    assert len(labels) == 21 + 30
    assert system_mod.TRACE_LABELS == labels


# ---------------------------------------------------------------------------
# evaluation

def test_encryption_trace_matches_control_listing(enc_system):
    output, trace = system_mod.evaluate_system(enc_system, PLAIN, KEY)
    assert trace == ENC_TRACE
    assert output == CIPHER


def test_decryption_trace_matches_control_listing(dec_system):
    output, trace = system_mod.evaluate_system(dec_system, CIPHER, KEY)
    assert output == PLAIN
    got = dict(trace)
    for label, value in DEC_TRACE_VALUES.items():
        assert got[label] == value, label


def test_traces_match_reference(enc_system, dec_system):
    _, enc_trace = system_mod.evaluate_system(enc_system, PLAIN, KEY)
    assert enc_trace == system_mod.reference_trace("enc", PLAIN, KEY)
    _, dec_trace = system_mod.evaluate_system(dec_system, CIPHER, KEY)
    assert dec_trace == system_mod.reference_trace("dec", CIPHER, KEY)


def test_system_equals_reference_cipher_in_bulk(enc_system):
    blocks, keys = random_pairs(1000, 21)
    outs = system_mod.evaluate_system_batch(enc_system, blocks, keys)
    for block, key, out in zip(blocks, keys, outs):
        assert out == aes.reference_encrypt(block, key)


def test_decryption_inverts_encryption_in_bulk(enc_system, dec_system):
    blocks, keys = random_pairs(1000, 22)
    cts = system_mod.evaluate_system_batch(enc_system, blocks, keys)
    back = system_mod.evaluate_system_batch(dec_system, cts, keys)
    assert back == blocks


def test_large_batches_match_the_reference_cipher_in_bounded_memory(enc_system, dec_system):
    rng = random.Random(24)
    blocks = [rng.randbytes(16) for _ in range(16384)]
    keys = [rng.randbytes(16) for _ in range(16384)]
    assert (system_mod.evaluate_system_batch(enc_system, blocks, keys)
            == [aes.reference_encrypt(b, k) for b, k in zip(blocks, keys)])
    assert (system_mod.evaluate_system_batch(dec_system, blocks, keys)
            == [aes.reference_decrypt(b, k) for b, k in zip(blocks, keys)])
    # one enc batch of N pairs peaks under 4x its (N, 11, 16) uint8 round keys
    n = 65536
    blocks = [rng.randbytes(16) for _ in range(n)]
    keys = [rng.randbytes(16) for _ in range(n)]
    tracemalloc.start()
    try:
        system_mod.evaluate_system_batch(enc_system, blocks, keys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * 11 * 16


def test_single_evaluation_matches_batch(enc_system):
    blocks, keys = random_pairs(5, 23)
    outs = system_mod.evaluate_system_batch(enc_system, blocks, keys)
    for block, key, out in zip(blocks, keys, outs):
        single, _ = system_mod.evaluate_system(enc_system, block, key)
        assert single == out


def test_single_evaluation_matches_batch_dec(dec_system):
    blocks, keys = random_pairs(5, 29)
    outs = system_mod.evaluate_system_batch(dec_system, blocks, keys)
    for block, key, out in zip(blocks, keys, outs):
        single, _ = system_mod.evaluate_system(dec_system, block, key)
        assert single == out


def test_an_empty_batch_returns_no_blocks(enc_system):
    assert system_mod.evaluate_system_batch(enc_system, [], []) == []


def test_batch_requires_matching_lengths(enc_system):
    with pytest.raises(ValueError):
        system_mod.evaluate_system_batch(enc_system, [PLAIN], [])


@pytest.mark.parametrize("length", [15, 17])
def test_evaluation_rejects_wrong_block_length(enc_system, length):
    block = bytes(range(length))
    with pytest.raises(ValueError, match="16 bytes"):
        system_mod.evaluate_system(enc_system, block, KEY)
    with pytest.raises(ValueError, match="16 bytes"):
        system_mod.evaluate_system_batch(enc_system, [PLAIN, block], [KEY, KEY])


def test_reference_trace_validates_direction():
    with pytest.raises(ValueError):
        system_mod.reference_trace("sideways", PLAIN, KEY)


def test_reference_trace_rejects_a_state_count_off_its_schedule(monkeypatch):
    states = aes.reference_encrypt_states(PLAIN, KEY)
    monkeypatch.setattr(aes, "reference_encrypt_states", lambda block, key: states[:-1])
    with pytest.raises(ValueError):
        system_mod.reference_trace("enc", PLAIN, KEY)


@pytest.mark.parametrize("direction", ["enc", "dec"])
def test_a_system_without_stages_returns_its_checked_blocks(direction):
    empty = system_mod.EquationSystem(direction, ())
    blocks, keys = random_pairs(3, 29)
    assert system_mod.evaluate_system_batch(empty, blocks, keys) == blocks
    assert system_mod.evaluate_system(empty, PLAIN, KEY) == (PLAIN, [])
    with pytest.raises(ValueError, match="16 bytes"):
        system_mod.evaluate_system(empty, PLAIN[:15], KEY)
    with pytest.raises(ValueError, match="16 bytes"):
        system_mod.evaluate_system_batch(empty, [PLAIN, PLAIN[:15]], [KEY, KEY])
