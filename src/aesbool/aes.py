"""AES-128 building blocks, twice over.

Byte-level reference primitives (the oracle everything is checked against)
and symbolic per-bit ANF builders for every cipher sub-function and its
inverse.  The oracle is table-driven: SubBytes is a ``bytes.translate``
through SBOX, MixColumns XORs the state translated through one 256-byte
GF(2^8) product table per coefficient (each built from ``gf_mul``), and
AddRoundKey and the key schedule XOR whole blocks and words as ints.  It
uses no equation, so it stays independent of what it checks.
``reference_encrypt_states`` and ``reference_decrypt_states`` return the
state after every stage, unlabelled; ``system`` names the stages.  No
evaluation of an equation system calls the oracle: ``system`` makes its
round keys from ``key_expansion_word_anf``, and ``reference_key_schedule``
serves the tests, ``system.reference_trace`` and the benchmark's checks.

Every symbolic equation is a direct sum of 8-variable functions of
distinct input bytes, built by ``Anf.from_byte_tables`` from their packed
Moebius tables, so it holds canonical block rows.  The S-box coordinate
tables come from one transform of SBOX and INV_SBOX; a linear layer, and
the Round's column mix after the substitution, XORs the coordinate tables
that its GF(2) matrix picks, read from the product tables.  Bit
conventions, used consistently:

  * a 128-bit block is a 16-byte string in FIPS hex order;
  * bit b_i lives in byte i // 8, most significant bit first;
  * symbolic variable x_i corresponds to bit b_i of a stage's input.

The substitution table is embedded as data; its inverse is derived from it.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .anf import _REVERSED_BYTES, Anf, VarSpace, anfs_from_rows

SBOX = (
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
)

INV_SBOX = tuple(SBOX.index(v) for v in range(256))

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

BLOCK_BITS = 128
BLOCK_BYTES = 16

# Source index of every output bit of ShiftRows: output bit i reads input
# bit SHIFTROWS_SOURCE[i].  This is the published flat 128-index table.
SHIFTROWS_SOURCE = (
    0, 1, 2, 3, 4, 5, 6, 7,
    40, 41, 42, 43, 44, 45, 46, 47,
    80, 81, 82, 83, 84, 85, 86, 87,
    120, 121, 122, 123, 124, 125, 126, 127,
    32, 33, 34, 35, 36, 37, 38, 39,
    72, 73, 74, 75, 76, 77, 78, 79,
    112, 113, 114, 115, 116, 117, 118, 119,
    24, 25, 26, 27, 28, 29, 30, 31,
    64, 65, 66, 67, 68, 69, 70, 71,
    104, 105, 106, 107, 108, 109, 110, 111,
    16, 17, 18, 19, 20, 21, 22, 23,
    56, 57, 58, 59, 60, 61, 62, 63,
    96, 97, 98, 99, 100, 101, 102, 103,
    8, 9, 10, 11, 12, 13, 14, 15,
    48, 49, 50, 51, 52, 53, 54, 55,
    88, 89, 90, 91, 92, 93, 94, 95,
)

INV_SHIFTROWS_SOURCE = tuple(SHIFTROWS_SOURCE.index(i) for i in range(BLOCK_BITS))

MIX_COEFFS = (0x02, 0x03, 0x01, 0x01)
INV_MIX_COEFFS = (0x0E, 0x0B, 0x0D, 0x09)


# ---------------------------------------------------------------------------
# GF(2^8) arithmetic and block/bit packing

def xtime(a: int) -> int:
    """Multiply by 02 modulo the AES polynomial (reduction constant 0x1B)."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a


def gf_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a = xtime(a)
        b >>= 1
    return r


def block_to_mask(block: bytes) -> int:
    """Pack a 16-byte block into an int with bit i carrying b_i."""
    return int.from_bytes(block.translate(_REVERSED_BYTES), "little")


def mask_to_block(mask: int) -> bytes:
    return mask.to_bytes(BLOCK_BYTES, "little").translate(_REVERSED_BYTES)


def block_from_hex(s: str) -> bytes:
    if len(s) != 32:
        raise ValueError(f"expected 32 hex characters, got {len(s)}")
    return bytes.fromhex(s)


# ---------------------------------------------------------------------------
# Byte-level reference primitives
#
# A state is 16 bytes, byte r + 4c holding row r of column c; as a
# big-endian int each column is one 32-bit lane with row 0 on top.  The
# tables below are built once at import.

_SBOX_BYTES = bytes(SBOX)
_INV_SBOX_BYTES = bytes(INV_SBOX)

# state byte r + 4c; row r rotates left by r columns
_SHIFT_ROWS = operator.itemgetter(*((b + 4 * (b % 4)) % 16 for b in range(16)))
_INV_SHIFT_ROWS = operator.itemgetter(*((b - 4 * (b % 4)) % 16 for b in range(16)))

_LANES = int.from_bytes(b"\0\0\0\1" * 4, "big")  # 1 in every column's last byte
# rotating each lane left by k bytes: the bytes that stay in the lane, and
# the k top bytes that wrap round to its bottom
_ROTATE_KEEP = tuple(((0xFFFFFFFF << 8 * k) & 0xFFFFFFFF) * _LANES for k in range(4))
_ROTATE_WRAP = tuple(((1 << 8 * k) - 1) * _LANES for k in range(4))


def _product_tables(coeffs) -> tuple[bytes, ...]:
    """One 256-byte table of x -> c * x per coefficient c.  gf_mul loops
    once per bit of its second factor, so the small coefficient goes there."""
    return tuple(bytes(gf_mul(x, c) for x in range(256)) for c in coeffs)


_MIX_TABLES = _product_tables(MIX_COEFFS)
_INV_MIX_TABLES = _product_tables(INV_MIX_COEFFS)


def sub_bytes(state: bytes) -> bytes:
    return state.translate(_SBOX_BYTES)


def inv_sub_bytes(state: bytes) -> bytes:
    return state.translate(_INV_SBOX_BYTES)


def shift_rows(state: bytes) -> bytes:
    return bytes(_SHIFT_ROWS(state))


def inv_shift_rows(state: bytes) -> bytes:
    return bytes(_INV_SHIFT_ROWS(state))


def _mix(state: bytes, tables: tuple[bytes, ...]) -> bytes:
    """Output row r of a column is the XOR over k of coeffs[k] * row r + k:
    the state through table k, rotated up by k rows in every column."""
    out = int.from_bytes(state.translate(tables[0]), "big")
    for k in (1, 2, 3):
        product = int.from_bytes(state.translate(tables[k]), "big")
        out ^= (product << 8 * k) & _ROTATE_KEEP[k] | (product >> 32 - 8 * k) & _ROTATE_WRAP[k]
    return out.to_bytes(BLOCK_BYTES, "big")


def mix_columns(state: bytes) -> bytes:
    return _mix(state, _MIX_TABLES)


def inv_mix_columns(state: bytes) -> bytes:
    return _mix(state, _INV_MIX_TABLES)


def add_round_key(state: bytes, round_key: bytes) -> bytes:
    xored = int.from_bytes(state, "big") ^ int.from_bytes(round_key, "big")
    return xored.to_bytes(BLOCK_BYTES, "big")


def reference_key_schedule(key: bytes) -> list[bytes]:
    """Expand a 16-byte key into the 11 round keys (44 words).

    A round key is one 128-bit int of four 32-bit words w0..w3, w0 on top.
    With t = SubWord(RotWord(w3)) and Rcon XORed into its top byte, the next
    key is w0^t, w1^w0^t, w2^w1^w0^t, w3^w2^w1^w0^t: the key XORed with
    itself shifted down by one, two and three words, and t in every word.
    """
    check_key(key)
    keys = [bytes(key)]
    words = int.from_bytes(key, "big")
    for rcon in RCON:
        last = words & 0xFFFFFFFF
        rotated = (last << 8 | last >> 24) & 0xFFFFFFFF
        new = int.from_bytes(rotated.to_bytes(4, "big").translate(_SBOX_BYTES), "big") ^ rcon << 24
        words ^= words >> 32 ^ words >> 64 ^ words >> 96 ^ new * _LANES
        keys.append(words.to_bytes(BLOCK_BYTES, "big"))
    return keys


def check_block(block: bytes) -> None:
    """Raise ValueError unless ``block`` is 16 bytes long."""
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"block must be {BLOCK_BYTES} bytes, got {len(block)}")


def check_key(key: bytes) -> None:
    """Raise ValueError unless ``key`` is 16 bytes long."""
    if len(key) != BLOCK_BYTES:
        raise ValueError(f"key must be {BLOCK_BYTES} bytes, got {len(key)}")


def reference_encrypt(block: bytes, key: bytes) -> bytes:
    return reference_encrypt_states(block, key)[-1]


def reference_decrypt(block: bytes, key: bytes) -> bytes:
    return reference_decrypt_states(block, key)[-1]


def reference_encrypt_states(block: bytes, key: bytes) -> list[bytes]:
    """Encrypt, recording the state after each of the 21 encryption stages."""
    check_block(block)
    keys = reference_key_schedule(key)
    state = add_round_key(block, keys[0])
    states = [state]
    for r in range(9):
        state = mix_columns(shift_rows(sub_bytes(state)))
        states.append(state)
        state = add_round_key(state, keys[r + 1])
        states.append(state)
    state = shift_rows(sub_bytes(state))
    states.append(state)
    states.append(add_round_key(state, keys[10]))
    return states


def reference_decrypt_states(block: bytes, key: bytes) -> list[bytes]:
    """Decrypt, recording the state after each of the 30 decryption stages:
    AddRoundKey sits between the byte inversion and the column mix."""
    check_block(block)
    keys = reference_key_schedule(key)
    state = add_round_key(block, keys[10])
    states = [state]
    for r in range(9, 0, -1):
        state = inv_sub_bytes(inv_shift_rows(state))
        states.append(state)
        state = add_round_key(state, keys[r])
        states.append(state)
        state = inv_mix_columns(state)
        states.append(state)
    state = inv_sub_bytes(inv_shift_rows(state))
    states.append(state)
    states.append(add_round_key(state, keys[0]))
    return states


# ---------------------------------------------------------------------------
# Symbolic per-bit equation builders
#
# A function of one byte is its packed Moebius table: 32 bytes, bit u the
# coefficient of the monomial whose variables are the set bits of the byte
# value u (x_0 the most significant).

# the table of variable x_q of a byte: its one monomial is the byte 0x80 >> q
_VARIABLE_TABLES = np.packbits(np.arange(256) == (0x80 >> np.arange(8))[:, None],
                               axis=1, bitorder="little")

# the state byte that ShiftRows moves into byte b
_SHIFTROWS_BYTES = tuple(SHIFTROWS_SOURCE[8 * b] // 8 for b in range(BLOCK_BYTES))


@lru_cache(maxsize=None)
def _coordinate_tables() -> np.ndarray:
    """The tables of the 8 coordinates of SBOX, then the 8 of INV_SBOX, as
    one read-only ``(16, 32)`` ``uint8`` array, from one transform of both
    tables: input byte i, whose bit j most significant first is x_j, is
    row i in truth-table order."""
    tables = np.array([anf._table for anf in
                       anfs_from_rows(np.array([SBOX, INV_SBOX], dtype=np.uint8).T)])
    tables.setflags(write=False)
    return tables


def _coordinate_anfs(tables: np.ndarray) -> tuple[Anf, ...]:
    """New ANFs over the cached tables, so that the forms one caller's
    ANFs derive and keep are not held by every other caller's."""
    return tuple(Anf(8, _terms=table) for table in tables)


def sbox_coordinate_anfs() -> tuple[Anf, ...]:
    """ANFs of the 8 substitution output bits over an 8-variable space.

    Variable j is bit j (MSB first) of the input byte; coordinate c is
    output bit c.
    """
    return _coordinate_anfs(_coordinate_tables()[:8])


def inv_sbox_coordinate_anfs() -> tuple[Anf, ...]:
    return _coordinate_anfs(_coordinate_tables()[8:])


def _segment_byte(space: VarSpace, name: str) -> int:
    """The first byte of a 128-variable segment that starts on a byte."""
    start = space.start(name)
    if space.length(name) != BLOCK_BITS or start % 8:
        raise ValueError(f"the {name} must be {BLOCK_BITS} variables from a byte boundary")
    return start // 8


def _bytewise_equations(tables: np.ndarray, space: VarSpace) -> list[Anf]:
    first = _segment_byte(space, "state")
    return [Anf.from_byte_tables(space.width, [(first + byte, tables[bit])])
            for byte in range(BLOCK_BYTES) for bit in range(8)]


def subbytes_equations(space: VarSpace) -> list[Anf]:
    """128 equations: the 8 coordinate tables placed on each byte position."""
    return _bytewise_equations(_coordinate_tables()[:8], space)


def inv_subbytes_equations(space: VarSpace) -> list[Anf]:
    return _bytewise_equations(_coordinate_tables()[8:], space)


def _permutation_equations(source, space: VarSpace) -> list[Anf]:
    first = _segment_byte(space, "state")
    return [Anf.from_byte_tables(space.width, [(first + src // 8, _VARIABLE_TABLES[src % 8])])
            for src in source]


def shiftrows_equations(space: VarSpace) -> list[Anf]:
    """128 single-variable equations following the published index table."""
    return _permutation_equations(SHIFTROWS_SOURCE, space)


def inv_shiftrows_equations(space: VarSpace) -> list[Anf]:
    return _permutation_equations(INV_SHIFTROWS_SOURCE, space)


def _matrix_equations(products, coords: np.ndarray, sources, space: VarSpace) -> list[Anf]:
    """The column mix whose coefficient k has the product table
    ``products[k]``, applied to bytes with coordinate tables ``coords``;
    output byte 4 col + row reads byte ``sources[4 col + r]`` of the input
    for row r of the column, through coefficient (r - row) % 4.

    Output bit ``bit`` of c * y takes bit q of y (both most significant
    first) when c * (0x80 >> q) has it, so the part of coefficient k and
    output bit ``bit`` is the XOR of the coordinate tables that picks[k,
    bit] selects."""
    first = _segment_byte(space, "state")
    picks = np.array([[[table[0x80 >> q] >> (7 - bit) & 1 for q in range(8)] for bit in range(8)]
                      for table in products], dtype=np.uint8)
    parts = np.bitwise_xor.reduce(picks[..., None] * coords, axis=2)
    eqs = []
    for i in range(BLOCK_BITS):
        byte, bit = divmod(i, 8)
        col, row = divmod(byte, 4)
        eqs.append(Anf.from_byte_tables(space.width, [
            (first + sources[4 * col + r], parts[(r - row) % 4, bit]) for r in range(4)]))
    return eqs


def mixcolumns_equations(space: VarSpace) -> list[Anf]:
    """128 linear equations from the circulant (02 03 01 01) column mix."""
    return _matrix_equations(_MIX_TABLES, _VARIABLE_TABLES, range(BLOCK_BYTES), space)


def inv_mixcolumns_equations(space: VarSpace) -> list[Anf]:
    return _matrix_equations(_INV_MIX_TABLES, _VARIABLE_TABLES, range(BLOCK_BYTES), space)


def round_equations(space: VarSpace) -> list[Anf]:
    """128 equations of MixColumns(ShiftRows(SubBytes(state))): the column
    mix over the substitution's coordinate tables, each output column
    reading the four bytes that ShiftRows brings into it."""
    return _matrix_equations(_MIX_TABLES, _coordinate_tables()[:8], _SHIFTROWS_BYTES, space)


def addroundkey_equations(space: VarSpace) -> list[Anf]:
    """128 equations x_i ^ k_i over a state+key space."""
    state, key = _segment_byte(space, "state"), _segment_byte(space, "key")
    return [Anf.from_byte_tables(space.width, [(state + byte, _VARIABLE_TABLES[bit]),
                                               (key + byte, _VARIABLE_TABLES[bit])])
            for byte in range(BLOCK_BYTES) for bit in range(8)]


def key_expansion_word_anf(num: int) -> list[Anf]:
    """32 bit-equations of expanded-key word ``num`` (0..43).

    Words 0..3 are the identity on the cipher-key variables.  Later words
    are expressed over the 128 variables of the previous round's key, whose
    word n is bytes 4n..4n+3.  Byte b of word 0 is the substitution of byte
    (b + 1) % 4 of the last word (the rotation), with the round constant's
    bits as its constant, plus byte b of the previous word 0; words 1..3
    chain by XOR, so byte b of word num % 4 also adds byte b of the
    previous words 1..num % 4.
    """
    if not 0 <= num <= 43:
        raise ValueError(f"word index {num} outside 0..43")
    words = []
    for j in range(32):
        byte, bit = divmod(j, 8)
        if num < 4:
            parts = [(4 * num + byte, _VARIABLE_TABLES[bit])]
        else:
            sub = _coordinate_tables()[bit].copy()
            if byte == 0:
                sub[0] ^= RCON[num // 4 - 1] >> (7 - bit) & 1   # bit 0: the constant monomial
            parts = [(12 + (byte + 1) % 4, sub),
                     *((4 * n + byte, _VARIABLE_TABLES[bit]) for n in range(num % 4 + 1))]
        words.append(Anf.from_byte_tables(BLOCK_BITS, parts))
    return words
