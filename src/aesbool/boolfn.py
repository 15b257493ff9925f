"""Truth tables of Boolean functions and conversion to/from ANF.

Row ordering: the input tuple (x_0, ..., x_{n-1}) maps to the row index
whose big-endian binary encoding has x_0 in the most significant position,
so row k of an n-variable table is the input whose bits are the binary
digits of k read left to right.  This single convention is used everywhere.
"""

from __future__ import annotations

import numpy as np

from .anf import Anf, _mask_rows, _subset_xor

# 2^24 output bits (16 MiB).  Wider functions have no materializable truth
# table; the AES machinery never needs one.
MAX_ARITY = 24

# The in-word steps of the transform on a table packed into 64-bit words, one
# per index bit s < 6: (2^s, the mask of the positions whose bit s is 0).
_IN_WORD_STEPS = tuple((1 << s, mask) for s, mask in enumerate((
    0x5555_5555_5555_5555, 0x3333_3333_3333_3333, 0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF, 0x0000_FFFF_0000_FFFF, 0x0000_0000_FFFF_FFFF)))


class TruthTable:
    """Immutable 2^n-entry output table of an n-variable Boolean function."""

    __slots__ = ("arity", "bits")

    def __init__(self, arity: int, bits):
        if not 1 <= arity <= MAX_ARITY:
            raise ValueError(f"arity must be in 1..{MAX_ARITY}, got {arity}")
        arr = np.asarray(bits)
        if arr.shape != (1 << arity,):
            raise ValueError(
                f"expected {1 << arity} outputs for arity {arity}, got shape {arr.shape}")
        if not np.array_equal(arr, arr != 0):   # each output equal to its truth value
            raise ValueError("outputs must be 0 or 1")
        arr = arr.astype(np.uint8)
        arr.flags.writeable = False
        self.arity = arity
        self.bits = arr

    @classmethod
    def _unchecked(cls, arity: int, bits: np.ndarray) -> "TruthTable":
        """Wrap a 0/1 ``uint8`` array of 2^arity entries that nothing else
        holds, as the library's own results are: no check and no copy."""
        bits.flags.writeable = False
        tt = object.__new__(cls)
        tt.arity = arity
        tt.bits = bits
        return tt

    @classmethod
    def from_string(cls, s: str) -> "TruthTable":
        """Parse an ASCII '0'/'1' string of length 2^n."""
        n = len(s).bit_length() - 1
        if n < 1 or len(s) != 1 << n:
            raise ValueError(f"length {len(s)} is not a power of two >= 2")
        if set(s) - {"0", "1"}:
            raise ValueError("truth table string may only contain 0 and 1")
        return cls(n, np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0"))

    def to_string(self) -> str:
        return (self.bits + ord("0")).tobytes().decode("ascii")

    def __eq__(self, other):
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.arity == other.arity and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self):
        return hash((self.arity, self.bits.tobytes()))

    def __repr__(self):
        if self.arity <= 4:
            return f"TruthTable({self.arity}, {self.to_string()!r})"
        return f"TruthTable(arity={self.arity})"


def _transform_bits(packed: np.ndarray, arity: int) -> np.ndarray:
    """The transform of a table packed little-endian into ceil(2^arity / 8)
    ``uint8`` bytes, on the words ``mobius_transform`` describes: in place
    above one word, else on a Python int, which costs less than numpy's
    fixed overhead, into a new read-only array."""
    words = int.from_bytes(packed.tobytes(), "little") if arity <= 6 else packed.view("<u8")
    for shift, mask in _IN_WORD_STEPS[:arity]:
        words ^= (words & mask) << shift
    if arity <= 6:
        return np.frombuffer(words.to_bytes(len(packed), "little"), dtype=np.uint8)
    _subset_xor(words, arity - 6)
    return packed


def mobius_transform(tt: TruthTable) -> TruthTable:
    """Subset-XOR transform: output[u] = XOR of input[v] over all v <= u.

    The table is packed into 64-bit words, bit k of the packing being row
    k: the index bits below 6 are XOR steps inside each word
    (w ^= (w & m_s) << 2^s), the higher ones a halving butterfly across
    words.  The transform is its own inverse.
    """
    packed = _transform_bits(np.packbits(tt.bits, bitorder="little"), tt.arity)
    return TruthTable._unchecked(tt.arity, np.unpackbits(packed, count=1 << tt.arity, bitorder="little"))


def anf_from_truth_table(tt: TruthTable) -> Anf:
    """Unique ANF of the function: one monomial per 1 in the transform.

    The ANF holds the packed transform as it comes, bit k the coefficient
    of truth-table index k, and builds its term set only when read.
    """
    return Anf(tt.arity, _terms=_transform_bits(np.packbits(tt.bits, bitorder="little"), tt.arity))


def truth_table_from_anf(anf: Anf, arity: int) -> TruthTable:
    """Evaluate an ANF on all 2^n inputs: the transform of its coefficients.

    An ANF that holds its table over ``arity`` variables costs one
    transform of a copy of it, and its term set stays unbuilt.  Any other
    scatters its terms' truth-table indices into a table first: their
    four-byte block rows read big-endian, shifted down by 32 - arity.
    """
    if not 1 <= arity <= MAX_ARITY:
        raise ValueError(f"arity must be in 1..{MAX_ARITY}, got {arity}")
    if anf._table is not None and anf.width == arity:
        packed = anf._table.copy()
    else:
        # the largest mask holds the highest variable; a space within the arity holds none beyond
        if anf.width > arity and anf.terms and max(anf.terms) >> arity:
            raise ValueError(f"ANF uses variable {max(anf.terms).bit_length() - 1},"
                             f" outside arity {arity}")
        coefficients = np.zeros(1 << arity, dtype=np.uint8)
        coefficients[_mask_rows(anf.terms, 4).view(">u4").ravel() >> (32 - arity)] = 1
        packed = np.packbits(coefficients, bitorder="little")
    packed = _transform_bits(packed, arity)
    return TruthTable._unchecked(arity, np.unpackbits(packed, count=1 << arity, bitorder="little"))


def evaluate(anf: Anf, assignment) -> int:
    """XOR over terms of AND over each term's variables."""
    return anf.evaluate(assignment)


def weight(tt: TruthTable) -> int:
    """Number of inputs mapped to 1."""
    return int(tt.bits.sum())


def support(tt: TruthTable) -> set[tuple[int, ...]]:
    """Input tuples mapped to 1."""
    n = tt.arity
    return {
        tuple((int(k) >> (n - 1 - j)) & 1 for j in range(n))
        for k in np.flatnonzero(tt.bits)
    }


def is_balanced(tt: TruthTable) -> bool:
    return weight(tt) == 1 << (tt.arity - 1)


def algebraic_degree(anf: Anf) -> int:
    """Largest monomial size; the zero function gets the sentinel -1."""
    return anf.degree()


def random_truth_table(arity: int, rng) -> TruthTable:
    """Uniform random table from a random.Random instance."""
    return TruthTable(arity, [rng.getrandbits(1) for _ in range(1 << arity)])
