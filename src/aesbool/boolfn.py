"""Truth tables of Boolean functions and conversion to/from ANF.

Row ordering: the input tuple (x_0, ..., x_{n-1}) maps to the row index
whose big-endian binary encoding has x_0 in the most significant position,
so row k of an n-variable table is the input whose bits are the binary
digits of k read left to right.  This single convention is used everywhere.
"""

from __future__ import annotations

import numpy as np

from .anf import Anf

# 2^24 output bits (16 MiB).  Wider functions have no materializable truth
# table; the AES machinery never needs one.
MAX_ARITY = 24


class TruthTable:
    """Immutable 2^n-entry output table of an n-variable Boolean function."""

    __slots__ = ("arity", "bits")

    def __init__(self, arity: int, bits):
        if not 1 <= arity <= MAX_ARITY:
            raise ValueError(f"arity must be in 1..{MAX_ARITY}, got {arity}")
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.shape != (1 << arity,):
            raise ValueError(
                f"expected {1 << arity} outputs for arity {arity}, got shape {arr.shape}")
        if not np.all(arr <= 1):
            raise ValueError("outputs must be 0 or 1")
        arr = arr.copy()
        arr.flags.writeable = False
        self.arity = arity
        self.bits = arr

    @classmethod
    def from_string(cls, s: str) -> "TruthTable":
        """Parse an ASCII '0'/'1' string of length 2^n."""
        n = len(s).bit_length() - 1
        if len(s) != 1 << n or n < 1:
            raise ValueError(f"length {len(s)} is not a power of two >= 2")
        if set(s) - {"0", "1"}:
            raise ValueError("truth table string may only contain 0 and 1")
        return cls(n, np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0"))

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

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


def mobius_transform(tt: TruthTable) -> TruthTable:
    """Subset-XOR transform: output[u] = XOR of input[v] over all v <= u.

    Implemented as the in-place halving butterfly, one doubling pass per
    variable; the transform is its own inverse.
    """
    a = tt.bits.copy()
    half = 1
    size = a.size
    while half < size:
        a = a.reshape(-1, 2 * half)
        a[:, half:] ^= a[:, :half]
        half *= 2
    return TruthTable(tt.arity, a.reshape(size))


def _reverse_variables(bits: np.ndarray, arity: int) -> np.ndarray:
    """Reorder a 2^n array so index bit j moves to bit n-1-j; its own inverse.

    Turns row order (x_0 most significant) into monomial-mask order
    (x_0 least significant) and back.
    """
    return bits.reshape((2,) * arity).transpose().ravel()


def anf_from_truth_table(tt: TruthTable) -> Anf:
    """Unique ANF of the function: one monomial per 1 in the transform."""
    coefficients = _reverse_variables(mobius_transform(tt).bits, tt.arity)
    return Anf(tt.arity, _terms=frozenset(np.flatnonzero(coefficients).tolist()))


def truth_table_from_anf(anf: Anf, arity: int) -> TruthTable:
    """Evaluate an ANF on all 2^n inputs: the transform of its coefficients."""
    if not 1 <= arity <= MAX_ARITY:
        raise ValueError(f"arity must be in 1..{MAX_ARITY}, got {arity}")
    # the largest mask holds the highest variable; a space within the arity holds none beyond
    if anf.width > arity and anf.terms and max(anf.terms) >> arity:
        raise ValueError(f"ANF uses variable {max(anf.terms).bit_length() - 1},"
                         f" outside arity {arity}")
    coefficients = np.zeros(1 << arity, dtype=np.uint8)
    coefficients[np.fromiter(anf.terms, dtype=np.intp, count=len(anf.terms))] = 1
    return mobius_transform(TruthTable(arity, _reverse_variables(coefficients, arity)))


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
