"""Sparse algebraic-normal-form algebra over a shared GF(2) variable space.

An ANF is an XOR-set of monomials.  Each monomial is stored as an int
bitmask: bit i set means variable x_i participates; the empty mask is the
constant-1 monomial.  Adding a monomial twice cancels it, multiplication
unions variable sets (x^2 = x), so the term set is always canonical and two
ANFs are equal exactly when their term sets are equal.

The canonical *ordering* of monomials is defined once, by
``Anf.bit_rows``: each mask written as a row of bits with variable 0
leftmost, rows sorted ascending -- the masks as big-endian integers with
variable 0 in the most significant position.  Printing (``mask_strings``,
``monomials``, ``to_str``) and the one-line-per-monomial file format both
use it.  It is materialized only when needed; the working representation
is an unordered frozenset.

Whole masks are the unit of work wherever a layout allows it: renaming
groups the used variables by the distance each one moves and shifts the
masks' bits of a group at once (an offset is one group, so it shifts each
mask whole), and ``from_bit_rows`` builds each mask from its row's
``uint64`` words.

Evaluation at one point x uses the identity the Moebius transform rests
on, f(x) = XOR of a_u over u within x: ``evaluate_mask`` looks up the
subsets of x in the term set or scans the T terms, whichever is fewer, so
a point costs min(T, 2^|x|).
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

# Ceiling on the term count a product/substitution may produce.  Flattening
# many AES rounds into one ANF blows up exponentially; failing loudly beats
# exhausting memory.
DEFAULT_MAX_TERMS = 1 << 22

# Gathered monomial rows one Kernel reduction may hold at once, in uint64
# words (512 KiB): the XOR pass never materializes every monomial instance
# of a large batch.
_GATHER_WORDS = 1 << 16
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class TermLimitError(RuntimeError):
    """A product or substitution exceeded the configured term budget."""


class VarSpace:
    """Named, contiguous variable segments partitioning [0, width).

    Built from (name, length) pairs; segment starts are cumulative.
    """

    def __init__(self, segments: Sequence[tuple[str, int]]):
        self._starts: dict[str, int] = {}
        self._lengths: dict[str, int] = {}
        self.names: tuple[str, ...] = tuple(name for name, _ in segments)
        pos = 0
        for name, length in segments:
            if name in self._starts:
                raise ValueError(f"duplicate segment name {name!r}")
            if length <= 0:
                raise ValueError(f"segment {name!r} must have positive length")
            self._starts[name] = pos
            self._lengths[name] = length
            pos += length
        self.width = pos

    def start(self, name: str) -> int:
        return self._starts[name]

    def length(self, name: str) -> int:
        return self._lengths[name]

    def segment(self, name: str) -> range:
        s = self._starts[name]
        return range(s, s + self._lengths[name])

    def __eq__(self, other):
        if not isinstance(other, VarSpace):
            return NotImplemented
        return (self.names == other.names
                and self._starts == other._starts
                and self._lengths == other._lengths)

    def __hash__(self):
        return hash((self.names, tuple(self._lengths[n] for n in self.names)))

    def __repr__(self):
        parts = ", ".join(f"{n}:{self._lengths[n]}" for n in self.names)
        return f"VarSpace({parts})"


def _mask_from_vars(vars_: Iterable[int], width: int) -> int:
    mask = 0
    for v in vars_:
        if not 0 <= v < width:
            raise ValueError(f"variable index {v} outside space of width {width}")
        mask |= 1 << v
    return mask


def _vars_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _xor_fold(masks: Iterable[int]) -> frozenset[int]:
    acc: set[int] = set()
    for m in masks:
        if m in acc:
            acc.remove(m)
        else:
            acc.add(m)
    return frozenset(acc)


class Anf:
    """An XOR-set of monomial masks over a variable space of fixed width."""

    __slots__ = ("width", "terms")

    def __init__(self, width: int, terms: Iterable[int] = (), *, _terms: frozenset[int] | None = None):
        if width < 0:
            raise ValueError("width must be non-negative")
        self.width = width
        if _terms is not None:
            self.terms = _terms
        else:
            folded = _xor_fold(terms)
            limit = (1 << width) - 1
            for m in folded:
                if m < 0 or m > limit:
                    raise ValueError(f"monomial mask {m:#x} outside space of width {width}")
            self.terms = folded

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, width: int) -> "Anf":
        return cls(width, _terms=frozenset())

    @classmethod
    def one(cls, width: int) -> "Anf":
        return cls(width, _terms=frozenset((0,)))

    @classmethod
    def variable(cls, width: int, index: int) -> "Anf":
        if not 0 <= index < width:
            raise ValueError(f"variable index {index} outside space of width {width}")
        return cls(width, _terms=frozenset((1 << index,)))

    @classmethod
    def from_terms(cls, width: int, terms: Iterable[Iterable[int]]) -> "Anf":
        """Build from an iterable of variable-index collections (XOR-folded)."""
        return cls(width, (_mask_from_vars(t, width) for t in terms))

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Largest monomial size; -1 for the zero function."""
        if not self.terms:
            return -1
        return max(m.bit_count() for m in self.terms)

    def variables(self) -> frozenset[int]:
        """All variable indices appearing in any monomial."""
        return frozenset(_vars_from_mask(self._used_mask()))

    def _used_mask(self) -> int:
        used = 0
        for m in self.terms:
            used |= m
        return used

    def bit_rows(self) -> np.ndarray:
        """Monomial masks as a ``(terms, width)`` 0/1 ``uint8`` matrix in
        canonical order, column j carrying variable j."""
        nbytes = self.width // 8 + 1   # at least one byte, for the zero-width space
        raw = b"".join(map(operator.methodcaller("to_bytes", nbytes, "little"), self.terms))
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(self.terms), nbytes),
                             axis=1, bitorder="little")
        # the rows as big-endian byte strings, variable 0 most significant,
        # compared byte by byte
        keys = np.packbits(bits, axis=1).view(f"V{nbytes}").ravel()
        return bits[np.argsort(keys), :self.width]

    @classmethod
    def from_bit_rows(cls, rows: np.ndarray) -> "Anf":
        """Inverse of :meth:`bit_rows`: rows in any order, repeated rows cancel.

        The rows are packed into little-endian ``uint64`` words, and each
        mask is its words shifted into place; masks decoded from ``width``
        columns are in range by construction.
        """
        count, width = rows.shape
        packed = np.zeros((count, 8 * max(1, -(-width // 64))), dtype=np.uint8)
        packed[:, :-(-width // 8)] = np.packbits(rows, axis=1, bitorder="little")
        words = packed.view("<u8").T.tolist()   # word k of every row: bits 64k..64k+63
        masks = words[0]
        for k in range(1, len(words)):
            masks = list(map(operator.or_, masks, map(operator.lshift, words[k], repeat(64 * k))))
        # a frozenset copied from a set is sized to it; one grown from a
        # list keeps the slack of its growth, up to twice the size
        terms = set(masks)
        if len(terms) < count:   # a repeated row: fold the rows pairwise
            terms = _xor_fold(masks)
        return cls(width, _terms=frozenset(terms))

    def mask_strings(self) -> list[str]:
        """Monomial masks as '0'/'1' strings, variable 0 leftmost, in
        canonical order: ascending, so the constant monomial comes first."""
        text = (self.bit_rows() | ord("0")).tobytes().decode("ascii")
        return [text[i * self.width:(i + 1) * self.width] for i in range(len(self.terms))]

    def monomials(self) -> list[tuple[int, ...]]:
        """Monomials as sorted index tuples, in canonical order."""
        return [tuple(i for i, c in enumerate(mask) if c == "1")
                for mask in self.mask_strings()]

    def terms_as_sets(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(_vars_from_mask(m)) for m in self.terms)

    # -- algebra ----------------------------------------------------------

    def __xor__(self, other: "Anf") -> "Anf":
        self._check_space(other)
        return Anf(self.width, _terms=self.terms ^ other.terms)

    def multiply(self, other: "Anf", max_terms: int = DEFAULT_MAX_TERMS) -> "Anf":
        """GF(2) product with idempotent variables; guards term blowup."""
        self._check_space(other)
        if len(self.terms) > len(other.terms):
            a, b = other.terms, self.terms
        else:
            a, b = self.terms, other.terms
        acc: set[int] = set()
        for ma in a:
            for mb in b:
                m = ma | mb
                if m in acc:
                    acc.remove(m)
                else:
                    acc.add(m)
            if len(acc) > max_terms:
                raise TermLimitError(
                    f"product exceeds {max_terms} terms "
                    f"({len(self.terms)} x {len(other.terms)} inputs)")
        return Anf(self.width, _terms=frozenset(acc))

    def __mul__(self, other: "Anf") -> "Anf":
        return self.multiply(other)

    def substitute(self, bindings: Mapping[int, "Anf"],
                   max_terms: int = DEFAULT_MAX_TERMS) -> "Anf":
        """Replace every variable by its bound ANF (functional composition).

        All bound ANFs must share one target space; every variable occurring
        in a monomial must be bound.
        """
        widths = {g.width for g in bindings.values()}
        if len(widths) > 1:
            raise ValueError("bindings span different variable spaces")
        target = widths.pop() if widths else self.width
        acc: set[int] = set()
        for mask in self.terms:
            # a linear monomial is its one binding, with no product taken
            prod = None
            for v in _vars_from_mask(mask):
                try:
                    g = bindings[v]
                except KeyError:
                    raise ValueError(f"variable {v} is unbound in substitution") from None
                prod = g if prod is None else prod.multiply(g, max_terms)
            acc ^= {0} if prod is None else prod.terms
            if len(acc) > max_terms:
                raise TermLimitError(f"substitution exceeds {max_terms} terms")
        return Anf(target, _terms=frozenset(acc))

    def rename(self, mapping, width: int | None = None) -> "Anf":
        """Injectively remap variable indices.

        ``mapping`` is an int offset k (variable v goes to v + k), a sequence
        indexed by old variable, or a mapping {old: new}.  ``width`` sets the
        target space (defaults to the current width).  The used variables
        are grouped by their distance, image minus index: each mask becomes
        the OR over the groups of its bits in the group, shifted by that
        group's distance.  An offset is one group and shifts whole masks.
        """
        new_width = self.width if width is None else width
        used = _vars_from_mask(self._used_mask())
        if isinstance(mapping, int):
            table = {v: v + mapping for v in used}
        else:
            table = {v: mapping[v] for v in used}
        if len(set(table.values())) != len(table):
            raise ValueError("rename mapping is not injective")
        terms = self.terms
        if table:
            low, high = min(table.values()), max(table.values())
            if low < 0 or high >= new_width:
                raise ValueError(f"renamed index {low if low < 0 else high}"
                                 f" outside space of width {new_width}")
            groups: dict[int, int] = {}
            for v, img in table.items():
                groups[img - v] = groups.get(img - v, 0) | 1 << v
            masks = None
            for distance, group in groups.items():
                part = terms if len(groups) == 1 else map(operator.and_, terms, repeat(group))
                part = (map(operator.lshift, part, repeat(distance)) if distance >= 0
                        else map(operator.rshift, part, repeat(-distance)))
                masks = part if masks is None else map(operator.or_, masks, part)
            terms = masks
        return Anf(new_width, _terms=frozenset(terms))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Sequence[int]) -> int:
        """Evaluate at a bit sequence covering every used variable."""
        # one at least as long as the space covers every variable: no term scan
        if len(assignment) < self.width:
            last = self._used_mask().bit_length() - 1
            if last >= len(assignment):
                raise ValueError(
                    f"assignment of length {len(assignment)} does not cover variable {last}")
        ones = 0
        for i, bit in enumerate(assignment):
            if bit:
                ones |= 1 << i
        return self.evaluate_mask(ones)

    def evaluate_mask(self, ones: int) -> int:
        """Evaluate at an assignment packed as an int (bit i = x_i).

        f(x) = XOR of the coefficients a_u over the monomials u within x,
        the Moebius transform read backwards, so the cost is
        min(T, 2^|x|) for T terms: the walk over the 2^|x| subsets of x
        when that is shorter, else the scan over the terms.  Bits at or
        above the width meet no term; a negative ``ones`` sets them all.
        """
        ones &= (1 << self.width) - 1
        terms = self.terms
        if 1 << ones.bit_count() < len(terms):
            acc = 0
            sub = ones
            while True:
                acc ^= sub in terms
                if not sub:
                    return acc
                sub = (sub - 1) & ones
        acc = 0
        for m in terms:
            if m & ones == m:
                acc ^= 1
        return acc

    # -- plumbing -----------------------------------------------------------

    def _check_space(self, other: "Anf") -> None:
        if self.width != other.width:
            raise ValueError(
                f"variable spaces differ (width {self.width} vs {other.width})")

    def __eq__(self, other):
        if not isinstance(other, Anf):
            return NotImplemented
        return self.width == other.width and self.terms == other.terms

    def __hash__(self):
        return hash((self.width, self.terms))

    def __repr__(self):
        return f"Anf(width={self.width}, terms={len(self.terms)})"

    def to_str(self) -> str:
        """Human-readable sum of monomials in canonical order."""
        if not self.terms:
            return "0"
        return " + ".join("".join(f"x{v}" for v in mono) or "1" for mono in self.monomials())

    __str__ = to_str


def pack_columns(bits: np.ndarray) -> np.ndarray:
    """Bitslice 0/1 samples along the last axis into ``uint64`` words.

    A ``(..., N)`` array becomes ``(..., ceil(N / 64))``: bit ``k`` of the
    samples lands in word ``k // 64``.  Padding bits are zero.
    """
    n = bits.shape[-1]
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros(bits.shape[:-1] + (-(-n // 64) * 8,), dtype=np.uint8)
    out[..., :packed.shape[-1]] = packed
    return out.view(np.uint64)


def unpack_columns(columns: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_columns`: the first ``n`` samples as 0/1 bytes."""
    return np.unpackbits(columns.view(np.uint8), axis=-1, count=n, bitorder="little")


class Kernel:
    """Equations compiled once for bitsliced evaluation over a batch.

    ``monomials`` is a ``(U, depth)`` array holding the variable indices of
    the equations' U distinct monomials, padded with ``width``: the index of
    an all-ones column, so shorter monomials (and the constant monomial,
    which has no variables) AND in ones.  The selector gives, output by
    output, the rows of ``monomials`` each equation XORs.  Evaluating ANDs
    each distinct monomial once for the whole batch and then takes the
    parities, so a monomial shared by many equations costs one product.
    """

    def __init__(self, equations: Sequence[Anf]):
        width = equations[0].width if equations else 0
        for eq in equations:
            if eq.width != width:
                raise ValueError("equations span different variable spaces")
        self.width = width
        self.outputs = len(equations)
        # The selector is one flat list of monomial rows, grouped by output:
        # equation rows[k] XORs selector[starts[k]:starts[k + 1]].  Zero
        # equations have no group and stay zero.
        row_of: dict[int, int] = {}
        self._selector = np.array(
            [row_of.setdefault(m, len(row_of)) for eq in equations for m in eq.terms],
            dtype=np.intp)
        self._rows = np.array([j for j, eq in enumerate(equations) if eq.terms],
                              dtype=np.intp)
        self._starts = np.cumsum([0, *(len(eq.terms) for eq in equations if eq.terms)],
                                 dtype=np.intp)
        depth = max([1, *(m.bit_count() for m in row_of)])
        self.monomials = np.full((len(row_of), depth), width, dtype=np.intp)
        for i, m in enumerate(row_of):
            vars_ = _vars_from_mask(m)
            self.monomials[i, :len(vars_)] = vars_

    def __call__(self, columns: np.ndarray) -> np.ndarray:
        """Evaluate on ``(width, words)`` bitsliced ``uint64`` input columns.

        Returns ``(outputs, words)`` columns, row j carrying equation j.
        """
        # the padding index must land on the appended all-ones row
        if columns.shape[0] != self.width:
            raise ValueError(f"expected {self.width} input columns, got {columns.shape[0]}")
        words = columns.shape[1]
        ones = np.full((1, words), _ALL_ONES, dtype=np.uint64)
        columns = np.concatenate((columns, ones))
        values = columns[self.monomials[:, 0]]
        for d in range(1, self.monomials.shape[1]):
            values &= columns[self.monomials[:, d]]
        out = np.zeros((self.outputs, words), dtype=np.uint64)
        # Reduce a run of outputs at a time so the gathered monomial rows
        # stay within _GATHER_WORDS, whatever the batch size.
        rows, starts, selector = self._rows, self._starts, self._selector
        step = max(1, _GATHER_WORDS // max(words, 1))
        k = 0
        while k < len(rows):
            stop = int(np.searchsorted(starts, starts[k] + step, side="right")) - 1
            stop = max(stop, k + 1)
            lo, hi = starts[k], starts[stop]
            out[rows[k:stop]] = np.bitwise_xor.reduceat(
                values[selector[lo:hi]], starts[k:stop] - lo, axis=0)
            k = stop
        return out


def batch_evaluate(equations: Sequence[Anf], inputs: Sequence[int]) -> list[int]:
    """Evaluate many equations on many packed assignments at once.

    ``inputs`` are int masks (bit v = value of x_v).  Returns one output
    mask per input, bit j carrying the value of ``equations[j]``.

    Bitslices the masks into ``uint64`` columns and runs them through a
    :class:`Kernel` compiled from ``equations``.
    """
    n = len(inputs)
    if n == 0:
        return []
    kernel = Kernel(equations)
    if any(ones < 0 or ones >> kernel.width for ones in inputs):
        raise ValueError(f"input mask outside the variable space of width {kernel.width}")
    nbytes = (kernel.width + 7) // 8
    raw = b"".join(ones.to_bytes(nbytes, "little") for ones in inputs)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(n, nbytes),
                         axis=1, count=kernel.width, bitorder="little")
    out = unpack_columns(kernel(pack_columns(bits.T)), n)
    packed = np.packbits(out.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
