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

A dense ANF from ``boolfn.anf_from_truth_table`` starts out as the
transform's ``uint32`` mask array instead: ``terms`` builds the set on
first access and drops the array, so exactly one of the two is ever the
source.  Until then only ``term_count``, ``evaluate_mask`` and
``boolfn.truth_table_from_anf`` read the array.

Whole masks are the unit of work wherever a layout allows it: renaming
groups the used variables by the distance each one moves and shifts the
masks' bits of a group at once (an offset is one group, so it shifts each
mask whole), and ``from_bit_rows`` builds each mask from its row's
``uint64`` words.

Evaluation at one point x uses the identity the Moebius transform rests
on, f(x) = XOR of a_u over u within x: ``evaluate_mask`` looks up the
subsets of x in the term set or scans the T terms, whichever is fewer, so
a point costs min(T, 2^|x|) once the set exists; on a mask array it is
one O(T) numpy scan.

Evaluation over a batch compiles equations into a ``Kernel`` of per-byte
truth tables in one pass: each distinct monomial gets a row of the output
bits that hold it, the row of one within a single input byte is a
coefficient of that byte's 256-entry table, and the package's one
subset-XOR pass, ``_subset_xor``, turns the coefficients into the tables.
Every stage of the AES systems has only such monomials, so a stage is an
XOR of table lookups, one per input byte.  The lookups of all output words
form one flat plan over one concatenated table run, so a stage costs one
gather and one XOR reduce whether the batch holds one block or many.  The
same pass does the cross-word steps of ``_mobius_words`` (the transform
of ``boolfn``), and in ``anfs_from_rows`` turns outputs evaluated on all
2^k points of k variables into their ANFs.
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

# The in-word steps of the transform on a table packed into 64-bit words, one
# per index bit s < 6: (2^s, the mask of the positions whose bit s is 0).
_IN_WORD_STEPS = tuple((1 << s, mask) for s, mask in enumerate((
    0x5555_5555_5555_5555, 0x3333_3333_3333_3333, 0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF, 0x0000_FFFF_0000_FFFF, 0x0000_0000_FFFF_FFFF)))
_WORD_ARITY = 6

# each byte with its bits in reverse order: variable 8c + i is bit i of
# byte c in an int mask, bit 7 - i of byte c in a row
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_REVERSED_BYTE = np.frombuffer(_REVERSED_BYTES, dtype=np.uint8)


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
    """An XOR-set of monomial masks over a variable space of fixed width.

    ``_terms`` takes the canonical masks as they are: a frozenset, or the
    distinct masks as a ``uint32`` array that the ANF then owns and turns
    into the set on first access to ``terms``.
    """

    __slots__ = ("width", "_terms", "_masks")

    def __init__(self, width: int, terms: Iterable[int] = (), *,
                 _terms: frozenset[int] | np.ndarray | None = None):
        if width < 0:
            raise ValueError("width must be non-negative")
        self.width = width
        self._masks = None
        if isinstance(_terms, np.ndarray):
            self._masks = _terms
        elif _terms is not None:
            self._terms = _terms
        else:
            folded = _xor_fold(terms)
            limit = (1 << width) - 1
            for m in folded:
                if m < 0 or m > limit:
                    raise ValueError(f"monomial mask {m:#x} outside space of width {width}")
            self._terms = folded

    @property
    def terms(self) -> frozenset[int]:
        """The monomial masks, built from the mask array on first access."""
        masks = self._masks
        if masks is not None:
            # a frozenset builds faster from ascending ints; the set is in
            # place before the array goes, so a reader finds one of them
            self._terms = frozenset(np.sort(masks).tolist())
            self._masks = None
        return self._terms

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
        masks = self._masks
        return len(self.terms if masks is None else masks)

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
        bits = np.unpackbits(_mask_bytes(self.terms, nbytes), axis=1, bitorder="little")
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
        the Moebius transform read backwards, so once the term set exists
        the cost is min(T, 2^|x|) for T terms: the walk over the 2^|x|
        subsets of x when that is shorter, else the scan over the terms.
        Before it exists, the mask array is scanned at once in numpy, O(T).
        Bits at or above the width meet no term; a negative ``ones`` sets
        them all.
        """
        full = (1 << self.width) - 1
        ones &= full
        masks = self._masks
        if masks is not None:
            # the masks within x are those with no bit outside it
            return (len(masks) - np.count_nonzero(masks & (full ^ ones))) & 1
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
        return f"Anf(width={self.width}, terms={self.term_count()})"

    def to_str(self) -> str:
        """Human-readable sum of monomials in canonical order."""
        if not self.terms:
            return "0"
        return " + ".join("".join(f"x{v}" for v in mono) or "1" for mono in self.monomials())

    __str__ = to_str


def _subset_xor(rows: np.ndarray, k: int) -> np.ndarray:
    """The subset-XOR transform, in place, of a run of 2^k-row tables along
    the first axis of ``rows``, whatever the trailing shape: one pass of the
    halving butterfly per index bit.  Returns ``rows``."""
    for half in (1 << s for s in range(k)):
        pairs = rows.reshape(len(rows) // (2 * half), 2 * half, *rows.shape[1:])
        pairs[:, half:] ^= pairs[:, :half]
    return rows


def _mobius_words(words, arity: int):
    """Subset-XOR transform of 2^arity-row tables packed little-endian into
    64-bit words, bit k of a table's packing being its row k; returns the
    words.

    A table of one word or less is a Python int, which costs less than
    numpy's fixed overhead per call; a longer one is a ``uint64`` array,
    transformed in place, that may hold a run of tables one after another.
    Each index bit s < 6 is one in-word step; the higher bits are
    :func:`_subset_xor` across a table's 2^(arity-6) words.
    """
    for shift, mask in _IN_WORD_STEPS[:arity]:
        words ^= (words & mask) << shift
    return _subset_xor(words, arity - _WORD_ARITY)


def _mask_bytes(masks, nbytes: int) -> np.ndarray:
    """Int masks as ``(len(masks), nbytes)`` little-endian ``uint8`` rows,
    bit 8c + i of a mask at bit i of byte c."""
    raw = b"".join(map(operator.methodcaller("to_bytes", nbytes, "little"), masks))
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)


def anfs_from_rows(rows: np.ndarray) -> list[Anf]:
    """The ANF of every output bit of ``(2^k, B)`` ``uint8`` value rows, over
    the k variables that sample i sets: x_v is bit v of i.  Output 8c + i is
    bit 7 - i of byte c, as in the block convention.

    One subset-XOR transform of a copy makes coefficient row u that of the
    monomial with mask u, so no bit is reversed.  Each ANF holds its masks
    as a ``uint32`` array, as those of ``anf_from_truth_table`` do.
    """
    count, nbytes = rows.shape
    k = max(count.bit_length() - 1, 0)
    if count != 1 << k or rows.dtype != np.uint8:
        raise ValueError(f"expected 2^k rows of uint8, got {count} rows of {rows.dtype}")
    coefficients = _subset_xor(rows.copy(), k).T.copy()   # one contiguous row per byte
    return [Anf(k, _terms=np.flatnonzero(coefficients[j >> 3] & 0x80 >> (j & 7) != 0).astype(np.uint32))
            for j in range(8 * nbytes)]


# rows gathered at a time: the gather's intp index, 8 bytes per (word,
# lookup, row), stays a few MB however large the batch
_ROW_BLOCK = 4096


class Kernel:
    """Equations compiled once into per-byte truth tables for evaluation
    over a batch of ``uint8`` rows in the block convention: x_{8c+i} is bit
    7-i of byte c, and so is output 8c+i.

    A monomial within one input byte is a coefficient of that byte's
    256-entry table, at its bit-reversed local index.  The compile is one
    pass over the equations: it gives each distinct monomial a row of
    output bits, output 8k+i at bit 7-i of byte k, and puts the row of each
    byte-local monomial into one ``(bytes, 256, 4 * words)`` ``uint8``
    array, which ``_subset_xor`` turns in place into tables read as one
    ``uint32`` word per (output word, byte, value).  An equation is then
    one lookup per input byte, its constant and the residual, its
    monomials over two or more bytes (no built system has one), XORed.

    The whole kernel is one lookup plan: for each (output word, lookup) the
    input column and the offset of its table in one concatenated run.
    Every word has the same lookup count; a word with fewer reads column 0
    through the all-zero table that ends the run.  A call is one gather,
    lookup-major so that the XOR reduce runs along rows of samples, and one
    constant XOR; a residual is multiplied out for all words at once.
    """

    def __init__(self, equations: Sequence[Anf]):
        width = equations[0].width if equations else 0
        for eq in equations:
            if eq.width != width:
                raise ValueError("equations span different variable spaces")
        self.width = width
        self.outputs = len(equations)
        nbytes, words = -(-width // 8), -(-self.outputs // 32)
        # each distinct monomial's row of output bits, the constant one at
        # row 0; an equation's masks are distinct, so no row repeats in an OR
        row_of = {0: 0}
        term_rows = [np.fromiter((row_of.setdefault(m, len(row_of)) for m in eq.terms),
                                 dtype=np.intp, count=len(eq.terms)) for eq in equations]
        holders = np.zeros((len(row_of), 4 * words), dtype=np.uint8)
        for j, rows in enumerate(term_rows):
            holders[rows, j >> 3] |= 0x80 >> (j & 7)
        # the monomials' bytes, one more than the width needs so that there is one
        raw = _mask_bytes(row_of, nbytes + 1)
        spread = np.count_nonzero(raw, axis=1)   # the input bytes each monomial spans
        local = np.flatnonzero(spread == 1)
        byte = raw[local].argmax(axis=1)
        # distinct monomials of one byte have distinct values, so each
        # coefficient is assigned, not XORed
        tables = np.zeros((nbytes, 256, 4 * words), dtype=np.uint8)
        tables[byte, _REVERSED_BYTE[raw[local, byte]]] = holders[local]
        tables = (_subset_xor(tables.reshape(256 * nbytes, 4 * words), 8).view("<u4")
                  .reshape(nbytes, 256, words).transpose(2, 0, 1))
        # each word reads its used bytes' tables in byte order, then the zero table
        used = tables.any(axis=2)
        counts = used.sum(axis=1)
        self._lookups = int(counts.max(initial=0))
        self._table = np.concatenate([tables[used], np.zeros((1, 256), dtype="<u4")]).ravel()
        read = (np.arange(self._lookups) < counts[:, None]).ravel()   # word-major
        self._columns = np.zeros(len(read), dtype=np.intp)
        self._columns[read] = np.nonzero(used)[1]
        self._offsets = np.full((len(read), 1), len(self._table) - 256, dtype=np.intp)
        self._offsets[read, 0] = np.arange(0, len(self._table) - 256, 256)
        self._constant = holders[0].view("<u4").reshape(-1, 1).copy()
        # the residual monomials as byte rows, and the outputs that hold each
        self._residual = _REVERSED_BYTE[raw[spread > 1, :nbytes]]
        self._selector = np.unpackbits(holders[spread > 1], axis=1)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        """Evaluate on ``(N, ceil(width / 8))`` ``uint8`` input rows.

        Returns ``(N, ceil(outputs / 8))`` ``uint8`` output rows.
        """
        if rows.ndim != 2 or rows.shape[1] != -(-self.width // 8):
            raise ValueError(f"expected rows of {-(-self.width // 8)} bytes, got shape {rows.shape}")
        if rows.dtype != np.uint8:
            raise ValueError(f"expected uint8 rows, got {rows.dtype}")
        words = len(self._constant)
        out = np.zeros((words, len(rows)), dtype="<u4")
        for start in range(0, len(rows), _ROW_BLOCK):
            block = rows[start:start + _ROW_BLOCK]
            part = out[:, start:start + _ROW_BLOCK]
            if self._lookups:
                gathered = self._table[block.T[self._columns] + self._offsets]
                np.bitwise_xor.reduce(gathered.reshape(words, self._lookups, -1), axis=1, out=part)
            if len(self._residual):   # uint8 sums wrap modulo 256, which keeps their parity
                masks = self._residual
                products = (block[:, None, :] & masks == masks).all(axis=2).view(np.uint8)
                part ^= np.packbits(products @ self._selector & 1, axis=1).view("<u4").T
        out ^= self._constant
        return np.ascontiguousarray(out.T).view(np.uint8)[:, :-(-self.outputs // 8)]


def batch_evaluate(equations: Sequence[Anf], inputs: Sequence[int]) -> list[int]:
    """Evaluate many equations on many packed assignments at once.

    ``inputs`` are int masks (bit v = value of x_v).  Returns one output
    mask per input, bit j carrying the value of ``equations[j]``.

    Turns the masks into byte rows and runs them through a :class:`Kernel`
    compiled from ``equations``.
    """
    n = len(inputs)
    if n == 0:
        return []
    kernel = Kernel(equations)
    if any(ones < 0 or ones >> kernel.width for ones in inputs):
        raise ValueError(f"input mask outside the variable space of width {kernel.width}")
    nbytes = -(-kernel.width // 8)
    out = kernel(_REVERSED_BYTE[_mask_bytes(inputs, nbytes)])
    return [int.from_bytes(row.tobytes().translate(_REVERSED_BYTES), "little") for row in out]
