"""Sparse algebraic-normal-form algebra over a shared GF(2) variable space.

An ANF is an XOR-set of monomials.  Each monomial is stored as an int
bitmask: bit i set means variable x_i participates; the empty mask is the
constant-1 monomial.  Adding a monomial twice cancels it, multiplication
unions variable sets (x^2 = x), so the term set is always canonical and two
ANFs are equal exactly when their term sets are equal.

The canonical *ordering* of monomials is defined once, by ``Anf.rows``
(``bit_rows`` packed) and its inverse ``Anf.from_bit_rows``, the one test of
it: each mask a row of bits with variable 0 leftmost, rows ascending --
the masks as big-endian integers, variable 0 most significant.  Printing
(``mask_strings``, ``monomials``, ``to_str``) and the
one-line-per-monomial file format both use it.

An ANF holds the form it is made in, one of three, and never drops it:

  * the term set (``_terms``), unordered, which the algebra (``^``,
    ``multiply``, ``substitute``, ``rename``) makes;
  * a Moebius coefficient table (``_table``), which
    ``boolfn.anf_from_truth_table`` and ``anfs_from_rows`` make:
    ceil(2^n / 8) ``uint8`` bytes, bit k little-endian the coefficient of
    truth-table index k (x_0 its most significant bit);
  * canonical block rows (``_rows``), the rows of ``bit_rows`` packed
    (x_{8c+i} at bit 7-i of byte c), which ``from_bit_rows`` makes of
    rows in canonical order, such as a written ``.eq`` file's, and
    ``from_byte_tables`` of a direct sum: a constant plus one 8-variable
    function, given by its table, of each of some distinct input bytes.
    Every equation ``aes`` builds is such a sum.

Both arrays put x_0 first, so a table's set bits become rows with a
shift.  ``rows`` is the one producer of canonical block rows: held ones
as they are, else those of the table or the sorted term set, built once
and kept beside the form they came from, as ``terms`` keeps the masks of
``rows``.  ``term_count`` and ``degree`` read a table or rows,
``evaluate_mask`` and ``boolfn.truth_table_from_anf`` read a table, and
printing, the ``Kernel`` compile and equality of two row sets read rows.

Rows out of canonical order become a term set through whole masks:
``from_bit_rows`` builds each mask from its row's ``uint64`` words and
XOR-folds them in one pass.  Renaming, which no build or evaluation
takes, goes one variable at a time: each monomial is rebuilt from the
images of its variables.

Evaluation at one point x uses the identity the Moebius transform rests
on, f(x) = XOR of a_u over u within x: ``evaluate_mask`` looks up the
subsets of x in the term set or scans the T terms, whichever is fewer, so
a point costs min(T, 2^|x|) once the set exists; on a table it XORs the
strided sub-cube of the bytes that hold those subsets, at most 2^(n-3).

Evaluation over a batch compiles equations into a ``Kernel`` of per-byte
truth tables, one output word of 32 equations at a time: each monomial is
a block row, one within a single input byte sets its equation's output bit
in the coefficient of its value in that byte's 256-entry table, and the
package's one subset-XOR pass, ``_subset_xor``, turns the coefficients
into the tables.
Every stage of the AES systems has only such monomials, so a stage is an
XOR of table lookups, one per input byte.  The lookups of all output words
form one flat plan over one concatenated table run, so a stage costs one
gather and one XOR reduce whether the batch holds one block or many.  The
same pass runs across the words of ``boolfn``'s transform, and in
``anfs_from_rows`` turns outputs evaluated on all 2^k points of k
variables into their ANFs.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

# Ceiling on the term count a product/substitution may produce.  Flattening
# many AES rounds into one ANF blows up exponentially; failing loudly beats
# exhausting memory.
DEFAULT_MAX_TERMS = 1 << 22

# each byte with its bits in reverse order: variable 8c + i is bit i of
# byte c in an int mask, bit 7 - i of byte c in a row
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


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

    ``_terms`` takes the canonical masks as they are: a frozenset, or an
    array the ANF owns -- a dense ANF's 1-D ``uint8`` coefficient table, or
    the ``(terms, ceil(width / 8))`` ``uint8`` block rows of ``bit_rows``
    packed (x_{8c+i} at bit 7-i of byte c).  An ANF is immutable: that form
    stays held, and ``rows`` and ``terms`` are derived once beside it.
    """

    __slots__ = ("width", "_terms", "_table", "_rows")

    def __init__(self, width: int, terms: Iterable[int] = (), *,
                 _terms: frozenset[int] | np.ndarray | None = None):
        if width < 0:
            raise ValueError("width must be non-negative")
        self.width = width
        self._terms = self._table = self._rows = None
        if isinstance(_terms, np.ndarray):
            if _terms.ndim == 1:
                self._table = _terms
            else:
                self._rows = _terms
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
    def rows(self) -> np.ndarray:
        """The canonical block rows: those held, else built once from the
        table or the term set."""
        if self._rows is None:
            nbytes = -(-self.width // 8)
            if self._table is not None:   # ascending indices at the top of big-endian words
                words = (_set_bits(self._table).astype(np.uint32) << (32 - self.width)).astype(">u4")
                self._rows = words.view(np.uint8).reshape(-1, 4)[:, :nbytes]
            else:   # the masks as big-endian byte strings, sorted; one byte at least
                rows = _mask_rows(self._terms, self.width // 8 + 1)
                self._rows = rows[np.argsort(rows.view(f"V{rows.shape[1]}").ravel()), :nbytes]
        return self._rows

    @property
    def terms(self) -> frozenset[int]:
        """The monomial masks, read from ``rows`` on first access."""
        if self._terms is None:
            self._terms = frozenset(_masks_from_bytes(_reverse_bytes(self.rows)))
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

    @classmethod
    def from_byte_tables(cls, width: int, parts: Iterable[tuple[int, np.ndarray]]) -> "Anf":
        """The direct sum of 8-variable functions of distinct input bytes.

        Each part is (byte c, table): the packed Moebius table of a function
        of x_{8c}..x_{8c+7}, 32 ``uint8`` bytes as ``anfs_from_rows`` makes
        them, whose truth-table index is the byte's value in a block row.
        The result holds its canonical block rows: the all-zero row when the
        tables' index-0 bits XOR to 1, then the parts by descending byte,
        each part's other set indices ascending as that byte's value.
        """
        parts = sorted(parts, key=lambda part: part[0], reverse=True)
        nbytes = -(-width // 8)
        places = [byte for byte, _ in parts]
        if len(set(places)) != len(places):
            raise ValueError("parts must be on distinct bytes")
        if places and not (places[-1] >= 0 and places[0] < width // 8):
            raise ValueError(f"byte outside space of width {width}")
        coefficients = np.unpackbits(
            np.array([table for _, table in parts], dtype=np.uint8).reshape(len(parts), 32),
            axis=1, bitorder="little")
        constant = int(np.bitwise_xor.reduce(coefficients[:, 0], initial=0))
        coefficients[:, 0] = 0
        part, value = np.nonzero(coefficients)   # parts in order, values ascending
        rows = np.zeros((constant + len(part), nbytes), dtype=np.uint8)
        rows[constant + np.arange(len(part)), np.array(places, dtype=np.intp)[part]] = value
        return cls(width, _terms=rows)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.term_count() == 0

    def term_count(self) -> int:
        if self._table is not None:
            return int(np.bitwise_count(self._table).sum())
        return len(self.terms if self._rows is None else self._rows)

    def degree(self) -> int:
        """Largest monomial size; -1 for the zero function."""
        # a monomial's size is its index's popcount, or its block row's
        if self._table is not None:
            return int(np.bitwise_count(_set_bits(self._table)).astype(int).max(initial=-1))
        return int(np.bitwise_count(self.rows).sum(axis=1, dtype=np.intp).max(initial=-1))

    def variables(self) -> frozenset[int]:
        """All variable indices appearing in any monomial."""
        return frozenset(_vars_from_mask(reduce(operator.or_, self.terms, 0)))

    def bit_rows(self) -> np.ndarray:
        """``rows`` unpacked: a ``(terms, width)`` 0/1 ``uint8`` matrix in
        canonical order, column j carrying variable j."""
        return np.unpackbits(self.rows, axis=1, count=self.width)

    @classmethod
    def from_bit_rows(cls, rows: np.ndarray) -> "Anf":
        """Inverse of :meth:`bit_rows`: rows in any order, repeated rows cancel.

        The rows are packed into block rows, held as they are when in
        canonical order: strictly ascending, compared as big-endian words at
        the first word where two neighbours differ.  Any others are read by
        ``_masks_from_bytes``, in range by construction, and XOR-folded into
        a term set in one pass, which cancels repeated rows.
        """
        count, width = rows.shape
        packed = np.packbits(rows, axis=1)
        words = np.zeros((count, width // 64 + 1), dtype=">u8")
        words.view(np.uint8)[:, :packed.shape[1]] = packed
        pairs, first = np.arange(count - 1), (words[:-1] != words[1:]).argmax(axis=1)
        if (words[pairs, first] < words[pairs + 1, first]).all():
            return cls(width, _terms=packed)
        return cls(width, _terms=_xor_fold(_masks_from_bytes(_reverse_bytes(packed))))

    def mask_strings(self) -> list[str]:
        """Monomial masks as '0'/'1' strings, variable 0 leftmost, in
        canonical order: ascending, so the constant monomial comes first."""
        text = (self.bit_rows() | ord("0")).tobytes().decode("ascii")
        return [text[i * self.width:(i + 1) * self.width] for i in range(len(self.rows))]

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
        target space (defaults to the current width); an offset is read as
        the sequence (k, k + 1, ...).  Only the used variables' images are
        looked up, and each monomial is rebuilt as the sum of 2^image over
        its variables.  The images must be distinct and within the target.
        """
        new_width = self.width if width is None else width
        if isinstance(mapping, int):
            mapping = range(mapping, mapping + self.width)
        table = {v: mapping[v] for v in self.variables()}
        if len(set(table.values())) != len(table):
            raise ValueError("rename mapping is not injective")
        low, high = min(table.values(), default=0), max(table.values(), default=-1)
        if low < 0 or high >= new_width:
            raise ValueError(f"renamed index {low if low < 0 else high}"
                             f" outside space of width {new_width}")
        return Anf(new_width, _terms=frozenset(
            sum(1 << table[v] for v in _vars_from_mask(m)) for m in self.terms))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Sequence[int]) -> int:
        """Evaluate at a bit sequence covering every used variable."""
        # one at least as long as the space covers every variable: no term scan
        if len(assignment) < self.width:
            last = max(self.variables(), default=-1)
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
        Before it exists, the table's bytes whose high index bits (x_0 to
        x_{n-4}) lie within x are XORed as one strided sub-cube, then masked
        to the low bits within x: 10-20 us at n = 20 whatever x is.  Bits at
        or above the width meet no term; a negative ``ones`` sets them all.
        """
        ones &= (1 << self.width) - 1
        if self._table is not None:
            axes = max(self.width - 3, 0)   # axis a of the cube is x_a
            cube = self._table.reshape((2,) * axes)[tuple(
                slice(None) if ones >> a & 1 else 0 for a in range(axes))]
            low = _REVERSED_BYTES[ones >> axes] >> (8 - self.width + axes)   # index bit b is x_{n-1-b}
            within = sum(1 << b for b in range(8) if b & low == b)   # the low bits within x
            return (int(np.bitwise_xor.reduce(cube, axis=None)) & within).bit_count() & 1
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
        if self.width != other.width:
            return False
        if self._rows is not None and other._rows is not None:   # both canonical
            return bool(np.array_equal(self._rows, other._rows))
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.width, self.terms))

    def __repr__(self):
        return f"Anf(width={self.width}, terms={self.term_count()})"

    def to_str(self) -> str:
        """Human-readable sum of monomials in canonical order."""
        if self.is_zero:
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


def _reverse_bytes(rows: np.ndarray) -> np.ndarray:
    """``uint8`` rows with the bits of every byte reversed, through one
    ``bytes.translate``: little-endian mask bytes to block rows and back."""
    return np.frombuffer(rows.tobytes().translate(_REVERSED_BYTES),
                         dtype=np.uint8).reshape(rows.shape)


def _set_bits(table: np.ndarray) -> np.ndarray:
    """The positions of the set bits of a little-endian packed ``uint8``
    table, ascending; only its nonzero bytes are unpacked."""
    at = np.flatnonzero(table != 0)   # ten times faster on bool than on uint8
    byte, bit = np.nonzero(np.unpackbits(table[at], bitorder="little").reshape(-1, 8))
    return at[byte] * 8 + bit


def _mask_rows(masks, nbytes: int) -> np.ndarray:
    """Int masks as ``(len(masks), nbytes)`` ``uint8`` block rows, bit
    8c + i of a mask at bit 7 - i of byte c."""
    # fromiter stores each mask's bytes as it comes, with no list of them;
    # "S0" would be a string of any length
    size = max(nbytes, 1)
    raw = np.fromiter(map(int.to_bytes, masks, repeat(size), repeat("little")),
                      dtype=f"S{size}", count=len(masks))
    return _reverse_bytes(raw.view(np.uint8).reshape(len(masks), size)[:, :nbytes])


def _masks_from_bytes(raw: np.ndarray) -> list[int]:
    """Each little-endian ``uint8`` row of mask bytes as an int mask, from
    its ``uint64`` words shifted into place."""
    count, nbytes = raw.shape
    padded = np.zeros((count, 8 * max(1, -(-nbytes // 8))), dtype=np.uint8)
    padded[:, :nbytes] = raw
    words = padded.view("<u8").T.tolist()   # word k of every row: bits 64k..64k+63
    masks = words[0]
    for k in range(1, len(words)):
        masks = list(map(operator.or_, masks, map(operator.lshift, words[k], repeat(64 * k))))
    return masks


def anfs_from_rows(rows: np.ndarray) -> list[Anf]:
    """The ANF of every output bit of ``(2^k, B)`` ``uint8`` value rows, over
    the k variables, with the samples in truth-table order: sample i sets
    x_v to bit k-1-v of i.  Output 8c + i is bit 7 - i of byte c, as in the
    block convention.

    One subset-XOR transform of a copy makes coefficient row u that of the
    monomial with truth-table index u, so each output's column, packed, is
    the table its ANF holds; the copy and the tables are each the rows' size.
    """
    count, nbytes = rows.shape
    k = max(count.bit_length() - 1, 0)
    if count != 1 << k or rows.dtype != np.uint8:
        raise ValueError(f"expected 2^k rows of uint8, got {count} rows of {rows.dtype}")
    coefficients = _subset_xor(rows.copy(), k)
    return [Anf(k, _terms=np.packbits(coefficients[:, j >> 3] & 0x80 >> (j & 7), bitorder="little"))
            for j in range(8 * nbytes)]


# the most rows one gather takes: a larger batch is split into calls on
# blocks of this many rows, so the gather's intp index, 8 bytes per (word,
# lookup, row), stays a few MB however large the batch
_ROW_BLOCK = 4096


def _word_coefficients(equations: Sequence[Anf], nbytes: int):
    """One output word of at most 32 equations: its ``(nbytes, 256)``
    byte-local coefficients and its constant, equation j at bit j ^ 7 (bit
    7 - (j & 7) of byte j >> 3), and its residual rows with their equations.

    A monomial within one input byte is the coefficient of its block-row
    value in that byte's table.  An equation's monomials are distinct, so
    the bits that meet at one coefficient are distinct and their sum is
    their OR."""
    rows = np.concatenate([eq.rows for eq in equations])
    owners = np.repeat(np.arange(len(equations), dtype=np.uint8),
                       [len(eq.rows) for eq in equations])
    bits = np.left_shift(1, owners ^ 7, dtype=np.uint32)
    at = np.flatnonzero(rows != 0)   # every nonzero byte of every monomial
    row = at // max(nbytes, 1)
    spread = np.bincount(row, minlength=len(rows))   # the input bytes each monomial spans
    one = spread[row] == 1
    at, row = at[one], row[one]
    index = (at - row * nbytes) * 256 + rows.ravel()[at]
    coefficients = np.bincount(index, bits[row], 256 * nbytes).reshape(nbytes, 256)
    return coefficients, bits[spread == 0].sum(), rows[spread > 1], owners[spread > 1]


class Kernel:
    """Equations compiled once into per-byte truth tables for evaluation
    over a batch of ``uint8`` rows in the block convention: x_{8c+i} is bit
    7-i of byte c, and so is output 8c+i.

    The compile takes each equation's monomials as its canonical block
    rows (``Anf.rows``), and sets the output bits of 32 equations at a
    time straight into a ``(bytes, 256, words)`` ``uint32`` array of
    coefficients (``_word_coefficients``), which ``_subset_xor`` turns in
    place into one table per (output word, byte).
    An equation is then one lookup per input byte, its constant and the
    residual, its monomials over two or more bytes (no built system has
    one, so ``np.unique`` finds their distinct rows among few), XORed.

    The whole kernel is one lookup plan: for each (output word, lookup) the
    input column and the offset of its table in one concatenated run.
    Every word has the same lookup count; a word with fewer reads column 0
    through the all-zero table that ends the run.  A call on at most
    ``_ROW_BLOCK`` rows is one gather of the plan's columns, one gather of
    the tables at their offsets, shaped ``(words, lookups, rows)`` so that
    the XOR reduce runs along rows of samples, and one constant XOR; a
    residual is multiplied out for all words at once.  The byte widths and
    the plan's shaped views are worked out at compile time, so a call on
    one row costs a handful of numpy calls.  A larger batch is evaluated a
    block of rows at a time, by calls on each block, and joined.
    """

    def __init__(self, equations: Sequence[Anf]):
        width = equations[0].width if equations else 0
        for eq in equations:
            if eq.width != width:
                raise ValueError("equations span different variable spaces")
        self.width = width
        self.outputs = len(equations)
        nbytes, words = -(-width // 8), -(-self.outputs // 32)
        self._in_bytes, self._out_bytes = nbytes, -(-self.outputs // 8)
        tables = np.zeros((nbytes, 256, words), dtype="<u4")
        self._constant = np.zeros((words, 1), dtype="<u4")
        residual, holders = [np.zeros((0, nbytes), dtype=np.uint8)], [np.zeros(0, dtype=np.intp)]
        for w in range(words):
            tables[:, :, w], self._constant[w], rows, owners = _word_coefficients(
                equations[32 * w:32 * w + 32], nbytes)
            residual.append(rows)
            holders.append(32 * w + owners.astype(np.intp))
        tables = _subset_xor(tables.reshape(256 * nbytes, words), 8).reshape(
            nbytes, 256, words).transpose(2, 0, 1)
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
        # the same plan as (word, lookup) views, so a gather comes out
        # shaped for the reduce over each word's lookups
        self._gather = (self._columns.reshape(words, self._lookups),
                        self._offsets.reshape(words, self._lookups, 1))
        # the distinct residual monomials as block rows, and the outputs that hold each
        self._residual, inverse = np.unique(np.concatenate(residual), axis=0, return_inverse=True)
        self._selector = np.zeros((len(self._residual), 32 * words), dtype=np.uint8)
        self._selector[inverse.reshape(-1), np.concatenate(holders)] = 1

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        """Evaluate on ``(N, ceil(width / 8))`` ``uint8`` input rows.

        Returns ``(N, ceil(outputs / 8))`` ``uint8`` output rows.
        """
        if rows.ndim != 2 or rows.shape[1] != self._in_bytes:
            raise ValueError(f"expected rows of {self._in_bytes} bytes, got shape {rows.shape}")
        if rows.dtype != np.uint8:
            raise ValueError(f"expected uint8 rows, got {rows.dtype}")
        if len(rows) > _ROW_BLOCK:
            return np.concatenate([self(rows[start:start + _ROW_BLOCK])
                                   for start in range(0, len(rows), _ROW_BLOCK)])
        columns, offsets = self._gather
        index = rows.T.take(columns, axis=0).astype(np.intp)   # cast once, then add in place
        index += offsets
        out = np.bitwise_xor.reduce(self._table.take(index), axis=1)
        if len(self._residual):   # uint8 sums wrap modulo 256, which keeps their parity
            masks = self._residual
            products = (rows[:, None, :] & masks == masks).all(axis=2).view(np.uint8)
            out ^= np.packbits(products @ self._selector & 1, axis=1).view("<u4").T
        out ^= self._constant
        return np.ascontiguousarray(out.T).view(np.uint8)[:, :self._out_bytes]


def batch_evaluate(equations: Sequence[Anf], inputs: Sequence[int]) -> list[int]:
    """Evaluate many equations on many packed assignments at once.

    ``inputs`` are int masks (bit v = value of x_v).  Returns one output
    mask per input, bit j carrying the value of ``equations[j]``.

    Turns the masks into byte rows and runs them through a :class:`Kernel`
    compiled from ``equations``.
    """
    if len(inputs) == 0:
        return []
    kernel = Kernel(equations)
    if any(ones < 0 or ones >> kernel.width for ones in inputs):
        raise ValueError(f"input mask outside the variable space of width {kernel.width}")
    return _masks_from_bytes(_reverse_bytes(kernel(_mask_rows(inputs, -(-kernel.width // 8)))))
