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
``boolfn.truth_table_from_anf`` read the array.  An equation parsed from a
canonical ``.eq`` file holds its monomials the same way, as the packed
block rows of ``bit_rows`` (``_rows``): ``term_count``, ``bit_rows`` and
the ``Kernel`` compile read them, and ``terms`` builds the set and drops
them.

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

    ``_terms`` takes the canonical masks as they are: a frozenset, or an
    array that the ANF then owns and turns into the set on first access to
    ``terms`` -- the distinct masks as a 1-D ``uint32`` array, or the
    ``(terms, ceil(width / 8))`` ``uint8`` block rows of ``bit_rows``
    packed, in canonical order (x_{8c+i} is bit 7-i of byte c).
    """

    __slots__ = ("width", "_terms", "_masks", "_rows")

    def __init__(self, width: int, terms: Iterable[int] = (), *,
                 _terms: frozenset[int] | np.ndarray | None = None):
        if width < 0:
            raise ValueError("width must be non-negative")
        self.width = width
        self._masks = self._rows = None
        if isinstance(_terms, np.ndarray):
            if _terms.ndim == 1:
                self._masks = _terms
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
    def terms(self) -> frozenset[int]:
        """The monomial masks, built from the held array on first access."""
        # the set is in place before the array goes, so a reader finds one of them
        if self._masks is not None:
            # a frozenset builds faster from ascending ints
            self._terms = frozenset(np.sort(self._masks).tolist())
            self._masks = None
        elif self._rows is not None:
            self._terms = frozenset(_masks_from_bytes(_reverse_bytes(self._rows)))
            self._rows = None
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
        held = self._masks if self._rows is None else self._rows
        return len(self.terms if held is None else held)

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
        if self._rows is not None:
            return np.unpackbits(self._rows, axis=1, count=self.width)
        nbytes = self.width // 8 + 1   # at least one byte, for the zero-width space
        rows = _mask_rows(self.terms, nbytes)
        # the rows as big-endian byte strings, variable 0 most significant,
        # compared byte by byte
        keys = rows.view(f"V{nbytes}").ravel()
        return np.unpackbits(rows[np.argsort(keys)], axis=1, count=self.width)

    @classmethod
    def from_bit_rows(cls, rows: np.ndarray) -> "Anf":
        """Inverse of :meth:`bit_rows`: rows in any order, repeated rows cancel.

        The rows are packed little-endian and read by ``_masks_from_bytes``;
        masks decoded from ``width`` columns are in range by construction.
        """
        count, width = rows.shape
        masks = _masks_from_bytes(np.packbits(rows, axis=1, bitorder="little"))
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


def _reverse_bytes(rows: np.ndarray) -> np.ndarray:
    """``uint8`` rows with the bits of every byte reversed, through one
    ``bytes.translate``: little-endian mask bytes to block rows and back."""
    return np.frombuffer(rows.tobytes().translate(_REVERSED_BYTES),
                         dtype=np.uint8).reshape(rows.shape)


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


def _block_rows(equations: Sequence[Anf], nbytes: int) -> tuple[np.ndarray, np.ndarray]:
    """Every monomial of at most 256 ``equations`` as a block row, and the
    index of each row's equation as ``uint8``.  Held rows are taken as they
    are; the masks of the other equations go through one ``_mask_rows``
    together."""
    held = [(j, eq._rows) for j, eq in enumerate(equations) if eq._rows is not None]
    sets = [(j, eq.terms) for j, eq in enumerate(equations) if eq._rows is None]
    parts = [rows for _, rows in held]
    if sets:
        parts.append(_mask_rows([m for _, terms in sets for m in terms], nbytes))
    owners = np.array([j for j, _ in held + sets], dtype=np.uint8)
    rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return rows, np.repeat(owners, [len(part) for _, part in held + sets])


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


def _word_coefficients(equations: Sequence[Anf], nbytes: int):
    """One output word of at most 32 equations: its ``(nbytes, 256)``
    byte-local coefficients and its constant, equation j at bit j ^ 7 (bit
    7 - (j & 7) of byte j >> 3), and its residual rows with their equations.

    A monomial within one input byte is the coefficient of its block-row
    value in that byte's table.  An equation's monomials are distinct, so
    the bits that meet at one coefficient are distinct and their sum is
    their OR."""
    rows, owners = _block_rows(equations, nbytes)
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

    The compile takes each equation's monomials as block rows, those a
    parsed equation holds or those of its term set, and sets the output
    bits of 32 equations at a time straight into a ``(bytes, 256, words)``
    ``uint32`` array of coefficients (``_word_coefficients``), which
    ``_subset_xor`` turns in place into one table per (output word, byte).
    An equation is then one lookup per input byte, its constant and the
    residual, its monomials over two or more bytes (no built system has
    one, so ``np.unique`` finds their distinct rows among few), XORed.

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
        # the distinct residual monomials as block rows, and the outputs that hold each
        self._residual, inverse = np.unique(np.concatenate(residual), axis=0, return_inverse=True)
        self._selector = np.zeros((len(self._residual), 32 * words), dtype=np.uint8)
        self._selector[inverse.reshape(-1), np.concatenate(holders)] = 1

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
    out = kernel(_mask_rows(inputs, nbytes))
    return [int.from_bytes(row.tobytes().translate(_REVERSED_BYTES), "little") for row in out]
