"""Bit-exact reading and writing of equation systems, one file per bit.

Layout under ``<dest>/AES_files_<enc|dec>/``:

    <NN>_<stagelabel>/bit_000.eq ... bit_127.eq
    END                          -- end-of-generation marker
    manifest.txt                 -- direction, stage order and widths

Every ``.eq`` line is one monomial: a constant character ('1' only for the
constant monomial, whose mask is all zeros) followed, with no delimiter, by
a '0'/'1' mask of the stage input width -- 128 state positions, plus 128
key positions for AddRoundKey stages.  Mask position j (variable 0
leftmost) is 1 exactly when variable j participates.  Lines are in the
canonical order of ``Anf.bit_rows``, each ends in one line feed, and the
zero equation is an empty file.

A file body is a byte matrix of one row per monomial, ``width + 2`` bytes
wide (flag, mask, line feed).  The writer fills that matrix from the
equation's bit rows and writes it whole; the reader views the file's bytes
as the matrix, checks every row at once and packs the mask columns into
block rows, which the Anf of a file in canonical order holds as they are
(the ``Kernel`` compiles from them, with no term set built).  Only the
message for the first bad line is built line by line.  The writer goes
bit by bit, rendering each distinct stage's equation once per bit, and
gives every stage of one kind the same file for a bit, so the reader
goes bit by bit through the stages, compares each file with those it
already parsed at the same (kind, bit) and shares the Anf of an equal
one; each side holds the bytes of the current bit only.

Each name in the tree and the manifest text are built by one function
here, and the reader inverts the writer: it takes only the direction and
the stage labels from the manifest, which must equal their rendering byte
for byte.  Equation lines must end in a line feed; in any order they still
XOR together.  A tree is written under a temporary name and moved into
place once complete.  Every file is written and read through a raw
descriptor (``os.open``/``os.write``/``os.read``), with no file object
around it, since the tree is thousands of small files.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .anf import Anf
from .system import (DIRECTIONS, SCHEDULE_POSITIONS, STAGE_KINDS, TRACE_LABELS, EquationSystem,
                     Stage)

_ZERO, _ONE, _LF = b"01\n"   # the byte values of the .eq characters

MANIFEST_NAME = "manifest.txt"
END_NAME = "END"

_MANIFEST_HEADER = (
    "# aesbool AES-128 Boolean equation system\n"
    "# direction={}\n"
    "# mask layout: positions 0..127 state variables;"
    " AddRoundKey lines append key variables at 128..255\n")
_HEADER_LINES = _MANIFEST_HEADER.count("\n")


class ParseError(ValueError):
    """A system directory or equation file that cannot be decoded."""


def system_dirname(direction: str) -> str:
    return f"AES_files_{direction}"


def _stage_dirname(index: int, trace_label: str) -> str:
    return f"{index:02d}_{trace_label}"


_BIT_FILENAMES = tuple(f"bit_{bit:03d}.eq" for bit in range(128))

# O_BINARY exists only on Windows, where it keeps a line feed from becoming CRLF
_O_BINARY = getattr(os, "O_BINARY", 0)
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _O_BINARY
_READ_FLAGS = os.O_RDONLY | _O_BINARY


def render_manifest(direction: str, stages: list[tuple[str, str]]) -> str:
    """Manifest text of a system from its (trace label, kind) stages."""
    lines = [_MANIFEST_HEADER.format(direction)]
    for index, (label, kind) in enumerate(stages):
        stage_kind = STAGE_KINDS[kind]
        lines.append(f"stage {index} {label} state_width={stage_kind.state_width}"
                     f" key_width={stage_kind.key_width}\n")
    return "".join(lines)


def _render_equation(anf: Anf) -> bytes:
    """The ``.eq`` body of an equation: one byte row per monomial of
    ``Anf.bit_rows`` -- constant flag, mask characters, line feed."""
    bits = anf.bit_rows()
    body = np.empty((len(bits), anf.width + 2), dtype=np.uint8)
    body[:, 0] = np.where(bits.any(axis=1), _ZERO, _ONE)
    body[:, 1:-1] = bits | _ZERO
    body[:, -1] = _LF
    return body.tobytes()


def _parse_equation(data: bytes, width: int, source) -> Anf:
    """Decode an ASCII ``.eq`` body into an ANF over ``width`` variables.

    The lines before the first one of the wrong length form a byte matrix
    whose every row is checked at once; a malformed body raises ParseError
    naming its first bad line.  The mask columns are packed into block
    rows; rows in canonical order, as the writer writes them, are the
    ANF's held rows, and rows in any other order XOR together.
    """
    chars = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(chars == _LF)
    if data and chars[-1] != _LF:
        raise ParseError(f"{source}:{len(ends) + 1}: last line has no line feed")
    lengths = ends.copy()
    lengths[1:] -= ends[:-1] + 1
    wrong = np.flatnonzero(lengths != width + 1)
    count = int(wrong[0]) if len(wrong) else len(ends)
    digits = chars[:count * (width + 2)].reshape(count, width + 2)[:, :-1] - _ZERO
    illegal = (digits > 1).any(axis=1)      # any byte but '0' (0) and '1' (1)
    marked = digits[:, 0] == 1
    # the flag must be '1' exactly on the all-zero mask
    bad = illegal | (marked == digits[:, 1:].any(axis=1))
    if bad.any():
        line = int(np.argmax(bad))
        if illegal[line]:
            problem = "illegal character"
        elif marked[line]:
            problem = "constant line must have an all-zero mask"
        else:
            problem = "empty monomial must use the constant marker"
        raise ParseError(f"{source}:{line + 1}: {problem}")
    if count < len(ends):
        raise ParseError(
            f"{source}:{count + 1}: expected {width + 1} characters, got {lengths[count]}")
    rows = np.packbits(digits[:, 1:], axis=1)
    # canonical order is strictly ascending rows, compared as big-endian
    # words at the first word where two neighbours differ
    words = np.zeros((count, width // 64 + 1), dtype=">u8")
    words.view(np.uint8)[:, :rows.shape[1]] = rows
    pairs = np.arange(count - 1)
    first = (words[:-1] != words[1:]).argmax(axis=1)
    if (words[pairs, first] < words[pairs + 1, first]).all():
        return Anf(width, _terms=rows)
    return Anf.from_bit_rows(digits[:, 1:])


def render_equation_lines(anf: Anf) -> list[str]:
    """Encode an ANF as its sorted monomial lines (without newlines)."""
    return _render_equation(anf).decode("ascii").split("\n")[:-1]


def parse_equation_lines(lines, width: int, *, source: str = "<memory>") -> Anf:
    """Decode monomial lines back into an ANF over ``width`` variables."""
    # a character no line may hold becomes one '?', so lengths stay and it is illegal
    body = "".join(line.replace("\n", "?") + "\n" for line in lines)
    return _parse_equation(body.encode("ascii", "replace"), width, source)


def _write_bytes(path, data: bytes) -> None:
    # mode 0o666 as open() uses: os.open's default 0o777 makes files executable
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:   # a write may take fewer bytes than it was given
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def write_system(system: EquationSystem, dest) -> Path:
    """Write every stage of ``system`` under dest/AES_files_<direction>/.

    Deterministic: equal systems produce byte-identical trees.  Every stage
    directory is made first; then, bit by bit, the equation of each
    distinct stage (stages holding the same equation objects, such as the
    nine Round stages of a built or read-back encryption system) is
    rendered once and written into each directory of that stage, so only
    one file body is held at a time.  The tree is built in a temporary
    directory under ``dest``, removed on any error, and moved into place
    once complete.  It replaces an earlier generated tree; anything else of
    that name is left untouched and reported.  Returns the manifest path.
    """
    dest = Path(dest)
    root = dest / system_dirname(system.direction)
    if root.exists() and not (root / MANIFEST_NAME).exists() and any(root.iterdir()):
        raise OSError(
            f"{root} exists and does not look like a generated system; not overwriting")
    try:
        dest.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=f".{root.name}-", dir=dest))
    except OSError as exc:
        raise OSError(f"cannot create {root}: {exc}") from exc
    try:
        tree = staging / root.name   # a plain mkdir, so the usual permissions
        tree.mkdir()
        # the stage directories of each distinct equation tuple, by identity
        prefixes: dict[tuple[int, ...], tuple[tuple[Anf, ...], list[str]]] = {}
        for index, stage in enumerate(system.stages):
            stage_dir = tree / _stage_dirname(index, stage.trace_label)
            stage_dir.mkdir()
            prefixes.setdefault(tuple(map(id, stage.equations)), (stage.equations, []))[1].append(
                os.path.join(stage_dir, ""))
        for bit, name in enumerate(_BIT_FILENAMES):
            for equations, stage_prefixes in prefixes.values():
                body = _render_equation(equations[bit])
                for prefix in stage_prefixes:
                    _write_bytes(prefix + name, body)
        _write_bytes(tree / END_NAME, b"")
        manifest = render_manifest(
            system.direction, [(st.trace_label, st.kind) for st in system.stages])
        _write_bytes(tree / MANIFEST_NAME, manifest.encode("ascii"))
        if root.exists():
            shutil.rmtree(root)
        os.replace(tree, root)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return root / MANIFEST_NAME


def _read_bytes(path, missing: str) -> bytes:
    try:
        fd = os.open(path, _READ_FLAGS)
        try:
            # fstat sizes the reads, which go on to end of file; on a directory os.read fails
            size = os.fstat(fd).st_size
            chunks = []
            while chunk := os.read(fd, size + 1):
                chunks.append(chunk)
            return b"".join(chunks)
        finally:
            os.close(fd)
    except FileNotFoundError:
        raise ParseError(f"{path}: {missing}") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _check_ascii(path, data: bytes) -> None:
    if not data.isascii():
        offset = next(i for i, byte in enumerate(data) if byte >= 0x80)
        raise ParseError(f"{path}: non-ASCII byte at offset {offset}")


def _split_lines(text: str, source) -> list[str]:
    """Lines as the writer joins them: each one ends in a single line feed."""
    lines = text.split("\n")
    if lines.pop():
        raise ParseError(f"{source}:{len(lines) + 1}: last line has no line feed")
    return lines


def _read_manifest(manifest: Path) -> tuple[str, list[tuple[str, str, int]]]:
    """Direction and (trace label, kind, round index) stages of a manifest,
    whose text must equal the rendering of its direction and labels.  The
    stages must follow the direction's schedule: an encryption tree whose
    header says "dec" names its stages out of order, unless it has only
    one, such as Round0, which then reads as InvRound0."""
    data = _read_bytes(manifest, "manifest not found (incomplete or foreign directory)")
    _check_ascii(manifest, data)
    text = data.decode("ascii")
    lines = _split_lines(text, manifest)
    # with no header matching, the comparison below names the first wrong line
    direction = next((d for d in DIRECTIONS if text.startswith(_MANIFEST_HEADER.format(d))),
                     DIRECTIONS[0])
    positions = SCHEDULE_POSITIONS[direction]
    stages = []
    for lineno, line in enumerate(lines[_HEADER_LINES:], start=_HEADER_LINES + 1):
        fields = line.split(" ")
        found = TRACE_LABELS.get((direction, fields[2])) if len(fields) > 2 else None
        if found is None:
            break
        if stages and positions[fields[2]] <= positions[stages[-1][0]]:
            raise ParseError(f"{manifest}:{lineno}: stage {fields[2]!r} is out of order:"
                             f" the {direction} schedule does not put it after {stages[-1][0]!r}")
        stages.append((fields[2], *found))
    expected = _split_lines(
        render_manifest(direction, [(label, kind) for label, kind, _ in stages]), manifest)
    for lineno, (got, want) in enumerate(itertools.zip_longest(lines, expected), start=1):
        if got == want:
            continue
        fields = (got or "").split(" ")
        if lineno == _HEADER_LINES + len(stages) + 1 and len(fields) > 2:
            raise ParseError(f"{manifest}:{lineno}: unrecognized stage label {fields[2]!r}")
        got, want = ("end of file" if s is None else repr(s) for s in (got, want))
        raise ParseError(f"{manifest}:{lineno}: malformed: found {got}, expected {want}")
    return direction, stages


def read_system(path) -> EquationSystem:
    """Rebuild an EquationSystem from a directory write_system produced.

    The files are read bit by bit, each bit through the stages in order:
    of several faults, the one at the lowest bit, then earliest stage, is
    reported.  Stages of one kind share the Anf of each byte-identical
    file, and each Anf of a canonical file holds its packed block rows
    until its term set is read, so the system's kernels compile from the
    rows with no term set built."""
    root = Path(path)
    direction, entries = _read_manifest(root / MANIFEST_NAME)
    prefixes = [os.path.join(root / _stage_dirname(index, label), "")
                for index, (label, _, _) in enumerate(entries)]
    columns: list[list[Anf]] = [[] for _ in entries]
    for name in _BIT_FILENAMES:
        # Files of one (kind, bit) are byte-identical in every stage the
        # writer wrote, such as the nine Round stages of an encryption tree;
        # one equal to a file parsed at this bit shares its Anf, so equal
        # stages compare by identity.  Only this bit's bytes are kept.
        parsed: dict[str, list[tuple[bytes, Anf]]] = {}
        for (_, kind, _), prefix, column in zip(entries, prefixes, columns):
            eq_path = prefix + name
            data = _read_bytes(eq_path, "missing equation file")
            known = parsed.setdefault(kind, [])
            eq = next((anf for seen, anf in known if seen == data), None)
            if eq is None:
                _check_ascii(eq_path, data)
                eq = _parse_equation(data, STAGE_KINDS[kind].space.width, eq_path)
                known.append((data, eq))
            column.append(eq)
    stages = (Stage(kind, round_index, column)
              for (_, kind, round_index), column in zip(entries, columns))
    return EquationSystem(direction, tuple(stages))
