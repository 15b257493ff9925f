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
canonical order of ``Anf.mask_strings``, each ends in one line feed, and
the zero equation is an empty file.

Each name in the tree and the manifest text are built by one function
here, and the reader inverts the writer: it takes only the direction and
the stage labels from the manifest, which must equal their rendering byte
for byte.  Equation lines must end in a line feed; in any order they still
XOR together.  A tree is written under a temporary name and moved into
place once complete.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
from pathlib import Path

from .anf import Anf
from .system import DIRECTIONS, STAGE_KINDS, TRACE_LABELS, EquationSystem, Stage

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


def _bit_filename(bit: int) -> str:
    return f"bit_{bit:03d}.eq"


def render_manifest(direction: str, stages: list[tuple[str, str]]) -> str:
    """Manifest text of a system from its (trace label, kind) stages."""
    lines = [_MANIFEST_HEADER.format(direction)]
    for index, (label, kind) in enumerate(stages):
        space = STAGE_KINDS[kind].space
        state = space.length("state")
        lines.append(f"stage {index} {label} state_width={state}"
                     f" key_width={space.width - state}\n")
    return "".join(lines)


def render_equation_lines(anf: Anf) -> list[str]:
    """Encode an ANF as its sorted monomial lines (without newlines)."""
    return [("0" if "1" in mask else "1") + mask for mask in anf.mask_strings()]


def parse_equation_lines(lines, width: int, *, source: str = "<memory>") -> Anf:
    """Decode monomial lines back into an ANF over ``width`` variables."""
    terms = []
    for lineno, line in enumerate(lines, start=1):
        if len(line) != 1 + width:
            raise ParseError(
                f"{source}:{lineno}: expected {1 + width} characters, got {len(line)}")
        const, mask_str = line[0], line[1:]
        if const not in "01" or set(mask_str) - {"0", "1"}:
            raise ParseError(f"{source}:{lineno}: illegal character")
        mask = int(mask_str[::-1], 2) if "1" in mask_str else 0
        if const == "1" and mask:
            raise ParseError(
                f"{source}:{lineno}: constant line must have an all-zero mask")
        if const == "0" and not mask:
            raise ParseError(
                f"{source}:{lineno}: empty monomial must use the constant marker")
        terms.append(mask)
    return Anf(width, terms)


def _render_stage(stage: Stage) -> list[bytes]:
    return ["".join(line + "\n" for line in render_equation_lines(eq)).encode("ascii")
            for eq in stage.equations]


def write_system(system: EquationSystem, dest) -> Path:
    """Write every stage of ``system`` under dest/AES_files_<direction>/.

    Deterministic: equal systems produce byte-identical trees.  The tree is
    built in a temporary directory under ``dest``, removed on any error, and
    moved into place once complete.  It replaces an earlier generated tree;
    anything else of that name is left untouched and reported.  Returns the
    manifest path.
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
        rendered_cache: dict[tuple[Anf, ...], list[bytes]] = {}
        for index, stage in enumerate(system.stages):
            stage_dir = tree / _stage_dirname(index, stage.trace_label)
            stage_dir.mkdir()
            if stage.equations not in rendered_cache:
                rendered_cache[stage.equations] = _render_stage(stage)
            for bit, body in enumerate(rendered_cache[stage.equations]):
                (stage_dir / _bit_filename(bit)).write_bytes(body)
        (tree / END_NAME).write_bytes(b"")
        manifest = render_manifest(
            system.direction, [(st.trace_label, st.kind) for st in system.stages])
        (tree / MANIFEST_NAME).write_bytes(manifest.encode("ascii"))
        if root.exists():
            shutil.rmtree(root)
        os.replace(tree, root)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return root / MANIFEST_NAME


def _read_bytes(path: Path, missing: str) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise ParseError(f"{path}: {missing}") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _decode_ascii(path: Path, data: bytes) -> str:
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: non-ASCII byte at offset {exc.start}") from None


def _split_lines(text: str, source) -> list[str]:
    """Lines as the writer joins them: each one ends in a single line feed."""
    lines = text.split("\n")
    if lines.pop():
        raise ParseError(f"{source}:{len(lines) + 1}: last line has no line feed")
    return lines


def _read_manifest(manifest: Path) -> tuple[str, list[tuple[str, str, int]]]:
    """Direction and (trace label, kind, round index) stages of a manifest,
    whose text must equal the rendering of its direction and labels."""
    text = _decode_ascii(manifest, _read_bytes(
        manifest, "manifest not found (incomplete or foreign directory)"))
    lines = _split_lines(text, manifest)
    # with no header matching, the comparison below names the first wrong line
    direction = next((d for d in DIRECTIONS if text.startswith(_MANIFEST_HEADER.format(d))),
                     DIRECTIONS[0])
    stages = []
    for line in lines[_HEADER_LINES:]:
        fields = line.split(" ")
        found = TRACE_LABELS.get((direction, fields[2])) if len(fields) > 2 else None
        if found is None:
            break
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
    """Rebuild an EquationSystem from a directory write_system produced."""
    root = Path(path)
    direction, entries = _read_manifest(root / MANIFEST_NAME)
    # Byte-identical files, such as those of the nine Round stages of an
    # encryption tree, parse once into one shared Anf, so equal stages
    # compare by identity when their kernels and renderings are deduplicated.
    parsed: dict[tuple[int, bytes], Anf] = {}
    stages = []
    for index, (label, kind, round_index) in enumerate(entries):
        width = STAGE_KINDS[kind].space.width
        stage_dir = root / _stage_dirname(index, label)
        equations = []
        for bit in range(128):
            eq_path = stage_dir / _bit_filename(bit)
            data = _read_bytes(eq_path, "missing equation file")
            if (width, data) not in parsed:
                lines = _split_lines(_decode_ascii(eq_path, data), eq_path)
                parsed[width, data] = parse_equation_lines(lines, width, source=str(eq_path))
            equations.append(parsed[width, data])
        stages.append(Stage(kind, round_index, equations))
    return EquationSystem(direction, tuple(stages))
