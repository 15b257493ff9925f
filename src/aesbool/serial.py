"""Bit-exact reading and writing of equation systems, one file per bit.

Layout under ``<dest>/AES_files_<enc|dec>/``:

    <NN>_<stagelabel>/bit_000.eq ... bit_127.eq
    END                          -- end-of-generation marker
    manifest.txt                 -- stage order and widths, written last

Every ``.eq`` line is one monomial: a constant character ('1' only for the
constant monomial, whose mask is all zeros) followed, with no delimiter, by
a '0'/'1' mask of the stage input width -- 128 state positions, plus 128
key positions for AddRoundKey stages.  Mask position j (variable 0
leftmost) is 1 exactly when variable j participates.  Lines are sorted by
the mask read as a big-endian integer, newline is a single line feed, the
final line is terminated, and the zero equation is an empty file.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from .anf import Anf
from .system import STAGE_KINDS, TRACE_LABELS, EquationSystem, Stage

MANIFEST_NAME = "manifest.txt"
END_NAME = "END"


class ParseError(ValueError):
    """A system directory or equation file that cannot be decoded."""


def render_equation_lines(anf: Anf) -> list[str]:
    """Encode an ANF as its sorted monomial lines (without newlines)."""
    w = anf.width
    lines = []
    for mask in anf.terms:
        mask_str = format(mask, f"0{w}b")[::-1]
        lines.append(("1" if mask == 0 else "0") + mask_str)
    lines.sort(key=lambda line: line[1:])
    return lines


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


def _stage_dirname(index: int, trace_label: str) -> str:
    return f"{index:02d}_{trace_label}"


def _render_stage(stage: Stage) -> list[bytes]:
    files = []
    for eq in stage.equations:
        lines = render_equation_lines(eq)
        body = "".join(line + "\n" for line in lines)
        files.append(body.encode("ascii"))
    return files


def write_system(system: EquationSystem, dest) -> Path:
    """Write every stage of ``system`` under dest/AES_files_<direction>/.

    Deterministic: equal systems produce byte-identical trees.  An existing
    generated tree at the target is replaced; anything else there is left
    untouched and reported.  Returns the manifest path, written last as the
    commit marker.
    """
    dest = Path(dest)
    root = dest / f"AES_files_{system.direction}"
    if root.exists():
        if not (root / MANIFEST_NAME).exists() and any(root.iterdir()):
            raise OSError(
                f"{root} exists and does not look like a generated system; not overwriting")
        shutil.rmtree(root)
    try:
        root.mkdir(parents=True)
    except OSError as exc:
        raise OSError(f"cannot create {root}: {exc}") from exc

    rendered_cache: dict[tuple[Anf, ...], list[bytes]] = {}
    manifest_lines = [
        "# aesbool AES-128 Boolean equation system",
        f"# direction={system.direction}",
        "# mask layout: positions 0..127 state variables;"
        " AddRoundKey lines append key variables at 128..255",
    ]
    for index, stage in enumerate(system.stages):
        stage_dir = root / _stage_dirname(index, stage.trace_label)
        stage_dir.mkdir()
        if stage.equations not in rendered_cache:
            rendered_cache[stage.equations] = _render_stage(stage)
        for bit, body in enumerate(rendered_cache[stage.equations]):
            (stage_dir / f"bit_{bit:03d}.eq").write_bytes(body)
        manifest_lines.append(
            f"stage {index} {stage.trace_label}"
            f" state_width={stage.state_width} key_width={stage.key_width}")
    (root / END_NAME).write_bytes(b"")
    manifest = root / MANIFEST_NAME
    manifest.write_text("".join(line + "\n" for line in manifest_lines), encoding="ascii")
    return manifest


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


def read_system(path) -> EquationSystem:
    """Rebuild an EquationSystem from a directory write_system produced."""
    root = Path(path)
    manifest = root / MANIFEST_NAME
    text = _decode_ascii(manifest, _read_bytes(
        manifest, "manifest not found (incomplete or foreign directory)"))
    direction = None
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            if "direction=" in line:
                direction = line.split("direction=", 1)[1].strip()
            continue
        parts = line.split()
        if len(parts) != 5 or parts[0] != "stage":
            raise ParseError(f"{manifest}:{lineno}: malformed stage line")
        try:
            index = int(parts[1])
            state_width = int(parts[3].removeprefix("state_width="))
            key_width = int(parts[4].removeprefix("key_width="))
        except ValueError:
            raise ParseError(f"{manifest}:{lineno}: malformed stage line") from None
        entries.append((lineno, index, parts[2], state_width, key_width))
    if direction not in ("enc", "dec"):
        raise ParseError(f"{manifest}: missing or invalid direction header")
    if [e[1] for e in entries] != list(range(len(entries))):
        raise ParseError(f"{manifest}: stage indices are not consecutive from 0")

    # Byte-identical files, such as those of the nine Round stages of an
    # encryption tree, parse once into one shared Anf, so equal stages
    # compare by identity when their kernels and renderings are deduplicated.
    parsed: dict[tuple[int, bytes], Anf] = {}
    stages = []
    for lineno, index, label, state_width, key_width in entries:
        try:
            kind, round_index = TRACE_LABELS[direction, label]
        except KeyError:
            raise ParseError(f"{manifest}:{lineno}: unrecognized stage label {label!r}") from None
        space = STAGE_KINDS[kind].space
        width = state_width + key_width
        if state_width != space.length("state") or width != space.width:
            raise ParseError(f"{manifest}:{lineno}: widths do not match a {kind} stage")
        stage_dir = root / _stage_dirname(index, label)
        equations = []
        for bit in range(128):
            eq_path = stage_dir / f"bit_{bit:03d}.eq"
            data = _read_bytes(eq_path, "missing equation file")
            if (width, data) not in parsed:
                lines = _decode_ascii(eq_path, data).splitlines()
                parsed[width, data] = parse_equation_lines(lines, width, source=str(eq_path))
            equations.append(parsed[width, data])
        stages.append(Stage(kind, round_index, equations))
    return EquationSystem(direction, tuple(stages))
