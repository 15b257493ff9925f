import contextlib
import hashlib
import os
import random
import shutil
import stat
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aesbool import aes
from aesbool import serial as serial_mod
from aesbool import system as system_mod
from aesbool.anf import Anf, batch_evaluate
from aesbool.serial import (
    ParseError,
    parse_equation_lines,
    read_system,
    render_equation_lines,
    render_manifest,
    write_system,
)
from conftest import run_cli

# the worked 16-variable example file: constant first, then ascending masks
BIT_FILE_LINES = [
    "10000000000000000",
    "00000000000000011",
    "00000000000000100",
    "00000000000000101",
    "00000000000001000",
    "00000000000001010",
    "00000000000001011",
    "00001000000000000",
    "00011000000000000",
    "00101000000000000",
    "00110000000000000",
    "00111000000000000",
    "01010000000000000",
    "01011000000000000",
    "01100000000000000",
    "01110000000000000",
]

BIT_FILE_TERMS = [
    (), (14, 15), (13,), (13, 15), (12,), (12, 14), (12, 14, 15),
    (3,), (2, 3), (1, 3), (1, 2), (1, 2, 3), (0, 2), (0, 2, 3), (0, 1), (0, 1, 2),
]


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# line-level encoding

def test_worked_example_renders_in_shown_order():
    eq = Anf.from_terms(16, BIT_FILE_TERMS)
    assert render_equation_lines(eq) == BIT_FILE_LINES


def test_worked_example_parses_back():
    assert parse_equation_lines(BIT_FILE_LINES, 16) == Anf.from_terms(16, BIT_FILE_TERMS)


def test_zero_equation_is_empty_file():
    assert render_equation_lines(Anf.zero(16)) == []
    assert parse_equation_lines([], 16) == Anf.zero(16)


def test_hand_written_majparmi3_file():
    got = parse_equation_lines(["0011", "0101", "0110"], 3)
    assert got == Anf.from_terms(3, [(1, 2), (0, 2), (0, 1)])


def test_line_round_trip_random():
    rng = random.Random(31)
    for _ in range(50):
        terms = [[v for v in range(20) if rng.random() < 0.3]
                 for _ in range(rng.randrange(10))]
        eq = Anf.from_terms(20, terms)
        lines = render_equation_lines(eq)
        assert parse_equation_lines(lines, 20) == eq
        assert lines == sorted(lines, key=lambda line: line[1:])
        assert all(len(line) == 21 for line in lines)


def test_lines_evaluate_like_the_anf():
    rng = random.Random(32)
    eq = Anf.from_terms(12, [[v for v in range(12) if rng.random() < 0.4]
                             for _ in range(8)])
    lines = render_equation_lines(eq)
    for _ in range(100):
        ones = rng.getrandbits(12)
        acc = 0
        for line in lines:
            if line[0] == "1":
                acc ^= 1
                continue
            mask = int(line[1:][::-1], 2)
            acc ^= 1 if mask & ones == mask else 0
        assert acc == eq.evaluate_mask(ones)


def test_parse_rejects_wrong_length():
    with pytest.raises(ParseError, match="eq.txt:2"):
        parse_equation_lines(["0010", "001"], 3, source="eq.txt")


def test_parse_rejects_illegal_character():
    with pytest.raises(ParseError, match="illegal"):
        parse_equation_lines(["0a10"], 3)


def test_parse_rejects_constant_with_mask():
    with pytest.raises(ParseError, match="all-zero"):
        parse_equation_lines(["1010"], 3)


def test_parse_rejects_unmarked_empty_monomial():
    with pytest.raises(ParseError):
        parse_equation_lines(["0000"], 3)


# ---------------------------------------------------------------------------
# system-level writing and reading

@pytest.fixture(scope="module")
def written(tmp_path_factory, enc_system, dec_system):
    dest = tmp_path_factory.mktemp("ser")
    write_system(enc_system, dest)
    write_system(dec_system, dest)
    return dest


def test_layout(written, enc_system):
    root = written / "AES_files_enc"
    assert (root / "manifest.txt").exists()
    assert (root / "END").exists()
    stage_dirs = sorted(p.name for p in root.iterdir() if p.is_dir())
    assert len(stage_dirs) == 21
    assert stage_dirs[0] == "00_addRoundKey0"
    assert stage_dirs[1] == "01_Round0"
    files = sorted(p.name for p in (root / "01_Round0").iterdir())
    assert files[0] == "bit_000.eq" and files[-1] == "bit_127.eq"
    assert len(files) == 128


def test_manifest_contents(written):
    lines = (written / "AES_files_enc" / "manifest.txt").read_text().splitlines()
    stage_lines = [line for line in lines if not line.startswith("#")]
    assert stage_lines[0] == "stage 0 addRoundKey0 state_width=128 key_width=128"
    assert stage_lines[1] == "stage 1 Round0 state_width=128 key_width=0"
    assert len(stage_lines) == 21
    assert any("direction=enc" in line for line in lines if line.startswith("#"))


def test_addroundkey_file_width(written):
    lines = (written / "AES_files_enc" / "00_addRoundKey0" / "bit_000.eq").read_text().splitlines()
    assert len(lines) == 2
    assert all(len(line) == 1 + 256 for line in lines)
    # one state variable, one key variable
    masks = [line[1:] for line in lines]
    assert sorted(m.index("1") for m in masks) == [0, 128]


def test_single_variable_equation_file():
    # a stage of plain row-shift equations: bit 8 reads variable 40
    stage = system_mod.Stage("Round", 0, aes.shiftrows_equations(system_mod.STATE_SPACE))
    lines = render_equation_lines(stage.equations[8])
    assert len(lines) == 1
    assert lines[0][0] == "0"
    assert lines[0][1:].index("1") == 40
    assert lines[0][1:].count("1") == 1


def test_round_trip_enc(written, enc_system):
    back = read_system(written / "AES_files_enc")
    assert back.direction == "enc"
    assert back == enc_system
    # byte-identical files parse once: the nine Round stages share equations
    rounds = [st.equations for st in back.stages if st.kind == "Round"]
    assert len(rounds) == 9
    assert all(a is b for eqs in rounds[1:] for a, b in zip(rounds[0], eqs))


@pytest.mark.parametrize("altered", [0, 2])
def test_read_shares_equal_files_of_one_kind_and_bit(tmp_path, altered):
    # five Round stages of column mixes, bit 5 of one of them holding bit 6's
    # equation: a valid tree
    mix = aes.mixcolumns_equations(system_mod.STATE_SPACE)
    wrong = mix[:5] + [mix[6]] + mix[6:]
    system = system_mod.EquationSystem("enc", tuple(
        system_mod.Stage("Round", r, wrong if r == altered else mix) for r in range(5)))
    write_system(system_mod.EquationSystem("enc", tuple(
        system_mod.Stage("Round", r, mix) for r in range(5))), tmp_path)
    stage_dir = tmp_path / "AES_files_enc" / f"{altered:02d}_Round{altered}"
    (stage_dir / "bit_005.eq").write_bytes((stage_dir / "bit_006.eq").read_bytes())
    back = read_system(tmp_path / "AES_files_enc")
    assert back == system
    # the other four stages still share one Anf for every bit
    others = [st.equations for st in back.stages if st.round_index != altered]
    assert all(a is b for eqs in others[1:] for a, b in zip(others[0], eqs))
    assert all(a is b for j, (a, b) in enumerate(zip(others[0], back.stages[altered].equations))
               if j != 5)


def _non_ascii(path):
    path.write_bytes(b"\xff")


def _directory(path):
    path.unlink()
    path.mkdir()


def _stage_missing(path):
    shutil.rmtree(path.parent)


def _stage_is_a_file(path):
    shutil.rmtree(path.parent)
    path.parent.write_bytes(b"")


@pytest.mark.parametrize("damage, name, problem", [
    (_non_ascii, "bit_005.eq", "non-ASCII byte at offset 0"),
    (_directory, "bit_005.eq", "cannot read: Is a directory"),
    (Path.unlink, "bit_005.eq", "missing equation file"),
    (_stage_missing, "bit_000.eq", "missing equation file"),
    (_stage_is_a_file, "bit_000.eq", "cannot read: Not a directory"),
], ids=["non-ascii", "directory", "missing", "missing-stage", "stage-is-a-file"])
def test_read_errors_name_the_file_as_given(tmp_path, monkeypatch, damage, name, problem):
    # damage is done to bit_005.eq or to its stage directory, 01_Round0
    write_system(_two_stage_system(), tmp_path)
    monkeypatch.chdir(tmp_path / "AES_files_enc")
    damage(tmp_path / "AES_files_enc" / "01_Round0" / "bit_005.eq")
    for root in (".", "../AES_files_enc/", tmp_path / "AES_files_enc"):
        with pytest.raises(ParseError) as got:
            read_system(root)
        assert str(got.value) == f"{Path(root) / '01_Round0' / name}: {problem}"


def test_round_trip_dec(written, dec_system):
    back = read_system(written / "AES_files_dec")
    assert back == dec_system


def test_read_keeps_the_bytes_of_one_bit_at_a_time(written):
    # the distinct files of the whole enc tree are about 10 MB; those of one
    # bit are a 128th of that
    tracemalloc.start()
    try:
        read_system(written / "AES_files_enc")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_write_holds_one_file_body_at_a_time(tmp_path, enc_system):
    # the bodies of every distinct enc stage are about 10.5 MB; one bit's
    # are a 128th of that
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_system(enc_system, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 1_000_000


def test_read_and_compile_keep_the_packed_rows(written):
    # a read-back enc system holds each distinct equation as its packed
    # rows, about 1.4 MB, and compiling it builds no term set
    tracemalloc.start()
    try:
        system = read_system(written / "AES_files_enc")
        system.kernels
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2_000_000
    assert all(eq._rows is not None for stage in system.stages for eq in stage.equations)


@pytest.mark.parametrize("direction", ["enc", "dec"])
def test_read_back_kernels_are_the_built_kernels(written, enc_system, dec_system, direction):
    built = enc_system if direction == "enc" else dec_system
    back = read_system(written / f"AES_files_{direction}")
    for ours, theirs in zip(built.kernels, back.kernels, strict=True):
        for name in ("_table", "_columns", "_offsets", "_constant"):
            plan, other = getattr(ours, name), getattr(theirs, name)
            assert (plan.dtype, plan.shape) == (other.dtype, other.shape)
            assert plan.tobytes() == other.tobytes()


@pytest.mark.parametrize("edit", [
    lambda lines: [lines[0], lines[3], lines[2], lines[1], *lines[4:]],
    lambda lines: [*lines[:3], lines[2], *lines[3:]],
    lambda lines: [*lines[:3], lines[2], lines[2], *lines[3:]],
], ids=["swapped", "repeated", "repeated-twice"])
def test_lines_out_of_canonical_order_read_like_the_per_line_reader(tmp_path, edit):
    write_system(_two_stage_system(), tmp_path)
    root = tmp_path / "AES_files_enc"
    victim = root / "01_Round0" / "bit_000.eq"
    lines = victim.read_bytes().split(b"\n")[:-1]
    data = b"".join(line + b"\n" for line in edit(lines))
    victim.write_bytes(data)
    equations = read_system(root).stages[1].equations
    # the edited file folds its lines; the others hold their rows
    assert equations[0]._rows is None and equations[1]._rows is not None
    rng = random.Random(44)
    inputs = [0, (1 << 128) - 1] + [rng.getrandbits(128) for _ in range(64)]
    outputs = batch_evaluate(equations, inputs)
    assert equations[0] == _per_line_read(data, 128, str(victim))
    for ones, out in zip(inputs, outputs):
        assert all(out >> j & 1 == eq.evaluate_mask(ones) for j, eq in enumerate(equations))


def test_read_rejects_stages_out_of_schedule_order(tmp_path):
    # "enc" to "dec" in the header of an AddRoundKey0, Round0 tree: the dec
    # schedule has both labels, as its last two stages, in the other order
    write_system(_two_stage_system(), tmp_path)
    manifest = tmp_path / "AES_files_enc" / "manifest.txt"
    manifest.write_bytes(manifest.read_bytes().replace(b"direction=enc", b"direction=dec"))
    with pytest.raises(ParseError) as got:
        read_system(tmp_path / "AES_files_enc")
    assert str(got.value) == (f"{manifest}:5: stage 'Round0' is out of order:"
                              " the dec schedule does not put it after 'addRoundKey0'")


def test_read_reports_the_fault_of_the_lowest_bit_first(tmp_path):
    write_system(_two_stage_system(), tmp_path)
    root = tmp_path / "AES_files_enc"
    (root / "00_addRoundKey0" / "bit_007.eq").write_bytes(b"\xff")
    (root / "01_Round0" / "bit_005.eq").unlink()
    with pytest.raises(ParseError) as got:
        read_system(root)
    assert str(got.value) == f"{root / '01_Round0' / 'bit_005.eq'}: missing equation file"


def test_rewriting_a_read_back_system_is_byte_identical(written, tmp_path, monkeypatch):
    # the 30 stages read back share the Anfs of each kind's files, so each
    # distinct stage still renders once per bit
    rendered = []
    render = serial_mod._render_equation
    monkeypatch.setattr(serial_mod, "_render_equation",
                        lambda anf: rendered.append(anf) or render(anf))
    back = read_system(written / "AES_files_dec")
    write_system(back, tmp_path)
    ark, inv_round, _, inv_mix = back.stages[:4]   # the first stage of each kind
    assert [st.kind for st in (ark, inv_round, inv_mix)] == \
        ["AddRoundKey", "InvRound", "InvMixColumns"]
    expected = [st.equations[bit] for bit in range(128) for st in (ark, inv_round, inv_mix)]
    assert len(rendered) == len(expected) == 3 * 128
    assert all(a is b for a, b in zip(rendered, expected))
    assert tree_digest(tmp_path / "AES_files_dec") == tree_digest(written / "AES_files_dec")


def test_deterministic_writes(tmp_path, enc_system):
    write_system(enc_system, tmp_path / "a")
    write_system(enc_system, tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_rewrite_in_place_is_stable(tmp_path, dec_system):
    write_system(dec_system, tmp_path)
    first = tree_digest(tmp_path / "AES_files_dec")
    write_system(dec_system, tmp_path)
    assert tree_digest(tmp_path / "AES_files_dec") == first


def test_refuses_to_replace_foreign_directory(tmp_path, enc_system):
    root = tmp_path / "AES_files_enc"
    root.mkdir()
    (root / "precious.txt").write_text("do not delete")
    with pytest.raises(OSError):
        write_system(enc_system, tmp_path)
    assert (root / "precious.txt").exists()


def test_read_missing_manifest(tmp_path):
    with pytest.raises(ParseError, match="manifest"):
        read_system(tmp_path)


def test_read_reports_file_and_line(tmp_path, dec_system):
    write_system(dec_system, tmp_path)
    victim = tmp_path / "AES_files_dec" / "01_Round9" / "bit_003.eq"
    lines = victim.read_text().splitlines()
    lines[4] = lines[4][:-1]  # truncate one line
    victim.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ParseError, match=r"bit_003\.eq:5"):
        read_system(tmp_path / "AES_files_dec")


def test_read_rejects_bad_manifest_line(tmp_path, enc_system):
    write_system(enc_system, tmp_path)
    manifest = tmp_path / "AES_files_enc" / "manifest.txt"
    manifest.write_text(manifest.read_text() + "stage oops\n")
    with pytest.raises(ParseError, match="malformed"):
        read_system(tmp_path / "AES_files_enc")


def test_read_rejects_unknown_stage_label(tmp_path, enc_system):
    write_system(enc_system, tmp_path)
    manifest = tmp_path / "AES_files_enc" / "manifest.txt"
    text = manifest.read_text().replace("stage 0 addRoundKey0", "stage 0 mystery0")
    manifest.write_text(text)
    with pytest.raises(ParseError, match="mystery0"):
        read_system(tmp_path / "AES_files_enc")


@pytest.mark.parametrize("direction, label, outside", [
    ("enc", "Round9", "Round10"),
    ("dec", "Round9", "Round10"),
    ("dec", "invMixColumns1", "invMixColumns0"),
])
def test_read_rejects_a_stage_outside_the_schedules(tmp_path, direction, label, outside):
    # a known kind at a round no AES-128 system has: the writer never names it
    root = tmp_path / serial_mod.system_dirname(direction)
    root.mkdir()
    text = serial_mod.render_manifest(direction, [
        (system_mod.STAGE_KINDS[kind].trace_label.format(r), kind)
        for kind, r in system_mod.SCHEDULES[direction]])
    (root / "manifest.txt").write_text(text.replace(f" {label} ", f" {outside} ", 1))
    with pytest.raises(ParseError,
                       match=rf"manifest.txt:\d+: unrecognized stage label '{outside}'$"):
        read_system(root)
    rc, _, err = run_cli(["stats", "--files", str(root)])
    assert rc == 2 and f"unrecognized stage label '{outside}'" in err


# ---------------------------------------------------------------------------
# the reader accepts only what the writer writes

def _two_stage_system():
    """An encryption system of AddRoundKey0 and a Round0 of column mixes."""
    return system_mod.EquationSystem("enc", (
        system_mod.Stage("AddRoundKey", 0, aes.addroundkey_equations(system_mod.ARK_SPACE)),
        system_mod.Stage("Round", 0, aes.mixcolumns_equations(system_mod.STATE_SPACE)),
    ))


def test_manifest_single_byte_mutants_are_parse_errors(tmp_path):
    write_system(_two_stage_system(), tmp_path)
    root = tmp_path / "AES_files_enc"
    manifest = root / "manifest.txt"
    original = manifest.read_bytes()
    assert read_system(root).direction == "enc"
    rng = random.Random(41)
    mutants = 0
    for _ in range(3000):
        pos = rng.randrange(len(original) + 1)
        byte = bytes([rng.randrange(256)])
        op = rng.choice(("replace", "insert", "delete"))
        if op == "insert":
            mutant = original[:pos] + byte + original[pos:]
        else:
            pos = min(pos, len(original) - 1)
            mutant = original[:pos] + (byte if op == "replace" else b"") + original[pos + 1:]
        if mutant == original:
            continue
        mutants += 1
        manifest.write_bytes(mutant)
        with pytest.raises(ParseError):
            read_system(root)
        rc, _, err = run_cli(["stats", "--files", str(root)])
        assert rc == 2, (mutant, err)
    assert mutants > 2900


def _break_after_line_2(sep):
    return lambda lines: b"\n".join(lines[:2]) + sep + b"\n".join(lines[2:]) + b"\n"


@pytest.mark.parametrize("body, lineno", [
    (lambda lines: b"".join(line + b"\r\n" for line in lines), 1),
    (lambda lines: b"\n".join(lines), 5),
    (_break_after_line_2(b"\f"), 2),
    (_break_after_line_2(b"\v"), 2),
], ids=["crlf", "unterminated", "form-feed", "vertical-tab"])
def test_read_rejects_line_ends_the_writer_never_writes(tmp_path, body, lineno):
    write_system(_two_stage_system(), tmp_path)
    victim = tmp_path / "AES_files_enc" / "01_Round0" / "bit_000.eq"
    lines = victim.read_bytes().split(b"\n")[:-1]
    assert len(lines) == 5
    victim.write_bytes(body(lines))
    with pytest.raises(ParseError, match=rf"01_Round0/bit_000\.eq:{lineno}:"):
        read_system(tmp_path / "AES_files_enc")


def test_interrupted_write_leaves_nothing_behind(tmp_path, monkeypatch):
    system = _two_stage_system()
    out = tmp_path / "out"
    render = serial_mod._render_equation

    def interrupt(anf):
        if anf.width == 128:   # the Round stage's, the ARK stage's are 256 wide
            assert any(p.name == "01_Round0" for p in out.rglob("*"))
            raise KeyboardInterrupt
        return render(anf)

    monkeypatch.setattr(serial_mod, "_render_equation", interrupt)
    with pytest.raises(KeyboardInterrupt):
        write_system(system, out)
    assert list(out.iterdir()) == []
    monkeypatch.undo()
    write_system(system, out)
    write_system(system, tmp_path / "clean")
    assert [p.name for p in out.iterdir()] == ["AES_files_enc"]
    assert tree_digest(out / "AES_files_enc") == tree_digest(tmp_path / "clean" / "AES_files_enc")


def test_short_writes_still_write_every_byte(tmp_path, monkeypatch):
    write_system(_two_stage_system(), tmp_path / "whole")
    write = os.write
    calls = []

    def short_write(fd, data):
        calls.append(len(data))
        return write(fd, data[:7])

    monkeypatch.setattr(serial_mod.os, "write", short_write)
    write_system(_two_stage_system(), tmp_path / "short")
    monkeypatch.undo()
    assert max(calls) > 7
    assert tree_digest(tmp_path / "short" / "AES_files_enc") == \
        tree_digest(tmp_path / "whole" / "AES_files_enc")


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
def test_written_files_have_the_permissions_of_open(tmp_path):
    write_system(_two_stage_system(), tmp_path)
    with open(tmp_path / "reference", "wb"):
        pass
    umask = os.umask(0)
    os.umask(umask)
    expected = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert expected == 0o666 & ~umask
    files = [p for p in (tmp_path / "AES_files_enc").rglob("*") if p.is_file()]
    assert len(files) == 2 * 128 + 2
    assert {stat.S_IMODE(p.stat().st_mode) for p in files} == {expected}


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


def _interrupt_rendering(monkeypatch):
    render = serial_mod._render_equation

    def interrupt(anf):
        if anf.width == 128:   # the Round stage's first equation
            raise KeyboardInterrupt
        return render(anf)

    monkeypatch.setattr(serial_mod, "_render_equation", interrupt)


def _interrupt_a_file(monkeypatch):
    # the 10th write, bit by bit through both stages: bit_004.eq of the
    # Round0 stage, left half written
    write = os.write
    calls = []

    def interrupt(fd, data):
        calls.append(fd)
        if len(calls) == 10:
            write(fd, data[:len(data) // 2])
            raise KeyboardInterrupt
        return write(fd, data)

    monkeypatch.setattr(serial_mod.os, "write", interrupt)


def _write_again(root, monkeypatch):
    write_system(_two_stage_system(), root.parent / "again")


def _read_back(root, monkeypatch):
    assert read_system(root) == _two_stage_system()


def _read_damaged(damage):
    def read(root, monkeypatch):
        damage(root / "01_Round0" / "bit_005.eq")
        with pytest.raises(ParseError, match="bit_005"):
            read_system(root)
    return read


def _write_interrupted(interrupt):
    def write(root, monkeypatch):
        interrupt(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            write_system(_two_stage_system(), root.parent / "again")
    return write


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("action", [
    _write_again,
    _read_back,
    _read_damaged(_non_ascii),
    _read_damaged(_directory),
    _write_interrupted(_interrupt_rendering),
    _write_interrupted(_interrupt_a_file),
], ids=["write", "read", "read-damaged-file", "read-directory-as-file",
        "write-interrupted-between-stages", "write-interrupted-in-a-file"])
def test_no_descriptor_stays_open(tmp_path, monkeypatch, action):
    write_system(_two_stage_system(), tmp_path)
    before = _open_descriptors()
    action(tmp_path / "AES_files_enc", monkeypatch)
    assert _open_descriptors() == before


def test_interrupted_rewrite_keeps_the_previous_tree(tmp_path, monkeypatch):
    write_system(_two_stage_system(), tmp_path)
    before = tree_digest(tmp_path / "AES_files_enc")
    monkeypatch.setattr(serial_mod, "_render_equation", lambda anf: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        write_system(_two_stage_system(), tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["AES_files_enc"]
    assert tree_digest(tmp_path / "AES_files_enc") == before


# ---------------------------------------------------------------------------
# the byte-matrix codec against the per-line code it replaced

def _per_line_parse(lines, width, source):
    """The per-line decoder the codec replaced, kept as the reference."""
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
            raise ParseError(f"{source}:{lineno}: constant line must have an all-zero mask")
        if const == "0" and not mask:
            raise ParseError(f"{source}:{lineno}: empty monomial must use the constant marker")
        terms.append(mask)
    return Anf(width, terms)


def _per_line_read(data, width, source):
    """How the per-line reader decoded the bytes of one .eq file."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: non-ASCII byte at offset {exc.start}") from None
    lines = text.split("\n")
    if lines.pop():
        raise ParseError(f"{source}:{len(lines) + 1}: last line has no line feed")
    return _per_line_parse(lines, width, source)


def _per_term_render(anf):
    """The per-term encoder the codec replaced, kept as the reference."""
    masks = sorted(format(m, f"0{anf.width}b")[::-1] for m in anf.terms)
    return "".join(("0" if "1" in mask else "1") + mask + "\n" for mask in masks)


def test_eq_single_byte_mutants_read_like_the_per_line_parser(tmp_path, enc_system):
    # an S-box-rich equation with a constant line (bit 1 of the composed
    # round, 448 monomials of degree up to 7) beside 127 empty equations
    rich = enc_system.stages[1].equations[1]
    assert 0 in rich.terms and rich.degree() == 7
    write_system(system_mod.EquationSystem("enc", (
        system_mod.Stage("Round", 0, [rich] + [Anf.zero(128)] * 127),)), tmp_path)
    root = tmp_path / "AES_files_enc"
    victim = root / "00_Round0" / "bit_000.eq"
    original = victim.read_bytes()
    stride = 128 + 2
    rng = random.Random(43)
    outcomes = set()
    for _ in range(2400):
        # uniform positions, mixed with those where the rarer errors live:
        # the flags, the constant (first) line and the last line
        pos = rng.choice((
            rng.randrange(len(original) + 1),
            rng.randrange(len(original) // stride) * stride,
            rng.choice((0, rng.randrange(stride))),
            len(original) - rng.randrange(stride + 1),
        ))
        byte = bytes([rng.choice(b"01\n") if rng.random() < 0.75 else rng.randrange(256)])
        op = rng.choice(("replace", "insert", "delete"))
        if op == "insert":
            mutant = original[:pos] + byte + original[pos:]
        else:
            pos = min(pos, len(original) - 1)
            mutant = original[:pos] + (byte if op == "replace" else b"") + original[pos + 1:]
        victim.write_bytes(mutant)
        try:
            expected = _per_line_read(mutant, 128, str(victim))
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                read_system(root)
            assert str(got.value) == str(exc), mutant
            outcomes.add(str(exc).split(": ")[-1].split(" ")[0])
        else:
            assert read_system(root).stages[0].equations[0] == expected, mutant
            outcomes.add("read")
    # every error the reader can report in an .eq file, and valid reads
    assert outcomes == {"non-ASCII", "last", "expected", "illegal", "constant", "empty",
                        "read"}


@pytest.mark.parametrize("width", [1, 3, 7, 8, 9, 16, 20, 128, 256])
def test_rendering_matches_the_per_term_encoder(width):
    rng = random.Random(width)
    anfs = [Anf.zero(width), Anf.one(width), Anf(width, [rng.getrandbits(width) | 1])]
    for _ in range(30):
        count = rng.randrange(1, min(1 << width, 400))
        anfs.append(Anf(width, [rng.getrandbits(width) & rng.getrandbits(width)
                                for _ in range(count)]))
    for anf in anfs:
        text = _per_term_render(anf)
        assert serial_mod._render_equation(anf) == text.encode("ascii")
        assert render_equation_lines(anf) == text.split("\n")[:-1]
        assert anf.mask_strings() == [line[1:] for line in text.split("\n")[:-1]]
        assert parse_equation_lines(text.split("\n")[:-1], width) == anf


@pytest.mark.parametrize("lines", [
    ["0010", "0é10"],      # a non-ASCII character
    ["0010", "00\n1"],     # a line feed inside a line
    ["0010", "0\r10"],
    ["0010", "001é"],      # non-ASCII and too long
    ["0010", "0010", "1000", "1000", "1000"],   # repeated lines fold
    ["0001", "1000", "0100"],                   # out of order
])
def test_line_wrapper_matches_the_per_line_parser(lines):
    try:
        expected = _per_line_parse(lines, 3, "eq")
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_equation_lines(lines, 3, source="eq")
        assert str(got.value) == str(exc)
    else:
        assert parse_equation_lines(lines, 3, source="eq") == expected


# ---------------------------------------------------------------------------
# read_system on arbitrary bytes in one file of a written tree

@pytest.fixture(scope="module")
def fuzzed_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_system(_two_stage_system(), root)
    return root / "AES_files_enc"


@st.composite
def _edits_of(draw, original):
    """``original`` with up to four runs of up to 8 bytes each overwritten,
    or replaced by up to 8 bytes, each run at any offset or at a line start
    (a flag).  The new bytes are ASCII, most of them the file's own: the
    arbitrary bytes of ``st.binary`` are mostly not."""
    data = original
    for _ in range(draw(st.integers(1, 4))):
        line_starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        start = draw(st.integers(0, len(data)) | st.sampled_from(line_starts))
        run = bytes(draw(st.lists(st.sampled_from(b"01\n") | st.integers(0, 127), max_size=8)))
        stop = start + len(run) if draw(st.booleans()) else draw(st.integers(start, start + 8))
        data = data[:start] + run + data[stop:]
    return data


@contextlib.contextmanager
def _rewritten(path, data):
    """``path`` holding the bytes ``data`` draws, arbitrary or edits of its
    own, until the block ends; yields (original bytes, new bytes)."""
    original = path.read_bytes()
    mutant = data.draw(st.binary(max_size=600) | _edits_of(original))
    path.write_bytes(mutant)
    try:
        yield original, mutant
    finally:
        path.write_bytes(original)


@given(data=st.data())
def test_property_eq_file_reads_like_the_per_line_reader(fuzzed_tree, data):
    victim = fuzzed_tree / "01_Round0" / "bit_005.eq"
    with _rewritten(victim, data) as (_, mutant):
        try:
            expected = _per_line_read(mutant, 128, str(victim))
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                read_system(fuzzed_tree)
            assert str(got.value) == str(exc)
        else:
            ark, mix = _two_stage_system().stages
            equations = list(mix.equations)
            equations[5] = expected
            assert read_system(fuzzed_tree) == system_mod.EquationSystem(
                "enc", (ark, system_mod.Stage("Round", 0, equations)))


@given(data=st.data())
def test_property_manifest_reads_only_as_written(fuzzed_tree, data):
    # A manifest other than the original may name another valid system over
    # the same files: one stage fewer, as an enc or a dec system ("dec" with
    # both stages names them out of the dec schedule's order).  It then reads
    # as that system, and is byte for byte the manifest the writer writes for it.
    with _rewritten(fuzzed_tree / "manifest.txt", data) as (original, mutant):
        try:
            back = read_system(fuzzed_tree)
        except ParseError:
            assert mutant != original
        else:
            if mutant == original:
                assert back == _two_stage_system()
            rendered = render_manifest(back.direction,
                                       [(stage.trace_label, stage.kind) for stage in back.stages])
            assert mutant == rendered.encode("ascii")
