import pytest

from aesbool import aes
from aesbool import system as system_mod
from aesbool.anf import Anf
from aesbool.serial import write_system
from conftest import ENC_TRACE, FIPS_CIPHER, FIPS_KEY, FIPS_PLAIN, run_cli

ENC_GENERATE_LINES = (
    ["## Ciphering process", "## Create directory AES_files_enc"]
    + ["## AddRoundKey0"]
    + [line for r in range(9) for line in (f"## Round{r}", f"## AddRoundKey{r + 1}")]
    + ["## Round9", "## AddRoundKey10", "## Files generated"]
)

DEC_GENERATE_LINES = (
    ["## Deciphering process", "## Create directory AES_files_dec", "## AddRoundKey10"]
    + [line for r in range(9, 0, -1)
       for line in (f"## Round {r}", f"## AddRoundKey{r}", f"## InvMixColumns {r}")]
    + ["## Round 0", "## AddRoundKey0", "## Files generated"]
)


# ---------------------------------------------------------------------------
# generate

def test_generate_enc_progress_lines(generated):
    assert generated["stdout"]["enc"].splitlines() == ENC_GENERATE_LINES


def test_generate_dec_progress_lines(generated):
    assert generated["stdout"]["dec"].splitlines() == DEC_GENERATE_LINES


def test_generate_unwritable_destination(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    rc, _, err = run_cli(["generate", "--mode", "enc", "--out", str(blocker / "sub")])
    assert rc == 1
    assert "error" in err


# ---------------------------------------------------------------------------
# verify

def test_verify_enc_fips(generated):
    rc, out, err = run_cli([
        "verify", "--mode", "enc", "--block", FIPS_PLAIN, "--key", FIPS_KEY,
        "--files", str(generated["dir"]),
    ])
    assert rc == 0, err
    lines = out.splitlines()
    assert lines[0] == f"## Clear block {FIPS_PLAIN}"
    assert lines[1] == f"## Key block {FIPS_KEY}"
    assert lines[2] == "## addRoundKey0"
    assert lines[3] == "00102030405060708090a0b0c0d0e0f0"
    assert lines[-2] == FIPS_CIPHER
    assert lines[-1] == f"{FIPS_CIPHER} (FIPS result)"


def test_verify_dec_fips(generated):
    rc, out, err = run_cli([
        "verify", "--mode", "dec", "--block", FIPS_CIPHER, "--key", FIPS_KEY,
        "--files", str(generated["dir"]),
    ])
    assert rc == 0, err
    lines = out.splitlines()
    assert lines[0] == f"## Cipher block {FIPS_CIPHER}"
    assert lines[2] == "## addRoundKey10"
    assert lines[3] == "7ad5fda789ef4e272bca100b3d9ff59f"
    assert lines[-2] == FIPS_PLAIN
    assert lines[-1] == f"{FIPS_PLAIN} (FIPS result)"


def test_verify_accepts_system_root_directly(generated):
    rc, _, _ = run_cli([
        "verify", "--mode", "enc", "--block", FIPS_PLAIN, "--key", FIPS_KEY,
        "--files", str(generated["dir"] / "AES_files_enc"),
    ])
    assert rc == 0


def test_verify_detects_corrupted_file(generated, tmp_path):
    import shutil

    from aesbool.aes import block_to_mask

    work = tmp_path / "corrupt"
    shutil.copytree(generated["dir"] / "AES_files_enc", work)
    victim = work / "05_Round2" / "bit_017.eq"
    # the state this stage sees on the FIPS run; flip a mask bit that is
    # guaranteed to change the monomial's value there
    state = block_to_mask(bytes.fromhex("4915598f55e5d7a0daca94fa1f0a63f7"))
    text = victim.read_text().splitlines()
    for lineno, line in enumerate(text):
        mask = int(line[1:][::-1], 2)
        if line[0] == "0" and mask & state == mask:
            flip = next(v for v in range(128)
                        if not (state >> v) & 1 and not (mask >> v) & 1)
            text[lineno] = line[:1 + flip] + "1" + line[2 + flip:]
            break
    else:
        pytest.fail("no monomial active on the FIPS state")
    victim.write_text("".join(t + "\n" for t in text))
    rc, _, err = run_cli([
        "verify", "--mode", "enc", "--block", FIPS_PLAIN, "--key", FIPS_KEY,
        "--files", str(work),
    ])
    assert rc == 1
    assert "Round2" in err


@pytest.mark.parametrize("stages", [3, 0])
def test_verify_of_a_tree_that_ends_early_reports_its_output(enc_system, tmp_path, stages):
    # every stage the tree holds agrees with the reference, so only the
    # output, the last stage's state or else the input block, differs
    write_system(system_mod.EquationSystem("enc", enc_system.stages[:stages]), tmp_path)
    rc, out, err = run_cli([
        "verify", "--mode", "enc", "--block", FIPS_PLAIN, "--key", FIPS_KEY,
        "--files", str(tmp_path),
    ])
    assert rc == 1
    assert out.splitlines() == [f"## Clear block {FIPS_PLAIN}", f"## Key block {FIPS_KEY}",
                                *(line for label, value in ENC_TRACE[:stages]
                                  for line in (f"## {label}", value)),
                                f"{FIPS_CIPHER} (FIPS result)"]
    gave = ENC_TRACE[stages - 1][1] if stages else FIPS_PLAIN
    assert err == f"mismatch: files gave {gave}, reference gives {FIPS_CIPHER}\n"


@pytest.mark.parametrize("name", ["06_invMixColumns8/bit_000.eq", "manifest.txt"])
def test_verify_rejects_non_ascii_file(generated, tmp_path, name):
    import shutil

    work = tmp_path / "non_ascii"
    shutil.copytree(generated["dir"] / "AES_files_dec", work)
    victim = work / name
    victim.write_bytes(victim.read_bytes() + b"\xff")
    rc, _, err = run_cli([
        "verify", "--mode", "dec", "--block", FIPS_CIPHER, "--key", FIPS_KEY,
        "--files", str(work),
    ])
    assert rc == 2
    assert name.split("/")[-1] in err and "non-ASCII" in err


def test_verify_wrong_mode_directory(generated):
    rc, _, err = run_cli([
        "verify", "--mode", "dec", "--block", FIPS_CIPHER, "--key", FIPS_KEY,
        "--files", str(generated["dir"] / "AES_files_enc"),
    ])
    assert rc == 2
    assert "direction" in err


def test_verify_missing_system(tmp_path):
    rc, _, err = run_cli([
        "verify", "--mode", "enc", "--block", FIPS_PLAIN, "--key", FIPS_KEY,
        "--files", str(tmp_path),
    ])
    assert rc == 2
    assert "no equation system" in err


@pytest.mark.parametrize("bad", ["00", "zz" * 16, FIPS_PLAIN.upper(), FIPS_PLAIN + "00"])
def test_verify_rejects_bad_hex(bad, tmp_path):
    rc, _, _ = run_cli([
        "verify", "--mode", "enc", "--block", bad, "--key", FIPS_KEY,
        "--files", str(tmp_path),
    ])
    assert rc == 2


# ---------------------------------------------------------------------------
# anf

def test_anf_majparmi3():
    rc, out, _ = run_cli(["anf", "00010111"])
    assert rc == 0
    assert out.strip() == "x1x2 + x0x2 + x0x1"


def test_anf_xor():
    rc, out, _ = run_cli(["anf", "0110"])
    assert rc == 0
    assert out.strip() == "x1 + x0"


def test_anf_three_way_and():
    rc, out, _ = run_cli(["anf", "00000001"])
    assert rc == 0
    assert out.strip() == "x0x1x2"


def test_anf_zero_and_one():
    assert run_cli(["anf", "0000"])[1].strip() == "0"
    assert run_cli(["anf", "1111"])[1].strip() == "1"


@pytest.mark.parametrize("bad", ["011", "01a0", "1"])
def test_anf_rejects_bad_tables(bad):
    rc, _, err = run_cli(["anf", bad])
    assert rc == 2
    assert "error" in err


def test_usage_error_exit_code():
    rc, _, _ = run_cli(["verify", "--mode", "enc"])
    assert rc == 2
    rc, _, _ = run_cli(["generate", "--mode", "sideways"])
    assert rc == 2


# ---------------------------------------------------------------------------
# stats

@pytest.fixture(scope="module")
def stats_lines(generated):
    rc, out, err = run_cli(["stats", "--files", str(generated["dir"] / "AES_files_enc")])
    assert rc == 0, err
    return out.splitlines()


def test_stats_round_stages_degree(stats_lines):
    round_lines = [line for line in stats_lines if "kind=Round" in line]
    assert len(round_lines) == 9
    assert all("max_degree=7" in line for line in round_lines)
    final = [line for line in stats_lines if "kind=FinalRound" in line]
    assert len(final) == 1 and "max_degree=7" in final[0]


def test_stats_addroundkey_monomials(stats_lines):
    ark_lines = [line for line in stats_lines if "kind=AddRoundKey" in line]
    assert len(ark_lines) == 11
    for line in ark_lines:
        assert "min_terms=2" in line and "max_terms=2" in line
        assert "monomials=256" in line


def test_stats_variable_accounting(stats_lines):
    acct = [line for line in stats_lines if line.startswith("variables ")]
    assert acct == [
        "variables state=1280 key=1280 total=2560 state_segments=11 key_segments=11"
    ]


def _one_stage_tree(tmp_path, equations):
    """Write a one-Round-stage encryption system; returns its root."""
    stage = system_mod.Stage("Round", 0, equations)
    write_system(system_mod.EquationSystem("enc", (stage,)), tmp_path)
    return tmp_path / "AES_files_enc"


def test_stats_single_monomial_stage(tmp_path):
    # a one-stage system of pure single-variable equations
    _one_stage_tree(tmp_path, aes.shiftrows_equations(system_mod.STATE_SPACE))
    rc, out, _ = run_cli(["stats", "--files", str(tmp_path)])
    assert rc == 0
    stage_line = [line for line in out.splitlines() if line.startswith("stage 00")][0]
    assert "min_terms=1" in stage_line and "max_terms=1" in stage_line
    assert "monomials=128" in stage_line


def test_stats_degree_histogram(stats_lines):
    hist = [line for line in stats_lines if line.startswith("degree_histogram ")]
    assert len(hist) == 1
    entries = dict(part.split("=") for part in hist[0].split()[1:])
    assert max(int(d) for d in entries) == 7
    # 11 AddRoundKey stages contribute 2 * 128 degree-1 monomials each
    assert int(entries["1"]) >= 11 * 256


def test_stats_of_a_tree_with_no_stages(tmp_path):
    write_system(system_mod.EquationSystem("enc", ()), tmp_path)
    rc, out, err = run_cli(["stats", "--files", str(tmp_path)])
    assert (rc, err) == (0, "")
    assert out == ("## Stats for AES_files_enc (direction=enc)\n"
                   "degree_histogram\n"
                   "variables state=0 key=0 total=0 state_segments=1 key_segments=0\n")


@pytest.mark.parametrize("name", ["manifest.txt", "00_Round0/bit_005.eq"])
def test_stats_rejects_directory_in_place_of_file(tmp_path, name):
    root = _one_stage_tree(tmp_path, [Anf.zero(128)] * 128)
    victim = root / name
    victim.unlink()
    victim.mkdir()
    rc, _, err = run_cli(["stats", "--files", str(root)])
    assert rc == 2
    assert str(victim) in err


def test_stats_rejects_manifest_widths_of_another_kind(tmp_path):
    # empty files would parse at any width; the manifest must match the kind
    root = _one_stage_tree(tmp_path, [Anf.zero(128)] * 128)
    manifest = root / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("key_width=0", "key_width=128"))
    rc, _, err = run_cli(["stats", "--files", str(root)])
    assert rc == 2
    assert "manifest.txt:4" in err and "Round" in err
