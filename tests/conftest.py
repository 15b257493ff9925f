import contextlib
import io

import pytest
from hypothesis import settings

from aesbool import cli
from aesbool import system as system_mod

# Property tests replay the same examples on every run (no example database,
# no random seed), and few enough of them to keep the suite within seconds.
settings.register_profile("aesbool", derandomize=True, database=None,
                          max_examples=60, deadline=None)
settings.load_profile("aesbool")
# Ten times the examples, for a separate run of the properties alone:
# pytest -k property --hypothesis-profile=aesbool-deep
settings.register_profile("aesbool-deep", settings.get_profile("aesbool"), max_examples=600)

FIPS_PLAIN = "00112233445566778899aabbccddeeff"
FIPS_KEY = "000102030405060708090a0b0c0d0e0f"
FIPS_CIPHER = "69c4e0d86a7b0430d8cdb78070b4c55a"

# control-output trace of the ciphering run on the standard test vector
ENC_TRACE = [
    ("addRoundKey0", "00102030405060708090a0b0c0d0e0f0"),
    ("Round0", "5f72641557f5bc92f7be3b291db9f91a"),
    ("addRoundKey1", "89d810e8855ace682d1843d8cb128fe4"),
    ("Round1", "ff87968431d86a51645151fa773ad009"),
    ("addRoundKey2", "4915598f55e5d7a0daca94fa1f0a63f7"),
    ("Round2", "4c9c1e66f771f0762c3f868e534df256"),
    ("addRoundKey3", "fa636a2825b339c940668a3157244d17"),
    ("Round3", "6385b79ffc538df997be478e7547d691"),
    ("addRoundKey4", "247240236966b3fa6ed2753288425b6c"),
    ("Round4", "f4bcd45432e554d075f1d6c51dd03b3c"),
    ("addRoundKey5", "c81677bc9b7ac93b25027992b0261996"),
    ("Round5", "9816ee7400f87f556b2c049c8e5ad036"),
    ("addRoundKey6", "c62fe109f75eedc3cc79395d84f9cf5d"),
    ("Round6", "c57e1c159a9bd286f05f4be098c63439"),
    ("addRoundKey7", "d1876c0f79c4300ab45594add66ff41f"),
    ("Round7", "baa03de7a1f9b56ed5512cba5f414d23"),
    ("addRoundKey8", "fde3bad205e5d0d73547964ef1fe37f1"),
    ("Round8", "e9f74eec023020f61bf2ccf2353c21c7"),
    ("addRoundKey9", "bd6e7c3df2b5779e0b61216e8b10b689"),
    ("Round9", "7ad5fda789ef4e272bca100b3d9ff59f"),
    ("addRoundKey10", "69c4e0d86a7b0430d8cdb78070b4c55a"),
]

# stage values shown by the deciphering control run
DEC_TRACE_VALUES = {
    "addRoundKey10": "7ad5fda789ef4e272bca100b3d9ff59f",
    "Round9": "bd6e7c3df2b5779e0b61216e8b10b689",
    "addRoundKey9": "e9f74eec023020f61bf2ccf2353c21c7",
    "invMixColumns9": "54d990a16ba09ab596bbf40ea111702f",
    "Round8": "fde3bad205e5d0d73547964ef1fe37f1",
    "addRoundKey8": "baa03de7a1f9b56ed5512cba5f414d23",
    "invMixColumns8": "3e1c22c0b6fcbf768da85067f6170495",
    "Round3": "fa636a2825b339c940668a3157244d17",
    "addRoundKey3": "4c9c1e66f771f0762c3f868e534df256",
    "invMixColumns3": "3bd92268fc74fb735767cbe0c0590e2d",
    "Round2": "4915598f55e5d7a0daca94fa1f0a63f7",
    "addRoundKey2": "ff87968431d86a51645151fa773ad009",
    "invMixColumns2": "a7be1a6997ad739bd8c9ca451f618b61",
    "Round1": "89d810e8855ace682d1843d8cb128fe4",
    "addRoundKey1": "5f72641557f5bc92f7be3b291db9f91a",
    "invMixColumns1": "6353e08c0960e104cd70b751bacad0e7",
    "Round0": "00102030405060708090a0b0c0d0e0f0",
    "addRoundKey0": "00112233445566778899aabbccddeeff",
}


@pytest.fixture(scope="session")
def enc_system():
    return system_mod.build_encryption_system()


@pytest.fixture(scope="session")
def dec_system():
    return system_mod.build_decryption_system()


@pytest.fixture(scope="session")
def generated(tmp_path_factory):
    """Both systems generated once through the CLI, with captured stdout."""
    out = tmp_path_factory.mktemp("systems")
    stdout = {}
    for mode in ("enc", "dec"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["generate", "--mode", mode, "--out", str(out)])
        assert rc == 0
        stdout[mode] = buf.getvalue()
    return {"dir": out, "stdout": stdout}


def run_cli(argv):
    """Invoke the CLI in-process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()
