"""Layered AES-128 equation systems and their stage-by-stage evaluation.

Each stage holds 128 equations over its *own* input variables: 128 state
variables, plus 128 key variables for AddRoundKey stages.  A stage's output
bits become the next stage's input variables, so the layering introduces a
fresh 128-variable set per stage instead of flattening ten rounds into one
(astronomically large) ANF.  No operation here ever produces a flattened
multi-round ANF.

Because each stage works on fresh variables, every monomial lies within
one input byte, and each stage compiles into one ``Kernel`` of per-byte
truth tables.  Evaluation carries the state between stages as ``(N, 16)``
``uint8`` block rows, one per (block, key) pair; AddRoundKey stages append
the pair's round key from one ``(N, 11, 16)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import aes
from .anf import Anf, Kernel, VarSpace

STATE_SPACE = VarSpace([("state", 128)])
ARK_SPACE = VarSpace([("state", 128), ("key", 128)])


class StageKind(NamedTuple):
    """What a stage kind fixes; the label formats take the round index."""

    space: VarSpace
    gen_label: str          # progress line printed while generating files
    trace_label: str        # line printed while evaluating, and the directory name


# The one table of stage kinds; the constants below name its keys in order.
STAGE_KINDS = {
    "AddRoundKey": StageKind(ARK_SPACE, "AddRoundKey{}", "addRoundKey{}"),
    "Round": StageKind(STATE_SPACE, "Round{}", "Round{}"),
    "FinalRound": StageKind(STATE_SPACE, "Round{}", "Round{}"),
    "InvRound": StageKind(STATE_SPACE, "Round {}", "Round{}"),
    "InvMixColumns": StageKind(STATE_SPACE, "InvMixColumns {}", "invMixColumns{}"),
}
ADD_ROUND_KEY, ROUND, FINAL_ROUND, INV_ROUND, INV_MIX_COLUMNS = STAGE_KINDS

_ROUND_KINDS = (ROUND, FINAL_ROUND, INV_ROUND)
ROUND_INDICES = range(11)   # AES-128 rounds 0..10

# The one table of stage orders: each system's (kind, round index) stages.
# Round9 of encryption has no column mix; each decryption round adds its key
# between the byte inversion and the standalone inverse column mix.
SCHEDULES: dict[str, tuple[tuple[str, int], ...]] = {
    "enc": ((ADD_ROUND_KEY, 0),
            *(stage for r in range(9) for stage in ((ROUND, r), (ADD_ROUND_KEY, r + 1))),
            (FINAL_ROUND, 9), (ADD_ROUND_KEY, 10)),
    "dec": ((ADD_ROUND_KEY, 10),
            *((kind, r) for r in range(9, 0, -1)
              for kind in (INV_ROUND, ADD_ROUND_KEY, INV_MIX_COLUMNS)),
            (INV_ROUND, 0), (ADD_ROUND_KEY, 0)),
}
DIRECTIONS = tuple(SCHEDULES)

# Reverse lookup (direction, trace label) -> (kind, round index) of every
# scheduled stage.  Round and FinalRound share the trace label "Round<r>".
TRACE_LABELS: dict[tuple[str, str], tuple[str, int]] = {
    (direction, STAGE_KINDS[kind].trace_label.format(r)): (kind, r)
    for direction, schedule in SCHEDULES.items() for kind, r in schedule
}


@dataclass(frozen=True)
class Stage:
    """One layer of 128 equations mapping its input variables to output bits."""

    kind: str
    round_index: int
    equations: tuple[Anf, ...]

    def __post_init__(self):
        if self.kind not in STAGE_KINDS:
            raise ValueError(f"unknown stage kind {self.kind!r}")
        if self.round_index not in ROUND_INDICES:
            raise ValueError(f"round index {self.round_index} outside 0..10")
        # a tuple, so equal stages share one compiled kernel and one rendering
        object.__setattr__(self, "equations", tuple(self.equations))
        if len(self.equations) != aes.BLOCK_BITS:
            raise ValueError(f"stage needs 128 equations, got {len(self.equations)}")
        for eq in self.equations:
            if eq.width != self.space.width:
                raise ValueError(
                    f"equation width {eq.width} does not match stage space {self.space.width}")

    @property
    def space(self) -> VarSpace:
        return STAGE_KINDS[self.kind].space

    @property
    def gen_label(self) -> str:
        return STAGE_KINDS[self.kind].gen_label.format(self.round_index)

    @property
    def trace_label(self) -> str:
        return STAGE_KINDS[self.kind].trace_label.format(self.round_index)

    @property
    def state_width(self) -> int:
        return self.space.length("state")

    @property
    def key_width(self) -> int:
        return self.space.width - self.state_width


@dataclass(frozen=True)
class EquationSystem:
    """An ordered stack of stages, either the ciphering or deciphering chain."""

    direction: str
    stages: tuple[Stage, ...]

    def __post_init__(self):
        # the checks that make every system read back as itself from its files
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        for st in self.stages:
            if TRACE_LABELS.get((self.direction, st.trace_label)) != (st.kind, st.round_index):
                raise ValueError(f"no {st.kind} stage of round {st.round_index}"
                                 f" in the {self.direction} system")

    @cached_property
    def kernels(self) -> tuple[Kernel, ...]:
        """One compiled kernel per stage, built on first evaluation.

        Stages with equal equation tuples share one kernel, so the nine
        Round stages of the encryption system compile once.
        """
        compiled: dict[tuple[Anf, ...], Kernel] = {}
        for st in self.stages:
            if st.equations not in compiled:
                compiled[st.equations] = Kernel(st.equations)
        return tuple(compiled[st.equations] for st in self.stages)

    def key_segment_count(self) -> int:
        """Distinct 128-variable key sets (one per AddRoundKey stage)."""
        return sum(1 for st in self.stages if st.kind == ADD_ROUND_KEY)

    def state_segment_count(self) -> int:
        """Structural count: the input set plus one fresh set per round stage."""
        return 1 + sum(1 for st in self.stages if st.kind in _ROUND_KINDS)

    def variable_accounting(self) -> dict[str, int]:
        """Variable totals, in the convention of one fresh 128-variable set
        for the block and one for the key at each of the ten rounds
        (1280 + 1280 = 2560).  The structural segment counts, which also
        include the initial input and cipher-key sets, are reported
        alongside.
        """
        rounds = sum(1 for st in self.stages if st.kind in _ROUND_KINDS)
        state_vars = aes.BLOCK_BITS * rounds
        key_vars = aes.BLOCK_BITS * max(0, self.key_segment_count() - 1)
        return {
            "state_variables": state_vars,
            "key_variables": key_vars,
            "total": state_vars + key_vars,
            "state_segments": self.state_segment_count(),
            "key_segments": self.key_segment_count(),
        }


def _composed_round_equations(sb: Sequence[Anf]) -> tuple[Anf, ...]:
    """Full-round equations: column mix of row-shifted substituted bits."""
    mc = aes.mixcolumns_equations(STATE_SPACE)
    bindings = {j: sb[aes.SHIFTROWS_SOURCE[j]] for j in range(aes.BLOCK_BITS)}
    return tuple(mc[i].substitute(bindings) for i in range(aes.BLOCK_BITS))


def _final_round_equations(sb: Sequence[Anf]) -> tuple[Anf, ...]:
    return tuple(sb[aes.SHIFTROWS_SOURCE[i]] for i in range(aes.BLOCK_BITS))


def _inv_round_equations() -> tuple[Anf, ...]:
    """Byte-inverse of the shifted state: substitution applied after the
    inverse row shift, kept separate from the inverse column mix.  The
    shift moves whole bytes, so each coordinate is placed by the offset of
    its source byte."""
    coords = aes.inv_sbox_coordinate_anfs()
    return tuple(coords[i % 8].rename(aes.INV_SHIFTROWS_SOURCE[i - i % 8], width=aes.BLOCK_BITS)
                 for i in range(aes.BLOCK_BITS))


def _scheduled_system(direction: str, equations: dict[str, tuple[Anf, ...]]) -> EquationSystem:
    """The system of ``SCHEDULES[direction]``; every stage of a kind shares
    that kind's equations."""
    return EquationSystem(direction, tuple(
        Stage(kind, r, equations[kind]) for kind, r in SCHEDULES[direction]))


def build_encryption_system() -> EquationSystem:
    """The 21 encryption stages, each AddRoundKey introducing a fresh key set."""
    sb = aes.subbytes_equations(STATE_SPACE)
    return _scheduled_system("enc", {
        ADD_ROUND_KEY: tuple(aes.addroundkey_equations(ARK_SPACE)),
        ROUND: _composed_round_equations(sb),
        FINAL_ROUND: _final_round_equations(sb),
    })


def build_decryption_system() -> EquationSystem:
    """The 30 decryption stages, inverse bytes placed after the inverse shift."""
    return _scheduled_system("dec", {
        ADD_ROUND_KEY: tuple(aes.addroundkey_equations(ARK_SPACE)),
        INV_ROUND: _inv_round_equations(),
        INV_MIX_COLUMNS: tuple(aes.inv_mixcolumns_equations(STATE_SPACE)),
    })


def _stage_outputs(system: EquationSystem, blocks: Sequence[bytes],
                   keys: Sequence[bytes]) -> Iterator[np.ndarray]:
    """Run every (block, key) pair through the stages at once; yields each
    stage's output as ``(N, 16)`` ``uint8`` block rows, in order."""
    for block in blocks:
        aes.check_block(block)
    state = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, aes.BLOCK_BYTES)
    # (N, 11, 16): the round keys of every pair
    round_keys = np.frombuffer(
        b"".join(b"".join(aes.reference_key_schedule(k)) for k in keys),
        dtype=np.uint8).reshape(len(keys), len(ROUND_INDICES), aes.BLOCK_BYTES)
    for stage, kernel in zip(system.stages, system.kernels):
        if stage.key_width:
            state = np.concatenate((state, round_keys[:, stage.round_index]), axis=1)
        state = kernel(state)
        yield state


def evaluate_system(system: EquationSystem, block: bytes,
                    key: bytes) -> tuple[bytes, list[tuple[str, str]]]:
    """Fold a block through every stage, binding concrete round keys.

    Returns the output block and the trace of (stage label, 32-hex-char
    state) after every stage.  The compiled stage kernels run on a batch
    of one.
    """
    output, trace = block, []
    for stage, state in zip(system.stages, _stage_outputs(system, [block], [key])):
        output = state.tobytes()
        trace.append((stage.trace_label, output.hex()))
    return output, trace


def evaluate_system_batch(system: EquationSystem, blocks: Sequence[bytes],
                          keys: Sequence[bytes]) -> list[bytes]:
    """Evaluate many (block, key) pairs at once; no trace.

    Blocks and round keys are ``uint8`` rows, one per pair, that pass
    through each stage's compiled kernel together.  Much faster than
    repeated evaluate_system when checking the system against the
    reference cipher in bulk.
    """
    if len(blocks) != len(keys):
        raise ValueError("need one key per block")
    if not blocks:
        return []
    for state in _stage_outputs(system, blocks, keys):
        pass
    raw = state.tobytes()
    return [raw[i:i + aes.BLOCK_BYTES] for i in range(0, len(raw), aes.BLOCK_BYTES)]


def reference_trace(direction: str, block: bytes, key: bytes) -> list[tuple[str, str]]:
    """Byte-level oracle trace with the same labels evaluate_system emits."""
    if direction == "enc":
        raw = aes.reference_encrypt_trace(block, key)
    elif direction == "dec":
        raw = aes.reference_decrypt_trace(block, key)
    else:
        raise ValueError(f"direction must be 'enc' or 'dec', got {direction!r}")
    return [(label, state.hex()) for label, state in raw]
