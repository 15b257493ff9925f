"""Layered AES-128 equation systems and their stage-by-stage evaluation.

Each stage holds 128 equations over its *own* input variables: 128 state
variables, plus 128 key variables for AddRoundKey stages.  A stage's output
bits become the next stage's input variables, so the layering introduces a
fresh 128-variable set per stage instead of flattening ten rounds into one
(astronomically large) ANF.  No operation here ever produces a flattened
multi-round ANF.

Stage kinds, stage order and labels live here alone: ``reference_trace``
names the byte-level oracle's bare states.  FinalRound and InvRound index
the (inverse) substitution by the (inverse) row-shift table; Round is
``aes.round_equations``, the column mix's GF(2) matrix applied to the
substitution's coordinate tables on the bytes the row shift brings into
each column.  Every built equation holds its canonical block rows, as one
read from a file does, so writing renders them and the kernels compile
from them with no term set built.

Because each stage works on fresh variables, every monomial lies within
one input byte, and each stage compiles into one ``Kernel`` of per-byte
truth tables.  Evaluation carries the state between stages as ``(N, 16)``
``uint8`` block rows, one per (block, key) pair; AddRoundKey stages append
the pair's round key, ``(N, 16)`` rows too.  The round keys come from the
key schedule's equations, not from the byte-level oracle: the 128
equations of one key round (``aes.key_expansion_word_anf``) compile once
per process into one kernel, run ten times, with each round's constant
row XORed onto its output.  The oracle only names and checks
(``reference_trace``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import aes
from .anf import Anf, Kernel, VarSpace

STATE_SPACE = VarSpace([("state", 128)])
ARK_SPACE = VarSpace([("state", 128), ("key", 128)])


ROUND_INDICES = range(11)   # AES-128 rounds 0..10


class StageKind(NamedTuple):
    """What a stage kind fixes; the label formats take the round index.

    The widths and the trace label of every round index are derived once,
    by ``_stage_kind``, so that evaluation reads them instead of
    recomputing them for each stage.
    """

    space: VarSpace
    gen_label: str          # progress line printed while generating files
    trace_label: str        # line printed while evaluating, and the directory name
    state_width: int
    key_width: int
    trace_labels: tuple[str, ...]   # trace_label formatted for each round index


def _stage_kind(space: VarSpace, gen_label: str, trace_label: str) -> StageKind:
    state = space.length("state")
    return StageKind(space, gen_label, trace_label, state, space.width - state,
                     tuple(map(trace_label.format, ROUND_INDICES)))


# The one table of stage kinds; the constants below name its keys in order.
STAGE_KINDS = {
    "AddRoundKey": _stage_kind(ARK_SPACE, "AddRoundKey{}", "addRoundKey{}"),
    "Round": _stage_kind(STATE_SPACE, "Round{}", "Round{}"),
    "FinalRound": _stage_kind(STATE_SPACE, "Round{}", "Round{}"),
    "InvRound": _stage_kind(STATE_SPACE, "Round {}", "Round{}"),
    "InvMixColumns": _stage_kind(STATE_SPACE, "InvMixColumns {}", "invMixColumns{}"),
}
ADD_ROUND_KEY, ROUND, FINAL_ROUND, INV_ROUND, INV_MIX_COLUMNS = STAGE_KINDS

_ROUND_KINDS = (ROUND, FINAL_ROUND, INV_ROUND)

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
    (direction, STAGE_KINDS[kind].trace_labels[r]): (kind, r)
    for direction, schedule in SCHEDULES.items() for kind, r in schedule
}


def out_of_order(direction: str, stages: Iterable[tuple[str, int]]) -> int | None:
    """The index of the first (kind, round index) of ``stages`` that
    ``SCHEDULES[direction]`` does not put after the one before it (for the
    first, anywhere); None when the schedule orders them all."""
    schedule, position = SCHEDULES[direction], -1
    for index, stage in enumerate(stages):
        try:
            position = schedule.index(stage, position + 1)
        except ValueError:
            return index
    return None


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
        # a tuple, so the stage is immutable; stages that hold the same equation
        # objects share one compiled kernel and one rendering per bit
        object.__setattr__(self, "equations", tuple(self.equations))
        if len(self.equations) != aes.BLOCK_BITS:
            raise ValueError(f"stage needs 128 equations, got {len(self.equations)}")
        for eq in self.equations:
            if eq.width != self.space.width:
                raise ValueError(
                    f"equation width {eq.width} does not match stage space {self.space.width}")

    @cached_property
    def space(self) -> VarSpace:
        return STAGE_KINDS[self.kind].space

    @cached_property
    def gen_label(self) -> str:
        return STAGE_KINDS[self.kind].gen_label.format(self.round_index)

    @cached_property
    def trace_label(self) -> str:
        return STAGE_KINDS[self.kind].trace_labels[self.round_index]

    @cached_property
    def state_width(self) -> int:
        return STAGE_KINDS[self.kind].state_width

    @cached_property
    def key_width(self) -> int:
        return STAGE_KINDS[self.kind].key_width


@dataclass(frozen=True)
class EquationSystem:
    """An ordered stack of stages, either the ciphering or deciphering chain."""

    direction: str
    stages: tuple[Stage, ...]

    def __post_init__(self):
        # the checks that make every system read back as itself from its files
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        bad = out_of_order(self.direction, ((st.kind, st.round_index) for st in self.stages))
        if bad is not None:
            st = self.stages[bad]
            if (st.kind, st.round_index) not in SCHEDULES[self.direction]:
                raise ValueError(f"no {st.kind} stage of round {st.round_index}"
                                 f" in the {self.direction} system")
            raise ValueError(f"stage {st.trace_label} is out of order: the {self.direction}"
                             f" schedule does not put it after {self.stages[bad - 1].trace_label}")

    @cached_property
    def shared(self) -> tuple[int, ...]:
        """For each stage, the index of the first stage that holds the same
        equation objects, such as the nine Round stages of the encryption
        system, built or read back.  Stages are keyed by the identity of
        their equations, so no Anf is hashed and no term set is built."""
        first: dict[tuple[int, ...], int] = {}
        return tuple(first.setdefault(tuple(map(id, st.equations)), index)
                     for index, st in enumerate(self.stages))

    @cached_property
    def kernels(self) -> tuple[Kernel, ...]:
        """One compiled kernel per stage, built on first evaluation; the
        stages that ``shared`` maps to one stage share its kernel."""
        compiled = {index: Kernel(st.equations) for index, st in enumerate(self.stages)
                    if self.shared[index] == index}
        return tuple(map(compiled.__getitem__, self.shared))

    def key_segment_count(self) -> int:
        """Distinct 128-variable key sets (one per AddRoundKey stage)."""
        return sum(1 for st in self.stages if st.kind == ADD_ROUND_KEY)

    def variable_accounting(self) -> dict[str, int]:
        """Variable totals, in the convention of one fresh 128-variable set
        for the block and one for the key at each of the ten rounds
        (1280 + 1280 = 2560).  The structural segment counts, which also
        include the initial input and cipher-key sets, are reported
        alongside.
        """
        rounds = sum(1 for st in self.stages if st.kind in _ROUND_KINDS)
        keys = self.key_segment_count()
        state_vars = aes.BLOCK_BITS * rounds
        key_vars = aes.BLOCK_BITS * max(0, keys - 1)
        return {
            "state_variables": state_vars,
            "key_variables": key_vars,
            "total": state_vars + key_vars,
            "state_segments": 1 + rounds,   # the input set plus one per round stage
            "key_segments": keys,
        }


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
        ROUND: tuple(aes.round_equations(STATE_SPACE)),
        # a bytewise substitution commutes with moving whole bytes
        FINAL_ROUND: tuple(sb[src] for src in aes.SHIFTROWS_SOURCE),
    })


def build_decryption_system() -> EquationSystem:
    """The 30 decryption stages, inverse bytes placed after the inverse shift."""
    isb = aes.inv_subbytes_equations(STATE_SPACE)
    return _scheduled_system("dec", {
        ADD_ROUND_KEY: tuple(aes.addroundkey_equations(ARK_SPACE)),
        # a bytewise substitution commutes with moving whole bytes
        INV_ROUND: tuple(isb[src] for src in aes.INV_SHIFTROWS_SOURCE),
        INV_MIX_COLUMNS: tuple(aes.inv_mixcolumns_equations(STATE_SPACE)),
    })


# what each of the ten key rounds XORs onto the key-round kernel's output:
# byte 0 of every word takes that round's constant in place of round 1's
_ROUND_CONSTANT_ROWS = np.zeros((len(aes.RCON), aes.BLOCK_BYTES), dtype=np.uint8)
_ROUND_CONSTANT_ROWS[:, ::4] = np.bitwise_xor(aes.RCON, aes.RCON[0])[:, None]


@cache
def _key_round_kernel() -> Kernel:
    """The 128 equations of the first key round, words 4..7 over the bits
    of the cipher key, compiled on the first evaluation."""
    return Kernel([eq for word in range(4, 8) for eq in aes.key_expansion_word_anf(word)])


def _input_rows(blocks: Sequence[bytes], keys: Sequence[bytes]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Check every block and key: the ``(N, 16)`` block rows of the (block,
    key) pairs and their 11 round keys, one ``(N, 16)`` array each.

    Each round key is the key-round kernel run on the one before it, with
    that round's constant row XORed in; no byte-level key schedule runs."""
    for block in blocks:
        aes.check_block(block)
    for key in keys:
        aes.check_key(key)
    state = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, aes.BLOCK_BYTES)
    round_keys = [np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, aes.BLOCK_BYTES)]
    kernel = _key_round_kernel()
    for constant in _ROUND_CONSTANT_ROWS:
        round_key = kernel(round_keys[-1])
        round_key ^= constant
        round_keys.append(round_key)
    return state, round_keys


def _stage_outputs(system: EquationSystem, state: np.ndarray,
                   round_keys: list[np.ndarray]) -> Iterator[np.ndarray]:
    """Run the input rows of ``_input_rows`` through the stages at once;
    yields each stage's output as ``(N, 16)`` ``uint8`` block rows, in order."""
    for stage, kernel in zip(system.stages, system.kernels):
        if stage.key_width:
            state = np.concatenate((state, round_keys[stage.round_index]), axis=1)
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
    for stage, state in zip(system.stages, _stage_outputs(system, *_input_rows([block], [key]))):
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
    state, round_keys = _input_rows(blocks, keys)
    for state in _stage_outputs(system, state, round_keys):   # no stages: the input rows
        pass
    raw = state.tobytes()
    return [raw[i:i + aes.BLOCK_BYTES] for i in range(0, len(raw), aes.BLOCK_BYTES)]


def reference_trace(direction: str, block: bytes, key: bytes) -> list[tuple[str, str]]:
    """Byte-level oracle trace with the same labels evaluate_system emits:
    the oracle's states named by the direction's schedule."""
    if direction == "enc":
        states = aes.reference_encrypt_states(block, key)
    elif direction == "dec":
        states = aes.reference_decrypt_states(block, key)
    else:
        raise ValueError(f"direction must be 'enc' or 'dec', got {direction!r}")
    return [(STAGE_KINDS[kind].trace_labels[r], state.hex())
            for (kind, r), state in zip(SCHEDULES[direction], states, strict=True)]
