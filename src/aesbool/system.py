"""Layered AES-128 equation systems and their stage-by-stage evaluation.

Each stage holds 128 equations over its *own* input variables: 128 state
variables, plus 128 key variables for AddRoundKey stages.  A stage's output
bits become the next stage's input variables, so the layering introduces a
fresh 128-variable set per stage instead of flattening ten rounds into one
(astronomically large) ANF.  No operation here ever produces a flattened
multi-round ANF.

Stage kinds, stage order and labels live here alone: ``reference_trace``
names the byte-level oracle's bare states.  FinalRound and InvRound index
the (inverse) substitution by the (inverse) row-shift table; Round is the
column mix with the FinalRound substituted in.

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

# Each direction's trace labels in stage order, formatted once here.
SCHEDULE_TRACE_LABELS: dict[str, tuple[str, ...]] = {
    direction: tuple(STAGE_KINDS[kind].trace_labels[r] for kind, r in schedule)
    for direction, schedule in SCHEDULES.items()
}

# Each direction's trace labels -> their positions in its schedule.
SCHEDULE_POSITIONS: dict[str, dict[str, int]] = {
    direction: {label: position for position, label in enumerate(labels)}
    for direction, labels in SCHEDULE_TRACE_LABELS.items()
}

# Reverse lookup (direction, trace label) -> (kind, round index) of every
# scheduled stage.  Round and FinalRound share the trace label "Round<r>".
TRACE_LABELS: dict[tuple[str, str], tuple[str, int]] = {
    (direction, label): stage for direction, schedule in SCHEDULES.items()
    for label, stage in zip(SCHEDULE_TRACE_LABELS[direction], schedule, strict=True)
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
        # a tuple, so the stage is immutable; stages that hold the same equation
        # objects share one compiled kernel and one rendering per bit
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
        return STAGE_KINDS[self.kind].trace_labels[self.round_index]

    @property
    def state_width(self) -> int:
        return STAGE_KINDS[self.kind].state_width

    @property
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
        positions = SCHEDULE_POSITIONS[self.direction]
        previous = None
        for st in self.stages:
            if TRACE_LABELS.get((self.direction, st.trace_label)) != (st.kind, st.round_index):
                raise ValueError(f"no {st.kind} stage of round {st.round_index}"
                                 f" in the {self.direction} system")
            if previous is not None and positions[st.trace_label] <= positions[previous]:
                raise ValueError(f"stage {st.trace_label} is out of order: the {self.direction}"
                                 f" schedule does not put it after {previous}")
            previous = st.trace_label

    @cached_property
    def kernels(self) -> tuple[Kernel, ...]:
        """One compiled kernel per stage, built on first evaluation.

        Stages that hold the same equation objects share one kernel, so the
        nine Round stages of the encryption system, built or read back,
        compile once.  The stages are keyed by the identity of their
        equations: compiling never hashes an Anf, so a read-back equation
        never builds its term set.
        """
        compiled: dict[tuple[int, ...], Kernel] = {}
        keys = [tuple(map(id, st.equations)) for st in self.stages]
        for key, st in zip(keys, self.stages):
            if key not in compiled:
                compiled[key] = Kernel(st.equations)
        return tuple(map(compiled.__getitem__, keys))

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


def _scheduled_system(direction: str, equations: dict[str, tuple[Anf, ...]]) -> EquationSystem:
    """The system of ``SCHEDULES[direction]``; every stage of a kind shares
    that kind's equations."""
    return EquationSystem(direction, tuple(
        Stage(kind, r, equations[kind]) for kind, r in SCHEDULES[direction]))


def build_encryption_system() -> EquationSystem:
    """The 21 encryption stages, each AddRoundKey introducing a fresh key set."""
    sb = aes.subbytes_equations(STATE_SPACE)
    final = tuple(sb[src] for src in aes.SHIFTROWS_SOURCE)
    bindings = dict(enumerate(final))
    return _scheduled_system("enc", {
        ADD_ROUND_KEY: tuple(aes.addroundkey_equations(ARK_SPACE)),
        ROUND: tuple(eq.substitute(bindings) for eq in aes.mixcolumns_equations(STATE_SPACE)),
        FINAL_ROUND: final,
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


def _input_rows(blocks: Sequence[bytes], keys: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Check every block and expand every key: the ``(N, 16)`` block rows
    and the ``(N, 11, 16)`` round keys of the (block, key) pairs."""
    for block in blocks:
        aes.check_block(block)
    state = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, aes.BLOCK_BYTES)
    round_keys = np.frombuffer(
        b"".join(b"".join(aes.reference_key_schedule(k)) for k in keys),
        dtype=np.uint8).reshape(len(keys), len(ROUND_INDICES), aes.BLOCK_BYTES)
    return state, round_keys


def _stage_outputs(system: EquationSystem, state: np.ndarray,
                   round_keys: np.ndarray) -> Iterator[np.ndarray]:
    """Run the input rows of ``_input_rows`` through the stages at once;
    yields each stage's output as ``(N, 16)`` ``uint8`` block rows, in order."""
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
    return [(label, state.hex())
            for label, state in zip(SCHEDULE_TRACE_LABELS[direction], states, strict=True)]
