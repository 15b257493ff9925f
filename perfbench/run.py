#!/usr/bin/env python3
"""Benchmark of aesbool: the generate -> verify cycle, bulk system
evaluation and truth-table <-> ANF conversion.

Run from the root of a source checkout (it imports ``src/aesbool``):

    python3 perfbench/run.py --workload files-roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload files-roundtrip --seconds 1 --negative-control

Every workload is a closed loop with one client in one thread: the next op
starts when the previous one has ended.  The first round of ops in a run is
a warm-up: checked and counted, not timed.  Every op is checked; a failed op
is counted, never skipped or retried.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` runs the traced pass over every layer and prints the
per-layer metrics.  The last line of standard output is one JSON object.
perfbench/README.md says what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("files-roundtrip", "bulk-eval", "anf-roundtrip")
DIRECTIONS = ("enc", "dec")
BATCH_N = 1024
TRACED_OPS_PER_BATCH_OP = 10   # a batch op takes ~70 traced ops' time
SETUP_REPEATS = 5
EVAL_ROWS = 4                  # dense-20 rows checked with Anf.evaluate_mask
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10

# The host's speed drifts by up to ~50 % over minutes, and interpreted
# Python drifts more than numpy's array passes.  So between ops the run
# times two fixed probes that never touch aesbool, one of each kind, and
# the JSON metrics scale each side's user CPU time to a machine where its
# probe takes 0.1 s.  Only the sparse side of anf-roundtrip is bound by
# numpy array passes; every other side is bound by the interpreter.
PROBE_ITERATIONS = 300_000
PROBE_ARRAY_PASSES = 80
PROBE_REFERENCE_S = 0.1
SIDE_PROBES = {
    "files-roundtrip": ("python", "python"),
    "bulk-eval": ("python", "python"),
    "anf-roundtrip": ("python", "numpy"),
}

# Trees the seed code writes: (tree_digest sha256, bytes, files).  The .eq
# format is frozen, so a cycle whose tree differs is a failed op.
PINNED_TREES = {
    "enc": ("6b3ac218aaa5e962974a2f8aec8121d51313a790731e85de0ddad8e042429a68", 77134409, 2690),
    "dec": ("4d3f68fa7248bf292c6cb5e1271f4bedb493f614af8d4caf7f758890dd7b7a26", 23820317, 3842),
}

# The sparse arity-20 ANF is a product of three affine forms whose shape is
# fixed here; each op relabels the 20 variables with a seeded permutation, so
# the term count (and the work) is the same on every seed.
SPARSE_ARITY = 20
SPARSE_FORM_SIZE = 12
SPARSE_TERMS = 670

# The only failures --negative-control may cause: each injected fault must be
# caught by the check aimed at it (verify's exit 1 for a flipped .eq bit).
NEGATIVE_REASONS = {
    "verify exit 1",
    "batch output differs from the reference",
    "traced evaluation differs from the reference trace",
    "dense-16 round trip differs",
}

PER_LAYER_UNITS = {
    "serial.read_mb_per_s": "MB/s",
    "serial.bytes_written_enc": "B",
    "serial.bytes_written_dec": "B",
    "serial.files_written": "count",
}


def clock() -> tuple[float, float, float]:
    """(wall, user CPU, system CPU) seconds of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), usage.ru_utime, usage.ru_stime


def since(start: tuple[float, float, float]) -> tuple[float, float, float]:
    return tuple(now - then for now, then in zip(clock(), start))


def add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def user_cpu() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def python_probe() -> float:
    """User CPU seconds of a fixed loop over ints and a small set."""
    start = user_cpu()
    acc, seen = 0, set()
    for i in range(PROBE_ITERATIONS):
        m = (i * 2654435761) & 0xFFFFFFFFFFFF
        acc ^= m & (m >> 7)
        key = m & 0xFFF
        if key in seen:
            seen.discard(key)
        else:
            seen.add(key)
    return user_cpu() - start


def numpy_probe() -> float:
    """User CPU seconds of array passes shaped like truth_table_from_anf's."""
    import numpy as np

    start = user_cpu()
    rows = np.arange(1 << 20, dtype=np.uint32)
    out = np.zeros(1 << 20, dtype=np.uint8)
    for i in range(1, PROBE_ARRAY_PASSES + 1):
        mask = (i * 0x9E3779B1) & 0xFFFFF
        out ^= ((rows & mask) == mask).astype(np.uint8)
    return user_cpu() - start


PROBE_FUNCTIONS = {"python": python_probe, "numpy": numpy_probe}


class Tracer:
    """Spans kept in memory, (name, start, end), one around each call the
    benchmark makes into a layer.  Layer calls never nest, so a span has
    no parent but the op that take() closes."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def take(self) -> dict[str, float]:
        """Summed duration per span name since the last take; clears the spans."""
        totals: dict[str, float] = {}
        for name, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        self.spans.clear()
        return totals


class Tally:
    """Attempted and failed ops, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.reasons: dict[str, int] = {}

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    def record(self, reason: str | None) -> bool:
        self.attempted += 1
        if reason is not None:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return reason is None


def seeded_pair(seed: int, tag: str, index: int) -> tuple[bytes, bytes]:
    rng = random.Random(f"{seed}:{tag}:{index}")
    return rng.randbytes(16), rng.randbytes(16)


def tree_digest(root: Path) -> tuple[str, int, int]:
    """SHA-256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    nbytes = nfiles = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
        nbytes += len(data)
        nfiles += 1
    return digest.hexdigest(), nbytes, nfiles


def tree_reason(direction: str, tree: tuple[str, int, int]) -> str | None:
    if tree != PINNED_TREES[direction]:
        return f"{direction} tree differs from the pinned digest"
    return None


def flip_round_bit(root: Path, direction: str, block: bytes, key: bytes) -> None:
    """Negative control: flip one ASCII '0' to '1' in the first Round stage so
    that the result changes for this (block, key).

    The flipped line is a monomial that is 1 on the stage input; adding a
    variable that is 0 there makes the line evaluate to 0, so the equation's
    parity flips.  Every stage is a bijection of the state, so the final
    block differs too.
    """
    from aesbool import aes, system

    stage_input = aes.block_to_mask(
        bytes.fromhex(system.reference_trace(direction, block, key)[0][1]))
    zero_vars = [v for v in range(aes.BLOCK_BITS) if not stage_input >> v & 1]
    stage_dir = next(root.glob("01_Round*"))
    for eq_path in sorted(stage_dir.glob("*.eq")):
        data = bytearray(eq_path.read_bytes())
        offset = 0
        for line in bytes(data).split(b"\n")[:-1]:
            mask = int(line[1:][::-1], 2)
            if line[:1] == b"0" and mask & stage_input == mask:
                v = next(v for v in zero_vars if line[1 + v:2 + v] == b"0")
                data[offset + 1 + v] ^= 0x01
                eq_path.write_bytes(bytes(data))
                return
            offset += len(line) + 1
    raise RuntimeError(f"no line to flip under {stage_dir}")


# ---------------------------------------------------------------------------
# files-roundtrip: the user's CLI cycle, one direction per op

def cli_cycle(direction: str, block: bytes, key: bytes, out: Path, negative: bool):
    """generate + verify through aesbool.cli.main, output captured.

    Returns the clock() delta of generate plus verify (the tree check
    between them is not timed) and the failure reason, if any.
    """
    from aesbool import cli

    sink = io.StringIO()
    out.mkdir(parents=True)
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = clock()
        rc = cli.main(["generate", "--mode", direction, "--out", str(out)])
        generate = since(start)
    if rc != 0:
        return generate, f"generate exit {rc}"
    root = out / f"AES_files_{direction}"
    reason = tree_reason(direction, tree_digest(root))
    if negative:
        flip_round_bit(root, direction, block, key)
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = clock()
        rc = cli.main(["verify", "--mode", direction, "--block", block.hex(),
                       "--key", key.hex(), "--files", str(out)])
        verify = since(start)
    if rc != 0:
        reason = f"verify exit {rc}"
    return add(generate, verify), reason


def mirrored_cycle(direction: str, block: bytes, key: bytes, out: Path, tracer: Tracer):
    """The calls cmd_generate and cmd_verify make, in their order, each in
    a span.  Returns (built system, failure reason)."""
    from aesbool import aes, serial, system

    build = system.build_encryption_system if direction == "enc" else system.build_decryption_system
    oracle = aes.reference_encrypt if direction == "enc" else aes.reference_decrypt
    out.mkdir(parents=True)
    with tracer.span(f"system.build_{direction}"):
        built = build()
    with tracer.span(f"serial.write_{direction}"):
        serial.write_system(built, out)
    root = out / f"AES_files_{direction}"
    with tracer.span(f"serial.read_{direction}"):
        loaded = serial.read_system(root)
    with tracer.span(f"system.evaluate_{direction}"):
        output, _ = system.evaluate_system(loaded, block, key)
    with tracer.span("aes.reference"):
        expected = oracle(block, key)
    if output != expected:
        return built, f"{direction} mirrored cycle output differs"
    return built, None


def run_files(seed: int, seconds: float, negative: bool, workdir: Path, between_ops):
    tally = Tally()
    samples = {"enc": [], "dec": []}
    start = time.perf_counter()
    index = 0
    while index < 2 * len(DIRECTIONS) or time.perf_counter() - start < seconds:
        for direction in DIRECTIONS:
            block, key = seeded_pair(seed, "files", index)
            sample, reason = cli_cycle(direction, block, key,
                                       workdir / f"op{index:04d}", negative)
            if tally.record(reason) and index >= len(DIRECTIONS):
                samples[direction].append(sample)
            between_ops()
            index += 1
    return tally, samples["enc"], samples["dec"]


# ---------------------------------------------------------------------------
# bulk-eval: both systems in memory, batch and traced single evaluation

def build_systems():
    from aesbool import system

    return {"enc": system.build_encryption_system(), "dec": system.build_decryption_system()}


def batch_inputs(seed: int, index: int) -> dict:
    return {direction: [seeded_pair(seed, f"batch-{direction}-{index}", i)
                        for i in range(BATCH_N)]
            for direction in DIRECTIONS}


def traced_inputs(seed: int, index: int) -> dict:
    return {direction: seeded_pair(seed, f"traced-{direction}", index)
            for direction in DIRECTIONS}


def batch_op(systems, inputs, tracer: Tracer, negative: bool):
    """evaluate_system_batch on BATCH_N seeded pairs per direction, each
    output checked against the byte-level cipher.  Returns (pairs checked
    correct, failure reason)."""
    from aesbool import aes, system

    reason = None
    good = 0
    for direction, pairs in inputs.items():
        blocks = [b for b, _ in pairs]
        keys = [k for _, k in pairs]
        oracle = aes.reference_encrypt if direction == "enc" else aes.reference_decrypt
        with tracer.span(f"system.evaluate_batch_{direction}"):
            outputs = system.evaluate_system_batch(systems[direction], blocks, keys)
        if negative:
            outputs[0] = bytes([outputs[0][0] ^ 1]) + outputs[0][1:]
        with tracer.span("aes.reference"):
            expected = [oracle(b, k) for b, k in pairs]
        matched = sum(o == e for o, e in zip(outputs, expected))
        good += matched
        if matched != BATCH_N or len(outputs) != BATCH_N:
            reason = "batch output differs from the reference"
    return good, reason


def traced_op(systems, inputs, tracer: Tracer, negative: bool) -> str | None:
    """evaluate_system with its trace on one seeded pair per direction,
    each trace checked stage by stage against system.reference_trace."""
    from aesbool import system

    reason = None
    for direction, (block, key) in inputs.items():
        with tracer.span(f"system.evaluate_{direction}"):
            _, trace = system.evaluate_system(systems[direction], block, key)
        if negative:
            label, value = trace[-1]
            trace[-1] = (label, format(int(value, 16) ^ 1, "032x"))
        with tracer.span("aes.reference"):
            expected = system.reference_trace(direction, block, key)
        if trace != expected:
            reason = "traced evaluation differs from the reference trace"
    return reason


def run_bulk(seed: int, seconds: float, negative: bool, systems, between_ops):
    tally = Tally()
    batch, traced = [], []
    pairs_checked = 0
    tracer = Tracer()
    start = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - start < seconds:
        inputs = batch_inputs(seed, index)
        op_start = clock()
        good, reason = batch_op(systems, inputs, tracer, negative)
        sample = since(op_start)
        if tally.record(reason) and index > 0:
            batch.append(sample)
            pairs_checked += good
        between_ops()
        for j in range(TRACED_OPS_PER_BATCH_OP):
            inputs = traced_inputs(seed, index * TRACED_OPS_PER_BATCH_OP + j)
            op_start = clock()
            reason = traced_op(systems, inputs, tracer, negative)
            sample = since(op_start)
            if tally.record(reason) and index > 0:
                traced.append(sample)
        between_ops()
        tracer.take()
        index += 1
    return tally, batch, traced, pairs_checked


# ---------------------------------------------------------------------------
# anf-roundtrip: truth table <-> ANF in four parts

def _sparse_shape():
    rng = random.Random("sparse-shape")
    return [(rng.getrandbits(1), rng.sample(range(SPARSE_ARITY), SPARSE_FORM_SIZE))
            for _ in range(3)]


def anf_inputs(seed: int, index: int):
    """Seeded inputs of one anf-roundtrip op; built outside the timed region."""
    import numpy as np
    from aesbool.boolfn import TruthTable

    rng = np.random.default_rng([seed, index])
    perm = random.Random(f"{seed}:sparse:{index}").sample(range(SPARSE_ARITY), SPARSE_ARITY)
    return {
        "dense16": TruthTable(16, rng.integers(0, 2, 1 << 16, dtype=np.uint8)),
        "dense20": TruthTable(20, rng.integers(0, 2, 1 << 20, dtype=np.uint8)),
        "rows": [int(r) for r in rng.integers(0, 1 << 20, EVAL_ROWS)],
        "sparse_forms": [(const, [perm[v] for v in vars_]) for const, vars_ in _sparse_shape()],
    }


def _row_mask(row: int, arity: int) -> int:
    """Assignment mask of a truth-table row (x_0 is the row's top bit)."""
    return sum(1 << j for j in range(arity) if row >> (arity - 1 - j) & 1)


def anf_dense(inputs, tracer: Tracer, negative: bool) -> str | None:
    """S-box coordinates, dense arity 16 round trip, dense arity 20 ANF."""
    from aesbool import aes, boolfn
    from aesbool.anf import Anf

    reason = None
    with tracer.span("boolfn.sbox_anf"):
        coords = [boolfn.anf_from_truth_table(
                      boolfn.TruthTable(8, [(table[x] >> (7 - c)) & 1 for x in range(256)]))
                  for table in (aes.SBOX, aes.INV_SBOX) for c in range(8)]
    if any(coord.degree() != 7 for coord in coords):
        reason = "S-box coordinate degree is not 7"

    tt16 = inputs["dense16"]
    with tracer.span("boolfn.anf_from_truth_table_dense16"):
        anf16 = boolfn.anf_from_truth_table(tt16)
    if negative:
        anf16 = anf16 ^ Anf.one(16)
    with tracer.span("boolfn.truth_table_from_anf_dense16"):
        back16 = boolfn.truth_table_from_anf(anf16, 16)
    if back16 != tt16:
        reason = "dense-16 round trip differs"

    tt20 = inputs["dense20"]
    with tracer.span("boolfn.mobius_transform_20"):
        coefficients = boolfn.mobius_transform(tt20)
    with tracer.span("boolfn.anf_from_truth_table_dense20"):
        anf20 = boolfn.anf_from_truth_table(tt20)
    with tracer.span("anf.evaluate_mask"):
        values = [anf20.evaluate_mask(_row_mask(row, 20)) for row in inputs["rows"]]
    if (values != [int(tt20.bits[row]) for row in inputs["rows"]]
            or anf20.term_count() != boolfn.weight(coefficients)):
        reason = "dense-20 ANF disagrees with its table"
    return reason


def anf_sparse(inputs, tracer: Tracer) -> str | None:
    """The 670-term degree-3 ANF through a table and back."""
    from aesbool import boolfn
    from aesbool.anf import Anf

    with tracer.span("anf.multiply"):
        forms = []
        for const, vars_ in inputs["sparse_forms"]:
            form = Anf.one(SPARSE_ARITY) if const else Anf.zero(SPARSE_ARITY)
            for v in vars_:
                form = form ^ Anf.variable(SPARSE_ARITY, v)
            forms.append(form)
        sparse = forms[0].multiply(forms[1]).multiply(forms[2])
    with tracer.span("boolfn.truth_table_from_anf_sparse20"):
        table = boolfn.truth_table_from_anf(sparse, SPARSE_ARITY)
    with tracer.span("boolfn.anf_from_truth_table_sparse20"):
        back = boolfn.anf_from_truth_table(table)
    if back != sparse or sparse.term_count() != SPARSE_TERMS:
        return "sparse-20 round trip differs"
    return None


def run_anf(seed: int, seconds: float, negative: bool, between_ops):
    tally = Tally()
    dense, sparse = [], []
    tracer = Tracer()
    start = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - start < seconds:
        inputs = anf_inputs(seed, index)
        part_start = clock()
        reason = anf_dense(inputs, tracer, negative)
        dense_sample = since(part_start)
        part_start = clock()
        reason = anf_sparse(inputs, tracer) or reason
        sparse_sample = since(part_start)
        tracer.take()
        if tally.record(reason) and index > 0:
            dense.append(dense_sample)
            sparse.append(sparse_sample)
        between_ops()
        index += 1
    return tally, dense, sparse


# ---------------------------------------------------------------------------
# the traced pass over every layer

def traced_pass(seed: int, index: int, workdir: Path, tally: Tally) -> dict[str, float]:
    """One untraced CLI cycle per direction, then one traced op of each
    workload (the files-roundtrip op as the calls the CLI makes)."""
    tracer = Tracer()
    metrics: dict[str, float] = {}

    # User CPU, not wall time: the kernel's file-creation time swings by
    # seconds between two cycles here (see README), which would bury the
    # CLI's own cost.
    untraced_user = 0.0
    for direction in DIRECTIONS:
        block, key = seeded_pair(seed, "trace-cli", index)
        sample, reason = cli_cycle(direction, block, key,
                                   workdir / f"trace{index}-cli-{direction}", False)
        tally.record(reason)
        untraced_user += sample[1]

    systems = {}
    traced_user = reference = 0.0
    metrics["serial.files_written"] = 0
    for direction in DIRECTIONS:
        block, key = seeded_pair(seed, "trace-cycle", index)
        out = workdir / f"trace{index}-mirror-{direction}"
        start = clock()
        systems[direction], reason = mirrored_cycle(direction, block, key, out, tracer)
        traced_user += since(start)[1]
        tree = tree_digest(out / f"AES_files_{direction}")
        tally.record(reason or tree_reason(direction, tree))
        spans = tracer.take()
        reference += spans["aes.reference"]
        for name in ("system.build", "serial.write", "serial.read"):
            metrics[f"{name}_{direction}_s"] = spans[f"{name}_{direction}"]
        _, nbytes, nfiles = tree
        metrics[f"serial.bytes_written_{direction}"] = nbytes
        metrics["serial.files_written"] += nfiles
    metrics["cli.unattributed_s"] = untraced_user - traced_user
    metrics["serial.read_mb_per_s"] = (
        (metrics["serial.bytes_written_enc"] + metrics["serial.bytes_written_dec"]) / 1e6
        / (metrics["serial.read_enc_s"] + metrics["serial.read_dec_s"]))

    tally.record(batch_op(systems, batch_inputs(seed, index), tracer, False)[1])
    tally.record(traced_op(systems, traced_inputs(seed, index), tracer, False))
    spans = tracer.take()
    reference += spans["aes.reference"]
    for name in ("system.evaluate_batch_enc", "system.evaluate_batch_dec",
                 "system.evaluate_enc", "system.evaluate_dec"):
        metrics[f"{name}_s"] = spans[name]

    inputs = anf_inputs(seed, index)
    reason = anf_dense(inputs, tracer, False)
    tally.record(anf_sparse(inputs, tracer) or reason)
    for name, seconds in tracer.take().items():
        metrics[f"{name}_s"] = seconds
    metrics["aes.reference_s"] = reference
    return metrics


def run_traced(seed: int, seconds: float, workdir: Path):
    tally = Tally()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(traced_pass(seed, len(passes), workdir, tally))
    metrics = {name: {"value": statistics.median(p[name] for p in passes),
                      "unit": PER_LAYER_UNITS.get(name, "s")}
               for name in sorted(passes[0])}
    detail = dict(metrics, passes={"value": len(passes), "unit": "count"})
    return tally, metrics, detail


# ---------------------------------------------------------------------------
# set-up, provenance, statistics

def import_seconds() -> float:
    """Time to import aesbool.cli in a fresh interpreter, as each CLI run pays."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import aesbool.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


def setup_seconds(workload: str):
    """Median fresh-interpreter import time plus the median time of the
    workload's own preparation.  Returns (seconds, built systems or None)."""
    imports = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
    if workload != "bulk-eval":
        return imports, None
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        systems = build_systems()
        builds.append(time.perf_counter() - start)
    return imports + statistics.median(builds), systems


def filesystem_type(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                if (str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def provenance(tree_dir: Path) -> dict:
    import numpy

    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = done.stdout.strip() or sha
        except OSError:
            sha = "unknown (git not runnable)"
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "aesbool").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    fstype = filesystem_type(tree_dir)
    return {
        "git_sha": sha,
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "tree_fs": fstype,
        "tree_fs_ram_backed": fstype in ("tmpfs", "ramfs"),
    }


def tail(samples: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least TAIL_MIN_BEYOND samples above it
    (nearest rank), or (None, None) when the run holds too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, -(-int(p * n) // 100))   # ceil(p/100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return None, None


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def latency(name: str, samples: list[tuple[float, float, float]]) -> dict:
    """Wall-clock p50 and tail, plus the user and system CPU p50."""
    wall = [s[0] for s in samples]
    p, value = tail(wall)
    return {
        f"{name}.p50": {"value": median(wall), "unit": "s", "samples": len(wall)},
        f"{name}.tail": {"value": value, "unit": "s", "samples": len(wall), "percentile": p},
        f"{name}.user_p50": {"value": median([s[1] for s in samples]), "unit": "s"},
        f"{name}.sys_p50": {"value": median([s[2] for s in samples]), "unit": "s"},
        f"{name}.samples": [[round(x, 6) for x in s] for s in samples],
    }


# ---------------------------------------------------------------------------
# running one workload

def run_workload(name: str, seed: int, seconds: float, negative: bool, workdir: Path):
    """Returns (tally, metrics for the JSON line, named metrics for people)."""
    setup, systems = setup_seconds(name)
    probes = {kind: [] for kind in set(SIDE_PROBES[name])}

    def between_ops():
        for kind, times in probes.items():
            times.append(PROBE_FUNCTIONS[kind]())

    detail: dict = {}
    if name == "files-roundtrip":
        tally, op_a, op_b = run_files(seed, seconds, negative, workdir, between_ops)
        detail.update(latency("cycle_enc_s", op_a))
        detail.update(latency("cycle_dec_s", op_b))
    elif name == "bulk-eval":
        tally, op_a, op_b, pairs = run_bulk(seed, seconds, negative, systems, between_ops)
        detail["batch_pairs_per_s"] = {
            "value": pairs / sum(s[0] for s in op_a) if op_a else None,
            "unit": "1/s", "samples": len(op_a)}
        detail.update(latency("batch_op_s", op_a))
        detail.update(latency("traced_eval_s", op_b))
    else:
        tally, op_a, op_b = run_anf(seed, seconds, negative, between_ops)
        detail.update(latency("anf_roundtrip_s", [add(a, b) for a, b in zip(op_a, op_b)]))
        detail.update(latency("anf_dense_s", op_a))
        detail.update(latency("anf_sparse_s", op_b))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail["setup_s"] = {"value": setup, "unit": "s"}
    detail["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    detail["failed_share"] = {"value": tally.failed / tally.attempted, "unit": "share",
                              "failed": tally.failed, "attempted": tally.attempted}
    probe_s = {}
    for kind, times in sorted(probes.items()):
        probe_s[kind] = statistics.median(times)
        detail[f"probe_{kind}_user_s.p50"] = {"value": probe_s[kind], "unit": "s",
                                             "samples": len(times)}

    def normalized(samples, probe):
        user = median([s[1] for s in samples])
        return None if user is None else user * PROBE_REFERENCE_S / probe_s[probe]

    probe_a, probe_b = SIDE_PROBES[name]
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "op_a_norm_s.p50": {"value": normalized(op_a, probe_a), "unit": "s"},
        "op_b_norm_s.p50": {"value": normalized(op_b, probe_b), "unit": "s"},
    }
    return tally, metrics, detail


def format_value(entry: dict) -> str:
    value = entry["value"]
    text = "n/a" if value is None else f"{value:.6g}"
    extras = [f"{k}={v}" for k, v in entry.items() if k not in ("value", "unit", "percentile")]
    if "percentile" in entry:
        extras.insert(0, f"p{entry['percentile']:g}" if entry["percentile"] else
                      f"no percentile has {TAIL_MIN_BEYOND} samples beyond it")
    return f"{text} {entry['unit']}" + (f" ({', '.join(extras)})" if extras else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="inject one fault into every op; exit 0 iff every op fails")
    args = parser.parse_args(argv)

    if not (SRC / "aesbool" / "__init__.py").is_file():
        print(f"error: {SRC / 'aesbool'} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import aesbool
    if Path(aesbool.__file__).resolve().parent != SRC / "aesbool":
        print(f"error: imported aesbool from {aesbool.__file__}", file=sys.stderr)
        return 2

    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(WORK, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        facts = provenance(workdir)
        if args.trace:
            tally, metrics, detail = run_traced(args.seed, args.seconds, workdir)
        else:
            tally, metrics, detail = run_workload(args.workload, args.seed, args.seconds,
                                                  args.negative_control, workdir)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print("provenance " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if not facts["tree_fs_ram_backed"]:
        print(f"note: trees are written to {facts['tree_fs']}, not a RAM-backed filesystem; "
              "no write is fsynced, so real-disk behaviour is not measured")
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: closed loop, 1 client, 1 thread"
          + (" (the traced pass is the same for every workload)" if args.trace else ""))
    for name, entry in detail.items():
        if isinstance(entry, dict):
            print(f"{name} {format_value(entry)}")
    for reason, count in sorted(tally.reasons.items()):
        print(f"failed {count}x: {reason}")
    print("detail " + json.dumps({"workload": args.workload, "trace": args.trace,
                                  "provenance": facts, "metrics": detail,
                                  "reasons": tally.reasons}))

    correct = tally.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    if args.negative_control:
        bit = tally.failed == tally.attempted and set(tally.reasons) <= NEGATIVE_REASONS
        print(f"negative control: {tally.failed} of {tally.attempted} ops failed,"
              f" the gate {'bites' if bit else 'DOES NOT bite'}")
        return 0 if bit else 1
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process (so each has its own peak RSS), then
    the traced pass; prints every named metric, one JSON object last."""
    results = []
    for workload, trace in [(w, 0) for w in WORKLOADS] + [(WORKLOADS[0], 1)]:
        if trace and args.negative_control:
            continue
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
        if args.negative_control:
            cmd.append("--negative-control")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        detail = next((json.loads(line[len("detail "):]) for line in lines
                       if line.startswith("detail ")), None)
        if detail is None:
            print(f"error: {' '.join(cmd)} gave no result (exit {done.returncode})",
                  file=sys.stderr)
            return 2
        results.append((done.returncode, detail, json.loads(lines[-1])))
    metrics = {}
    for _, detail, _ in results:
        prefix = "" if detail["trace"] else detail["workload"] + "/"
        metrics.update((prefix + name, entry) for name, entry in detail["metrics"].items()
                       if isinstance(entry, dict))
    ok = all(rc == 0 for rc, _, _ in results)
    print(json.dumps({"correct": ok and not args.negative_control,
                      "attempted": sum(r[2]["attempted"] for r in results),
                      "failed": sum(r[2]["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
