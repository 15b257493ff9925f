"""Batch command-line front end.

Subcommands:

    generate --mode {enc,dec} --out DIR     build a system and write its files
    verify --mode {enc,dec} --block HEX32 --key HEX32 --files DIR
    anf BITSTRING                           print the ANF of a truth table
    stats --files DIR                       per-stage statistics of a system

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error.
The generate and verify outputs mirror the control programs' "## <name>"
progress lines; the trailing " 32" length annotations of those programs'
prints are omitted.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import system as system_mod
from .aes import block_from_hex
from .boolfn import MAX_ARITY, TruthTable, anf_from_truth_table
from .serial import MANIFEST_NAME, ParseError, read_system, system_dirname, write_system

_HEX32 = re.compile(r"[0-9a-f]{32}\Z")


def _hex32(value: str) -> str:
    if not _HEX32.match(value):
        raise argparse.ArgumentTypeError(
            f"expected 32 lowercase hex characters, got {value!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aesbool",
        description="AES-128 Boolean equation systems: generate, verify, inspect.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="build a system and write its per-bit files")
    p_gen.add_argument("--mode", choices=system_mod.DIRECTIONS, required=True)
    p_gen.add_argument("--out", default=".", help="directory to create AES_files_<mode> in")

    p_ver = sub.add_parser("verify", help="evaluate a written system against the reference cipher")
    p_ver.add_argument("--mode", choices=system_mod.DIRECTIONS, required=True)
    p_ver.add_argument("--block", type=_hex32, required=True)
    p_ver.add_argument("--key", type=_hex32, required=True)
    p_ver.add_argument("--files", required=True, help="directory holding the generated system")

    p_anf = sub.add_parser("anf", help="print the ANF of a '0'/'1' truth-table string")
    p_anf.add_argument("table", help="outputs of the function, 2^n characters")

    p_stats = sub.add_parser("stats", help="report monomial counts and degrees of a system")
    p_stats.add_argument("--files", required=True)

    return parser


def _resolve_root(files_dir: str, mode: str | None) -> Path:
    """Accept either a system root or the directory it was generated into."""
    base = Path(files_dir)
    modes = [mode] if mode else system_mod.DIRECTIONS
    for root in (base, *(base / system_dirname(m) for m in modes)):
        if (root / MANIFEST_NAME).exists():
            return root
    raise ParseError(f"no equation system found under {base}")


def cmd_generate(args) -> int:
    if args.mode == "enc":
        print("## Ciphering process")
        system = system_mod.build_encryption_system()
    else:
        print("## Deciphering process")
        system = system_mod.build_decryption_system()
    print(f"## Create directory {system_dirname(args.mode)}")
    try:
        write_system(system, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for stage in system.stages:
        print(f"## {stage.gen_label}")
    print("## Files generated")
    return 0


def cmd_verify(args) -> int:
    root = _resolve_root(args.files, args.mode)
    system = read_system(root)
    if system.direction != args.mode:
        raise ParseError(
            f"system at {root} has direction {system.direction!r}, expected {args.mode!r}")
    block = block_from_hex(args.block)
    key = block_from_hex(args.key)
    if args.mode == "enc":
        print(f"## Clear block {args.block}")
    else:
        print(f"## Cipher block {args.block}")
    print(f"## Key block {args.key}")
    output, trace = system_mod.evaluate_system(system, block, key)
    for label, value in trace:
        print(f"## {label}")
        print(value)
    reference = system_mod.reference_trace(args.mode, block, key)
    oracle = reference[-1][1]
    print(f"{oracle} (FIPS result)")
    if output.hex() == oracle:
        return 0
    for (label, got), (_, want) in zip(trace, reference):
        if got != want:
            print(f"mismatch at stage {label}: files gave {got}, reference gives {want}",
                  file=sys.stderr)
            return 1
    print(f"mismatch: files gave {output.hex()}, reference gives {oracle}", file=sys.stderr)
    return 1


def cmd_anf(args) -> int:
    try:
        table = TruthTable.from_string(args.table)
    except ValueError:
        print(f"error: table must be 2^n characters of 0/1 with 1 <= n <= {MAX_ARITY}",
              file=sys.stderr)
        return 2
    print(anf_from_truth_table(table).to_str())
    return 0


def cmd_stats(args) -> int:
    root = _resolve_root(args.files, None)
    system = read_system(root)
    print(f"## Stats for {root.name} (direction={system.direction})")
    histogram: Counter[int] = Counter()
    # the stages that system.shared maps to one stage reuse that stage's counts
    counted: dict[int, tuple[list[int], dict[int, int]]] = {}
    for index, (stage, first) in enumerate(zip(system.stages, system.shared)):
        if first == index:
            # a monomial's degree is its block row's popcount
            degrees = np.bincount(np.concatenate(
                [np.bitwise_count(eq.rows).sum(axis=1, dtype=np.intp) for eq in stage.equations]))
            counted[index] = ([eq.term_count() for eq in stage.equations],
                              {d: int(count) for d, count in enumerate(degrees) if count})
        term_counts, sizes = counted[first]
        histogram.update(sizes)
        max_degree = max(sizes, default=-1)
        print(f"stage {index:02d} {stage.trace_label} kind={stage.kind}"
              f" monomials={sum(term_counts)}"
              f" min_terms={min(term_counts)} max_terms={max(term_counts)}"
              f" max_degree={max_degree}")
    hist_str = " ".join(f"{d}={histogram[d]}" for d in sorted(histogram))
    print(f"degree_histogram {hist_str}")
    acct = system.variable_accounting()
    print(f"variables state={acct['state_variables']} key={acct['key_variables']}"
          f" total={acct['total']}"
          f" state_segments={acct['state_segments']} key_segments={acct['key_segments']}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "verify": cmd_verify,
    "anf": cmd_anf,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
