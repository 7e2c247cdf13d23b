"""The self-delimiting binary machine: encoding, decoding and budgeted runs.

A binary program is the 8-bit ASCII encoding of a program text, a
separator byte 0x00, and zero or more raw data bits.  The format is fixed
and lives in the evaluator module (``program_head``, ``scan_program``),
whose ``(run-remaining)`` primitive reads it too.  The text is run by
the evaluator and reads the data one bit at a time; there is no end-of-data
marker, so a run only counts as a valid halt when it consumed exactly the
data it was given.  Halting with bits left over is reported, but it is not
a valid halt: that rule is what makes the set of validly halting programs
prefix-free and the halting probability a probability.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from . import sexpr
from .evaluator import (
    BitTape,
    Halted,
    MalformedProgram,
    Outcome,
    evaluate,
    program_head,
    scan_program,
)
from .sexpr import SExpr

MACHINE_VERSION = "omegalab-machine-1"
DEFAULT_BUDGET = 4096


def config_hash() -> str:
    """Short stable digest of the fixed program format and the machine
    version.  Census files record it; the hashed text is frozen so that
    every census file of this machine version keeps loading."""
    text = f"sep=0;bpc=8;version={MACHINE_VERSION}"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def bits_to_hex(bits: str) -> str:
    """Hex of the bit string, last byte zero-padded on the right."""
    if not bits:
        return ""
    padded = bits + "0" * (-len(bits) % 8)
    return int(padded, 2).to_bytes(len(padded) // 8, "big").hex()


def hex_to_bits(hex_text: str, bit_length: int) -> str:
    if bit_length < 0:
        raise ValueError("bit length must be >= 0")
    raw = bytes.fromhex(hex_text)
    if len(raw) != (bit_length + 7) // 8:
        raise ValueError("hex length does not match declared bit length")
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b") if raw else ""
    if bits[bit_length:].strip("0"):
        raise ValueError("nonzero padding bits after declared length")
    return bits[:bit_length]


@dataclass(frozen=True, slots=True)
class BinaryProgram:
    """A finite bit string, stored as a 0/1 text."""

    bits: str

    def __post_init__(self):
        if self.bits.strip("01"):
            raise ValueError("program bits must be a string over 0/1")

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def hex(self) -> str:
        return bits_to_hex(self.bits)

    @classmethod
    def from_hex(cls, hex_text: str, bit_length: int) -> "BinaryProgram":
        return cls(hex_to_bits(hex_text, bit_length))


@dataclass(frozen=True, slots=True)
class DecodedProgram:
    prefix: tuple[SExpr, ...]
    data: str
    text: str


def encode_program(prefix: Sequence[SExpr], data: str = "") -> BinaryProgram:
    """Pack a program: 8 bits per canonical-text character, separator byte,
    then the raw data bits."""
    prefix = tuple(prefix)
    if not prefix:
        raise ValueError("prefix must contain at least one expression")
    if data.strip("01"):
        raise ValueError("data must be a string over 0/1")
    return BinaryProgram(program_head(sexpr.print_program(prefix)) + data)


def encode_text(text: str, data: str = "") -> BinaryProgram:
    """Parse program text and encode it (in canonical form)."""
    return encode_program(sexpr.parse(text), data)


def decode_program(
    program: Union[BinaryProgram, str],
) -> Union[DecodedProgram, MalformedProgram]:
    """Split a bit string into (prefix expressions, data bits).

    Exact inverse of encode_program on its image.  Returns a
    MalformedProgram value when there is no byte-aligned separator, a byte
    outside the text alphabet, or a prefix that does not parse to at least
    one expression.
    """
    bits = program.bits if type(program) is BinaryProgram else program
    scanned = scan_program(bits, 0)
    if type(scanned) is MalformedProgram:
        return scanned
    exprs, text, end = scanned
    return DecodedProgram(exprs, bits[end:], text)


@dataclass(frozen=True, slots=True)
class RunResult:
    """Outcome of one budgeted run plus the context for judging validity."""

    outcome: Outcome
    data_length: int

    @property
    def halted(self) -> bool:
        return isinstance(self.outcome, Halted)

    @property
    def valid_halt(self) -> bool:
        """Halted and consumed every raw data bit."""
        return (
            isinstance(self.outcome, Halted)
            and self.outcome.bits_consumed == self.data_length
        )


def run_program(program: BinaryProgram, budget: int = DEFAULT_BUDGET) -> RunResult:
    """Decode and run one binary program under a step budget."""
    decoded = decode_program(program)
    if isinstance(decoded, MalformedProgram):
        return RunResult(decoded, 0)
    outcome = evaluate(decoded.prefix, BitTape(decoded.data), budget)
    return RunResult(outcome, len(decoded.data))


def save_program(path, program: BinaryProgram) -> None:
    """Write a program as a bit-length header plus hex payload."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"bits: {len(program.bits)}\n")
        if program.bits:
            fh.write(program.hex + "\n")


def load_program(path) -> BinaryProgram:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if not header.startswith("bits:"):
            raise ValueError(f"{path}: missing 'bits: N' header")
        bit_length = int(header.split(":", 1)[1])
        hex_text = fh.read().strip()
    return BinaryProgram.from_hex(hex_text, bit_length)


def prefix_free_violation(
    bit_strings: Iterable[str],
) -> tuple[str, str] | None:
    """First (prefix, extension) pair among the strings, or None.

    Sorted order puts any prefix immediately before its extensions, so an
    adjacent check is exhaustive.
    """
    ordered = sorted(bit_strings)
    for a, b in zip(ordered, ordered[1:]):
        if len(a) < len(b) and b.startswith(a):
            return (a, b)
    return None
