"""Fair enumeration and interleaved execution of every binary program.

Programs are enumerated shortest first (lexicographic within a length);
bit strings that do not decode are skipped, since they cannot halt and
contribute nothing to the halting probability.  The census records, for
every enumerated program, the latest known run status.

Dovetail schedule: at stage t every program of at most ``16 + t`` bits
(capped by the census's corpus bound) gets a budget of ``2**t`` steps.
Every program therefore eventually receives an unbounded budget.  Runs are
deterministic and a halt or abort at step k is the same under any larger
budget, so statuses never change once decided and the census after stage t
is a pure function of t: ``advance`` computes it in one pass at ``2**t``.

A run depends on its data only through the bits it reads, so each pending
head (text and separator) runs once per read path, not each bit string:
first with no data, then one bit longer only while the run aborts before
the end of some record's data.  Every extension of a path inherits the
outcome of the run that decided it (the halting-prefix pruning of Calude,
Dinneen and Shu, "Computing a glimpse of randomness", 2002).  ``jobs``
spreads heads over processes.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from . import sexpr
from .dyadic import DyadicRational
from .evaluator import (
    AbortOverrun,
    Halted,
    MalformedProgram,
    max_text_chars,
    program_head,
    scan_program,
)
from .machine import (
    MACHINE_VERSION,
    BinaryProgram,
    _checked_program,
    bits_to_hex,
    config_hash,
    hex_to_bits,
    run_program,
)

MIN_PROGRAM_BITS = len(program_head("a"))  # one character and the separator

STATUS_HALTED_VALID = "halted-valid"
STATUS_HALTED_INVALID = "halted-invalid"
STATUS_ABORTED = "aborted"
STATUS_UNKNOWN = "unknown"

_CENSUS_MAGIC = "omegalab census 1"


class VersionMismatch(Exception):
    """Census was produced by a machine with different semantics."""


class CorruptFile(Exception):
    """Census file failed structural validation."""


class StageCapExceeded(Exception):
    """The bound never reached the requested prefix within the stage cap."""

    def __init__(self, cap: int):
        super().__init__(f"omega bound did not reach the target by stage {cap}")
        self.cap = cap


@dataclass(slots=True)
class Record:
    """Latest known status of one enumerated program.

    steps holds the halting/abort step count for decided programs and the
    largest budget survived for unknown ones.
    """

    bits: str
    status: str = STATUS_UNKNOWN
    steps: int = 0
    value_text: str | None = None

    @property
    def decided(self) -> bool:
        return self.status != STATUS_UNKNOWN


@dataclass(slots=True)
class Census:
    """Persistent map from enumerated programs to their run records.

    ``winner`` answers from an index of value texts memoised in
    ``value_index`` and keyed on ``(stage, len(records))``; a lookup under a
    new key rebuilds it.  So every writer must change the stage or the
    record count: ``advance`` raises the stage, ``load_census`` builds a new
    census and enrolling a record grows the count.  Rewriting a record in
    place changes neither and leaves the index stale.  The memo takes no
    part in equality or repr and is never saved.
    """

    version: str
    config_digest: str
    max_bits: int
    stage: int = 0
    records: dict[str, Record] = field(default_factory=dict)
    value_index: tuple[tuple[int, int], dict[str, str]] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def enrolled_bits(self) -> int:
        """Largest program size already entered into the schedule."""
        return min(MIN_PROGRAM_BITS + self.stage, self.max_bits) if self.stage else 0

    def winner(self, value_text: str) -> str | None:
        """Bits of the shortest program recorded as halting validly with the
        value, or None; ties go to the earliest record."""
        key = (self.stage, len(self.records))
        if self.value_index is None or self.value_index[0] != key:
            self.value_index = (key, _value_index(self.records))
        return self.value_index[1].get(value_text)


def _value_index(records: dict[str, Record]) -> dict[str, str]:
    """Map each value text to its first shortest halted-valid record's bits.

    Only a strictly shorter record replaces an entry, so among equal lengths
    the first in insertion order wins: enumeration order for any census
    that advance built.  halted-invalid records carry a value text too and
    are left out.
    """
    index: dict[str, str] = {}
    for record in records.values():
        if record.status == STATUS_HALTED_VALID:
            best = index.get(record.value_text)
            if best is None or len(record.bits) < len(best):
                index[record.value_text] = record.bits
    return index


def new_census(max_bits: int) -> Census:
    if max_bits < MIN_PROGRAM_BITS:
        raise ValueError(f"max_bits must be >= {MIN_PROGRAM_BITS}")
    return Census(MACHINE_VERSION, config_hash(), max_bits)


# --- enumeration ----------------------------------------------------------

_SORTED_TEXT_CHARS = tuple(sorted(sexpr.TEXT_CHARS))


@lru_cache(maxsize=None)
def parseable_texts_of_length(k: int) -> tuple[str, ...]:
    """All parseable program texts of exactly k characters, in byte order."""
    texts = map("".join, itertools.product(_SORTED_TEXT_CHARS, repeat=k))
    return tuple(text for text in texts if sexpr.parse_program_cached(text))


@lru_cache(maxsize=None)
def parseable_texts_upto(max_chars: int) -> tuple[str, ...]:
    """All parseable texts of 1..max_chars characters, lexicographic."""
    pool: list[str] = []
    for k in range(1, max_chars + 1):
        pool.extend(parseable_texts_of_length(k))
    return tuple(sorted(pool))


def _heads_and_data(
    max_bits: int, min_bits: int = MIN_PROGRAM_BITS
) -> Iterator[tuple[str, str]]:
    """``enumerate_programs`` from min_bits up, split into (head, data).

    Decodable bit strings are exactly text-bytes + separator + free data
    bits, so the stream is generated from the cached parseable-text pool
    rather than by trying every bit string.
    """
    for length in range(max(min_bits, MIN_PROGRAM_BITS), max_bits + 1):
        # Every data string of each length, built once per program length.
        data_suffixes: dict[int, list[str]] = {}
        for text in parseable_texts_upto(max_text_chars(length)):
            head = program_head(text)
            data_len = length - len(head)
            suffixes = data_suffixes.get(data_len)
            if suffixes is None:
                suffixes = data_suffixes[data_len] = [
                    "".join(bits) for bits in itertools.product("01", repeat=data_len)
                ]
            for data in suffixes:
                yield head, data


def enumerate_programs(max_bits: int) -> Iterator[BinaryProgram]:
    """Every decodable program of at most max_bits bits, exactly once,
    shorter first and lexicographic within a length."""
    for head, data in _heads_and_data(max_bits):
        yield _checked_program(head + data)


# --- the dovetail ---------------------------------------------------------


def _decide_head(
    group: tuple[str, tuple[str, ...], int],
) -> list[tuple[str, int, str | None]]:
    """Worker: decide every record that shares one head, one read path at a
    time; returns (status, steps, value text) per record's bits, in order.

    A run on ``bits[:len(head) + j]`` that halts, runs out of time or is
    malformed read at most j data bits, so the run on the whole of ``bits``
    does the same: its outcome decides the record.  An abort before the end
    of the data may be a read past bit j, so the path grows by one bit and
    runs again.  Runs are kept by bit string while the group lasts, so each
    path is run once however many records extend it.
    """
    head, programs, budget = group
    runs: dict[str, tuple[str, int, str | None, int | None]] = {}

    def run(bits: str) -> tuple[str, int, str | None, int | None]:
        """(status, steps, value text, data bits read; None on an abort)."""
        fields = runs.get(bits)
        if fields is None:
            out = run_program(_checked_program(bits), budget).outcome
            if isinstance(out, Halted):
                value_text = sexpr.print_canonical(out.value)
                fields = (STATUS_HALTED_VALID, out.steps, value_text, out.bits_consumed)
            elif isinstance(out, AbortOverrun):
                fields = (STATUS_ABORTED, out.steps, None, None)
            elif isinstance(out, MalformedProgram):
                # Undecodable, or decodable but structurally unrunnable.
                fields = (STATUS_ABORTED, 0, None, 0)
            else:
                fields = (STATUS_UNKNOWN, budget, None, 0)
            runs[bits] = fields
        return fields

    first = run(head)
    decided = []
    for bits in programs:
        end = len(head)
        status, steps, value_text, read = first
        while read is None and end < len(bits):
            end += 1
            status, steps, value_text, read = run(bits[:end])
        if status == STATUS_HALTED_VALID and len(head) + read != len(bits):
            status = STATUS_HALTED_INVALID
        decided.append((status, steps, value_text))
    return decided


def _check_version(version: str, digest: str, source: str = "census") -> None:
    if version != MACHINE_VERSION or digest != config_hash():
        raise VersionMismatch(
            f"{source} built by {version}/{digest}, "
            f"machine is {MACHINE_VERSION}/{config_hash()}"
        )


def advance(
    census: Census,
    stages: int,
    jobs: int = 1,
) -> Census:
    """Bring the census to stage ``census.stage + stages`` in place, in one
    pass: the records still unknown and every program newly inside the size
    cap run once, at that stage's budget.

    The heads may be spread over a pool of ``jobs`` processes; the result is
    byte-identical either way because each record's fields depend only on
    its own bits and the budget.
    """
    _check_version(census.version, census.config_digest)
    if stages < 1:
        return census
    t = census.stage + stages
    pending: dict[str, list[Record]] = {}
    for record in census.records.values():
        if record.status == STATUS_UNKNOWN:
            scanned = scan_program(record.bits, 0)
            end = None if type(scanned) is MalformedProgram else scanned[2]
            pending.setdefault(record.bits[:end], []).append(record)
    size_cap = min(MIN_PROGRAM_BITS + t, census.max_bits)
    for head, data in _heads_and_data(size_cap, census.enrolled_bits + 1):
        bits = head + data  # one string, shared by the key and the record
        record = census.records[bits] = Record(bits)
        pending.setdefault(head, []).append(record)
    work = [(head, tuple(r.bits for r in group), 2**t) for head, group in pending.items()]
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        if pool is None:
            results = map(_decide_head, work)
        else:
            chunk = max(1, len(work) // (jobs * 8))
            results = pool.map(_decide_head, work, chunksize=chunk)
        for group, decided in zip(pending.values(), results):
            for record, fields in zip(group, decided):
                record.status, record.steps, record.value_text = fields
    census.stage = t
    return census


def omega_lower_bound(census: Census) -> DyadicRational:
    """Exact sum of 2**-|p| over programs known to halt validly."""
    lengths = [
        len(record.bits)
        for record in census.records.values()
        if record.status == STATUS_HALTED_VALID
    ]
    if not lengths:
        return DyadicRational.zero()
    # One integer sum over the common denominator 2**top.
    top = max(lengths)
    return DyadicRational(Fraction(sum(1 << (top - n) for n in lengths), 1 << top))


@dataclass(frozen=True, slots=True)
class HaltingDecision:
    """Outcome of the bound-chasing halting classifier."""

    n_bits: int
    target: DyadicRational
    stop_stage: int
    bound: DyadicRational
    halting: tuple[str, ...]
    not_halting_relative: tuple[str, ...]


def decide_halting_via_omega(
    omega_prefix: DyadicRational,
    n_bits: int,
    census: Census,
    stage_cap: int = 64,
    bound: DyadicRational | None = None,
) -> HaltingDecision:
    """Dovetail until the census bound reaches omega_prefix, then classify
    every program of at most n_bits bits.

    The caller must supply a trusted truncation of a lower bound (anything
    exceeding the reachable bound raises StageCapExceeded).  Programs that
    halted validly by the stopping stage are labeled halting; the rest are
    only not-halting *relative to this prefix*: the label is sound exactly
    when the prefix matches the first n_bits of the true halting
    probability, and every program already halted is always labeled
    correctly.

    A caller that has already summed ``omega_lower_bound(census)`` passes
    it as ``bound`` so that the sum is not made again.
    """
    _check_version(census.version, census.config_digest)
    if n_bits > census.max_bits:
        raise ValueError("n_bits exceeds the census corpus bound")
    if bound is None:
        bound = omega_lower_bound(census)
    while bound < omega_prefix:
        if census.stage >= stage_cap:
            raise StageCapExceeded(stage_cap)
        advance(census, 1)
        bound = omega_lower_bound(census)
    halting = []
    rest = []
    for head, data in _heads_and_data(n_bits):
        record = census.records.get(head + data)
        if record is not None and record.status == STATUS_HALTED_VALID:
            halting.append(head + data)
        else:
            rest.append(head + data)
    return HaltingDecision(
        n_bits, omega_prefix, census.stage, bound, tuple(halting), tuple(rest)
    )


# --- persistence ----------------------------------------------------------


def save_census(census: Census, path) -> None:
    """Write the census as a line-oriented, diffable text file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(f"{_CENSUS_MAGIC}\n")
            fh.write(f"version {census.version}\n")
            fh.write(f"config {census.config_digest}\n")
            fh.write(f"max-bits {census.max_bits}\n")
            fh.write(f"stage {census.stage}\n")
            fh.write(f"records {len(census.records)}\n")
            for record in census.records.values():
                value = record.value_text if record.value_text is not None else "-"
                fh.write(
                    f"{bits_to_hex(record.bits)} {len(record.bits)} "
                    f"{record.status} {record.steps} {value}\n"
                )
        os.replace(tmp, path)
    finally:
        # Gone already after a successful replace; left by a failed write.
        with suppress(FileNotFoundError):
            os.remove(tmp)


_STATUSES = {
    STATUS_HALTED_VALID,
    STATUS_HALTED_INVALID,
    STATUS_ABORTED,
    STATUS_UNKNOWN,
}


def load_census(path) -> Census:
    """Read a census file; rejects other machine versions and truncated or
    mangled files, and headers or records no census run can produce."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _CENSUS_MAGIC:
        raise CorruptFile(f"{path}: not a census file")
    try:
        header = dict(line.split(" ", 1) for line in lines[1:6])
        version = header["version"]
        digest = header["config"]
        max_bits = int(header["max-bits"])
        stage = int(header["stage"])
        count = int(header["records"])
    except (KeyError, ValueError, IndexError) as exc:
        raise CorruptFile(f"{path}: bad header: {exc}") from None
    if max_bits < MIN_PROGRAM_BITS or stage < 0:
        raise CorruptFile(f"{path}: bad header: max-bits {max_bits}, stage {stage}")
    _check_version(version, digest, f"{path}: census")
    body = lines[6:]
    if len(body) != count:
        raise CorruptFile(f"{path}: expected {count} records, found {len(body)}")
    census = Census(version, digest, max_bits, stage)
    for line in body:
        try:
            hex_text, length_text, status, steps_text, value = line.split(" ", 4)
            bits = hex_to_bits(hex_text, int(length_text))
            steps = int(steps_text)
        except ValueError as exc:
            raise CorruptFile(f"{path}: bad record {line!r}: {exc}") from None
        if status not in _STATUSES:
            raise CorruptFile(f"{path}: unknown status {status!r}")
        # No string shorter than one character and the separator decodes.
        if len(bits) < MIN_PROGRAM_BITS or steps < 0:
            raise CorruptFile(f"{path}: impossible record {line!r}")
        value_text = (
            value if status in (STATUS_HALTED_VALID, STATUS_HALTED_INVALID) else None
        )
        if bits in census.records:
            raise CorruptFile(f"{path}: duplicate record for {hex_text}/{length_text}")
        census.records[bits] = Record(bits, status, steps, value_text)
    return census
