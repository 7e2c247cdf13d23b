"""The per-record census, kept as the reference for the per-head one.

``advance`` builds one ``Record`` for every enumerated bit string, groups
the records still unknown by head and writes each record's decided fields
back into it; ``_decide_head`` returns one (status, steps, value text)
tuple per record.  ``load_census`` builds one ``Record`` per line of the
file, whose numbers and hex must be spelled as ``save_census`` spells them.
``omegalab.dovetail`` keeps each head's run with no data, and the read
paths of a head whose run aborted, instead, derives the records from them
and loads a file it could have saved into them; this module is its
oracle, so it stays as it was, not fast.
"""

import re

from omegalab import sexpr
from omegalab.dovetail import (
    _CENSUS_MAGIC,
    _STATUSES,
    MIN_PROGRAM_BITS,
    STATUS_ABORTED,
    STATUS_HALTED_INVALID,
    STATUS_HALTED_VALID,
    STATUS_UNKNOWN,
    Census,
    CorruptFile,
    Record,
    _check_version,
    _heads_and_data,
)
from omegalab.evaluator import AbortOverrun, Halted, MalformedProgram, scan_program
from omegalab.machine import _checked_program, hex_to_bits, run_program


def _decide_head(
    group: tuple[str, tuple[str, ...], int],
) -> list[tuple[str, int, str | None]]:
    """Decide every record that shares one head, one read path at a
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


def advance(census: Census, stages: int) -> Census:
    """Bring the census to stage ``census.stage + stages`` in place, in one
    pass: the records still unknown and every program newly inside the size
    cap run once, at that stage's budget."""
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
    for _, head, data in _heads_and_data(size_cap, census.enrolled_bits + 1):
        bits = head + data  # one string, shared by the key and the record
        record = census.records[bits] = Record(bits)
        pending.setdefault(head, []).append(record)
    work = [(head, tuple(r.bits for r in group), 2**t) for head, group in pending.items()]
    for group, decided in zip(pending.values(), map(_decide_head, work)):
        for record, fields in zip(group, decided):
            record.status, record.steps, record.value_text = fields
    census.stage = t
    return census


def _decimal(text):
    """A field's integer, spelled with no sign but a minus, no underscore
    and no leading zero."""
    value = int(text)
    if not re.fullmatch("0|-?[1-9][0-9]*", text):
        raise ValueError(f"not a canonical decimal: {text!r}")
    return value


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
        max_bits = _decimal(header["max-bits"])
        stage = _decimal(header["stage"])
        count = _decimal(header["records"])
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
            if not re.fullmatch("[0-9a-f]*", hex_text):
                raise ValueError(f"not lowercase hex: {hex_text!r}")
            bits = hex_to_bits(hex_text, _decimal(length_text))
            steps = _decimal(steps_text)
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
        if bits in census._records:
            raise CorruptFile(f"{path}: duplicate record for {hex_text}/{length_text}")
        census._records[bits] = Record(bits, status, steps, value_text)
    return census
