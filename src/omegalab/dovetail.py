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
Dinneen and Shu, "Computing a glimpse of randomness", 2002).  An enrolled
head's runs evaluate its text's parse on the path's data, with no decoding.
The census keeps those paths per head and derives a bit string's record
from them only when its records are read; a file saved from them loads
back into them in one walk that checks the file as it reads it.  ``jobs``
spreads heads over processes.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from . import machine, sexpr
from .dyadic import DyadicRational
from .evaluator import (
    AbortOverrun,
    Halted,
    MalformedProgram,
    Outcome,
    _checked_tape,
    head_hex,
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

# What one run on a read path decides: (status, steps, value text, data bits
# read), the bits read None on an abort, which may be a read past the path.
PathFields = tuple[str, int, str | None, int | None]


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


class Census:
    """Persistent map from enumerated programs to their run records.

    ``advance`` stores what it decides by head (a text and its separator),
    not by bit string: each enrolled head's decided read paths, path bits to
    (status, steps, value text, data bits read; None on an abort).  The
    records of the programs it enrolled follow from those paths and the
    window of program lengths that it enrolled, so none is built.
    ``records`` holds the records kept one by one: hand-enrolled,
    undecodable and oversized ones, and those of a file loaded per record.
    Its first read materialises the derived records into it, in enumeration
    order, at the positions a per-record census gives them (after the
    records already held, a held record of an enrolled program rewritten in
    place), and drops the per-head state.
    ``save_census``, ``omega_lower_bound``, ``status_counts``, ``tally``,
    ``decide_halting_via_omega`` and ``winner`` read the per-head state
    without materialising.  ``load_census`` puts a file saved from per-head
    state back into it, reading each path's fields from the path's own line
    as one walk renders and checks the file, and any other file into
    ``records``; both give the census the file's lines spell out.  Equality
    and repr are those of (version, config digest, max bits, stage,
    records).

    ``winner`` answers from an index of value texts memoised in
    ``value_index`` and keyed on the stage and the number of held records;
    a lookup under a new key rebuilds it from the valid halts.  So every
    writer must change the stage or the held count: ``advance`` raises the
    stage, ``load_census`` builds a new census, and enrolling a record
    materialises the derived ones and grows the count.  Rewriting a held
    record in place changes neither and leaves the index stale.  The memo
    takes no part in equality or repr and is never saved.
    """

    __slots__ = (
        "version", "config_digest", "max_bits", "stage",
        "_records", "_window", "_heads", "value_index",
    )

    def __init__(self, version: str, config_digest: str, max_bits: int, stage: int = 0):
        self.version = version
        self.config_digest = config_digest
        self.max_bits = max_bits
        self.stage = stage
        self._records: dict[str, Record] = {}
        # (first, last) program length whose records derive from _heads.
        self._window: tuple[int, int] | None = None
        self._heads: dict[str, dict[str, PathFields]] = {}
        self.value_index: tuple[tuple[int, int], dict[str, str]] | None = None

    @property
    def records(self) -> dict[str, Record]:
        if self._window is not None:
            _materialise(self)
        return self._records

    def _fields(self) -> tuple:
        return (self.version, self.config_digest, self.max_bits, self.stage, self.records)

    def __eq__(self, other):
        if type(other) is not Census:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"Census(version={self.version!r}, config_digest={self.config_digest!r}, "
            f"max_bits={self.max_bits!r}, stage={self.stage!r}, records={self.records!r})"
        )

    @property
    def enrolled_bits(self) -> int:
        """Largest program size already entered into the schedule."""
        return min(MIN_PROGRAM_BITS + self.stage, self.max_bits) if self.stage else 0

    def winner(self, value_text: str) -> str | None:
        """Bits of the shortest program recorded as halting validly with the
        value, or None; ties go to the earliest record, held records first."""
        key = (self.stage, len(self._records))
        if self.value_index is None or self.value_index[0] != key:
            self.value_index = (key, _value_index(_valid_halts(self)))
        return self.value_index[1].get(value_text)


def _value_index(halts: dict[str, str]) -> dict[str, str]:
    """Map each value text to the bits of its first shortest valid halt,
    given every valid halt's bits and value text in record order.

    Only a strictly shorter halt replaces an entry, so among equal lengths
    the first in record order wins: enumeration order for any census that
    advance built, held records first.
    """
    index: dict[str, str] = {}
    for bits, value_text in halts.items():
        best = index.get(value_text)
        if best is None or len(bits) < len(best):
            index[value_text] = bits
    return index


def _valid_halts(census: Census) -> dict[str, str]:
    """Bits to value text of the census's halted-valid records, in record
    order, without materialising: the held ones, then one per read path
    whose valid halt read all of the path's data, the record of the path's
    own bits.  halted-invalid records carry a value text too and are left
    out."""
    halts = {
        bits: record.value_text
        for bits, record in census._records.items()
        if record.status == STATUS_HALTED_VALID
    }
    if census._window is not None:
        first, last = census._window
        derived = sorted(
            (len(path), i, path, value_text)
            for i, (head, paths) in enumerate(census._heads.items())
            for path, (status, _, value_text, read) in paths.items()
            if status == STATUS_HALTED_VALID
            and read == len(path) - len(head)
            and first <= len(path) <= last
        )
        halts.update((path, value_text) for _, _, path, value_text in derived)
    return halts


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


def _data_strings(n: int) -> list[str]:
    """Every bit string of length n, lexicographic."""
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


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
                suffixes = data_suffixes[data_len] = _data_strings(data_len)
            for data in suffixes:
                yield head, data


def enumerate_programs(max_bits: int) -> Iterator[BinaryProgram]:
    """Every decodable program of at most max_bits bits, exactly once,
    shorter first and lexicographic within a length."""
    for head, data in _heads_and_data(max_bits):
        yield _checked_program(head + data)


# --- the dovetail ---------------------------------------------------------


def _run_path(bits: str, start: int, exprs, budget: int) -> Outcome:
    """The outcome of the program ``bits`` at the budget.  Given the parsed
    text of its head, which ends at ``start``, the data runs on it directly,
    as ``run_program`` does once it has decoded them; given None (a head
    that ``advance`` did not enrol), the program is decoded and run."""
    if exprs is None:
        return run_program(_checked_program(bits), budget).outcome
    # machine.evaluate is the name the benchmark tracer wraps.
    return machine.evaluate(exprs, _checked_tape(bits[start:]), budget)


def _decide_head(
    group: tuple[str, str | None, dict[str, PathFields], int, tuple[str, ...], int],
) -> dict[str, PathFields]:
    """Worker: run one head's read paths; returns the fields of every path.

    A run on ``head + data[:j]`` that halts, runs out of time or is
    malformed read at most j data bits, so a run on any extension does the
    same: its outcome decides every extension of the path.  An abort may be
    a read past bit j, so the path grows by one bit, both ways, while it
    holds fewer than ``data_bits`` data bits.  Each bit string of
    ``programs`` (records held one by one) follows its own path to its full
    length.  The paths in ``known`` were decided at a smaller budget, and a
    halt or abort at step k is the same at any larger one, so only the other
    paths run.  An enrolled head comes with its text, whose parse every run
    shares; any other head's text is None.
    """
    head, text, known, data_bits, programs, budget = group
    exprs = None if text is None else sexpr.parse_program_cached(text)
    start = len(head)
    paths = dict(known)

    def read(bits: str) -> int | None:
        fields = paths.get(bits)
        if fields is None:
            out = _run_path(bits, start, exprs, budget)
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
            paths[bits] = fields
        return fields[3]

    todo = [head]
    while todo:
        path = todo.pop()
        if read(path) is None and len(path) < start + data_bits:
            todo += (path + "0", path + "1")
    for bits in programs:
        end = start
        while read(bits[:end]) is None and end < len(bits):
            end += 1
    return paths


def _record_fields(
    paths: dict[str, PathFields], head: str, bits: str
) -> tuple[str, int, str | None]:
    """(status, steps, value text) of the record over bits: the fields of
    the first path along bits that does not abort short of its end; a halt
    is valid only when it read all of the data."""
    end = len(head)
    status, steps, value_text, read = paths[head]
    while read is None and end < len(bits):
        end += 1
        status, steps, value_text, read = paths[bits[:end]]
    if status == STATUS_HALTED_VALID and len(head) + read != len(bits):
        status = STATUS_HALTED_INVALID
    return status, steps, value_text


def _blocks(
    paths: dict[str, PathFields], head: str, length: int, read=None
) -> Iterator[tuple[int, str, int, str | None]]:
    """One head's records of one program length, in data order, as runs of
    (count, status, steps, value text): one run per path that decides them.

    A path with no fields yet is first reached at its own length, where its
    run is its own record alone; ``read(data bits)`` gives its fields then.
    """
    todo = [head]
    while todo:
        path = todo.pop()
        fields = paths.get(path)
        if fields is None:
            fields = paths[path] = read(len(path) - len(head))
        status, steps, value_text, bits_read = fields
        if bits_read is None and len(path) < length:
            todo += (path + "1", path + "0")
            continue
        if status == STATUS_HALTED_VALID and len(head) + bits_read != length:
            status = STATUS_HALTED_INVALID
        yield 1 << (length - len(path)), status, steps, value_text


def _derived(census: Census) -> Iterator[tuple[int, Iterator[tuple[str, dict, str]]]]:
    """(length, (head, paths, text) of each head enrolled at that length, in
    enumeration order) for each program length of the derived window.  The
    heads that fit are kept as three lists, not as a tuple per head for the
    garbage collector to walk."""
    if census._window is None:
        return
    first, last = census._window
    texts = parseable_texts_upto(max_text_chars(last))
    sizes = {len(head) for head in census._heads}
    for length in range(first, last + 1):
        if length == first or length in sizes:
            keep = [len(head) <= length for head in census._heads]
            columns = (census._heads, census._heads.values(), texts)
            fit = [list(itertools.compress(column, keep)) for column in columns]
        yield length, zip(*fit, strict=True)


def _derived_count(census: Census) -> int:
    """Number of derived records: each enrolled head's data strings of
    every length that puts the program in the window."""
    if census._window is None:
        return 0
    first, last = census._window
    sizes = Counter(map(len, census._heads))
    return sum(
        n * ((2 << (last - size)) - (1 << (max(first, size) - size)))
        for size, n in sizes.items()
    )


def _derived_tally(census: Census) -> tuple[Counter, Counter]:
    """(records per status, valid halts per program length) of the derived
    records, counted by read path.  A path decides its extensions of every
    length in the window, but an abort only the record of its own length.
    A valid halt is the path itself, one record."""
    statuses: Counter = Counter()
    valid: Counter = Counter()
    if census._window is None:
        return statuses, valid
    first, last = census._window
    shapes = Counter(
        (len(path), status, read is None, read == len(path) - len(head))
        for head, paths in census._heads.items()
        for path, (status, _, _, read) in paths.items()
    )
    for (size, status, aborted, whole), n in shapes.items():
        if aborted:
            if first <= size <= last:
                statuses[STATUS_ABORTED] += n
            continue
        low = max(first, size)
        if low > last:
            continue
        count = n * ((2 << (last - size)) - (1 << (low - size)))
        if status == STATUS_HALTED_VALID:
            if low == size and whole:
                valid[size] += n
                statuses[STATUS_HALTED_VALID] += n
                count -= n
            status = STATUS_HALTED_INVALID
        if count:
            statuses[status] += count
    return statuses, valid


def _materialise(census: Census) -> None:
    """Write the derived records into the held ones and drop the per-head
    state; see ``Census``."""
    records = census._records
    data: dict[int, list[str]] = {}
    for length, fit in _derived(census):
        for head, paths, _ in fit:
            n = length - len(head)
            if n not in data:
                data[n] = _data_strings(n)
            i = 0
            for count, status, steps, value_text in _blocks(paths, head, length):
                for suffix in data[n][i:i + count]:
                    bits = head + suffix
                    records[bits] = Record(bits, status, steps, value_text)
                i += count
    census._window = None
    census._heads = {}


def _settled(paths: dict[str, PathFields]) -> bool:
    """True when no path of the head can change: none is unknown, and none
    aborts, whose extensions a larger size cap would run."""
    return bool(paths) and all(
        fields[0] != STATUS_UNKNOWN and fields[3] is not None
        for fields in paths.values()
    )


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
    pass at that stage's budget: every head newly inside the size cap runs
    its read paths, an enrolled head runs only its paths still unknown and
    the extensions of its aborts, and each held record still unknown runs
    along its own path.

    The heads may be spread over a pool of ``jobs`` processes, each of which
    returns one head's paths; the result is byte-identical either way
    because each path's fields depend only on its own bits and the budget.
    """
    _check_version(census.version, census.config_digest)
    if stages < 1:
        return census
    if census._window is not None and census._window[1] != census.enrolled_bits:
        _materialise(census)  # the stage was set by hand
    t = census.stage + stages
    first = max(census.enrolled_bits + 1, MIN_PROGRAM_BITS)
    size_cap = min(MIN_PROGRAM_BITS + t, census.max_bits)
    held: dict[str, list[Record]] = {}
    rewritten = False  # a held record of a program this pass enrols
    for record in census._records.values():
        rewritten = rewritten or first <= len(record.bits) <= size_cap
        if record.status == STATUS_UNKNOWN:
            scanned = scan_program(record.bits, 0)
            end = None if type(scanned) is MalformedProgram else scanned[2]
            held.setdefault(record.bits[:end], []).append(record)
    heads = census._heads
    if first <= size_cap:
        census._window = (census._window or (first,))[0], size_cap
    last = census._window[1] if census._window else 0
    # The enrolled heads are those of these texts, in the same order, which
    # is enumeration order within a program length.
    texts = parseable_texts_upto(max_text_chars(last))
    if len(texts) != len(heads):
        census._heads = heads = {h: heads.get(h, {}) for h in map(program_head, texts)}
    budget = 2**t
    work = []
    for (head, paths), text in zip(heads.items(), texts):
        if paths and head not in held and _settled(paths):
            continue
        known = {p: f for p, f in paths.items() if f[0] != STATUS_UNKNOWN} if paths else {}
        programs = tuple(r.bits for r in held[head]) if head in held else ()
        work.append((head, text, known, last - len(head), programs, budget))
    for head, group in held.items():
        if head not in heads:
            work.append((head, None, {}, 0, tuple(r.bits for r in group), budget))
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        if pool is None:
            results = map(_decide_head, work)
        else:
            chunk = max(1, len(work) // (jobs * 8))
            results = pool.map(_decide_head, work, chunksize=chunk)
        for item, paths in zip(work, results):
            head = item[0]
            if head in heads:
                heads[head] = paths
            for record in held.get(head, ()):
                fields = _record_fields(paths, head, record.bits)
                record.status, record.steps, record.value_text = fields
    census.stage = t
    if rewritten:
        _materialise(census)  # rewrites those records in place
    return census


def status_counts(census: Census) -> dict[str, int]:
    """Number of records per status, the derived ones counted by read path."""
    return _status_counts(census, _derived_tally(census)[0])


def omega_lower_bound(census: Census) -> DyadicRational:
    """Exact sum of 2**-|p| over programs known to halt validly."""
    return _bound(census, _derived_tally(census)[1])


def tally(census: Census) -> tuple[dict[str, int], DyadicRational]:
    """``status_counts`` and ``omega_lower_bound`` from one pass over the
    read paths."""
    statuses, valid = _derived_tally(census)
    return _status_counts(census, statuses), _bound(census, valid)


def _status_counts(census: Census, derived: Counter) -> dict[str, int]:
    counts = Counter(record.status for record in census._records.values())
    counts.update(derived)
    return dict(counts)


def _bound(census: Census, derived: Counter) -> DyadicRational:
    lengths = Counter(
        len(record.bits)
        for record in census._records.values()
        if record.status == STATUS_HALTED_VALID
    )
    lengths.update(derived)
    if not lengths:
        return DyadicRational.zero()
    # One integer sum over the common denominator 2**top.
    top = max(lengths)
    total = sum(count << (top - n) for n, count in lengths.items())
    return DyadicRational(Fraction(total, 1 << top))


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

    A program inside the census's derived window is classified from its
    head's read paths, any other from its held record; one with neither
    has no record and is not halting.  Nothing is materialised.

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
    first, last = census._window or (0, -1)  # no length derives without one
    for head, data in _heads_and_data(n_bits):
        bits = head + data
        paths = census._heads.get(head) if first <= len(bits) <= last else None
        if paths:
            status = _record_fields(paths, head, bits)[0]
        else:
            record = census._records.get(bits)
            status = record.status if record is not None else None
        (halting if status == STATUS_HALTED_VALID else rest).append(bits)
    return HaltingDecision(
        n_bits, omega_prefix, census.stage, bound, tuple(halting), tuple(rest)
    )


# --- persistence ----------------------------------------------------------


def _census_text(census: Census, read=None) -> Iterator[str]:
    """The census file a piece at a time: the header, each held record's
    line, then the derived records' lines, one piece per read-path block.
    At a head's own length the block is one line, the fields of the head's
    own path.  ``read(data bits)`` gives the fields of a path that has none
    yet, which the walk first reaches at the path's own length."""
    yield (
        f"{_CENSUS_MAGIC}\nversion {census.version}\nconfig {census.config_digest}\n"
        f"max-bits {census.max_bits}\nstage {census.stage}\n"
        f"records {len(census._records) + _derived_count(census)}\n"
    )
    for record in census._records.values():
        value = record.value_text if record.value_text is not None else "-"
        yield (
            f"{bits_to_hex(record.bits)} {len(record.bits)} "
            f"{record.status} {record.steps} {value}\n"
        )
    # A head's lines share its hex; the data hex is shared per length.
    data_hex: dict[int, list[str]] = {}
    for length, fit in _derived(census):
        for head, paths, text in fit:
            prefix = head_hex(text)
            n = length - len(head)
            if not n:  # one line, the head's own path: a valid halt read no data
                if head not in paths:
                    paths[head] = read(0)
                status, steps, value_text, _ = paths[head]
                value = value_text if value_text is not None else "-"
                yield f"{prefix} {length} {status} {steps} {value}\n"
                continue
            if n not in data_hex:
                data_hex[n] = [bits_to_hex(data) for data in _data_strings(n)]
            i = 0
            for count, status, steps, value_text in _blocks(paths, head, length, read):
                value = value_text if value_text is not None else "-"
                tail = f" {length} {status} {steps} {value}\n"
                yield prefix + (tail + prefix).join(data_hex[n][i:i + count]) + tail
                i += count


def save_census(census: Census, path) -> None:
    """Write the census as a line-oriented, diffable text file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.writelines(_census_text(census))
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
_HEX_DIGITS = frozenset("0123456789abcdef")


def _decimal(text: str) -> int:
    """``int(text)``, which must spell it: no sign but a minus, no
    underscore and no leading zero, as ``save_census`` writes numbers."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"not a canonical decimal: {text!r}")
    return value


class _NotHeads(Exception):
    """The file is not one that save_census writes from per-head state."""


def _path_fields(line: str, data_bits: int) -> PathFields:
    """The fields of a read path from the line of its own bits: a valid
    halt read all of the path's data, an abort with steps overran it, an
    abort in 0 steps is malformed and read nothing, and an unknown run read
    nothing.  Raises ``_NotHeads`` for a line that no read path gives its
    own bits, and for a value that ``str.splitlines`` would split."""
    parts = line.split(" ", 4)
    if len(parts) == 5 and parts[3].isdigit():
        status, steps = parts[2], int(parts[3])
        if status == STATUS_HALTED_VALID and parts[4].isprintable():
            return status, steps, parts[4], data_bits
        if status == STATUS_ABORTED:
            return status, steps, None, None if steps else 0
        if status == STATUS_UNKNOWN:
            return status, steps, None, 0
    raise _NotHeads


def _load_heads(text: str) -> Census | None:
    """The census of a file that ``save_census`` wrote from per-head state,
    loaded into that state; None for any other file.

    Such a file holds the derived records of the window from the shortest
    program to ``enrolled_bits`` and no held record, so its enrolled heads
    follow from the header.  One walk renders the file from them through
    ``_census_text`` and compares each piece with the text where the last
    one ended.  The walk first reaches a read path at the path's own
    length, where its piece is the path's own line: the path's fields are
    read from that line of the text (``_path_fields``), then checked by the
    render like every other piece.  No list of lines is built.
    """
    body = 0
    for _ in range(6):  # the header's lines
        body = text.find("\n", body) + 1
        if not body:
            return None
    try:
        header = dict(line.split(" ", 1) for line in text[:body].split("\n")[1:6])
        census = Census(
            header["version"], header["config"],
            int(header["max-bits"]), int(header["stage"]),
        )
    except (KeyError, ValueError):
        return None
    if (
        (census.version, census.config_digest) != (MACHINE_VERSION, config_hash())
        or census.max_bits < MIN_PROGRAM_BITS
        or census.stage < 1
    ):
        return None
    # A window holds at least the records of one shortest head.  A body
    # with fewer lines is not a window's, and its texts are not enumerated:
    # those up to last bits cost about as much as that many lines.  The
    # bit lengths are compared first, so that a forged stage or max-bits
    # never builds a huge power of two.
    last = census.enrolled_bits
    newlines = text.count("\n", body)
    spread = last - MIN_PROGRAM_BITS
    if spread >= newlines.bit_length() or (2 << spread) - 1 > newlines:
        return None
    texts = parseable_texts_upto(max_text_chars(last))
    census._window = MIN_PROGRAM_BITS, last
    census._heads = {program_head(t): {} for t in texts}

    at = 0  # where the walk's next piece must start

    def read(data_bits: int) -> PathFields:
        end = text.find("\n", at)
        if end < 0:
            raise _NotHeads
        return _path_fields(text[at:end], data_bits)

    try:
        for piece in _census_text(census, read):
            if not text.startswith(piece, at):
                return None
            at += len(piece)
    except _NotHeads:
        return None
    return census if at == len(text) else None


def load_census(path) -> Census:
    """Read a census file; rejects other machine versions and truncated or
    mangled files, headers or records no census run can produce, and
    numbers or hex spelled otherwise than ``save_census`` spells them.

    A file that ``save_census`` writes from a census's per-head state (an
    enumerated census with no held record) loads into that state in one
    walk that reads each read path's line and checks every piece of the
    file as it goes (``_load_heads``), with no ``Record`` and no list of
    lines built.  Any other file (held records, hand-enrolled or oversized
    lines, stage 0, a file edited by hand) loads one record per line, with
    the errors below.  Both give the census that the lines spell out.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    census = _load_heads(text)
    if census is not None:
        return census
    lines = text.splitlines()
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
            if not _HEX_DIGITS.issuperset(hex_text):
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
