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
text runs once per read path, not once per bit string: first with no data,
then one bit longer only while the run aborts before the end of some
record's data.  Every extension of a path inherits the outcome of the run
that decided it (the halting-prefix pruning of Calude, Dinneen and Shu,
"Computing a glimpse of randomness", 2002).  A run evaluates the text's
parse on the path's data.  A held record, one kept by its bit string, runs
whole, one run each.  The census keeps each enrolled text's run with no
data in columns aligned with the text pool, and the read paths, keyed by
their data bits, only of a text whose run with no data aborted; it derives
a bit string's record from them only when its records are read.  A file saved
from them loads back into them in one walk that checks the file as it
reads it.  ``jobs`` spreads texts over processes.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from collections import Counter
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from . import machine, sexpr
from .dyadic import DyadicRational
from .evaluator import (
    AbortOverrun,
    Halted,
    MalformedProgram,
    Outcome,
    head_bits,
    head_hex,
    max_text_chars,
    program_heads,
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

MIN_PROGRAM_BITS = head_bits(1)  # one character and the separator

STATUS_HALTED_VALID = "halted-valid"
STATUS_HALTED_INVALID = "halted-invalid"
STATUS_ABORTED = "aborted"
STATUS_UNKNOWN = "unknown"

_CENSUS_MAGIC = "omegalab census 1"

# What one run on a read path decides, the fields of the path's own record:
# (status, steps, value text).  Only an abort after a step may read past it.
PathFields = tuple[str, int, str | None]


class VersionMismatch(Exception):
    """Census was produced by a machine with different semantics."""


class CorruptFile(Exception):
    """Census file failed structural validation."""


class StageCapExceeded(Exception):
    """The bound never reached the requested prefix within the stage cap."""


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


class Census:
    """Persistent map from enumerated programs to their run records.

    ``advance`` stores what it decides by program text, not by bit string:
    three columns aligned with the sorted text pool ``_texts`` hold each
    text's run with no data (``_status``, ``_steps``, ``_values``).  A run
    that halts, runs out of time or is malformed read no data, so it
    decides every record of its text.  Only a text whose run aborted keeps
    its decided read paths in ``_paths``: data bits ("" among them) to
    (status, steps, value text), the fields of the path's own record.  The
    records of the programs ``advance`` enrolled follow from these and the
    window of program lengths that it enrolled, so none is built.
    ``records`` holds the records kept one by one: hand-enrolled,
    undecodable and oversized ones, and those of a file loaded per record.
    Its first read materialises the derived records into it, in enumeration
    order, at the positions a per-record census gives them (after the
    records already held, a held record of an enrolled program rewritten in
    place), and drops the per-text state.
    ``save_census``, ``omega_lower_bound``, ``tally``,
    ``decide_halting_via_omega`` and ``winner`` read the per-text state
    without materialising; only the last two spell head bits.
    ``load_census`` puts a file saved from per-text state back into it,
    filling the columns from each text's own-length line and the read paths
    from theirs as one walk reads the file front to back, a piece at a time,
    and checks each piece against its render; it never holds the file's
    text.  Any other file it reads whole into ``records``; both give the
    census the file's lines spell out.
    Equality and repr are those of (version, config digest, max bits, stage,
    records).

    Whenever ``_window`` is set, ``_texts`` is the sorted pool
    ``parseable_texts_upto(max_text_chars(_window[1]))``: ``advance`` and
    ``_load_heads`` set both, ``_materialise`` clears both.  No held record
    then has a length in the window: ``advance`` materialises before it
    would enrol one, and so does reading ``records``.

    ``winner`` answers from an index of value texts memoised in
    ``value_index``, which ``_value_index`` builds when the memo is
    None.  Each reading of ``records`` and each ``advance`` resets it to
    None, since either may precede a change to the records, and
    ``load_census`` builds a new census.  So a caller who keeps the dict
    across a query and then changes a record must read ``records`` again
    before the next query.  The memo takes no part in equality or repr and
    is never saved.
    """

    __slots__ = (
        "version", "config_digest", "max_bits", "stage", "_records", "_window",
        "_texts", "_status", "_steps", "_values", "_paths", "value_index",
    )

    def __init__(self, version: str, config_digest: str, max_bits: int, stage: int = 0):
        self.version = version
        self.config_digest = config_digest
        self.max_bits = max_bits
        self.stage = stage
        self._records: dict[str, Record] = {}
        # (first, last) program length whose records derive from the texts.
        self._window: tuple[int, int] | None = None
        self._texts: tuple[str, ...] = ()
        self._status, self._steps, self._values = [], [], []  # None: no run yet
        self._paths: dict[str, dict[str, PathFields]] = {}
        self.value_index: dict[str, str] | None = None

    @property
    def records(self) -> dict[str, Record]:
        self.value_index = None
        if self._window is not None:
            _materialise(self)
        return self._records

    def _fields(self) -> tuple:
        return (self.version, self.config_digest, self.max_bits, self.stage, self.records)

    def __eq__(self, other):
        if type(other) is not Census:
            return NotImplemented
        return self._fields() == other._fields()

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
        if self.value_index is None:
            self.value_index = _value_index(self)
        return self.value_index.get(value_text)


def _value_index(census: Census) -> dict[str, str]:
    """Map each value text to the bits of its first shortest valid halt, in
    one pass over the held records, then the runs, with nothing
    materialised; halted-invalid records carry a value text too and are
    left out.

    Among held records of one length the first wins.  Each run that halts
    validly inside the window is one record, of its text's head and its
    data (a halt on a read path read all of its data: the path extends one
    whose run aborted, and repeats that run).  Per value the run of least
    (length, pool position, data) wins, which is enumeration order: heads
    compare as bytes, and a text that is a prefix of another ends in the
    separator, so it sorts first.  A run beats a held record only when
    shorter; no held length lies in the window (see ``Census``).  Only each
    value's best run has its head spelled.
    """
    index: dict[str, str] = {}
    for bits, record in census._records.items():
        if record.status == STATUS_HALTED_VALID:
            best = index.get(record.value_text)
            if best is None or len(bits) < len(best):
                index[record.value_text] = bits
    if census._window is None:
        return index
    first, last = census._window
    texts = census._texts
    runs = itertools.chain(
        zip(range(len(texts)), itertools.repeat(""), census._status, census._values),
        ((bisect_left(texts, text), data, status, value_text)
         for text, paths in census._paths.items()
         for data, (status, _, value_text) in paths.items()),
    )
    derived: dict[str, tuple[int, int, str]] = {}
    above = (last + 1,)  # after every key in the window
    for i, data, status, value_text in runs:
        if status == STATUS_HALTED_VALID:
            key = head_bits(len(texts[i])) + len(data), i, data
            if first <= key[0] <= last and key < derived.get(value_text, above):
                derived[value_text] = key
    heads = program_heads([texts[i] for _, i, _ in derived.values()])
    for (value_text, (size, _, data)), head in zip(derived.items(), heads):
        best = index.get(value_text)
        if best is None or size < len(best):
            index[value_text] = head + data
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


@lru_cache(maxsize=None)
def _data_strings(n: int) -> tuple[str, ...]:
    """Every bit string of length n, lexicographic."""
    return tuple("".join(bits) for bits in itertools.product("01", repeat=n))


def _heads_and_data(
    max_bits: int, min_bits: int = MIN_PROGRAM_BITS
) -> Iterator[tuple[str, str, str]]:
    """``enumerate_programs`` from min_bits up, as (text, head, data).

    Decodable bit strings are exactly text-bytes + separator + free data
    bits, so the stream is generated from the cached parseable-text pool
    rather than by trying every bit string.
    """
    for length in range(max(min_bits, MIN_PROGRAM_BITS), max_bits + 1):
        texts = parseable_texts_upto(max_text_chars(length))
        for text, head in zip(texts, program_heads(texts)):
            for data in _data_strings(length - len(head)):
                yield text, head, data


def enumerate_programs(max_bits: int) -> Iterator[BinaryProgram]:
    """Every decodable program of at most max_bits bits, exactly once,
    shorter first and lexicographic within a length."""
    for _, head, data in _heads_and_data(max_bits):
        yield _checked_program(head + data)


# --- the dovetail ---------------------------------------------------------


def _run_path(text: str, data: str, budget: int) -> PathFields:
    """The fields of the read path of a parseable text and its data at the
    budget: the text's cached parse runs on the data directly, as
    ``run_program`` does once it has decoded them."""
    # machine.evaluate is the name the benchmark tracer wraps.
    out = machine.evaluate(sexpr.parse_program_cached(text), data, budget)
    return _path_of(out, budget)


def _path_of(out: Outcome, budget: int) -> PathFields:
    """The fields of a read path whose run had the outcome."""
    if isinstance(out, Halted):
        return STATUS_HALTED_VALID, out.steps, sexpr.print_canonical(out.value)
    if isinstance(out, AbortOverrun):
        return STATUS_ABORTED, out.steps, None
    if isinstance(out, MalformedProgram):
        # Undecodable, or decodable but structurally unrunnable.
        return STATUS_ABORTED, 0, None
    return STATUS_UNKNOWN, budget, None


def _decide_head(text: str, paths: dict[str, PathFields], data_bits: int, budget: int) -> None:
    """Grow one enrolled text's tree of read paths in place: ``paths`` maps
    the data bits of each path run so far to its fields.

    A run on ``data[:j]`` that halts, runs out of time or is malformed read
    at most j data bits, so its outcome decides every extension of the path.
    An abort after a step may be a read past bit j, so the path grows by
    one bit, both ways, while it holds fewer than ``data_bits`` bits.  A
    path runs when it has no fields yet, or reruns when it ran out of time
    at an earlier, smaller budget; a halt or abort at step k is the same at
    any larger one, so a decided path never runs again.
    """
    todo = [""]
    while todo:
        path = todo.pop()
        fields = paths.get(path)
        if fields is None or fields[0] == STATUS_UNKNOWN:
            fields = paths[path] = _run_path(text, path, budget)
        if fields[0] == STATUS_ABORTED and fields[1] and len(path) < data_bits:
            todo += (path + "0", path + "1")


def _blocks(
    paths: dict[str, PathFields], n: int, read=None
) -> Iterator[tuple[int, str, int, str | None]]:
    """One text's records with n data bits, in data order, as runs of
    (count, status, steps, value text): one run per path that decides them.

    A path with no fields yet is first reached at its own length, where its
    run is its own record alone; ``read()`` gives its fields then.  A halt
    read all of the path, so it is valid for the path's own record only.
    """
    todo = [""]
    while todo:
        path = todo.pop()
        fields = paths.get(path)
        if fields is None:
            fields = paths[path] = read()
        status, steps, value_text = fields
        if status == STATUS_ABORTED and steps and len(path) < n:
            todo += (path + "1", path + "0")
            continue
        if status == STATUS_HALTED_VALID and len(path) < n:
            status = STATUS_HALTED_INVALID
        yield 1 << (n - len(path)), status, steps, value_text


def _text_paths(census: Census, i: int) -> dict[str, PathFields]:
    """The read paths of the census's i-th text: its own if its run with no
    data aborted, else that run alone, which read no data."""
    return census._paths.get(census._texts[i]) or {
        "": (census._status[i], census._steps[i], census._values[i])
    }


def _derived(census: Census) -> Iterator[tuple[int, Sequence[int]]]:
    """(length, pool positions of the texts enrolled at that length, in
    enumeration order) for each program length of the derived window: the
    whole pool at the window's last length, and the positions of a shorter
    length's own text pool in it (see ``Census``)."""
    if census._window is None:
        return
    first, last = census._window
    texts = census._texts
    fits = {max_text_chars(last): range(len(texts))}
    for length in range(first, last + 1):
        chars = max_text_chars(length)
        if chars not in fits:
            fits[chars] = [bisect_left(texts, text) for text in parseable_texts_upto(chars)]
        yield length, fits[chars]


def _derived_count(census: Census) -> int:
    """Number of derived records: each enrolled text's data strings of
    every length that puts the program in the window."""
    if census._window is None:
        return 0
    first, last = census._window
    top = max_text_chars(last)
    pools = [len(parseable_texts_upto(chars)) for chars in range(top)] + [len(census._texts)]
    total = 0
    for chars in range(1, top + 1):
        n, size = pools[chars] - pools[chars - 1], head_bits(chars)
        total += n * ((2 << (last - size)) - (1 << (max(first, size) - size)))
    return total


def _derived_tally(census: Census) -> tuple[Counter, Counter]:
    """(records per status, valid halts per program length) of the derived
    records, counted by run: the columns by text length and status in one
    pass, the read paths one by one.  No run is longer than the window's
    last length.  A run decides its extensions of every length in the
    window, but an abort after a step only the record of its own length.
    A valid halt read all of the path's data (see ``_value_index``), so it
    is valid for the path itself, one record."""
    statuses: Counter = Counter()
    valid: Counter = Counter()
    if census._window is None:
        return statuses, valid
    first, last = census._window
    heads = Counter(zip(map(len, census._texts), census._status))
    # The texts whose run with no data aborted are counted by their paths.
    heads.subtract((len(text), STATUS_ABORTED) for text in census._paths)
    shapes = Counter(
        (len(text), len(data), status, status == STATUS_ABORTED and steps > 0)
        for text, paths in census._paths.items()
        for data, (status, steps, _) in paths.items()
    )
    shapes.update({(chars, 0, status, False): n for (chars, status), n in heads.items()})
    for (chars, n_data, status, aborted), n in shapes.items():
        size = head_bits(chars) + n_data
        if aborted:
            if first <= size:
                statuses[STATUS_ABORTED] += n
            continue
        low = max(first, size)
        count = n * ((2 << (last - size)) - (1 << (low - size)))
        if status == STATUS_HALTED_VALID:
            if low == size:
                valid[size] += n
                statuses[STATUS_HALTED_VALID] += n
                count -= n
            status = STATUS_HALTED_INVALID
        if count:
            statuses[status] += count
    return statuses, valid


def _derived_blocks(
    census: Census, upto: int
) -> Iterator[tuple[str, tuple[str, ...], str, int, str | None]]:
    """The derived records of at most upto bits, in enumeration order, a
    read-path block at a time: (head bits, the block's data strings, status,
    steps, value text)."""
    for length, fit in _derived(census):
        if length > upto:
            return
        texts = [census._texts[i] for i in fit]
        for i, head in zip(fit, program_heads(texts)):
            n = length - len(head)
            data = _data_strings(n)
            j = 0
            for count, status, steps, value_text in _blocks(_text_paths(census, i), n):
                yield head, data[j:j + count], status, steps, value_text
                j += count


def _materialise(census: Census) -> None:
    """Write the derived records into the held ones and drop the per-text
    state; see ``Census``."""
    records = census._records
    for head, data, status, steps, value in _derived_blocks(census, census._window[1]):
        for suffix in data:
            bits = head + suffix
            records[bits] = Record(bits, status, steps, value)
    census._window = None
    census._texts, census._paths = (), {}
    census._status, census._steps, census._values = [], [], []


def _realign(census: Census, texts: tuple[str, ...]) -> None:
    """Align the columns with the pool texts, which hold the enrolled texts
    and longer ones in the same order: an enrolled text keeps its fields,
    a new one gets none."""
    chars = max(map(len, census._texts), default=0)
    kept = [len(text) <= chars for text in texts]
    census._status, census._steps, census._values = [
        [next(column) if keep else None for keep in kept]
        for column in map(iter, (census._status, census._steps, census._values))
    ]
    census._texts = texts


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
    pass at that stage's budget.  Each held record still unknown runs
    whole, one run each.  Every text newly inside the size cap or still
    unknown runs with no data, straight into the columns.  Then a text
    whose run with no data aborted runs its paths still unknown and the
    extensions of its aborts.

    The runs with no data may be spread over a pool of ``jobs`` processes,
    which return their fields in batches; the read paths grow here, one
    text at a time.  The result is byte-identical either way because each
    run's fields depend only on its own text and the budget.  The pool's
    modules are imported only here, the first time a process opens a pool,
    so a process that runs at ``jobs=1`` never loads them.
    """
    _check_version(census.version, census.config_digest)
    if stages < 1:
        return census
    census.value_index = None
    if census._window is not None and census._window[1] != census.enrolled_bits:
        _materialise(census)  # the stage was set by hand
    t = census.stage + stages
    first = max(census.enrolled_bits + 1, MIN_PROGRAM_BITS)
    size_cap = min(MIN_PROGRAM_BITS + t, census.max_bits)
    budget = 2**t
    rewritten = False  # a held record of a program this pass enrols
    for record in census._records.values():
        rewritten = rewritten or first <= len(record.bits) <= size_cap
        if record.status == STATUS_UNKNOWN:
            result = run_program(_checked_program(record.bits), budget)
            record.status, record.steps, record.value_text = _path_of(result.outcome, budget)
            if record.status == STATUS_HALTED_VALID and not result.valid_halt:
                record.status = STATUS_HALTED_INVALID
    if first <= size_cap:
        census._window = (census._window or (first,))[0], size_cap
    last = census._window[1] if census._window else 0
    texts = parseable_texts_upto(max_text_chars(last))
    if len(texts) != len(census._texts):
        _realign(census, texts)
    status, steps, values = census._status, census._steps, census._values
    pending = [i for i, run in enumerate(status) if run is None or run == STATUS_UNKNOWN]
    args = [texts[i] for i in pending], itertools.repeat(""), itertools.repeat(budget)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        runs = map(_run_path, *args) if pool is None else pool.map(
            _run_path, *args, chunksize=max(1, len(pending) // (jobs * 8)))
        for i, fields in zip(pending, runs):
            status[i], steps[i], values[i] = fields
            if status[i] == STATUS_ABORTED and steps[i]:
                census._paths[texts[i]] = {"": fields}
    for text, paths in census._paths.items():
        _decide_head(text, paths, last - head_bits(len(text)), budget)
    census.stage = t
    if rewritten:
        _materialise(census)  # rewrites those records in place
    return census


def omega_lower_bound(census: Census) -> DyadicRational:
    """Exact sum of 2**-|p| over programs known to halt validly."""
    return tally(census)[1]


def tally(census: Census) -> tuple[dict[str, int], DyadicRational]:
    """The number of records per status, the derived ones counted by read
    path, and ``omega_lower_bound``, from one pass over the read paths."""
    statuses, lengths = _derived_tally(census)
    for bits, record in census._records.items():
        statuses[record.status] += 1
        if record.status == STATUS_HALTED_VALID:
            lengths[len(bits)] += 1
    # One integer sum over the common denominator 2**top.
    top = max(lengths, default=0)
    total = sum(count << (top - n) for n, count in lengths.items())
    return dict(statuses), DyadicRational(Fraction(total, 1 << top))


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

    The programs inside the census's derived window are classified a
    read-path block at a time, the records one run decides (``_blocks``).
    Outside the window a program has a held record or none, and one with
    none is not halting.  Nothing is materialised.

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
            raise StageCapExceeded(
                f"omega bound did not reach the target by stage {stage_cap}")
        advance(census, 1)
        bound = omega_lower_bound(census)
    halting, rest = [], []

    def held(low: int, high: int) -> None:
        for _, head, data in _heads_and_data(high, low):
            bits = head + data
            record = census._records.get(bits)
            valid = record is not None and record.status == STATUS_HALTED_VALID
            (halting if valid else rest).append(bits)

    first, last = census._window or (n_bits + 1, n_bits)  # none: all held
    held(MIN_PROGRAM_BITS, min(first - 1, n_bits))
    for head, data, status, _, _ in _derived_blocks(census, n_bits):
        (halting if status == STATUS_HALTED_VALID else rest).extend(map(head.__add__, data))
    held(last + 1, n_bits)
    return HaltingDecision(
        n_bits, omega_prefix, census.stage, bound, tuple(halting), tuple(rest)
    )


# --- persistence ----------------------------------------------------------


def _census_text(census: Census, read=None) -> Iterator[str]:
    """The census file a piece at a time: the header, each held record's
    line, then the derived records' lines, one piece per read-path block.
    At a head's own length the block is one line, the text's run with no
    data.  ``read()`` gives the fields of a run the census has not yet,
    which the walk first reaches at the path's own length."""
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
    texts, status, steps, values = census._texts, census._status, census._steps, census._values
    # A head's lines share its hex; the data hex is shared per length.
    data_hex: dict[int, list[str]] = {}
    for length, fit in _derived(census):
        for i in fit:
            text = texts[i]
            prefix = head_hex(text)
            n = length - head_bits(len(text))
            if not n:  # one line, the run with no data: a valid halt read none
                if status[i] is None:
                    fields = read()
                    status[i], steps[i], values[i] = fields
                    if status[i] == STATUS_ABORTED and steps[i]:
                        census._paths[text] = {"": fields}
                value = values[i] if values[i] is not None else "-"
                yield f"{prefix} {length} {status[i]} {steps[i]} {value}\n"
                continue
            if n not in data_hex:
                data_hex[n] = [bits_to_hex(data) for data in _data_strings(n)]
            j = 0
            blocks = _blocks(_text_paths(census, i), n, read)
            for count, path_status, path_steps, value_text in blocks:
                value = value_text if value_text is not None else "-"
                tail = f" {length} {path_status} {path_steps} {value}\n"
                yield prefix + (tail + prefix).join(data_hex[n][j:j + count]) + tail
                j += count


_CHUNK_CHARS = 1 << 16


def _chunks(pieces: Iterator[str]) -> Iterator[str]:
    """The pieces joined into chunks, so that one write call serves many
    pieces: a chunk ends with the piece that brings it to
    ``_CHUNK_CHARS`` characters."""
    chunk: list[str] = []
    size = 0
    for piece in pieces:
        chunk.append(piece)
        size += len(piece)
        if size >= _CHUNK_CHARS:
            yield "".join(chunk)
            chunk = []
            size = 0
    yield "".join(chunk)


def save_census(census: Census, path) -> None:
    """Write the census as a line-oriented, diffable text file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.writelines(_chunks(_census_text(census)))
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
    """The file is not one that save_census writes from per-text state."""


def _path_fields(line: str) -> PathFields:
    """The fields of a read path from the line of its own bits, which are
    those of its own record.  Raises ``_NotHeads`` for a line that no read
    path gives its own bits (a halt read all of the path, so it is never
    invalid there), and for a value that ``str.splitlines`` would split.
    The status is the module's constant, not the line's copy, so that a
    loaded census, like a built one, holds one string per status."""
    parts = line.split(" ", 4)
    if len(parts) == 5 and parts[3].isdigit():
        status, steps = parts[2], int(parts[3])
        if status == STATUS_HALTED_VALID and parts[4].isprintable():
            return STATUS_HALTED_VALID, steps, parts[4]
        if status == STATUS_ABORTED:
            return STATUS_ABORTED, steps, None
        if status == STATUS_UNKNOWN:
            return STATUS_UNKNOWN, steps, None
    raise _NotHeads


def _load_heads(census: Census, fh, newlines: int) -> bool:
    """Load the open file ``fh`` into the census's per-text state if
    ``save_census`` wrote it from such state; returns whether it did, and a
    False leaves the census part-filled.  The census was built from the
    file's header, and ``newlines`` counts the newlines after it.

    Such a file holds the derived records of the window from the shortest
    program to ``enrolled_bits`` and no held record, so its enrolled texts
    follow from the header.  One walk renders the file from them through
    ``_census_text`` and reads each piece from the file, from its start,
    which must give the piece back.  The walk first reaches a read path at
    the path's own length, where its piece is the path's own line: that
    line is read from the file (``fh.readline``), the path's fields come
    from it (``_path_fields``), and the piece rendered from them must equal
    it.  A text's run with no data fills the columns, and starts the
    text's read paths if it aborted.  The file must end where the walk
    does.  Only a piece at a time is held, never the file's text.
    """
    if census.stage < 1:
        return False
    # A window holds at least the records of one shortest head.  A body
    # with fewer lines is not a window's, and its texts are not enumerated:
    # those up to last bits cost about as much as that many lines.  The
    # bit lengths are compared first, so that a forged stage or max-bits
    # never builds a huge power of two.
    last = census.enrolled_bits
    spread = last - MIN_PROGRAM_BITS
    if spread >= newlines.bit_length() or (2 << spread) - 1 > newlines:
        return False
    census._window = MIN_PROGRAM_BITS, last
    _realign(census, parseable_texts_upto(max_text_chars(last)))

    fh.seek(0)
    line = None  # a path's own line, read ahead of its piece

    def read() -> PathFields:
        nonlocal line
        line = fh.readline()
        if not line.endswith("\n"):
            raise _NotHeads
        return _path_fields(line[:-1])

    try:
        for piece in _census_text(census, read):
            if line is None:
                if fh.read(len(piece)) != piece:
                    return False
            elif piece != line:
                return False
            else:
                line = None
    except _NotHeads:
        return False
    return not fh.read(1)


# Under glibc's default 128 KiB mmap threshold, so that every block reuses
# the same heap memory: 1 MiB blocks left about 1 MB more of the process
# resident after a 24/10 load (ru_maxrss).
_READ_BYTES = 1 << 16


def _ascii_newlines(path) -> int:
    """The number of newlines in the file, counted in one binary pass of
    ``_READ_BYTES`` at a time.  Raises ``CorruptFile`` at the first byte
    that is not ASCII, with the message that decoding the whole file as
    ASCII gives: the byte and its offset in the file."""
    newlines = offset = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(_READ_BYTES):
            if not chunk.isascii():
                try:
                    chunk.decode("ascii")
                except UnicodeDecodeError as exc:
                    raise CorruptFile(
                        f"{path}: not ASCII: 'ascii' codec can't decode byte "
                        f"0x{chunk[exc.start]:02x} in position {offset + exc.start}: "
                        f"{exc.reason}"
                    ) from None
            newlines += chunk.count(b"\n")
            offset += len(chunk)
    return newlines


def _header(path, head: str) -> tuple[Census, int]:
    """An empty census of the file's header, the text ``head`` up to its
    sixth newline, and the header's record count."""
    lines = head.splitlines()
    if not lines or lines[0] != _CENSUS_MAGIC:
        raise CorruptFile(f"{path}: not a census file")
    try:
        header = dict(line.split(" ", 1) for line in lines[1:6])
        version = header["version"]
        digest = header["config"]
        max_bits = _decimal(header["max-bits"])
        stage = _decimal(header["stage"])
        count = _decimal(header["records"])
    except (KeyError, ValueError) as exc:
        raise CorruptFile(f"{path}: bad header: {exc}") from None
    if max_bits < MIN_PROGRAM_BITS or stage < 0:
        raise CorruptFile(f"{path}: bad header: max-bits {max_bits}, stage {stage}")
    _check_version(version, digest, f"{path}: census")
    return Census(version, digest, max_bits, stage), count


def load_census(path) -> Census:
    """Read a census file; rejects other machine versions, truncated or
    mangled files, and numbers or hex spelled otherwise than
    ``save_census`` spells them.

    The load checks structure and spelling only, not what a record claims
    about its run: a valid halt in 0 steps, an empty value text and an
    ``unknown`` record whose steps are not the stage's budget all load as
    written, by either path below (acceptance criterion 10 round-trips
    hand-made records like these on purpose).  Checking the records
    against the machine belongs to a verify pass that replays the runs
    (ROADMAP item 7, ``census --verify``).

    A first binary pass rejects a byte that is not ASCII and counts the
    newlines.  The header is the text up to the sixth newline, split as
    ``str.splitlines`` splits the whole file.  A file that ``save_census``
    writes from a census's per-text state (an enumerated census with no
    held record) then loads into that state in one walk that reads the
    file front to back, reads each read path's fields from its own line
    and checks every piece of the file as it goes (``_load_heads``), with
    no ``Record`` and never the whole text held.  Any other file (held
    records, hand-enrolled or oversized lines, stage 0, a file edited by
    hand) is read whole and loads one record per line into a fresh census,
    with the errors below.  Both give the census that the lines spell out.
    """
    newlines = _ascii_newlines(path)
    try:
        with open(path, "r", encoding="ascii", newline="\n") as fh:
            head = "".join(fh.readline() for _ in range(6))
            census, count = _header(path, head)
            if _load_heads(census, fh, newlines - head.count("\n")):
                return census
            fh.seek(0)
            text = fh.read()
    except UnicodeDecodeError as exc:  # the file changed after the first pass
        raise CorruptFile(f"{path}: not ASCII: {exc}") from None
    body = text.splitlines()[6:]
    if len(body) != count:
        raise CorruptFile(f"{path}: expected {count} records, found {len(body)}")
    # A fresh census: a walk that failed may have part-filled the first.
    census = Census(census.version, census.config_digest, census.max_bits, census.stage)
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
