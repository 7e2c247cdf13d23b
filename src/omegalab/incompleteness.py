"""Desk-scale executable versions of three classic undecidability setups.

* A diagonal over enumerated digit programs: build a digit sequence that
  provably differs from every machine-produced digit sequence on the
  diagonal.
* Theories as generator programs: an axiomatic system is modeled by the
  program that emits its statements one by one on the side channel, and
  its size in bits stands in for the information content of the axioms.
  (A system proving facts about its own unprovables is represented only by
  this reduction; there is no proof checker here.)
* A filter for emitted claims about individual bits of the halting
  probability, counted side by side against the emitting program's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator

from . import machine, sexpr
from .evaluator import (
    AbortOverrun,
    Halted,
    MalformedProgram,
    OutOfTime,
    _equal,
)
from .machine import BinaryProgram, encode_program, run_program
from .dovetail import parseable_texts_of_length
from .sexpr import QUOTE_ATOM, SExpr

DIGITS = frozenset("0123456789")


def digit_programs() -> Iterator[SExpr]:
    """Single-expression program texts in enumeration order (shortest
    first, lexicographic within a length)."""
    for chars in count(1):
        for text in parseable_texts_of_length(chars):
            exprs = sexpr.parse_program_cached(text)
            if exprs and len(exprs) == 1:
                yield exprs[0]


def unary(m: int) -> tuple:
    """m as a list of m ones."""
    return ("1",) * m


def digit_output_of(expr: SExpr, m: int, budget: int) -> int | None:
    """Digit produced by applying one program to position m (in unary).

    The digit is the head of the halted value when that head is a single
    0-9 atom; anything else -- no halt in budget, an invalid halt, or a
    non-digit value -- is no output.  The run is that of the encoded
    program ((expr (' unary(m)))) with no data bits, and an expression
    with no canonical text raises as encoding it would.
    """
    return _digit_output(expr, sexpr.print_canonical(expr), m, budget)


def _digit_output(expr: SExpr, expr_text: str, m: int, budget: int) -> int | None:
    """digit_output_of, given the canonical text of expr."""
    program = ((expr, (QUOTE_ATOM, unary(m))),)
    if " '" in expr_text:
        # A quote atom after the head of a list prints as a quote mark,
        # which reads back as quote sugar: the machine decodes another
        # program, or none, from this text.  Run what it decodes.
        result = run_program(encode_program(program), budget)
        outcome = result.outcome if result.valid_halt else None
    else:
        # The text reads back as this program, so evaluating it on the
        # empty tape is the encoded run, and with no data bits every halt
        # is a valid halt.  machine.evaluate is the name the benchmark
        # tracer wraps.
        outcome = machine.evaluate(program, "", budget)
    if type(outcome) is not Halted:
        return None
    value = outcome.value
    head = value[0] if type(value) is tuple and value else value
    if type(head) is str and len(head) == 1 and head in DIGITS:
        return int(head)
    return None


def digit_program_output(n: int, m: int, budget: int) -> int | None:
    """Digit at position m from the n-th enumerated digit program."""
    if n < 1:
        raise ValueError("digit program indices start at 1")
    return digit_output_of(next(islice(digit_programs(), n - 1, None)), m, budget)


@dataclass(frozen=True, slots=True)
class DiagonalRow:
    index: int
    program_text: str
    produced: int | None
    diagonal_digit: int


@dataclass(frozen=True, slots=True)
class DiagonalTable:
    budget: int
    rows: tuple[DiagonalRow, ...]

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(row.diagonal_digit for row in self.rows)


def diagonal_table(n_rows: int, budget: int) -> DiagonalTable:
    """Diagonal digits over the first n_rows digit programs.

    Row n is 2 when program n produces digit 3 at position n, else 3 --
    including when the program produces no digit at all within the budget,
    in which case the guaranteed disagreement is vacuous at this budget.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    rows = []
    for n, expr in enumerate(islice(digit_programs(), n_rows), 1):
        text = sexpr.print_canonical(expr)
        produced = _digit_output(expr, text, n, budget)
        rows.append(DiagonalRow(n, text, produced, 2 if produced == 3 else 3))
    return DiagonalTable(budget, tuple(rows))


@dataclass(frozen=True, slots=True, eq=False)
class TheoryRun:
    """One budgeted run of a statement-generating program.

    Compared and hashed by identity: tuple ``==`` and ``hash`` over its
    theorems would recurse once per nesting level of a statement.
    """

    theory: BinaryProgram
    size_bits: int
    theorems: tuple[SExpr, ...]
    budget: int
    budget_consumed: int
    terminal: str  # "out-of-time" | "halted" | "halted-invalid" | "aborted" | "malformed"


def run_theory(theory: BinaryProgram, budget: int) -> TheoryRun:
    """Collect the statements a generator program emits within a budget.

    Running out of time is the normal terminal state for a real generator;
    a theory that stops is flagged by its halting/abort terminal instead.
    Statements are de-duplicated in order of first emission, and a repeat
    keeps the first object emitted.  The dedupe takes two stages, so that a
    long stream of large statements is not hashed whole:

    1. Each statement is keyed by a small int, the hash of its bounded
       shape: its length and its first few items, an item being the atom
       itself or the length of a sub-list.
    2. A statement is compared in full only with the earlier statements of
       its key, by ``_equal``.  On a key's first repeat its bucket is hashed
       by ``_fingerprint``: only the statements of that key are walked
       whole, and only those of equal fingerprint are compared.
    """
    result = run_program(theory, budget)
    out = result.outcome
    if isinstance(out, OutOfTime):
        emitted, consumed, terminal = out.emitted, budget, "out-of-time"
    elif isinstance(out, Halted):
        emitted, consumed = out.emitted, out.steps
        terminal = "halted" if result.valid_halt else "halted-invalid"
    elif isinstance(out, AbortOverrun):
        emitted, consumed, terminal = out.emitted, out.steps, "aborted"
    else:
        assert isinstance(out, MalformedProgram)
        emitted, consumed, terminal = (), 0, "malformed"
    theorems = _first_emissions(emitted)
    return TheoryRun(theory, len(theory.bits), theorems, budget, consumed, terminal)


# How many items of a statement its shape key reads.
_SHAPE_ITEMS = 3


def _shape_key(statement: SExpr) -> int:
    if type(statement) is str:
        return hash(statement)
    return hash((
        len(statement),
        *[item if type(item) is str else len(item) for item in statement[:_SHAPE_ITEMS]],
    ))


def _fingerprint(statement: SExpr, memo: dict[int, int]) -> int:
    """A hash of the whole statement, equal for equal statements, taken
    with no host recursion: ``hash`` of a tuple recurses in C, and crashes
    the interpreter on one nested a few hundred thousand deep.

    An atom's fingerprint is its hash, and a sub-list's is the hash of the
    tuple of its items' fingerprints, kept in memo under the sub-list's id
    so that a sub-list later statements share is walked once
    (hash-consing: Filliatre and Conchon, ML Workshop 2006).  The
    statements hold every sub-list walked, so no id is reused while memo
    is in use.
    """
    if type(statement) is str:
        return hash(statement)
    todo = [statement]
    while todo:
        node = todo[-1]
        if id(node) in memo:
            todo.pop()
            continue
        fresh = [item for item in node if type(item) is tuple and id(item) not in memo]
        if fresh:
            todo += fresh
            continue
        todo.pop()
        memo[id(node)] = hash(tuple([
            hash(item) if type(item) is str else memo[id(item)] for item in node
        ]))
    return memo[id(statement)]


def _first_emissions(statements: tuple) -> tuple:
    """The statements without repeats, in order of first emission, each
    the first object emitted of its value.

    A key's bucket is its one statement until a second statement has the
    key; from then on it is a dict from a statement's fingerprint to the
    list of its statements of that fingerprint.
    """
    kept = []
    buckets: dict = {}
    memo: dict[int, int] = {}
    for statement in statements:
        key = _shape_key(statement)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = statement
            kept.append(statement)
            continue
        if type(bucket) is not dict:
            bucket = buckets[key] = {_fingerprint(bucket, memo): [bucket]}
        members = bucket.setdefault(_fingerprint(statement, memo), [])
        if any(_equal(statement, member) for member in members):
            continue
        members.append(statement)
        kept.append(statement)
    return tuple(kept)


@dataclass(frozen=True, slots=True)
class OmegaBitClaims:
    """Bit-of-omega claims harvested from a theory's statement stream."""

    claims: dict[int, int]
    inconsistent_positions: tuple[int, ...]
    claim_count: int
    theory_bits: int


def _claim_shape(statement: SExpr) -> tuple[int, int] | None:
    # (omega-bit POSITION BIT) with a unary position list and a 0/1 bit.
    if type(statement) is not tuple or len(statement) != 3:
        return None
    tag, position, bit = statement
    if tag != "omega-bit" or bit not in ("0", "1"):
        return None
    if type(position) is not tuple or any(a != "1" for a in position):
        return None
    return len(position), int(bit)


def omega_bit_claims(run: TheoryRun) -> OmegaBitClaims:
    """Filter the run's statements down to claims of the canonical shape
    (omega-bit POSITION BIT).

    Contradictory claims (both bits at one position) are reported as
    inconsistencies.  The claim count sits next to the theory's size in
    bits; the comparison is reported, never asserted, since how many bits
    a theory of a given size can settle is a property of the machine.
    """
    by_position: dict[int, set[int]] = {}
    for statement in run.theorems:
        shaped = _claim_shape(statement)
        if shaped is not None:
            position, bit = shaped
            by_position.setdefault(position, set()).add(bit)
    claims = {
        p: next(iter(bits))
        for p, bits in sorted(by_position.items())
        if len(bits) == 1
    }
    inconsistent = tuple(p for p, bits in sorted(by_position.items()) if len(bits) > 1)
    return OmegaBitClaims(claims, inconsistent, len(claims), run.size_bits)
