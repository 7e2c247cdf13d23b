"""Upper-bound estimators for program-size information measures.

True program-size complexity is uncomputable, so everything here is an
explicit upper bound carried by a witness program: the smallest program
found (in the searched range) that halts validly with the requested value.
A literal quoting witness always exists, so every query returns a bound.
Searches reuse the dovetailer's census, which already maps enumerated
programs to their halting values.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sexpr
from .dovetail import Census, STATUS_HALTED_VALID, parseable_texts_upto
from .evaluator import Halted, program_head
from .machine import BinaryProgram, encode_program, run_program
from .sexpr import QUOTE_ATOM, SExpr

# Wrapper whose two nested runs consume two self-delimiting programs laid
# end to end in the data and join their values into a pair.
PAIR_WRAPPER_TEXT = "(join (run-remaining) (join (run-remaining) ()))"
# Wrapper that hands its whole data section to one nested run.
RELAY_WRAPPER_TEXT = "(run-remaining)"
# Wrapper that pairs one embedded program's value with itself.
DUP_WRAPPER_TEXT = "((lambda (v) (join v (join v ()))) (run-remaining))"

DEFAULT_SEARCH_BUDGET = 1 << 16
# Longest prefix text h_relative_upper tries in front of the given witness.
RELATIVE_PREFIX_CHARS = 2


class NotABitString(ValueError):
    """randomness_report subject was not a list of 0/1 atoms."""


class InvalidWitness(ValueError):
    """A supplied witness program did not halt validly under the budget."""


@dataclass(frozen=True, slots=True)
class ComplexityEstimate:
    """An upper bound together with the program that realizes it."""

    subject: SExpr
    bound_bits: int
    witness: BinaryProgram
    search_exhausted_to: int
    budget_used: int


def literal_witness(x: SExpr) -> BinaryProgram:
    """The always-available bound: quote the value, no data bits."""
    return encode_program(((QUOTE_ATOM, x),))


def _census_winner(census: Census | None, value_text: str) -> str | None:
    """Smallest enumerated program recorded as halting validly with the
    value; census insertion order is enumeration order, so the first hit
    wins ties."""
    if census is None:
        return None
    best = None
    for record in census.records.values():
        if record.status == STATUS_HALTED_VALID and record.value_text == value_text:
            if best is None or len(record.bits) < len(best):
                best = record.bits
    return best


def _verify_witness(witness: BinaryProgram, value_text: str, budget: int) -> None:
    result = run_program(witness, budget)
    if not result.valid_halt:
        raise InvalidWitness(f"witness does not halt validly: {witness.hex}")
    assert isinstance(result.outcome, Halted)
    if sexpr.print_canonical(result.outcome.value) != value_text:
        raise InvalidWitness("witness value does not match the subject")


def _halts_validly_with(
    candidate: BinaryProgram, value_text: str, budget: int
) -> bool:
    result = run_program(candidate, budget)
    return (
        result.valid_halt
        and sexpr.print_canonical(result.outcome.value) == value_text
    )


def _estimate(
    subject: SExpr,
    census: Census | None,
    budget: int,
    constructed: tuple[BinaryProgram, ...] = (),
) -> ComplexityEstimate:
    """Smallest known witness: the census search, the always-available
    literal, and any explicitly constructed candidates (which are only
    admitted after a verifying run)."""
    value_text = sexpr.print_canonical(subject)
    witness = literal_witness(subject)
    found = _census_winner(census, value_text)
    if found is not None and len(found) < len(witness.bits):
        witness = BinaryProgram(found)
    for candidate in constructed:
        if len(candidate.bits) < len(witness.bits) and _halts_validly_with(
            candidate, value_text, budget
        ):
            witness = candidate
    _verify_witness(witness, value_text, budget)
    searched = census.enrolled_bits if census is not None else 0
    return ComplexityEstimate(subject, len(witness.bits), witness, searched, budget)


def h_upper(
    x: SExpr,
    census: Census | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> ComplexityEstimate:
    """Upper bound on the information content of x."""
    return _estimate(x, census, budget)


def h_joint_upper(
    x: SExpr,
    y: SExpr,
    census: Census | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> ComplexityEstimate:
    """Upper bound on computing the pair (x y) in one program.

    Besides the census search and the literal, the pairing of the two
    plain witnesses is always a candidate (computing the objects together
    is never forced to cost more than a constant over computing them
    separately), and for x == y so is the duplicating wrapper.
    """
    wx = h_upper(x, census, budget).witness
    wy = h_upper(y, census, budget).witness
    constructed = [
        encode_program(sexpr.parse(PAIR_WRAPPER_TEXT), wx.bits + wy.bits)
    ]
    if x == y:
        constructed.append(
            encode_program(sexpr.parse(DUP_WRAPPER_TEXT), wx.bits)
        )
    return _estimate((x, y), census, budget, tuple(constructed))


def mutual_info_estimate(
    x: SExpr,
    y: SExpr,
    census: Census | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> int:
    """Signed bit count: bound(x) + bound(y) - bound(x, y).

    This identity over the three reported bounds holds by construction; it
    says how much the search gained by computing the objects together.
    """
    hx = h_upper(x, census, budget).bound_bits
    hy = h_upper(y, census, budget).bound_bits
    hxy = h_joint_upper(x, y, census, budget).bound_bits
    return hx + hy - hxy


def pair_overhead_bits() -> int:
    """Exact encoded size of the pairing wrapper, a constant of this
    machine's encoding."""
    return len(program_head(PAIR_WRAPPER_TEXT))


def pair_programs(
    p: BinaryProgram,
    q: BinaryProgram,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> BinaryProgram:
    """One program that halts validly with the pair of p's and q's values.

    The result is the pairing wrapper over the concatenated bits, so its
    size is always pair_overhead_bits() + |p| + |q|.
    """
    for witness in (p, q):
        if not run_program(witness, budget).valid_halt:
            raise InvalidWitness(f"not a validly halting program: {witness.hex}")
    wrapper = sexpr.parse(PAIR_WRAPPER_TEXT)
    return encode_program(wrapper, p.bits + q.bits)


def h_relative_upper(
    x: SExpr,
    wy: BinaryProgram,
    census: Census | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> ComplexityEstimate:
    """Upper bound on computing x given a witness program for y.

    Candidates come from two families: programs whose data starts with the
    given witness's bits (a nested run reads the witness back; the relay
    wrapper realizes "same value" at fixed overhead), and programs that
    ignore the witness entirely (so the bound never exceeds the plain
    upper bound for x by more than the search can miss).  Searched prefixes
    are capped at RELATIVE_PREFIX_CHARS characters at desk scale.
    """
    wy_run = run_program(wy, budget)
    if not wy_run.valid_halt:
        raise InvalidWitness(f"not a validly halting program: {wy.hex}")
    value_text = sexpr.print_canonical(x)

    best: BinaryProgram | None = None

    def consider(candidate: BinaryProgram, verified: bool = False) -> None:
        nonlocal best
        if best is not None and len(candidate.bits) >= len(best.bits):
            return
        if verified or _halts_validly_with(candidate, value_text, budget):
            best = candidate

    # Family 1: witness-consuming programs, smallest prefixes first.
    consider(encode_program(sexpr.parse(RELAY_WRAPPER_TEXT), wy.bits))
    seen_texts = set()
    for text in parseable_texts_upto(RELATIVE_PREFIX_CHARS):
        exprs = sexpr.parse_program_cached(text)
        if not exprs:
            continue
        canonical = sexpr.print_program(exprs)
        if canonical in seen_texts:
            continue
        seen_texts.add(canonical)
        consider(encode_program(exprs, wy.bits))

    # Family 2: ignore the witness.  The given program itself counts when
    # its value already is x.
    if sexpr.print_canonical(wy_run.outcome.value) == value_text:
        consider(wy, verified=True)
    unconditional = _estimate(x, census, budget)
    if best is None or len(unconditional.witness.bits) < len(best.bits):
        best = unconditional.witness

    _verify_witness(best, value_text, budget)
    searched = census.enrolled_bits if census is not None else 0
    return ComplexityEstimate(x, len(best.bits), best, searched, budget)


@dataclass(frozen=True, slots=True)
class RandomnessReport:
    """Compressibility of an n-bit string at the exhausted search range."""

    length: int
    bound_bits: int
    literal_bits: int
    overhead_bits: int
    deficiency_bits: int
    compressible: bool
    witness: BinaryProgram
    search_exhausted_to: int
    note: str


COMPRESSIBLE_NOTE = "compressible at this search scale"
INCOMPRESSIBLE_NOTE = "incompressible at exhausted search range"


def randomness_report(
    x: SExpr,
    census: Census | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> RandomnessReport:
    """Report how far search compressed a list of 0/1 atoms.

    overhead is the literal witness's size beyond the string length n, so
    the deficiency n - (bound - overhead) is exactly the number of bits the
    best found witness saves over quoting the string.  Nothing here claims
    true randomness; an unbeaten literal only means incompressible at the
    exhausted range.
    """
    if type(x) is not tuple or any(a not in ("0", "1") for a in x):
        raise NotABitString(f"not a list of 0/1 atoms: {x!r}")
    n = len(x)
    estimate = _estimate(x, census, budget)
    literal_bits = len(literal_witness(x).bits)
    overhead = literal_bits - n
    deficiency = n - (estimate.bound_bits - overhead)
    compressible = estimate.bound_bits < literal_bits
    return RandomnessReport(
        n,
        estimate.bound_bits,
        literal_bits,
        overhead,
        deficiency,
        compressible,
        estimate.witness,
        estimate.search_exhausted_to,
        COMPRESSIBLE_NOTE if compressible else INCOMPRESSIBLE_NOTE,
    )
