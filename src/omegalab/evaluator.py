"""Budgeted, total-semantics evaluator with a bit-tape input channel.

A program is a sequence of top-level expressions, every one but the last a
``define`` form.  Evaluation is metered: each evaluator entry for any
subexpression costs exactly one step, and exhausting the step budget is an
ordinary outcome, not an error.  All anomalies are outcome values; no
program text that parses can raise.

Total semantics, chosen for a two-valued halting census:
  * unbound atoms evaluate to themselves,
  * ``head``/``tail`` of an atom yield the atom / the empty list,
  * missing operands read as ``()``, extra operands are ignored,
  * applying a non-function value yields that value.

Form names (``define if = ' quote head car tail cdr join atom? lambda
read-bit display run-remaining``) are reserved: dispatch happens before
lookup, so bindings never shadow them.

The machine runs on an explicit work stack, so deep recursion in evaluated
programs cannot overflow the host stack; configured step caps are the only
depth limit.  ``=`` falls back to an iterative comparison for values nested
too deeply for Python's own.

This module also owns the fixed binary program format, because
``(run-remaining)`` reads embedded programs from the tape: 8 bits per
character of program text, the separator byte 0x00, then raw data bits.
``program_head`` writes the text part (``head_hex`` spells it in hex) and
``scan_program`` reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .sexpr import (
    QUOTE_ATOM,
    SExpr,
    TEXT_CHARS,
    parse_program_cached,
)

@dataclass(frozen=True, slots=True)
class BitTape:
    """An immutable 0/1 string plus the index of the next unread bit."""

    bits: str = ""
    cursor: int = 0

    def __post_init__(self):
        if self.bits.strip("01"):
            raise ValueError("tape bits must be a string over 0/1")
        if not 0 <= self.cursor <= len(self.bits):
            raise ValueError("tape cursor out of range")


# Slot setters that build a frozen value without its constructor.
_new = object.__new__
_set_tape_bits = BitTape.bits.__set__
_set_tape_cursor = BitTape.cursor.__set__


def _checked_tape(bits: str) -> BitTape:
    """A tape at cursor 0 over bits already known to be a 0/1 string,
    built without the constructor's checks."""
    tape = _new(BitTape)
    _set_tape_bits(tape, bits)
    _set_tape_cursor(tape, 0)
    return tape


@dataclass(frozen=True, slots=True)
class Halted:
    value: SExpr
    bits_consumed: int
    steps: int
    emitted: tuple = ()


@dataclass(frozen=True, slots=True)
class AbortOverrun:
    """The program asked for a bit beyond the end of its tape."""

    steps: int
    emitted: tuple = ()


@dataclass(frozen=True, slots=True)
class OutOfTime:
    emitted: tuple = ()


@dataclass(frozen=True, slots=True)
class MalformedProgram:
    reason: str


Outcome = Union[Halted, AbortOverrun, OutOfTime, MalformedProgram]

# Every run ends in one of these; like the tape, they are built through
# their slot setters, not the frozen constructor.
_set_halted_value = Halted.value.__set__
_set_halted_bits = Halted.bits_consumed.__set__
_set_halted_steps = Halted.steps.__set__
_set_halted_emitted = Halted.emitted.__set__
_set_abort_steps = AbortOverrun.steps.__set__
_set_abort_emitted = AbortOverrun.emitted.__set__
_set_timeout_emitted = OutOfTime.emitted.__set__


def _halted(value: SExpr, bits_consumed: int, steps: int, emitted: tuple) -> Halted:
    outcome = _new(Halted)
    _set_halted_value(outcome, value)
    _set_halted_bits(outcome, bits_consumed)
    _set_halted_steps(outcome, steps)
    _set_halted_emitted(outcome, emitted)
    return outcome


def _aborted(steps: int, emitted: tuple) -> AbortOverrun:
    outcome = _new(AbortOverrun)
    _set_abort_steps(outcome, steps)
    _set_abort_emitted(outcome, emitted)
    return outcome


def _out_of_time(emitted: tuple) -> OutOfTime:
    outcome = _new(OutOfTime)
    _set_timeout_emitted(outcome, emitted)
    return outcome


# MalformedProgram reasons.
NO_SEPARATOR = "NoSeparator"
BAD_CHAR = "BadChar"
PARSE_FAIL = "ParseFail"
NON_DEFINE_FORM = "NonDefineForm"
EMPTY_PROGRAM = "EmptyProgram"

_MALFORMED_NO_SEPARATOR = MalformedProgram(NO_SEPARATOR)
_MALFORMED_BAD_CHAR = MalformedProgram(BAD_CHAR)
_MALFORMED_PARSE_FAIL = MalformedProgram(PARSE_FAIL)


def program_head(text: str) -> str:
    """The bits of a program text in the binary format: 8 bits per
    character, then the separator byte.

    A character wider than one byte raises UnicodeEncodeError, a
    ValueError.
    """
    # One integer conversion for the whole text.  The leading 0x01 byte
    # keeps the text's leading zero bits; its "0b1" is cut off.
    raw = b"\x01" + text.encode("latin-1") + b"\x00"
    return bin(int.from_bytes(raw, "big"))[3:]


def head_hex(text: str) -> str:
    """``program_head(text)`` in hex: the text's bytes, then the separator
    byte, with no conversion to bits."""
    return text.encode("latin-1").hex() + "00"


def max_text_chars(n_bits: int) -> int:
    """Length of the longest program text whose head fits in n_bits."""
    return n_bits // 8 - 1


def scan_program(
    bits: str, cursor: int
) -> Union[tuple[tuple[SExpr, ...], str, int], MalformedProgram]:
    """Read 8-bit characters from cursor up to the separator byte and parse
    them.

    Returns (expressions, text, cursor after the separator), or the
    MalformedProgram for the first failure in this order: no byte-aligned
    separator, a byte outside the text alphabet, a text that does not parse
    to at least one expression.
    """
    at = bits.find("00000000", cursor)
    while at >= 0 and (at - cursor) % 8:
        at = bits.find("00000000", at + 1)
    if at < 0:
        return _MALFORMED_NO_SEPARATOR
    n = (at - cursor) // 8
    text = int(bits[cursor:at] or "0", 2).to_bytes(n, "big").decode("latin-1")
    if not TEXT_CHARS.issuperset(text):
        return _MALFORMED_BAD_CHAR
    exprs = parse_program_cached(text)
    if exprs is None:
        return _MALFORMED_PARSE_FAIL
    return exprs, text, at + 8


class Env:
    """Name bindings with innermost-first lookup."""

    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: dict, parent: Optional["Env"]):
        self.bindings = bindings
        self.parent = parent


class Closure:
    """A lambda value: its source parameters and body plus the defining
    environment.

    A closure equals whatever equals its source ``("lambda", params,
    body)``: another closure with the same parameters and body, whatever
    its environment, or that plain expression, also inside a list, where
    tuple comparison falls back to this ``__eq__``.  So ``=`` compares
    values as their rendered forms without rendering them.
    """

    __slots__ = ("params", "body", "env")

    def __init__(self, params: tuple, body: SExpr, env: Env):
        self.params = params
        self.body = body
        self.env = env

    def __eq__(self, other) -> bool:
        if type(other) is Closure:
            return self.params == other.params and self.body == other.body
        return ("lambda", self.params, self.body) == other

    def __hash__(self) -> int:
        return hash(("lambda", self.params, self.body))


Value = Union[str, tuple, Closure]


def is_define_form(expr: SExpr) -> bool:
    return type(expr) is tuple and len(expr) > 0 and expr[0] == "define"


def _defines_then_body(program: tuple) -> bool:
    """Whether every top-level form but the last is a define form."""
    return all(map(is_define_form, program[:-1]))


def render_value(value: Value) -> SExpr:
    """Map a runtime value to a plain expression; closures read back as
    their (lambda (params) body) source.

    Rendering keeps equality: ``render_value(a) == render_value(b)``
    exactly when ``a == b`` (see ``Closure``).  A list is walked in full,
    so the evaluator renders a list only when a closure may sit in one.
    """
    if type(value) is str:
        return value
    if type(value) is Closure:
        return ("lambda", value.params, value.body)
    if not _contains_closure(value):
        return value
    return _rebuild(value)


def _contains_closure(value: tuple) -> bool:
    # Each node once, by identity: a DAG is not walked once per path.
    seen: set[int] = set()
    stack = [value]
    while stack:
        node = stack.pop()
        if type(node) is Closure:
            return True
        if type(node) is tuple and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node)
    return False


def _rebuild(root: tuple) -> tuple:
    # Bottom-up copy; memo on node identity preserves sharing so values
    # built as DAGs do not blow up into trees.
    memo: dict[int, SExpr] = {}
    stack: list[list] = [[root, 0, []]]
    result: SExpr = ()
    while stack:
        frame = stack[-1]
        node, i, acc = frame
        if i < len(node):
            frame[1] = i + 1
            child = node[i]
            if type(child) is str:
                acc.append(child)
            elif type(child) is Closure:
                acc.append(("lambda", child.params, child.body))
            else:
                hit = memo.get(id(child))
                if hit is not None:
                    acc.append(hit)
                else:
                    stack.append([child, 0, []])
        else:
            stack.pop()
            built = tuple(acc)
            memo[id(node)] = built
            if stack:
                stack[-1][2].append(built)
            else:
                result = built
    return result


def _deep_equal(a: Value, b: Value) -> bool:
    """``a == b`` without host recursion, for values too deeply nested for
    tuple comparison; closures compare as their source."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is Closure:
            x = ("lambda", x.params, x.body)
        if type(y) is Closure:
            y = ("lambda", y.params, y.body)
        if type(x) is tuple and type(y) is tuple:
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


# Work-stack opcodes.
_EV = 0
_DROP = 1
_BRANCH = 2
_CALL = 3
_EQ = 4
_HEAD = 5
_TAIL = 6
_JOIN = 7
_ATOMQ = 8
_DISPLAY = 9
_BIND = 10

# Forms that evaluate their operands left to right, then apply one opcode
# to the values: form name -> (opcode task, operand count).  Operand 2 is
# pushed first, so operand 1 is evaluated first.
_OPERAND_FORMS = {
    "=": ((_EQ,), 2),
    "join": ((_JOIN,), 2),
    "head": ((_HEAD,), 1),
    "car": ((_HEAD,), 1),
    "tail": ((_TAIL,), 1),
    "cdr": ((_TAIL,), 1),
    "atom?": ((_ATOMQ,), 1),
    "display": ((_DISPLAY,), 1),
}

_MISS = object()


def _arg(expr: tuple, i: int) -> SExpr:
    return expr[i] if len(expr) > i else ()


def _push_sequence(work: list, exprs: tuple, env: Env) -> None:
    work.append((_EV, exprs[-1], env))
    for i in range(len(exprs) - 2, -1, -1):
        work.append((_DROP,))
        work.append((_EV, exprs[i], env))


def _global_env(env: Env) -> Env:
    while env.parent is not None:
        env = env.parent
    return env


def evaluate(program: Iterable[SExpr], tape: BitTape, budget: int) -> Outcome:
    """Run a program against a tape under a step budget.

    Deterministic in (program, tape contents, budget).  The result is one of
    the four outcome values; see the module docstring for the semantics.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    program = tuple(program)
    if not program:
        return MalformedProgram(EMPTY_PROGRAM)
    if not _defines_then_body(program):
        return MalformedProgram(NON_DEFINE_FORM)

    bits = tape.bits
    cursor = start = tape.cursor
    nbits = len(bits)
    steps = 0
    emitted: list = []
    # Set once a closure is joined into a list, the only way one gets
    # there; until then no list needs rendering.
    listed_closure = False
    vals: list = []
    if len(program) == 1:
        work = [(_EV, program[0], Env({}, None))]
    else:
        work = []
        _push_sequence(work, program, Env({}, None))

    while work:
        task = work.pop()
        op = task[0]

        if op == _EV:
            steps += 1
            if steps > budget:
                return _out_of_time(tuple(emitted))
            expr = task[1]
            env = task[2]
            if type(expr) is str:
                e = env
                while e is not None:
                    v = e.bindings.get(expr, _MISS)
                    if v is not _MISS:
                        vals.append(v)
                        break
                    e = e.parent
                else:
                    vals.append(expr)
                continue
            if not expr:
                vals.append(())
                continue
            head = expr[0]
            if type(head) is str:
                if head == QUOTE_ATOM or head == "quote":
                    vals.append(_arg(expr, 1))
                    continue
                if head == "if":
                    work.append((_BRANCH, _arg(expr, 2), _arg(expr, 3), env))
                    work.append((_EV, _arg(expr, 1), env))
                    continue
                form = _OPERAND_FORMS.get(head)
                if form is not None:
                    then, arity = form
                    work.append(then)
                    if arity == 2:
                        work.append((_EV, _arg(expr, 2), env))
                    work.append((_EV, _arg(expr, 1), env))
                    continue
                if head == "read-bit":
                    if cursor >= nbits:
                        return _aborted(steps, tuple(emitted))
                    vals.append(bits[cursor])
                    cursor += 1
                    continue
                if head == "run-remaining":
                    scanned = scan_program(bits, cursor)
                    if type(scanned) is MalformedProgram:
                        return _aborted(steps, tuple(emitted))
                    inner, _, cursor = scanned
                    if not _defines_then_body(inner):
                        return _aborted(steps, tuple(emitted))
                    _push_sequence(work, inner, Env({}, None))
                    continue
                if head == "lambda":
                    spec = _arg(expr, 1)
                    params = (
                        tuple(p for p in spec if type(p) is str)
                        if type(spec) is tuple
                        else ()
                    )
                    vals.append(Closure(params, _arg(expr, 2), env))
                    continue
                if head == "define":
                    root = _global_env(env)
                    if (
                        len(expr) > 1
                        and type(expr[1]) is tuple
                        and expr[1]
                        and type(expr[1][0]) is str
                    ):
                        name = expr[1][0]
                        params = tuple(p for p in expr[1][1:] if type(p) is str)
                        root.bindings[name] = Closure(params, _arg(expr, 2), root)
                        vals.append(name)
                    elif len(expr) > 2 and type(expr[1]) is str:
                        work.append((_BIND, expr[1], root))
                        work.append((_EV, expr[2], env))
                    elif len(expr) == 2 and type(expr[1]) is str:
                        root.bindings[expr[1]] = ()
                        vals.append(expr[1])
                    else:
                        vals.append(())
                    continue
            # Application: operator first, then operands left to right.
            argc = len(expr) - 1
            work.append((_CALL, argc))
            for i in range(argc, 0, -1):
                work.append((_EV, expr[i], env))
            work.append((_EV, head, env))
            continue

        if op == _CALL:
            argc = task[1]
            if argc:
                args = vals[-argc:]
                del vals[-argc:]
            else:
                args = []
            fn = vals.pop()
            if type(fn) is Closure:
                params = fn.params
                bindings = {}
                for i, p in enumerate(params):
                    bindings[p] = args[i] if i < len(args) else ()
                work.append((_EV, fn.body, Env(bindings, fn.env)))
            else:
                vals.append(fn)
        elif op == _BRANCH:
            cond = vals.pop()
            work.append((_EV, task[1] if cond != "false" else task[2], task[3]))
        elif op == _EQ:
            b = vals.pop()
            a = vals.pop()
            try:
                same = a == b
            except RecursionError:
                same = _deep_equal(a, b)
            vals.append("true" if same else "false")
        elif op == _HEAD:
            v = vals.pop()
            if type(v) is tuple:
                vals.append(v[0] if v else ())
            else:
                vals.append(v)
        elif op == _TAIL:
            v = vals.pop()
            if type(v) is tuple:
                vals.append(v[1:] if v else ())
            else:
                vals.append(())
        elif op == _JOIN:
            y = vals.pop()
            x = vals.pop()
            if type(x) is Closure:
                listed_closure = True
            vals.append((x,) + y if type(y) is tuple else (x,))
        elif op == _ATOMQ:
            v = vals.pop()
            vals.append("true" if type(v) is str else "false")
        elif op == _DISPLAY:
            v = vals[-1]
            if listed_closure or type(v) is Closure:
                v = render_value(v)
            emitted.append(v)
        elif op == _DROP:
            vals.pop()
        else:  # _BIND
            v = vals.pop()
            task[2].bindings[task[1]] = v
            vals.append(task[1])

    final = vals.pop()
    if listed_closure or type(final) is Closure:
        final = render_value(final)
    return _halted(final, cursor - start, steps, tuple(emitted))

