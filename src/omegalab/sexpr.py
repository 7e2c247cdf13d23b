"""S-expression reading and canonical printing.

Everything in this package -- programs, data, machine output -- is one of
two shapes: an atom (a Python ``str``) or a list (a Python ``tuple`` of
sub-expressions).  Atoms are spelled with printable ASCII minus the three
structural characters ``(`` ``)`` ``'``; they carry no numeric semantics.

The quote operator is the distinguished atom ``'``.  A quote mark directly
after ``(`` reads as that atom in operator position, so ``(' y)`` is the
two-element list whose head is the quote operator.  Anywhere else a quote
mark is shorthand: ``'x`` reads as ``(' x)``.  This is the only atom spelled
with the quote character, and it can only be produced in operator position,
which keeps parse/print round trips exact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Union

SExpr = Union[str, tuple]

QUOTE_ATOM = "'"

# Atom alphabet: printable ASCII 0x21..0x7E minus the structural characters.
ATOM_CHARS = frozenset(chr(c) for c in range(0x21, 0x7F)) - {"(", ")", "'"}
WHITESPACE_CHARS = frozenset(" \t\n\r")
# Every byte value that may appear in program text.
TEXT_CHARS = ATOM_CHARS | {"(", ")", "'"} | WHITESPACE_CHARS


class SExprError(ValueError):
    """Reader failure at a known character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class IllegalCharacter(SExprError):
    def __init__(self, position: int, char: str):
        super().__init__(f"illegal character {char!r}", position)
        self.char = char


class UnbalancedParens(SExprError):
    def __init__(self, position: int):
        super().__init__("unbalanced parenthesis", position)


class DanglingQuote(SExprError):
    def __init__(self, position: int):
        super().__init__("quote mark with nothing to quote", position)


class Token(NamedTuple):
    kind: str  # "open" | "close" | "quote" | "atom"
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    """Split source text into open/close/quote/atom tokens.

    Raises IllegalCharacter for any byte outside the program alphabet.
    """
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in WHITESPACE_CHARS:
            i += 1
        elif c == "(":
            tokens.append(Token("open", "(", i))
            i += 1
        elif c == ")":
            tokens.append(Token("close", ")", i))
            i += 1
        elif c == "'":
            tokens.append(Token("quote", "'", i))
            i += 1
        elif c in ATOM_CHARS:
            start = i
            while i < n and text[i] in ATOM_CHARS:
                i += 1
            tokens.append(Token("atom", text[start:i], start))
        else:
            raise IllegalCharacter(i, c)
    return tokens


def parse(text: str) -> tuple[SExpr, ...]:
    """Parse every top-level expression in order.

    A quote mark in operator position (right after an open paren) is the
    quote atom; elsewhere it wraps the following expression as ``(' x)``.
    """
    tokens = tokenize(text)
    results: list[SExpr] = []
    # Stack of (accumulating list, position of its open paren).
    stack: list[tuple[list, int]] = []
    # Sugar quote marks waiting for an expression: (depth, position).
    pending: list[tuple[int, int]] = []

    def emit(expr: SExpr) -> None:
        depth = len(stack)
        while pending and pending[-1][0] == depth:
            pending.pop()
            expr = (QUOTE_ATOM, expr)
        if stack:
            stack[-1][0].append(expr)
        else:
            results.append(expr)

    for tok in tokens:
        if tok.kind == "open":
            stack.append(([], tok.pos))
        elif tok.kind == "close":
            if not stack:
                raise UnbalancedParens(tok.pos)
            if pending and pending[-1][0] == len(stack):
                raise DanglingQuote(pending[-1][1])
            items, _ = stack.pop()
            emit(tuple(items))
        elif tok.kind == "atom":
            emit(tok.text)
        else:  # quote mark
            if stack and not stack[-1][0] and not (
                pending and pending[-1][0] == len(stack)
            ):
                emit(QUOTE_ATOM)
            else:
                pending.append((len(stack), tok.pos))
    if stack:
        raise UnbalancedParens(stack[-1][1])
    if pending:
        raise DanglingQuote(pending[-1][1])
    return tuple(results)


def parse_one(text: str) -> SExpr:
    """Parse text containing exactly one expression."""
    exprs = parse(text)
    if len(exprs) != 1:
        raise ValueError(f"expected exactly one expression, got {len(exprs)}")
    return exprs[0]


def _check_atom(name: str) -> None:
    if name == QUOTE_ATOM:
        return
    if not name or any(c not in ATOM_CHARS for c in name):
        raise ValueError(f"not a printable atom name: {name!r}")


_CLOSE = object()
_STR_TYPE = frozenset({str})
# Every character of atoms joined by single spaces.
_JOINED_ATOM_CHARS = ATOM_CHARS | {" ", QUOTE_ATOM}


def _atoms_text(node: tuple) -> Optional[str]:
    """The items of a nonempty list joined by single spaces when every item
    is a printable atom, else None.

    Every check runs in C over the whole list.  Given items of type str,
    the joined text has only atom characters, spaces and quote marks, its
    spaces are the separators, its quote marks are quote atoms, and no item
    is empty, exactly when each item passes ``_check_atom``.
    """
    if not _STR_TYPE.issuperset(map(type, node)):
        return None
    text = " ".join(node)
    if (
        _JOINED_ATOM_CHARS.issuperset(text)
        and text.count(" ") == len(node) - 1
        and text.count(QUOTE_ATOM) == node.count(QUOTE_ATOM)
        and "" not in node
    ):
        return text
    return None


def print_canonical(x: SExpr) -> str:
    """Render an expression in its unique canonical form.

    Single spaces between siblings, no other whitespace.  The output is the
    interchange format: parse(print_canonical(x)) == (x,).

    A list of atoms is printed whole.  Any other list, or one holding a bad
    atom, is walked item by item, so the first bad node in print order
    raises.
    """
    parts: list[str] = []
    stack: list[tuple] = [(x, False)]
    while stack:
        node, space = stack.pop()
        if node is _CLOSE:
            parts.append(")")
            continue
        if space:
            parts.append(" ")
        if type(node) is str:
            _check_atom(node)
            parts.append(node)
        elif type(node) is tuple:
            text = _atoms_text(node) if node else None
            if text is not None:
                parts.append("(" + text + ")")
                continue
            parts.append("(")
            stack.append((_CLOSE, False))
            for i in range(len(node) - 1, -1, -1):
                stack.append((node[i], i > 0))
        else:
            raise TypeError(f"not an s-expression: {node!r}")
    return "".join(parts)


def print_program(exprs: Iterable[SExpr]) -> str:
    """Canonical text for a whole program: expressions joined by one space."""
    return " ".join(print_canonical(e) for e in exprs)


# Parse results for program texts, shared by the census text pool, the
# machine decoder and the evaluator's nested-run primitive.  The memo is
# bounded: it keeps the most recently used texts, the rejected ones (None)
# included, and evicts the rest.
@lru_cache(maxsize=1 << 16)
def parse_program_cached(text: str) -> Optional[tuple[SExpr, ...]]:
    """Parse a program text, or None if it is not a nonempty program."""
    try:
        return parse(text) or None
    except SExprError:
        return None
