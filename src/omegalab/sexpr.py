"""S-expression reading and canonical printing.

Everything in this package -- programs, data, machine output -- is one of
two shapes: an atom (a Python ``str``) or a list (a Python ``tuple`` of
sub-expressions).  Atoms are spelled with printable ASCII minus the three
structural characters ``(`` ``)`` ``'``; they carry no numeric semantics.

The quote operator is the distinguished atom ``'``.  A quote mark directly
after ``(`` reads as that atom in operator position, so ``(' y)`` is the
two-element list whose head is the quote operator.  Anywhere else a quote
mark is shorthand: ``'x`` reads as ``(' x)``.  This is the only atom spelled
with the quote character, and the reader produces it only in operator
position.  Anywhere else it prints as a bare quote mark, which reads back as
sugar: ``("a", "'", "b")`` prints as ``(a ' b)``, read as ``(a (' b))``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Optional, Union

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


# One token: a structural character or a maximal run of atom characters.
_TOKEN = re.compile(r"[()']|[^ \t\n\r()']+")


def parse(text: str) -> tuple[SExpr, ...]:
    """Parse every top-level expression in order.

    A quote mark in operator position (right after an open paren) is the
    quote atom; elsewhere it wraps the following expression as ``(' x)``.
    An illegal character is reported before any other reader error.
    """
    if not TEXT_CHARS.issuperset(text):
        for i, c in enumerate(text):
            if c not in TEXT_CHARS:
                raise IllegalCharacter(i, c)
    # A text with no structural character is atoms between whitespace.
    # This comes after the alphabet check: str.split also splits on
    # characters outside the alphabet, such as \x0b and \xa0.
    if "(" not in text and ")" not in text and "'" not in text:
        return tuple(text.split())
    # The list being read, the positions of its sugar quote marks waiting
    # for an expression, and (list, quote marks, open position) of each
    # enclosing list; the top level is the bottom list.
    items: list = []
    quotes: list[int] = []
    stack: list[tuple[list, list[int], int]] = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "(":
            stack.append((items, quotes, m.start()))
            items, quotes = [], []
            continue
        if tok == "'":
            if stack and not items:
                items.append(QUOTE_ATOM)
            else:
                quotes.append(m.start())
            continue
        if tok == ")":
            if not stack:
                raise UnbalancedParens(m.start())
            if quotes:
                raise DanglingQuote(quotes[-1])
            expr: SExpr = tuple(items)
            items, quotes, _ = stack.pop()
        else:
            expr = tok
        while quotes:
            quotes.pop()
            expr = (QUOTE_ATOM, expr)
        items.append(expr)
    if stack:
        raise UnbalancedParens(stack[-1][2])
    if quotes:
        raise DanglingQuote(quotes[-1])
    return tuple(items)


def parse_one(text: str) -> SExpr:
    """Parse text containing exactly one expression."""
    exprs = parse(text)
    if len(exprs) != 1:
        raise ValueError(f"expected exactly one expression, got {len(exprs)}")
    return exprs[0]


def _check_atom(name: str) -> None:
    if name == QUOTE_ATOM:
        return
    if not name or not ATOM_CHARS.issuperset(name):
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
    interchange format: parse(print_canonical(x)) == (x,) unless x holds a
    quote atom outside operator position, which reads back as sugar.

    An atom is checked and returned.  A list of atoms is printed whole.
    Any other list, or one holding a bad atom, is walked item by item, so
    the first bad node in print order raises.
    """
    if type(x) is str:
        _check_atom(x)
        return x
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
