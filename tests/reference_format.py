"""Per-character and per-node references for the text-to-bits path.

``parse`` splits the text into a list of tokens, then builds expressions
from that list in a second loop.  ``program_head`` formats one character at
a time and ``print_canonical`` visits and checks every node on its own.
``hex_to_bits`` pads with a format spec made per call and checks the
padding by stripping it.  The library's versions read a text in one pass,
or convert a whole text, a whole list of atoms or a whole payload at once;
these are their oracles, so they stay simple, not fast.
"""

from typing import NamedTuple

from omegalab.sexpr import (
    ATOM_CHARS,
    QUOTE_ATOM,
    WHITESPACE_CHARS,
    DanglingQuote,
    IllegalCharacter,
    UnbalancedParens,
)


class Token(NamedTuple):
    kind: str  # "open" | "close" | "quote" | "atom"
    text: str
    pos: int


def tokenize(text):
    """Split source text into open/close/quote/atom tokens.

    Raises IllegalCharacter for any byte outside the program alphabet.
    """
    tokens = []
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


def parse(text):
    """Parse every top-level expression in order.

    A quote mark in operator position (right after an open paren) is the
    quote atom; elsewhere it wraps the following expression as ``(' x)``.
    """
    tokens = tokenize(text)
    results = []
    # Stack of (accumulating list, position of its open paren).
    stack = []
    # Sugar quote marks waiting for an expression: (depth, position).
    pending = []

    def emit(expr):
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


def program_head(text):
    """8 bits per character, then the separator byte."""
    return "".join(f"{ord(c):08b}" for c in text) + "00000000"


def _check_atom(name):
    if name == QUOTE_ATOM:
        return
    if not name or any(c not in ATOM_CHARS for c in name):
        raise ValueError(f"not a printable atom name: {name!r}")


_CLOSE = object()


def print_canonical(x):
    """Canonical text, one node at a time in print order, iteratively so
    that deep values print."""
    parts = []
    stack = [(x, False)]
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
            parts.append("(")
            stack.append((_CLOSE, False))
            for i in range(len(node) - 1, -1, -1):
                stack.append((node[i], i > 0))
        else:
            raise TypeError(f"not an s-expression: {node!r}")
    return "".join(parts)


def hex_to_bits(hex_text, bit_length):
    """Bits of a hex payload cut to bit_length; the padding must be zero."""
    if bit_length < 0:
        raise ValueError("bit length must be >= 0")
    raw = bytes.fromhex(hex_text)
    if len(raw) != (bit_length + 7) // 8:
        raise ValueError("hex length does not match declared bit length")
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b") if raw else ""
    if bits[bit_length:].strip("0"):
        raise ValueError("nonzero padding bits after declared length")
    return bits[:bit_length]
