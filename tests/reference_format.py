"""Per-character and per-node references for the text-to-bits path.

``program_head`` formats one character at a time and ``print_canonical``
visits and checks every node on its own.  The library's versions convert a
whole text or a whole list of atoms at once; these are their oracles, so
they stay simple, not fast.
"""

from omegalab.sexpr import ATOM_CHARS, QUOTE_ATOM


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
