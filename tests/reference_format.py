"""Per-character and per-node references for the text-to-bits path.

``program_head`` formats one character at a time and ``print_canonical``
visits and checks every node on its own.  ``hex_to_bits`` pads with a
format spec made per call and checks the padding by stripping it.  The
library's versions convert a whole text, a whole list of atoms or a whole
payload at once; these are their oracles, so they stay simple, not fast.
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
