"""Binary program format and budgeted machine runs."""

import dataclasses
import random

import pytest
from hypothesis import given, settings

import reference_format
from conftest import bit_strings, sexprs
from omegalab.evaluator import (
    AbortOverrun,
    Halted,
    MalformedProgram,
    OutOfTime,
    head_bits,
    head_hex,
    program_head,
    program_heads,
    scan_program,
)
from omegalab.dovetail import enumerate_programs, parseable_texts_upto
from omegalab.machine import (
    BinaryProgram,
    DecodedProgram,
    RunResult,
    bits_to_hex,
    config_hash,
    decode_program,
    encode_program,
    encode_text,
    hex_to_bits,
    load_program,
    prefix_free_violation,
    run_program,
    save_program,
)
from omegalab.sexpr import TEXT_CHARS, SExprError, parse, parse_program_cached


def bits_of_bytes(raw: bytes) -> str:
    return "".join(f"{b:08b}" for b in raw)


def test_encode_quote_atom_exact_bytes():
    program = encode_text("(' a)")
    assert len(program.bits) == 8 * 5 + 8 == 48
    assert program.bits == bits_of_bytes(b"(' a)\x00")
    assert program.hex == "282720612900"


def test_encode_with_data_length_arithmetic():
    program = encode_text("(read-bit)", "1")
    assert len(program.bits) == 8 * 10 + 8 + 1 == 89


def test_encode_without_data_is_byte_aligned():
    for text in ("()", "(' a)", "(a (b c))"):
        assert len(encode_text(text).bits) % 8 == 0


def test_encode_uses_canonical_form():
    assert encode_text("( a   b )").bits == encode_text("(a b)").bits


def test_encode_rejects_empty_prefix():
    with pytest.raises(ValueError):
        encode_program((), "")


def test_decode_hand_built_program():
    bits = bits_of_bytes(b"()\x00") + "01"
    decoded = decode_program(bits)
    assert isinstance(decoded, DecodedProgram)
    assert decoded.prefix == ((),)
    assert decoded.data == "01"


def test_decode_no_separator():
    assert decode_program("1" * 24) == MalformedProgram("NoSeparator")
    assert decode_program("0" * 7) == MalformedProgram("NoSeparator")


def test_decode_bad_char():
    bits = bits_of_bytes(bytes([0xFF]) + b"\x00")
    assert decode_program(bits) == MalformedProgram("BadChar")


def test_decode_parse_fail():
    assert decode_program(bits_of_bytes(b"(\x00")) == MalformedProgram("ParseFail")
    # empty prefix text is not a program
    assert decode_program(bits_of_bytes(b"\x00")) == MalformedProgram("ParseFail")


def test_decode_failure_reason_order():
    # No separator beats a bad byte, which beats a text that does not parse.
    assert decode_program("00000001") == MalformedProgram("NoSeparator")
    assert decode_program("0000000100000000") == MalformedProgram("BadChar")
    assert decode_program("0010100000000000") == MalformedProgram("ParseFail")


_BYTE_CHARS = {f"{b:08b}": chr(b) for b in range(1, 256)}


def _scan_by_bytes(bits: str, cursor: int):
    """Oracle: the scanner as a loop over 8-bit slices, with an uncached
    parse; same result shape and failure order as scan_program."""
    chars = []
    while True:
        ch = _BYTE_CHARS.get(bits[cursor : cursor + 8])
        if ch is None:
            if bits[cursor : cursor + 8] != "00000000":
                return MalformedProgram("NoSeparator")
            break
        chars.append(ch)
        cursor += 8
    text = "".join(chars)
    if not TEXT_CHARS.issuperset(text):
        return MalformedProgram("BadChar")
    try:
        exprs = parse(text)
    except SExprError:
        exprs = ()
    if not exprs:
        return MalformedProgram("ParseFail")
    return exprs, text, cursor + 8


def _embedded_heads(seed: int, count: int):
    """Seeded (bits, cursor) pairs: junk bits up to the cursor, then a head
    built from parseable, unparseable and out-of-alphabet texts, with random
    zero bytes and data after it."""
    rng = random.Random(seed)
    texts = ["a", "()", "(' a)", "(read-bit)", "(", ")(", "'", "", " ", "\x7f", "a\xff"]
    for _ in range(count):
        cursor = rng.randrange(0, 20)
        bits = "".join(rng.choice("01") for _ in range(cursor))
        for _ in range(rng.randrange(1, 3)):
            piece = rng.choice(texts)
            bits += program_head(piece) if rng.random() < 0.8 else program_head(piece)[:-8]
        if rng.random() < 0.3:
            bits = bits[: rng.randrange(cursor, len(bits) + 1)]
        bits += "".join(rng.choice("01") for _ in range(rng.randrange(0, 12)))
        yield bits, cursor


def test_scan_program_matches_a_per_byte_reference():
    outcomes = set()
    for length in range(17):
        for value in range(1 << length):
            bits = format(value, f"0{length}b") if length else ""
            for cursor in range(8):
                expected = _scan_by_bytes(bits, cursor)
                assert scan_program(bits, cursor) == expected, (bits, cursor)
                outcomes.add(type(expected))
    for bits, cursor in _embedded_heads(1606, 20000):
        expected = _scan_by_bytes(bits, cursor)
        assert scan_program(bits, cursor) == expected, (bits, cursor)
        outcomes.add(expected if type(expected) is MalformedProgram else tuple)
    assert outcomes == {
        tuple,
        MalformedProgram,
        MalformedProgram("NoSeparator"),
        MalformedProgram("BadChar"),
        MalformedProgram("ParseFail"),
    }


def test_program_head_matches_per_character_reference():
    assert len(TEXT_CHARS) == 98
    texts = ["", "\x00", "\x01", "\x00a", "\xff", *sorted(TEXT_CHARS)]
    alphabet = sorted(TEXT_CHARS)
    rng = random.Random(1107)
    for length in (1, 2, 3, 8, 100, 1000, 16_000, 16_384):
        texts.append("".join(rng.choice(alphabet) for _ in range(length)))
        texts.append("".join(chr(rng.randrange(256)) for _ in range(length)))
    for text in texts:
        head = program_head(text)
        assert head == reference_format.program_head(text), text[:20]
        assert len(head) == 8 * len(text) + 8


@pytest.mark.parametrize("text", [chr(256), "a" + chr(0x2603), "(' " + chr(0x10FFFF) + ")"])
def test_program_head_rejects_characters_wider_than_a_byte(text):
    with pytest.raises(ValueError):
        program_head(text)
    with pytest.raises(ValueError):
        head_hex(text)


def test_program_heads_are_each_texts_head():
    texts = [*parseable_texts_upto(2), "", "\x00", "\x00a\x00", "\xff" * 3, "x" * 500]
    heads = program_heads(texts)
    assert heads == [program_head(text) for text in texts]
    assert [len(head) for head in heads] == [head_bits(len(text)) for text in texts]
    assert program_heads([]) == []
    with pytest.raises(ValueError):
        program_heads(["a", chr(256)])


def test_head_hex_is_the_hex_of_the_head():
    texts = parseable_texts_upto(2)
    assert len(texts) == 9192
    for text in texts:
        assert head_hex(text) == bits_to_hex(program_head(text)), text


def test_parse_memo_is_bounded():
    maxsize = parse_program_cached.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    for i in range(maxsize + 1000):
        assert parse_program_cached(f"(a{i})") == (("a" + str(i),),)
        assert parse_program_cached.cache_info().currsize <= maxsize
    assert parse_program_cached.cache_info().currsize == maxsize
    assert parse_program_cached("(") is None
    assert parse_program_cached(" ") is None


def _nested_run_agrees(bits: str) -> None:
    # The decoder and the (run-remaining) primitive share one scanner: a
    # relay over the bits halts validly exactly when the bits do, with the
    # same value, and aborts when they do not decode.
    direct = run_program(BinaryProgram(bits), 4096)
    relayed = run_program(encode_text("(run-remaining)", bits), 4096)
    assert relayed.valid_halt == direct.valid_halt, bits
    if direct.valid_halt:
        assert relayed.outcome.value == direct.outcome.value, bits
    if isinstance(decode_program(bits), MalformedProgram):
        assert isinstance(relayed.outcome, AbortOverrun), bits


def test_nested_run_matches_decoder_on_enumerated_programs():
    count = 0
    for program in enumerate_programs(22):
        _nested_run_agrees(program.bits)
        count += 1
    assert count == 11557


def test_nested_run_matches_decoder_on_undecodable_strings():
    rng = random.Random(2024)
    pieces = ["00000000", "00101000", "00101001", "01100001", "00000001", "11111111"]
    rejected = 0
    for _ in range(3000):
        bits = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 5)))
        bits += "".join(rng.choice("01") for _ in range(rng.randrange(0, 12)))
        if isinstance(decode_program(bits), MalformedProgram):
            rejected += 1
        _nested_run_agrees(bits)
    assert rejected > 1000


@given(sexprs, bit_strings)
@settings(max_examples=120)
def test_encode_decode_round_trip(x, data):
    program = encode_program((x,), data)
    decoded = decode_program(program)
    assert isinstance(decoded, DecodedProgram)
    assert decoded.prefix == (x,)
    assert decoded.data == data


def test_run_valid_halt():
    result = run_program(encode_text("(' a)"), 100)
    assert isinstance(result.outcome, Halted)
    assert result.outcome.value == "a"
    assert result.valid_halt


def test_run_abort_on_missing_data():
    result = run_program(encode_text("(read-bit)"), 100)
    assert isinstance(result.outcome, AbortOverrun)
    assert not result.valid_halt


def test_run_halt_with_unread_data_is_invalid():
    result = run_program(encode_text("(' a)", "1"), 100)
    assert isinstance(result.outcome, Halted)
    assert result.outcome.value == "a"
    assert not result.valid_halt


def test_run_malformed_program():
    result = run_program(BinaryProgram("1" * 24), 100)
    assert result.outcome == MalformedProgram("NoSeparator")
    assert not result.valid_halt


def test_run_rejects_budget_below_one_before_decoding():
    for program in (BinaryProgram("0"), encode_text("(' a)")):
        for budget in (0, -3):
            with pytest.raises(ValueError):
                run_program(program, budget)


def test_hex_round_trip():
    for bits in ("", "1", "10110", "0" * 16, "1" * 13):
        assert hex_to_bits(bits_to_hex(bits), len(bits)) == bits


def test_hex_rejects_bad_padding():
    with pytest.raises(ValueError):
        hex_to_bits("ff", 4)  # nonzero bits after the declared length
    with pytest.raises(ValueError):
        hex_to_bits("ff", 24)


def _hex_by_bytes(bits: str) -> str:
    padded = bits + "0" * (-len(bits) % 8)
    return bytes(int(padded[i : i + 8], 2) for i in range(0, len(padded), 8)).hex()


def test_hex_codec_matches_a_per_byte_reference():
    rng = random.Random(808)
    for length in range(41):
        samples = {"0" * length, "1" * length}
        samples.update(
            format(rng.getrandbits(length), f"0{length}b") if length else ""
            for _ in range(20)
        )
        for bits in samples:
            hex_text = bits_to_hex(bits)
            assert hex_text == _hex_by_bytes(bits)
            assert hex_to_bits(hex_text, length) == bits
            assert bits_of_bytes(bytes.fromhex(hex_text))[:length] == bits
        with pytest.raises(ValueError, match="length"):
            hex_to_bits(_hex_by_bytes("1" * length) + "00", length)
        if length % 8:
            padded = _hex_by_bytes("0" * length)
            last = format(int(padded[-2:], 16) | 1, "02x")
            with pytest.raises(ValueError, match="padding"):
                hex_to_bits(padded[:-2] + last, length)


def _converted(fn, hex_text, bit_length):
    try:
        return fn(hex_text, bit_length)
    except ValueError as exc:
        return type(exc), str(exc)


def test_hex_to_bits_matches_the_format_spec_reference():
    # Every 0- and 1-byte payload, in both letter cases, at every length
    # from -1 to 8: exact fits, short and long declarations, nonzero
    # padding and negative lengths.
    payloads = [""]
    for byte in range(256):
        payloads += [f"{byte:02x}", f"{byte:02X}"]
    payloads += ["0", "abc", "zz", "0g", " ff", "f f"]  # not hex
    for hex_text in payloads:
        for length in range(-1, 9):
            assert _converted(hex_to_bits, hex_text, length) == _converted(
                reference_format.hex_to_bits, hex_text, length
            ), (hex_text, length)
    # Seeded 2- to 4-byte payloads at every length that fits or misses by
    # one byte, with clean and dirty padding.
    rng = random.Random(1212)
    for n_bytes in (2, 3, 4):
        for _ in range(200):
            raw = bytearray(rng.getrandbits(8) for _ in range(n_bytes))
            if rng.random() < 0.5:
                raw[-1] &= 0xFF << rng.randrange(8)
            hex_text = raw.hex()
            for length in range(8 * n_bytes - 16, 8 * n_bytes + 9):
                assert _converted(hex_to_bits, hex_text, length) == _converted(
                    reference_format.hex_to_bits, hex_text, length
                ), (hex_text, length)


def test_program_file_round_trip(tmp_path):
    program = encode_text("(' (a b))", "101")
    path = tmp_path / "p.prog"
    save_program(path, program)
    assert load_program(path) == program
    header = path.read_text().splitlines()[0]
    assert header == f"bits: {len(program.bits)}"


def test_program_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.prog"
    path.write_text("not a header\nffff\n")
    with pytest.raises(ValueError):
        load_program(path)


def test_negative_bit_length_is_rejected(tmp_path):
    for hex_text in ("", "ff"):
        with pytest.raises(ValueError, match="must be >= 0"):
            hex_to_bits(hex_text, -3)
    path = tmp_path / "negative.prog"
    path.write_text("bits: -3\n")
    with pytest.raises(ValueError):
        load_program(path)


def test_pairing_primitive_is_universal_glue():
    # a nested run consumes exactly one embedded program, so two of them
    # consume two programs laid end to end
    p = encode_text("(' left)")
    q = encode_text("(join (read-bit) ())", "1")
    wrapper = parse("(join (run-remaining) (join (run-remaining) ()))")
    paired = encode_program(wrapper, p.bits + q.bits)
    result = run_program(paired, 1000)
    assert result.valid_halt
    assert result.outcome.value == ("left", ("1",))


def test_prefix_free_violation_finder():
    assert prefix_free_violation(["01", "00", "11"]) is None
    assert prefix_free_violation(["0110", "01", "10"]) == ("01", "0110")
    assert prefix_free_violation([]) is None
    # equal strings are not proper prefixes
    assert prefix_free_violation(["01", "01"]) is None


def test_config_hash_is_stable():
    # Census files carry this digest; changing it orphans every saved census.
    assert config_hash() == "f23876a65132"


@pytest.mark.parametrize("text, data, budget, outcome", [
    ("(' a)", "", 100, Halted("a", 0, 1, ())),
    ("(display (read-bit))", "1", 100, Halted("1", 1, 2, ("1",))),
    ("(display (read-bit))", "", 100, AbortOverrun(2, ())),
    ("((lambda (f) (f f)) (lambda (f) (f f)))", "", 50, OutOfTime(())),
])
def test_run_values_equal_their_constructed_twins(text, data, budget, outcome):
    """Outcomes, results and decodings built by their slot setters are the
    same frozen values as those the constructors build."""
    program = encode_text(text, data)
    decoded = decode_program(program)
    result = run_program(program, budget)
    twins = [
        (result.outcome, outcome),
        (result, RunResult(outcome, len(data))),
        (decoded, DecodedProgram(decoded.prefix, data, decoded.text)),
    ]
    for built, twin in twins:
        assert type(built) is type(twin)
        assert built == twin and hash(built) == hash(twin)
        assert repr(built) == repr(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.__setattr__(dataclasses.fields(built)[0].name, None)
