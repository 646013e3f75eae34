"""CSV/JSON emission for series, probability matrices, and reports.

Numbers are rendered with 15 significant digits, fixed column order, LF line
endings, so identical configurations produce byte-identical files.

There is one number formatter, ``_put_words``.  It writes the text of
``'%.15g' % x``, or for JSON its token, as three 8-byte words, byte j of a
word at bits 8j..8j+7, with NUL bytes in any unused places, which
``bytes.translate`` deletes when the words are written out.  The words hold
a prefix (a sign, and the "0." and zeros of fixed notation below 1), 16
mantissa bytes and a suffix (an exponent text, or a JSON token's ".0"): a
text with a suffix has at most a sign before its mantissa, so its mantissa
and suffix move up one byte, 1 + 16 + 5 bytes against 6 + 16 in fixed
notation.  Every writer formats its numbers straight into a line frame of
such words and deletes the NULs of each file, or part of one, once.

There is one series serializer, ``render_series``.  It takes a (rows, T)
table of series, one file per row, and the time grid as a ``TimeColumn``,
which lays out once, on first use, what every file on the grid shares: in
CSV each line's lead words, '\n', the time text and ',' from the first byte
(one word on the default grid, "\n49.99,"); in JSON the array of the time
tokens.  ``evolve`` hands ``render_series`` ``TimeColumn.block_rows`` rows
at a time, about ``_BLOCK_NUMBERS`` (16,384) numbers and at least one row:
one formatter call per row would pay that call's fixed cost once per file,
and one call over the whole table outgrows the cache.  The block is
checked, clipped and formatted by one call, straight into the block's line
frame, a uint64 table with one line per number: in CSV the lead words, the
value's three words, and with the approximation column a ',' word and three
more.  Each file is built directly, as bytes, by one ``b"".join`` (a chain
of ``+`` would copy the body once per ``+``): in CSV of the header, the
file's slice of the frame squeezed by one ``translate``, and '\n'; in JSON
of the object's members and punctuation (``_json_object``).

Every JSON array of numbers comes from one builder, ``_json_arrays``: the
time array, a file's values and approximation (two rows of one call), and
the rows of the lta matrix.  Its frame holds a (rows, n) table, a lead word
(",\n" and the indent, 4 spaces or 6, with no ',' on a row's first line) and
three token words a number; each row is "[", its squeezed slice, '\n', the
indent less two spaces and "]", or "[]" at n = 0.  The lta matrix is
formatted ``max(1, _BLOCK_NUMBERS // n)`` rows at a time; in CSV each
entry's three words take a ',' word, '\n' at a row's end, each block
squeezed once.  Every writer returns bytes but ``report_to_text``, whose
table is printed; the report's few numbers are %-formatted one by one.

Inputs of fewer than ``_VECTOR_MIN`` numbers are formatted by one
%-operation over a template with a ``%-24.15g`` slot per number, which pads
each text with spaces to its three words; for JSON, when any text is not
its own token, every text is made a token one by one.  Larger inputs are
formatted in numpy, with the same bytes:

* Each x is written as D * 10^(E-14), with D the correctly rounded 15-digit
  integer and E the decimal exponent, E = floor(log10|x|).  The product
  |x| * 10^(14-E) is formed exactly as a sum of doubles, by Dekker's
  two-product with 10^(14-E) held as a double-double (hi, lo) that is built
  once, in integer arithmetic, on first use.  With fl the floor of the
  leading double and r the remainder (fraction plus error terms), D is
  fl + (r > 0.5).  A D rounded up to 1e15 becomes 1e14 with E + 1, which is
  how 9.9999999999999995e-05 becomes "0.0001".
* D's digits come from a table of 4-digit texts, in a full and a
  trailing-zeros-as-NUL version, and are laid out as %.15g lays them out,
  by masks and texts looked up by E: fixed notation for -4 <= E < 15,
  exponent notation otherwise, trailing fraction zeros and a bare point
  dropped, a '-' sign, and "0" and "-0".
* Each step writes over or drops the arrays it no longer needs, so that a
  call holds about 90 bytes of temporaries per number at its peak.
* A number is formatted by ``'%.15g' % x`` instead when the remainder is
  within ``_TIE_MARGIN`` of one half (ties such as 19661 * 2**-16 and
  near-ties), when log10 was one off and the product fell outside
  [1e14, 1e15) (only just beside a power of ten), when its magnitude is
  outside [1e-250, 1e250] (where the double-double terms could leave the
  normal range; this includes subnormals), and when it is not finite.

JSON is written in the layout of ``json.dumps(obj, indent=2)``, keys in a
fixed order, and each JSON number is the token ``json.dumps`` writes for the
float that the ``%.15g`` text parses back to, derived from the text by one
rule, which the formatter's suffixes follow in numpy and ``_json_token``
applies to each text that %-formatting writes.  A decimal of at most 15
significant digits survives the round trip through a double, so a text with
a decimal point and no exponent is that token already.  Every other text is
written as ``repr(float(text))``: an integral text gains ".0" ("1" -> "1.0",
"-0" -> "-0.0"), as its suffix in numpy; the exponent e+15, where ``%.15g``
switches to exponent notation one decade before repr, becomes fixed notation
("1e+15" -> "1000000000000000.0"), so numpy leaves such numbers to
%-formatting; a subnormal, which holds fewer than 15 digits, takes its
shortest digits ("4.94065645841247e-324" -> "5e-324"); and every other
exponent text comes back unchanged.  JSON has no token for NaN or infinity,
and such values are rejected before anything is written.

Probability values are clipped to [0, 1] here, and only here; TransportSeries,
ProbabilityMatrix and ``transport.from_phases`` have already rejected any
excursion beyond PROB_SLACK.  The dominant-degeneracy approximation series is
exempt (it is not a probability).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import fields

import numpy as np

from .analysis import EfficiencyReport
from .transport import ProbabilityMatrix

_NUMBER = "%.15g"
# A %.15g text is at most 22 characters ("-1.23456789012345e-308"), so this
# template writes it as three words, its spaces then turned into NULs.
_PADDED = "%-24.15g"
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")

# Below this many numbers one %-operation over a template is faster than the
# numpy path, whose fixed cost is about 0.2 ms per call; the two cost the
# same at about 256 numbers on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4).
_VECTOR_MIN = 256

# A series table is rendered in blocks of about this many numbers, one
# formatter call each.  The cost per number falls with the call's size
# while its temporaries stay in cache, and rises again beyond.  On the
# values of a path:300 pair table (same machine, best of many calls) it was
# 525 ns at 256 numbers, 146-160 ns at 5001, 123-145 ns from 10,002 to
# 20,004, and 184 ns at 200,040.
_BLOCK_NUMBERS = 16384

# Magnitudes the numpy path formats itself (zero aside).  Within the range
# every double-double term below stays a normal double.
_LOW, _HIGH = 1e-250, 1e250

# The computed remainder r differs from the exact one by less than 2e-16:
# 10^k = hi + lo to a relative 2^-106, |x| * hi is exact, |x| * lo is rounded
# once (an absolute 2^-53 * 0.11 for a product below 1e15), and the two sums
# that form r add at most 2^-53 * 1.2.  A remainder within this margin of one
# half is a tie or a near-tie, and %-formatting decides it.
_TIE_MARGIN = 1e-6

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's split of a double into halves
_K_MIN, _K_MAX = -240, 270  # the powers 10^k a scaling can need
_E_MIN, _E_MAX = -330, 330  # exponents with a suffix text
_E_COUNT = _E_MAX - _E_MIN + 1
# Eight text bytes read as one number, byte j at bits 8j..8j+7 on any host.
_WORD = np.dtype("<u8")
_ZEROS = np.frombuffer(b"0" * 8, _WORD)[0]


def _words(texts, width: int) -> np.ndarray:
    """Texts as NUL-padded byte strings of the given width, read as words."""
    return np.array(texts, dtype=f"S{width}").view(_WORD)


@functools.cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """The text pieces of the numpy path, built on its first use:

    * the 4-digit text of 0..9999 as 4 bytes, then the same texts with
      trailing zeros as NUL;
    * by exponent E (at E - _E_MIN), six words: for the 16 mantissa bytes,
      with s the number of integer digits before the point (0 for
      "0.000ddd", 1 in exponent notation), two words each of a mask of the
      bytes below s, which hold integer digits, a mask of the bytes above
      s, which hold fraction digits, and the point at byte s (none for
      s = 0);
    * by exponent and sign (at E - _E_MIN, plus _E_COUNT for a '-'), the
      sign and the "0." and zeros that fixed notation puts before a number
      below 1;
    * by exponent and point (at E - _E_MIN, plus _E_COUNT when the text has
      a point), the suffix of a JSON token: the exponent text ("e-05") in
      exponent notation, and in fixed notation the ".0" of an integral text
      or nothing.  The half with a point is the suffix of a %.15g text.
    """
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    significant = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    groups = np.concatenate([digits + 48, np.where(significant, digits + 48, 0)])
    exponents = range(_E_MIN, _E_MAX + 1)
    fixed = [-4 <= e < 15 for e in exponents]
    s = [max(e + 1, 0) if f else 1 for e, f in zip(exponents, fixed)]
    masks = [
        _words(texts, 16).reshape(16, 2)[s].T
        for texts in ([b"\xff" * k for k in range(16)],
                      [b"\0" * (k + 1) + b"\xff" * (15 - k) for k in range(16)],
                      [b""] + [b"\0" * k + b"." for k in range(1, 16)])
    ]
    prefixes = [sign + ("0." + "0" * (-e - 1) if f and e < 0 else "")
                for sign in ("", "-") for e, f in zip(exponents, fixed)]
    suffixes = ["" if f else "e%+03d" % e for e, f in zip(exponents, fixed)]
    return (
        groups.astype(np.uint8).view("<u4").ravel(),
        np.concatenate(masks),
        _words(prefixes, 8),
        _words([".0" if f else text for text, f in zip(suffixes, fixed)] + suffixes, 8),
    )


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10^k for k in _K_MIN.._K_MAX as a double-double hi + lo, with hi split
    into halves for Dekker's product: (hi, hi_high, hi_low, lo).  Each term
    is a correctly rounded integer quotient, so no Fraction is needed."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi.append(float(10**k))
            lo.append(float(10**k - int(hi[-1])))
        else:
            hi.append(1 / 10**-k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10**-k) / (den * 10**-k))
    hi = np.array(hi)
    c = hi * _SPLITTER
    hi_high = c - (c - hi)
    return hi, hi_high, hi - hi_high, np.array(lo)


def _digits_and_exponent(x):
    """D, E (see the module docstring) of each value, zero for zeros, and a
    mask of the values left to %-formatting.  The arithmetic is the module
    docstring's, term by term in its order, with each temporary written over
    or dropped once used."""
    a = np.abs(x)
    left = ~((a >= _LOW) & (a <= _HIGH))  # NaN included
    unsure = left & (a != 0)
    a[left] = 1.0
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.int64)
    hi, hi_high, hi_low, lo = (np.take(t, (14 - _K_MIN) - e) for t in _powers_of_ten())
    p = a * hi
    del hi
    # Dekker's split a = a_high + a_low, then the error of p,
    # ((a_high hi_high - p) + a_high hi_low + a_low hi_high) + a_low hi_low.
    a_high = a * _SPLITTER
    a_low = a_high - a
    a_high -= a_low
    np.subtract(a, a_high, out=a_low)
    err = a_high * hi_high
    err -= p
    a_high *= hi_low
    err += a_high
    hi_high *= a_low
    err += hi_high
    hi_low *= a_low
    err += hi_low
    del a_high, a_low, hi_high, hi_low
    lo *= a
    err += lo
    del lo, a
    fl = np.floor(p)
    r = p  # r = (p - fl) + (err + a lo), in p's place
    r -= fl
    r += err
    del err
    # log10 can be one off just beside a power of ten; the product then lies
    # outside [1e14, 1e15), and such values go to %-formatting with the ties.
    t = r - 0.5
    own_unsure = np.abs(t, out=t) <= _TIE_MARGIN
    own_unsure |= fl >= 1e15
    np.subtract(fl, 1e14, out=t)
    t += r
    own_unsure |= t < 0
    del t
    d = fl.astype(np.int64)
    del fl
    d += r > 0.5
    del r
    carry = d == 10**15
    d[carry] = 10**14
    e += carry
    d[left] = 0
    e[left] = 0
    own_unsure &= ~left
    unsure |= own_unsure
    return d, e, unsure


def _put_words(x: np.ndarray, words: np.ndarray, json_tokens: bool = False) -> None:
    """Write the %.15g text of each value of a 1-d array (with json_tokens,
    its JSON token) into the rows of words, an (x.size, 3) uint64 array or
    view, laid out as the module docstring describes, with NULs in any
    unused bytes."""
    if x.size < _VECTOR_MIN:
        text = (_PADDED * x.size % tuple(x.tolist())).encode()
        # A text with a point and no exponent is its own JSON token.
        if json_tokens and (b"e" in text or text.count(b".") < x.size):
            words[:] = _words([_json_token(t) for t in text.decode().split()], 24).reshape(-1, 3)
        else:
            words[:] = np.frombuffer(text.translate(_SPACE_TO_NUL), _WORD).reshape(-1, 3)
        return
    d, e, unsure = _digits_and_exponent(x)
    group_texts, masks, prefixes, suffixes = _text_tables()
    # Four 4-digit groups; D < 1e15, so the first group's text starts with a
    # '0' and digit j of D is byte j + 1 of the 16.  A group is looked up
    # without its trailing zeros (at +10000) when every later group is 0,
    # last group first, so one gather gives the digits with their trailing
    # zeros as NUL.  Every digit byte has the bits of '0' set, so OR-ing in
    # '0's gives the full digits back.
    groups = np.empty((x.size, 4), np.intp)
    high = d // 10**8
    d -= high * 10**8
    later_zero = np.ones(x.size, bool)
    for j, half in ((1, d), (0, high)):
        group = half // 10**4
        half -= group * 10**4
        for column, digits in ((2 * j + 1, half), (2 * j, group)):
            np.add(digits, 10000, out=digits, where=later_zero)
            groups[:, column] = digits
            later_zero &= digits == 10000
    del d, high, group, half, digits, later_zero
    stripped = np.take(group_texts, groups).view(_WORD)
    del groups
    full = stripped | _ZEROS

    if json_tokens:
        unsure |= e == 15  # a repr token
    e -= _E_MIN  # the tables' index
    int0, int1, frac0, frac1, point0, point1 = (np.take(mask, e) for mask in masks)
    # Two mantissa words of 8 text bytes: the integer digits, which are the
    # full digits moved down one byte, then the point and fraction digits.
    frac0 &= stripped[:, 0]
    frac1 &= stripped[:, 1]
    del stripped
    point = (frac0 | frac1) != 0
    point0 *= point
    frac0 |= point0
    point1 *= point
    frac1 |= point1
    del point0, point1
    word1 = (full[:, 0] >> 8) | (full[:, 1] << 56)
    word1 &= int0
    word1 |= frac0
    word2 = full[:, 1] >> 8
    word2 &= int1
    word2 |= frac1
    del full, int0, int1, frac0, frac1
    prefix = np.take(prefixes, e + _E_COUNT * np.signbit(x))
    ends = np.take(suffixes, e + _E_COUNT * point if json_tokens else e + _E_COUNT)
    del e, point
    # A text with a suffix has at most a sign before its mantissa, so its
    # mantissa and suffix move up one byte, into three words.
    rows = np.flatnonzero(ends != 0)
    if rows.size:
        high, low = word1[rows], word2[rows]
        prefix[rows] |= high << 8
        word1[rows] = (high >> 56) | (low << 8)
        word2[rows] = (low >> 56) | (ends[rows] << 8)
    words[:, 0] = prefix
    words[:, 1] = word1
    words[:, 2] = word2
    rows = np.flatnonzero(unsure)
    if rows.size:
        texts = [_NUMBER % v for v in x[rows].tolist()]
        if json_tokens:
            texts = map(_json_token, texts)
        words[rows] = _words(list(texts), 24).reshape(-1, 3)


def _squeeze(table) -> bytes:
    """The bytes of a table of words, NULs removed."""
    return table.tobytes().translate(None, b"\0")


def _json_token(text: str) -> str:
    """The JSON token of a %.15g text (see the module docstring)."""
    if "." in text and "e" not in text:
        return text
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"JSON has no number for {text}")
    return repr(x)


def _json_array(items: list[bytes], indent: bytes) -> bytes:
    """A JSON array of encoded items, laid out as json.dumps(indent=2) lays
    out an array that opens at the given indent."""
    if not items:
        return b"[]"
    inner = b"\n" + indent + b"  "
    return b"".join((b"[", inner, (b"," + inner).join(items), b"\n", indent, b"]"))


def _json_object(fields: dict) -> bytes:
    """A top-level JSON object of encoded values under identifier keys, as
    json.dumps(indent=2) writes it, with a final newline."""
    parts = [b"{"]
    for key, value in fields.items():
        parts += (b'\n  "%s": ' % key.encode(), value, b",")
    parts[-1] = b"\n}\n"
    return b"".join(parts)


# By the indent of its numbers (4 in a series file, 6 in a matrix row), the
# lead words of a JSON array's first and later lines.
_JSON_LEADS = {indent: _words(["\n" + " " * indent, ",\n" + " " * indent], 8).tolist()
               for indent in (4, 6)}
# The word that ends a CSV time text.
_CSV_END = _words([",\n"], 8)[0]
# By k, a mask of a word's k low bytes.
_LOW_BYTES = _words([b"\xff" * k for k in range(9)], 8)


def _json_arrays(table: np.ndarray, indent: int) -> list[bytes]:
    """The JSON array of each row of a (rows, n) table, its numbers at the
    indent (4 or 6), as json.dumps(indent=2) writes an array of numbers
    that opens two spaces to the left.  One line frame holds the table: a
    lead word and three token words a number, one squeezed slice a row."""
    rows, n = table.shape
    if not n:
        return [b"[]"] * rows
    first, rest = _JSON_LEADS[indent]
    frame = np.empty((rows, n, 4), _WORD)
    frame[:, :, 0] = rest
    frame[:, 0, 0] = first
    _put_words(table.ravel(), frame.reshape(rows * n, 4)[:, 1:], json_tokens=True)
    close = b"\n" + b" " * (indent - 2) + b"]"
    return [b"".join((b"[", _squeeze(row), close)) for row in frame]


class TimeColumn:
    """A time grid formatted once for every series file written on it, in
    the format it is written in, on first use: the lead words of each CSV
    line, and the JSON array of its tokens."""

    def __init__(self, times):
        self.times = np.asarray(times, dtype=float).ravel()

    def __len__(self) -> int:
        return self.times.size

    @property
    def block_rows(self) -> int:
        """The rows of a value table on this grid that render_series is
        given at once: _BLOCK_NUMBERS numbers, and at least one row."""
        return max(1, _BLOCK_NUMBERS // max(len(self), 1))

    @functools.cached_property
    def csv_lead(self) -> np.ndarray:
        """An (n, L) word table: row i holds '\\n', the text of time i and
        ',', from its first byte, in as many words as the longest needs."""
        words = np.empty((len(self), 4), _WORD)
        _put_words(self.times, words[:, :3])
        words[:, 3] = _CSV_END
        # The squeezed text "\n0,\n0.01,\n...,\n" holds line i from the
        # i-th '\n' up to the next; its eight bytes from each offset, read as
        # one word, are gathered back a line to a row, with NULs past the
        # line's end.
        text = b"\n" + _squeeze(words) + bytes(24)
        starts = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n"))
        lengths = np.diff(starts)
        at_offset = np.ndarray((len(text) - 7,), _WORD, text, strides=(1,))
        lead = np.empty((len(self), -(-int(lengths.max()) // 8)), _WORD)
        for j in range(lead.shape[1]):
            bytes_in = np.clip(lengths - 8 * j, 0, 8)
            np.bitwise_and(at_offset[starts[:-1] + 8 * j], _LOW_BYTES[bytes_in], out=lead[:, j])
        return lead

    @functools.cached_property
    def json_array(self) -> bytes:
        return _json_arrays(self.times[np.newaxis], 4)[0]


def render_series(fmt: str, quantity: str, times: TimeColumn, table, approx=None) -> list[bytes]:
    """The series files ('csv' or 'json') of the rows of a (rows, T) value
    table on a time grid already formatted as a TimeColumn, as bytes, one
    file per row: a 't,value' table, or 't,value,approx' when the
    approximation column of a one-row table is given.  Values tagged as
    probabilities are clipped; the approximation column is written as
    given.  A non-finite value in either is rejected.

    The table is checked and formatted as one block, into one line frame
    of words, and each row's file is a slice of that frame with its NULs
    squeezed out; a caller with many rows passes them times.block_rows at
    a time."""
    n = len(times)
    values = np.asarray(table, dtype=float)
    if values.ndim != 2 or values.shape[1] != n:
        raise ValueError("series rows must match the time column")
    rows = len(values)
    if approx is not None:
        if rows != 1 or np.shape(approx) != (n,):
            raise ValueError("an approximation column goes with one series row and must match the time column")
        approx = np.asarray(approx, dtype=float)
    if not np.isfinite(values).all() or (approx is not None and not np.isfinite(approx).all()):
        raise ValueError(f"{quantity}: series values must be finite")
    if quantity != "approx_alpha_bar_sq":
        values = np.clip(values, 0.0, 1.0)
    if fmt == "csv":
        header = b"t,value" if approx is None else b"t,value,approx"
        if not n:
            return [header + b"\n"] * rows
        # A line: the lead words, then the value's three words, and for the
        # approximation column a ',' word and its three words.
        lead = times.csv_lead
        at = lead.shape[1]
        width = at + (3 if approx is None else 7)
        frame = np.empty((rows, n, width), _WORD)
        frame[:, :, :at] = lead
        lines = frame.reshape(rows * n, width)
        _put_words(values.ravel(), lines[:, at : at + 3])
        if approx is not None:
            lines[:, at + 3] = ord(",")
            _put_words(approx, lines[:, at + 4 :])
        return [b"".join((header, _squeeze(row), b"\n")) for row in frame]
    if fmt == "json":
        name = json.dumps(quantity).encode()
        if approx is not None:
            array, approx_array = _json_arrays(np.stack([values[0], approx]), 4)
            return [_json_object({"quantity": name, "times": times.json_array, "values": array,
                                  "approx": approx_array})]
        return [_json_object({"quantity": name, "times": times.json_array, "values": array})
                for array in _json_arrays(values, 4)]
    raise ValueError(f"fmt must be 'csv' or 'json', got {fmt!r}")


def _entry_blocks(matrix: ProbabilityMatrix):
    """The matrix's entries, clipped, max(1, _BLOCK_NUMBERS // n) rows at a time."""
    step = max(1, _BLOCK_NUMBERS // max(matrix.n, 1))
    for start in range(0, matrix.n, step):
        yield np.clip(matrix.entries[start : start + step], 0.0, 1.0)


def matrix_to_csv(matrix: ProbabilityMatrix) -> bytes:
    """Bare n x n grid, row k, column j.  A line of the frame is an entry's
    three words and a ',' word, '\\n' at the end of a row."""
    n = matrix.n
    blocks = []
    for block in _entry_blocks(matrix):
        frame = np.empty((block.size, 4), _WORD)
        _put_words(block.ravel(), frame[:, :3])
        frame[:, 3] = ord(",")
        frame[n - 1 :: n, 3] = ord("\n")
        blocks.append(_squeeze(frame))
    return b"".join(blocks)


def matrix_to_json(matrix: ProbabilityMatrix) -> bytes:
    n = matrix.n
    rows = [row for block in _entry_blocks(matrix) for row in _json_arrays(block, 6)]
    return _json_object({
        "quantity": json.dumps(matrix.quantity).encode(),
        "n": b"%d" % n,
        "labels": _json_array([b"%d" % k for k in range(1, n + 1)], b"  "),
        "time": b"null" if matrix.time is None else _json_token(_NUMBER % matrix.time).encode(),
        "entries": _json_array(rows, b"  "),
    })


def _report_fields(report: EfficiencyReport) -> dict:
    return {f.name: getattr(report, f.name) for f in fields(report)}


def report_to_json(report: EfficiencyReport) -> bytes:
    return _json_object({
        key: (_json_token(_NUMBER % value) if isinstance(value, float) else json.dumps(value)).encode()
        for key, value in _report_fields(report).items()
    })


def report_to_text(report: EfficiencyReport) -> str:
    """Aligned two-column table for terminal display."""
    rows = {key: "not reached" if value is None else _NUMBER % value if isinstance(value, float) else str(value)
            for key, value in _report_fields(report).items()}
    width = max(map(len, rows))
    return "".join(f"{key:<{width}}  {rendered}\n" for key, rendered in rows.items())
