"""CSV/JSON emission for series, probability matrices, and reports.

Numbers are rendered with 15 significant digits, fixed column order, LF line
endings, so identical configurations produce byte-identical files.

There is one number formatter, ``format_column``.  It returns a text table:
one row of bytes per number, holding exactly the text of ``'%.15g' % x`` with
NUL bytes in any unused places, which ``bytes.translate`` deletes when the
table is written out.  Writers lay separators beside the rows and squeeze the
whole file in one pass.  There is one series serializer, ``render_series``:
it takes a (rows, T) table of series, one file per row, and the time grid
as a ``TimeColumn``, so a grid shared by several series is formatted once,
in each format.

A series table is rendered in row blocks.  ``evolve`` hands
``render_series`` ``TimeColumn.block_rows`` rows at a time, about
``_BLOCK_NUMBERS`` (16,384) numbers and at least one row, and the block's
numbers are checked, clipped and formatted by one ``format_column`` call:
one call per row would pay that call's fixed cost once per file, and one
call over the whole table outgrows the cache.  Each row's text table is a
slice of the block's.  The separators of a file's lines (the time text,
',' and '\n' in CSV; the indent and ',' of a JSON array) are laid out once
per block in a line frame, and only each row's value bytes are copied into
it before the squeeze.

Inputs of fewer than ``_VECTOR_MIN`` numbers are formatted by one
%-operation over a template with a ``%.15g`` slot per number.  Larger inputs
are formatted in numpy, with the same bytes:

* Each x is written as D * 10^(E-14), with D the correctly rounded 15-digit
  integer and E the decimal exponent, E = floor(log10|x|).  The product
  |x| * 10^(14-E) is formed exactly as a sum of doubles, by Dekker's
  two-product with 10^(14-E) held as a double-double (hi, lo) that is built
  once, in integer arithmetic, on first use.  With fl the floor of the
  leading double and r the remainder (fraction plus error terms), D is
  fl + (r > 0.5).  A D rounded up to 1e15 becomes 1e14 with E + 1, which is
  how 9.9999999999999995e-05 becomes "0.0001".
* D's digits come from a table of 4-digit texts, in a full and a
  trailing-zeros-as-NUL version, and are laid out as %.15g lays them out:
  fixed notation for -4 <= E < 15, exponent notation otherwise, trailing
  fraction zeros and a bare point dropped, a '-' sign, and "0" and "-0".
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
rule: from the text table by ``_json_tokens``, and text by text in Python
below ``_VECTOR_MIN`` numbers.  A decimal of at most 15 significant digits
survives the round trip through a double, so a text with a decimal point and
no exponent is that token already.  Every other text is written as
``repr(float(text))``: an integral text gains ".0" ("1" -> "1.0", "-0" ->
"-0.0"); the exponent e+15, where ``%.15g`` switches to exponent notation
one decade before repr, becomes fixed notation ("1e+15" ->
"1000000000000000.0"); a subnormal, which holds fewer than 15 digits, takes
its shortest digits ("4.94065645841247e-324" -> "5e-324"); and every other
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

# Below this many numbers one %-operation over a template is faster than the
# numpy path, whose fixed cost is about 0.2 ms per call; the two cost the
# same at about 256 numbers on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4).
_VECTOR_MIN = 256

# A series table is rendered in blocks of about this many numbers, one
# format_column call each.  The cost per number falls with the call's size
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
# Eight text bytes read as one number, byte j at bits 8j..8j+7 on any host.
_WORD = np.dtype("<u8")


def _words(texts, width: int) -> np.ndarray:
    """Texts as NUL-padded byte strings of the given width, read as words."""
    return np.array(texts, dtype=f"S{width}").view(_WORD)


@functools.cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """The text pieces of the numpy path, built on its first use:

    * the 4-digit text of 0..9999 as 4 bytes, then the same texts with
      trailing zeros as NUL;
    * by s, the number of integer digits before the point (0 for
      "0.000ddd"), the 16 mantissa bytes as two words: a mask of the bytes
      below s, which hold integer digits, a mask of the bytes above s, which
      hold fraction digits, and the point at byte s (none for s = 0);
    * by 5 * sign + zeros, the sign and the "0." and zeros that fixed
      notation puts before a number below 1;
    * the exponent texts e-330..e+330, then the empty suffix of fixed
      notation.
    """
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    significant = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    groups = np.concatenate([digits + 48, np.where(significant, digits + 48, 0)])
    return (
        groups.astype(np.uint8).view("<u4").ravel(),
        _words([b"\xff" * s for s in range(16)], 16).reshape(16, 2).T.copy(),
        _words([b"\0" * (s + 1) + b"\xff" * (15 - s) for s in range(16)], 16).reshape(16, 2).T.copy(),
        _words([b""] + [b"\0" * s + b"." for s in range(1, 16)], 16).reshape(16, 2).T.copy(),
        _words(["", "0.", "0.0", "0.00", "0.000", "-", "-0.", "-0.0", "-0.00", "-0.000"], 8),
        _words(["e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)] + [""], 8),
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


def _percent_texts(x: np.ndarray) -> list[str]:
    """The %.15g text of each value of a 1-d array, by one %-operation."""
    return ((_NUMBER + "\n") * x.size % tuple(x.tolist())).split("\n")[:-1]


def _text_rows(texts) -> np.ndarray:
    rows = np.array(texts, dtype="S")
    return rows.view(np.uint8).reshape(len(texts), rows.itemsize)


def format_column(values) -> np.ndarray:
    """The %.15g text of each value (any array shape, read row-major) as one
    row of a uint8 text table; unused bytes are NUL (see the module
    docstring)."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size < _VECTOR_MIN:
        return _text_rows(_percent_texts(x))
    d, e, unsure = _digits_and_exponent(x)
    group_texts, int_mask, frac_mask, point_at, prefix, suffix = _text_tables()
    # Four 4-digit groups; D < 1e15, so the first group's text starts with a
    # '0' and digit j of D is byte j + 1 of the 16.
    g0 = d // 10**12
    d -= g0 * 10**12
    g1 = d // 10**8
    d -= g1 * 10**8
    g2 = d // 10**4
    d -= g2 * 10**4
    # A group is written without its trailing zeros when every later group is 0.
    zero3 = d == 0
    zero23 = zero3 & (g2 == 0)
    zero123 = zero23 & (g1 == 0)
    groups = np.stack([g0, g1, g2, d], axis=1)
    del g0, g1, g2, d
    full = np.take(group_texts, groups).view(_WORD)
    groups[:, 0] += 10000 * zero123
    groups[:, 1] += 10000 * zero23
    groups[:, 2] += 10000 * zero3
    groups[:, 3] += 10000
    del zero3, zero23, zero123
    stripped = np.take(group_texts, groups).view(_WORD)
    del groups

    fixed = (e >= -4) & (e < 15)
    s = np.maximum(e + 1, 0)
    s[~fixed] = 1
    # Two mantissa words of 8 text bytes: the integer digits, which are the
    # full digits moved down one byte, then the point and fraction digits.
    frac0 = stripped[:, 0] & np.take(frac_mask[0], s)
    frac1 = stripped[:, 1] & np.take(frac_mask[1], s)
    del stripped
    point = (frac0 | frac1) != 0
    word1 = (full[:, 0] >> 8) | (full[:, 1] << 56)
    word1 &= np.take(int_mask[0], s)
    word1 |= frac0 | np.take(point_at[0], s) * point
    word2 = full[:, 1] >> 8
    word2 &= np.take(int_mask[1], s)
    word2 |= frac1 | np.take(point_at[1], s) * point
    del full, frac0, frac1, point, s
    # Four 8-byte words per number: prefix, two mantissa words, suffix.
    prefix_at = np.where(fixed & (e < 0), -e, 0)
    prefix_at += 5 * np.signbit(x)
    e[fixed] = _E_MAX + 1
    e -= _E_MIN
    words = [np.take(prefix, prefix_at), word1, word2, np.take(suffix, e)]
    del prefix_at, word1, word2, e
    rows = np.flatnonzero(unsure)
    if rows.size:
        texts = _words([_NUMBER % v for v in x[rows].tolist()], 32).reshape(-1, 4)
        for j, word in enumerate(words):
            word[rows] = texts[:, j]
    # Words no number uses are left out.
    return np.stack([word for word in words if word.any()], axis=1).view(np.uint8)


def _squeeze(parts) -> str:
    """The rows of the tables side by side, NULs removed."""
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode("ascii")


def _bytes(text: str, n: int) -> np.ndarray:
    """The same separator text on each of n rows."""
    return np.broadcast_to(np.frombuffer(text.encode(), np.uint8), (n, len(text)))


def _texts(table) -> list[str]:
    return _squeeze([table, _bytes("\n", len(table))]).split("\n")[:-1]


def format_numbers(values) -> list[str]:
    """Each value as 15-significant-digit text, in row-major order."""
    x = np.asarray(values, dtype=float).ravel()
    return _percent_texts(x) if x.size < _VECTOR_MIN else _texts(format_column(x))


def _rows_holding(table, char: str) -> np.ndarray:
    """Whether each row of a text table holds the given character.  When the
    width allows, the row's hits are read eight to a word and the word
    columns or-ed together, which costs a tenth of a reduction along rows."""
    hits = table == ord(char)
    if not hits.shape[1] or hits.shape[1] % 8:
        return hits.any(axis=1)
    return functools.reduce(np.bitwise_or, hits.view(_WORD).T) != 0


def _json_tokens(table) -> np.ndarray:
    """The JSON number token of each text of a text table (see the module
    docstring), as a text table: the table's width plus two bytes for the
    ".0" of an integral text, widened to hold a repr only when some text
    needs one."""
    n, width = table.shape
    exponent = _rows_holding(table, "e")
    integral = ~exponent & ~_rows_holding(table, ".")
    # The exponent text follows the 'e': a sign and two or three digits,
    # read with one NUL past the table's end.
    rows = np.flatnonzero(exponent)
    texts = np.zeros((rows.size, width + 1), np.uint8)
    texts[:, :width] = table[rows]
    at = np.argmax(texts == ord("e"), axis=1)
    sign, d1, d2, d3 = np.take_along_axis(texts, at[:, None] + np.arange(1, 5), axis=1).T.astype(int)
    three = d3 != 0
    power = np.where(three, 100 * d1 + 10 * d2 + d3 - 5328, 10 * d1 + d2 - 528)
    plus_15 = (sign == ord("+")) & ~three & (power == 15)
    from_minus_308 = (sign == ord("-")) & three & (power >= 308)
    # Those, and inf and nan, go through repr.
    odd = np.union1d(rows[plus_15 | from_minus_308], np.flatnonzero(_rows_holding(table, "n")))
    tokens = np.zeros((n, (max(width, 24) if odd.size else width) + 2), np.uint8)
    tokens[:, :width] = table
    tokens[integral, -2:] = np.frombuffer(b".0", np.uint8)
    if odd.size:
        reprs = _text_rows([_repr_token(text) for text in _texts(table[odd])])
        tokens[odd] = 0
        tokens[odd, : reprs.shape[1]] = reprs
    return tokens


def _repr_token(text: str) -> str:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"JSON has no number for {text}")
    return repr(x)


def _json_numbers(values) -> list[str]:
    """The JSON token of each value (see the module docstring); below
    _VECTOR_MIN values, by the rule itself, one text at a time."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size < _VECTOR_MIN:
        return [text if "." in text and "e" not in text else _repr_token(text)
                for text in format_numbers(x)]
    return _texts(_json_tokens(format_column(x)))


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of encoded items, laid out as json.dumps(indent=2) lays
    out an array that opens at the given indent."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _json_number_arrays(tokens, count: int, indent: str) -> list[str]:
    """_json_array of the tokens of each of count equal runs of rows of a
    token table, in one line frame (see _framed)."""
    n = len(tokens) // count if count else 0
    if not n:
        return ["[]"] * count
    inner = np.frombuffer(("\n" + indent + "  ").encode(), np.uint8)
    frame = np.empty((n, inner.size + tokens.shape[1] + 1), np.uint8)
    frame[:, : inner.size] = inner
    frame[:, -1] = ord(",")
    bodies = _framed(frame, slice(inner.size, -1), tokens.reshape(count, n, tokens.shape[1]))
    return ["[" + body[:-1] + "\n" + indent + "]" for body in bodies]


def _json_object(fields: dict) -> str:
    """A top-level JSON object of encoded values, as json.dumps(indent=2)
    writes it, with a final newline."""
    members = [f"  {json.dumps(key)}: {value}" for key, value in fields.items()]
    return "{\n" + ",\n".join(members) + "\n}\n"


def _framed(frame, slot: slice, tables) -> list[str]:
    """The text of a frame, a text table whose separators are laid out once,
    with each table in turn copied into the slot's columns, NULs removed."""
    texts = []
    for table in tables:
        frame[:, slot] = table
        texts.append(frame.tobytes().translate(None, b"\0").decode("ascii"))
    return texts


class TimeColumn:
    """A time grid formatted once for every series file written on it: its
    text table, and the JSON array of its tokens, made on first use."""

    def __init__(self, times):
        self.table = format_column(times)

    def __len__(self) -> int:
        return len(self.table)

    @property
    def block_rows(self) -> int:
        """The rows of a value table on this grid that render_series is
        given at once: _BLOCK_NUMBERS numbers, and at least one row."""
        return max(1, _BLOCK_NUMBERS // max(len(self), 1))

    @functools.cached_property
    def json_array(self) -> str:
        return _json_number_arrays(_json_tokens(self.table), 1, "  ")[0]


def render_series(fmt: str, quantity: str, times: TimeColumn, table, approx=None) -> list[str]:
    """The series files ('csv' or 'json') of the rows of a (rows, T) value
    table on a time grid already formatted as a TimeColumn, one text per
    row: a 't,value' table, or 't,value,approx' when the approximation
    column of a one-row table is given.  Values tagged as probabilities are
    clipped; the approximation column is written as given.  A non-finite
    value in either is rejected.

    The table is checked and formatted as one block, in one format_column
    call, and each row's text is a slice of the block's text table; a
    caller with many rows passes them times.block_rows at a time."""
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
    texts = format_column(values if approx is None else np.vstack([values, approx]))
    columns = 1 if approx is None else 2
    if fmt == "csv":
        header = "t,value\n" if approx is None else "t,value,approx\n"
        if not n:
            return [header] * rows
        # One line frame: the time text, then ',' and a value slot per
        # column, then '\n'.  The approximation column is copied in once.
        time_width, width = times.table.shape[1], texts.shape[1]
        frame = np.empty((n, time_width + columns * (width + 1) + 1), np.uint8)
        frame[:, :time_width] = times.table
        frame[:, time_width :: width + 1] = ord(",")
        frame[:, -1] = ord("\n")
        value = slice(time_width + 1, time_width + 1 + width)
        if approx is not None:
            frame[:, value.stop + 1 : -1] = texts[n:]
        return [header + text for text in _framed(frame, value, texts[: rows * n].reshape(rows, n, width))]
    if fmt == "json":
        arrays = _json_number_arrays(_json_tokens(texts), rows + columns - 1, "  ")
        fields = {"quantity": json.dumps(quantity), "times": times.json_array, "values": None}
        if approx is not None:
            fields["approx"] = arrays.pop()
        files = []
        for array in arrays:
            fields["values"] = array
            files.append(_json_object(fields))
        return files
    raise ValueError(f"fmt must be 'csv' or 'json', got {fmt!r}")


def matrix_to_csv(matrix: ProbabilityMatrix) -> str:
    """Bare n x n grid, row k, column j."""
    ends = np.full((matrix.n, matrix.n), ord(","), np.uint8)
    ends[:, -1:] = ord("\n")
    return _squeeze([format_column(np.clip(matrix.entries, 0.0, 1.0)), ends.reshape(-1, 1)])


def matrix_to_json(matrix: ProbabilityMatrix) -> str:
    n = matrix.n
    tokens = _json_numbers(np.clip(matrix.entries, 0.0, 1.0))
    rows = [_json_array(tokens[k * n : (k + 1) * n], "    ") for k in range(n)]
    return _json_object({
        "quantity": json.dumps(matrix.quantity),
        "n": str(n),
        "labels": _json_array([str(k) for k in range(1, n + 1)], "  "),
        "time": "null" if matrix.time is None else _json_numbers(matrix.time)[0],
        "entries": _json_array(rows, "  "),
    })


def _report_fields(report: EfficiencyReport) -> dict:
    return {f.name: getattr(report, f.name) for f in fields(report)}


def report_to_json(report: EfficiencyReport) -> str:
    values = _report_fields(report)
    floats = [key for key, value in values.items() if isinstance(value, float)]
    tokens = dict(zip(floats, _json_numbers([values[key] for key in floats])))
    return _json_object({key: tokens.get(key) or json.dumps(value) for key, value in values.items()})


def report_to_text(report: EfficiencyReport) -> str:
    """Aligned two-column table for terminal display."""
    values = _report_fields(report)
    floats = [key for key, value in values.items() if isinstance(value, float)]
    texts = dict(zip(floats, format_numbers([values[key] for key in floats])))
    rows = []
    for key, value in values.items():
        if value is None:
            rendered = "not reached"
        else:
            rendered = texts.get(key) or str(value)
        rows.append((key, rendered))
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key:<{width}}  {rendered}" for key, rendered in rows) + "\n"
