"""Shared exception types, the text read and JSON parse that name where a
file breaks, the characters a hand-written index may hold and the whitespace
it is stripped of, the kind test of a JSON value, and the bound check of config
values. Standard library only, so the command line checks inputs before numpy loads."""

import json
import math
import re
import sys
from pathlib import Path

# The characters a label file or class map may hold: ASCII whitespace and the
# printable ASCII characters other than "_". int() alone reads '٣' as 3 and
# '1_0' as 10; str.strip() takes \x1c-\x1f too, so such text strips ASCII_WHITESPACE.
LABEL_TEXT = re.compile(r"[\t\n\x0b\x0c\r\x20-\x5e\x60-\x7e]*")
ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


class FormatError(ValueError):
    """An input file does not conform to its declared format.

    The message names the offending byte offset (binary files) or line
    number (text files).
    """


class NumericError(ArithmeticError):
    """A computation produced non-finite values and was aborted."""


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path`` with its newlines read as ``open`` reads them
    (``\r\n`` and ``\r`` become ``\n``). Bytes that are not UTF-8 raise
    FormatError naming the file and the line they are on."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = _universal_newlines(raw[: exc.start].decode("utf-8")).count("\n") + 1
        raise FormatError(f"{path}: line {line}: not UTF-8 text") from None
    return _universal_newlines(text)


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def json_is(value: object, kind: type) -> bool:
    """Whether a parsed JSON ``value`` is of ``kind`` exactly: true is no
    integer, while a float takes an integer, as JSON may write 1.0 as 1."""
    return type(value) in ((int, float) if kind is float else (kind,))


def check_config(values: dict, *, positive=(), nonnegative=(), unit=(), at_least=None) -> None:
    """Refuse the first of ``values`` (name -> value, in order) that is a NaN or
    infinite float, or breaks its bound: the names in ``positive`` must be > 0,
    in ``nonnegative`` >= 0, in ``unit`` within [0, 1], and each name in
    ``at_least`` no less than the number it maps to."""
    at_least = at_least or {}
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            rule = "be finite"
        elif name in positive and not value > 0:
            rule = "be positive"
        elif name in nonnegative and not value >= 0:
            rule = "be nonnegative"
        elif name in unit and not 0 <= value <= 1:
            rule = "lie in [0, 1]"
        elif name in at_least and not value >= at_least[name]:
            rule = f"be >= {at_least[name]}"
        else:
            continue
        raise ValueError(f"{name} must {rule}, got {value}")


def parse_json(text: str, path: object, line: int = 1) -> object:
    """``json.loads(text)``, where ``text`` starts on ``line`` of ``path``; a
    syntax error, or an integer with more digits than ``int`` converts, raises
    FormatError naming the file, the line and the column. A value nested deeper
    than the decoder's recursion allows raises FormatError naming the line on
    which the text first reaches its deepest nesting."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {line + exc.lineno - 1}: {exc.msg}: column {exc.colno}") from None
    except (RecursionError, ValueError) as exc:  # neither names a position: scan strings, numbers and brackets
        tokens = re.finditer(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|[][{}]', text)
        if isinstance(exc, RecursionError):  # the decoder recurses once per nested array or object
            depth = deepest = at = 0
            for m in tokens:
                depth += {"[": 1, "{": 1, "]": -1, "}": -1}.get(m[0], 0)
                if depth > deepest:
                    deepest, at = depth, m.start()
            problem = "JSON nested too deeply"
        else:  # only int()'s digit limit: find the first such integer
            limit = sys.get_int_max_str_digits()
            at = next(m.start() for m in tokens if m[0].lstrip("-").isdigit() and len(m[0].lstrip("-")) > limit)
            column = at - text.rfind("\n", 0, at)
            problem = f"integer with more than {limit} digits: column {column}"
        line += text.count("\n", 0, at)
        raise FormatError(f"{path}: line {line}: {problem}") from None
