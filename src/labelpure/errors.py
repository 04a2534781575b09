"""Shared exception types, the text read and JSON parse that name where a
file breaks, and the finiteness check of config fields."""

import dataclasses
import json
import math
import re
import sys
from pathlib import Path


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


def check_finite(config: object) -> None:
    """Refuse a dataclass whose float fields hold a NaN or an infinity."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def parse_json(text: str, path: object, line: int = 1) -> object:
    """``json.loads(text)``, where ``text`` starts on ``line`` of ``path``; a
    syntax error, or an integer with more digits than ``int`` converts, raises
    FormatError naming the file, the line and the column. A value nested deeper
    than the decoder's recursion allows raises FormatError naming ``line``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {line + exc.lineno - 1}: {exc.msg}: column {exc.colno}") from None
    except RecursionError:  # the decoder recurses once per nested array or object
        raise FormatError(f"{path}: line {line}: JSON nested too deeply") from None
    except ValueError:  # only int()'s digit limit, which names no position: find the first such integer
        limit = sys.get_int_max_str_digits()
        tokens = re.finditer(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?', text)  # strings and numbers
        at = next(m.start() for m in tokens if m[0].lstrip("-").isdigit() and len(m[0].lstrip("-")) > limit)
        line += text.count("\n", 0, at)
        column = at - text.rfind("\n", 0, at)
        raise FormatError(f"{path}: line {line}: integer with more than {limit} digits: column {column}") from None
