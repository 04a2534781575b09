"""Shared exception types, and the JSON parse that names where a file breaks."""

import json


class FormatError(ValueError):
    """An input file does not conform to its declared format.

    The message names the offending byte offset (binary files) or line
    number (text files).
    """


class NumericError(ArithmeticError):
    """A computation produced non-finite values and was aborted."""


def parse_json(text: str, path: object, line: int = 1) -> object:
    """``json.loads(text)``, where ``text`` starts on ``line`` of ``path``; a
    syntax error raises FormatError naming the file, the line and the column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {line + exc.lineno - 1}: {exc.msg}: column {exc.colno}") from None
