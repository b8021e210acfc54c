"""Canonical JSON instance files.

Format: {"n": int, "m": int, "utilities": [[rational strings]]} where a
rational string is an optional '-', digits, and an optional '/denominator'
with a positive denominator. Writing is canonical (lowest terms, fixed key
order, two-space indent), so write(parse(write(x))) == write(x).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .errors import ParseError
from .model import Instance, validate_instance

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z")


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ParseError(f"invalid rational {text!r}")
    numerator, _, denominator = text.partition("/")
    try:
        # int() refuses strings past the interpreter's digit limit
        p, q = int(numerator), int(denominator or "1")
    except ValueError as exc:
        raise ParseError(f"rational of {len(text)} characters: {exc}") from exc
    if q == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(p, q)


def format_rational(value: Fraction) -> str:
    return str(value)


def parse_instance_file(text: str) -> Instance:
    """Parse and fully validate an instance file; errors carry locations."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # integers past the digit limit, nesting past the recursion limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    for key in ("n", "m", "utilities"):
        if key not in data:
            raise ParseError(f"missing key {key!r}")
    n, m, utilities = data["n"], data["m"], data["utilities"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("'n' must be an integer")
    if not isinstance(m, int) or isinstance(m, bool):
        raise ParseError("'m' must be an integer")
    if not isinstance(utilities, list) or len(utilities) != n:
        raise ParseError(f"'utilities' must be a list of {n} rows")
    rows = []
    for i, row in enumerate(utilities, start=1):
        if not isinstance(row, list) or len(row) != m:
            raise ParseError(f"utilities row {i} must have {m} entries")
        parsed = []
        for j, cell in enumerate(row, start=1):
            try:
                parsed.append(parse_rational(cell))
            except ParseError as exc:
                raise ParseError(f"utilities[{i}][{j}]: {exc}") from exc
        rows.append(parsed)
    return validate_instance(rows)


def write_instance_file(inst: Instance) -> str:
    payload = {
        "n": inst.n,
        "m": inst.m,
        "utilities": [[format_rational(x) for x in row] for row in inst.u],
    }
    return json.dumps(payload, indent=2) + "\n"


def load_instance(path: str | Path) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: byte {exc.start} {exc.reason}") from exc
    return parse_instance_file(text)


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(write_instance_file(inst), encoding="utf-8")
