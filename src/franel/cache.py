"""On-disk cache for Franel tables.

Format: ASCII text, a header line ``franel-cache v1 N=<max-index>``
followed by one ``<n>\\t<decimal f_n>`` record per line, indices contiguous
from 0, every line (the last one too) ended by LF, and no other line break
taken.  N and both fields of a record are plain decimals: digits only, with
no sign, space or ``_``.  Every value is re-validated against the
recurrence on load, so a corrupt entry is caught, and its line named,
before it poisons every congruence above it.
"""
from __future__ import annotations

import os
import re
import tempfile
from collections.abc import Sequence

from .combinatorics import recurrence_rhs
from .reports import long_decimals

HEADER_PREFIX = "franel-cache v1 N="
# checked before int(), which also takes whitespace, a sign and "_"
_DECIMAL = re.compile(r"[0-9]+")


class CacheError(ValueError):
    """Malformed or corrupt cache file."""


def store_table(path: str, values: Sequence[int]) -> None:
    """Write (f_0, ..., f_N) atomically: temp file in the same directory,
    then rename."""
    if not values:
        raise ValueError("empty table")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".franel-cache-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh, long_decimals():
            fh.write(f"{HEADER_PREFIX}{len(values) - 1}\n")
            for n, value in enumerate(values):
                fh.write(f"{n}\t{value}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_table(path: str) -> tuple[int, ...]:
    try:
        # newline="" keeps CR bytes, so only LF separates lines
        with open(path, "r", encoding="ascii", newline="") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise CacheError("non-ASCII bytes") from None
    if not lines[0].startswith(HEADER_PREFIX):
        raise CacheError("missing header")
    if lines.pop():
        raise CacheError("no LF at the end of the last line")
    n_field = lines[0][len(HEADER_PREFIX):]
    if not _DECIMAL.fullmatch(n_field):
        raise CacheError("malformed header")
    n_max = int(n_field)

    records = lines[1:]
    if len(records) != n_max + 1:
        raise CacheError(
            f"expected {n_max + 1} records, found {len(records)}"
        )
    values: list[int] = []
    with long_decimals():
        for i, line in enumerate(records):
            parts = line.split("\t")
            if len(parts) != 2:
                raise CacheError(f"malformed record (line {i + 2})")
            if not all(_DECIMAL.fullmatch(part) for part in parts):
                raise CacheError(f"non-decimal record (line {i + 2})")
            idx, value = int(parts[0]), int(parts[1])
            if idx != i:
                raise CacheError(f"non-contiguous index {idx} (line {i + 2})")
            values.append(value)

    # seed values, then every recurrence step; line n + 2 holds f_n
    if values[0] != 1:
        raise CacheError("f_0 must be 1 (line 2)")
    if n_max >= 1 and values[1] != 2:
        raise CacheError("f_1 must be 2 (line 3)")
    for n in range(1, n_max):
        lhs = (n + 1) * (n + 1) * values[n + 1]
        if lhs != recurrence_rhs(n, values[n - 1], values[n]):
            raise CacheError(
                f"recurrence violated at index {n + 1} (line {n + 3})"
            )
    return tuple(values)
