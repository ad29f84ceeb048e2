"""Deterministic CSV writing: fixed float formatting, fixed newlines."""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Iterable, Sequence


def _conversion(kind: type) -> str:
    """The %-conversion of a cell of type ``kind``: floats get 12 significant digits."""
    return "%.12g" if issubclass(kind, float) else "%s"


@lru_cache(maxsize=None)
def _row_format(kinds: tuple) -> str:
    """One %-string that formats a whole row of cells of these types, newline included."""
    return ",".join(map(_conversion, kinds)) + "\n"


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            # the key is built from a list: tuple(map(...)) resizes its tuple, and CPython's
            # tuple free list then keeps up to 2000 such keys alive
            fh.write(_row_format(tuple([*map(type, row)])) % row)
