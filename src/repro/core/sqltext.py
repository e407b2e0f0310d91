"""SQL text for the expressions the cleaning operators build (DESIGN §3).

Each Column operator (``alias``, ``cast``, ``>``, ``F.col``) costs its
own Python-to-JVM round trips, about a dozen in PySpark 4.1, while a whole
expression given as SQL text (``F.expr``, ``selectExpr``, ``where(str)``)
is sent in a few.  The
operators therefore write their fixed-shape expressions as text, and only
two kinds of value are rendered into it: identifiers, and numbers the code
computed itself (bucket bounds, world ids).  Values that come from a query
or from the data stay ``F.lit`` Columns.
"""
from __future__ import annotations

import math
from numbers import Integral, Real


def ident(name: str) -> str:
    """``name`` as a SQL identifier: backtick-quoted, inner backticks doubled."""
    return "`" + name.replace("`", "``") + "`"


def name_lit(name: str) -> str:
    """A column name as a SQL string literal (quotes and backslashes escaped)."""
    return "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"


def num(x: Integral | Real) -> str:
    """A computed number as a SQL literal that Spark reads back bit for bit.

    An integer is an integral literal.  A float is a double literal (the
    ``D`` suffix: without it Spark reads ``0.1`` as a decimal) in Python's
    shortest round-tripping ``repr``; ``inf``, ``-inf`` and ``nan`` have no
    literal and are cast from their text.  A negative literal is
    parenthesized, so it is one operand wherever it is placed.
    """
    if isinstance(x, bool) or not isinstance(x, Real):
        raise TypeError(f"not a number to render as SQL: {x!r}")
    if isinstance(x, Integral):
        text = str(int(x))
    else:
        x = float(x)
        if not math.isfinite(x):
            return f"CAST('{x!r}' AS DOUBLE)"
        text = f"{x!r}D"
    return f"({text})" if text.startswith("-") else text
