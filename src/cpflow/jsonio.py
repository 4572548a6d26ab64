"""Deterministic JSON emission.

Floats are printed with 17 significant digits so every double round-trips
losslessly and identical runs produce identical bytes. Dicts keep insertion
order; callers are responsible for building them in a fixed order.
"""

import math

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    s = "%.17g" % x
    return s


# a quote and a backslash take a backslash, a control below 0x20 becomes \u00XX
_ESCAPES = {**{c: "\\u%04x" % c for c in range(0x20)}, ord('"'): '\\"', ord("\\"): "\\\\"}


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


def dumps(obj, indent: int = 0, _level: int = 0) -> str:
    """Serialize nested dict/list/scalar structures deterministically."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return '"%s"' % _escape(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        items = [
            '"%s": %s' % (_escape(str(k)), dumps(v, indent, _level + 1))
            for k, v in obj.items()
        ]
        return _wrap("{", items, "}", indent, _level)
    if isinstance(obj, (list, tuple)):
        items = [dumps(v, indent, _level + 1) for v in obj]
        return _wrap("[", items, "]", indent, _level)
    raise TypeError("cannot serialize %r" % type(obj))


def _wrap(opener, items, closer, indent, level):
    if not items:
        return opener + closer
    if indent <= 0:
        return opener + ", ".join(items) + closer
    pad = " " * (indent * (level + 1))
    end = " " * (indent * level)
    return opener + "\n" + (",\n").join(pad + it for it in items) + "\n" + end + closer
