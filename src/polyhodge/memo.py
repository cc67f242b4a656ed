"""One registry for every memo table of the library.

Each table is a plain dict registered under a name in ``TABLES``.  One-key
function memos use the ``memo`` decorator; hulls and interned complexes use
``table`` directly.  Entries are never evicted (each table is bounded by the
input); ``clear()`` empties them all.

A key only has to determine the value.  The lattice invariants of a polytope
(``H_STAR``, ``LOCAL_H_STAR``, ``MIXED``, ``HODGE_DELIGNE_UV``) are keyed by
its translation class, ``LatticePolytope.shape``; the values of a
subdivision (``TOWER``, ``NEARBY_FIBER_E``, ``DK_CACHE``) by
``CellComplex.key``; ``TORUS`` by the pair (x, d) of ``hodge._e_from_h``.
"""

from __future__ import annotations

from functools import wraps

TABLES: dict[str, dict] = {}


def table(name: str) -> dict:
    """The table registered as ``name``, created on first use."""
    return TABLES.setdefault(name, {})


def memo(name: str, key):
    """Store ``fn(arg)`` in ``table(name)`` under ``key(arg)``."""
    cache = table(name)

    def decorate(fn):
        @wraps(fn)
        def wrapper(arg):
            k = key(arg)
            out = cache.get(k)
            if out is None:
                out = cache[k] = fn(arg)
            return out

        return wrapper

    return decorate


def clear() -> None:
    """Empty every table; the tables stay registered."""
    for t in TABLES.values():
        t.clear()
