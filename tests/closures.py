"""What a backward closure keeps alive: the arrays in its cells."""

import numpy as np


def closure_arrays(fn):
    """The distinct ndarrays that ``fn``'s closure cells hold, each resolved
    to the array that owns its memory: a view counts as its base, and a
    strided view (``sliding_window_view``) as the array under its buffer.

    Nested functions held in a cell (inner backward closures, helpers), and
    lists or tuples of them, are walked too. Arrays inside other objects,
    such as a ``Parameter``'s value, are not counted: they outlive the
    closure anyway.
    """
    held, seen, todo = {}, set(), [fn]
    while todo:
        f = todo.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        values = []
        for cell in f.__closure__ or ():
            try:
                values.append(cell.cell_contents)
            except ValueError:        # a cell not yet bound
                pass
        while values:
            v = values.pop()
            if isinstance(v, np.ndarray):
                while (base := _owner(v)) is not None:
                    v = base
                held[id(v)] = v
            elif isinstance(v, (list, tuple)):
                values.extend(v)
            elif hasattr(v, "__closure__"):
                todo.append(v)
    return list(held.values())


def _owner(a):
    """The ndarray ``a`` views, if any; as_strided puts a plain object
    holding it between a strided view and its array."""
    base = a.base
    if not isinstance(base, np.ndarray):
        base = getattr(base, "base", None)
    return base if isinstance(base, np.ndarray) else None
