"""The package raises only its own error classes (errors.py), never a
builtin exception class such as ValueError or FloatingPointError; and
every top-level name it defines is read somewhere, since code that
nothing calls is deleted."""

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

from cluenet import gfc
from cluenet import tensor as T
from cluenet.errors import CluenetError

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cluenet"


def builtin_raises(source: str) -> list[tuple[int, str]]:
    """(line, name) of every ``raise`` of a builtin exception class in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue        # a bare ``raise`` re-raises what a handler caught
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else None
        obj = getattr(builtins, name, None) if name else None
        if isinstance(obj, type) and issubclass(obj, BaseException):
            found.append((node.lineno, name))
    return found


def test_lint_flags_builtin_raises():
    src = ("raise ValueError('x')\nraise KeyError\nraise FloatingPointError('y')\n"
           "raise FormatError('z') from exc\ntry:\n    pass\nexcept OSError:\n    raise\n")
    assert builtin_raises(src) == [(1, "ValueError"), (2, "KeyError"), (3, "FloatingPointError")]


def test_package_raises_only_typed_errors():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no package sources under {PACKAGE}"
    bad = [f"{path.name}:{line}: raise {name}"
           for path in sources
           for line, name in builtin_raises(path.read_text())]
    assert not bad, "builtin exceptions raised; use a class from errors.py:\n" + "\n".join(bad)


def bare_backwards(source: str) -> list[tuple[int, str]]:
    """(line, name) of each nested function that a function in ``source``
    returns as it is, alone or in a tuple, not through ``once``. A returned
    call (``once(backward)``, ``chain(...)``) passes; ``once`` itself, which
    returns the wrapper, is exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "once":
            continue
        own, todo = [], list(fn.body)       # fn's nodes, not those of the functions it defines
        while todo:
            own.append(node := todo.pop())
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))
        nested = {n.name for n in own if isinstance(n, ast.FunctionDef)}
        for ret in own:
            if isinstance(ret, ast.Return) and ret.value is not None:
                items = ret.value.elts if isinstance(ret.value, ast.Tuple) else [ret.value]
                found += [(ret.lineno, v.id) for v in items if isinstance(v, ast.Name) and v.id in nested]
    return sorted(found)


def test_lint_flags_a_backward_returned_without_once():
    src = ("def bare(x):\n    def backward(dy):\n        return dy\n    return x, backward\n"
           "def wrapped(x):\n    def backward(dy):\n        return dy\n    return x, T.once(backward)\n"
           "def chained(x):\n    def unpatch(d):\n        return d\n    return x, T.chain(unpatch, back)\n"
           "def once(backward):\n    def run(dy):\n        return backward(dy)\n    return run\n"
           "def alone(x):\n    def backward(dy):\n        return dy\n    return backward\n")
    assert bare_backwards(src) == [(4, "backward"), (20, "backward")]


def test_package_returns_every_backward_through_once():
    """A backward runs once and frees what it held (tensor.once), so no
    function in src/cluenet returns a nested function bare."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no package sources under {PACKAGE}"
    bad = [f"{path.name}:{line}: returns {name}"
           for path in sources
           for line, name in bare_backwards(path.read_text())]
    assert not bad, "nested functions returned without once:\n" + "\n".join(bad)


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class or assigned
    constants, dunders excepted."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and not (n.id.startswith("__") and n.id.endswith("__"))]


def unread_definitions(package: dict[str, str], others: dict[str, str]) -> list[tuple[str, int, str]]:
    """(file, line, name) of each name defined at the top level of a
    ``package`` source that no top-level statement of any source reads,
    its own definition excepted. A read is a loaded name or an attribute
    of that name (``T.linear``)."""
    defined, reads = [], []
    for path, source in {**package, **others}.items():
        for stmt in ast.parse(source).body:
            nodes = list(ast.walk(stmt))
            reads.append({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                         | {n.attr for n in nodes if isinstance(n, ast.Attribute)})
            if path in package:
                defined += [(path, stmt.lineno, name, len(reads) - 1) for name in defined_names(stmt)]
    return [(path, line, name) for path, line, name, own in defined
            if not any(name in names for i, names in enumerate(reads) if i != own)]


def test_lint_flags_unread_definitions():
    package = {"m.py": "def used():\n    pass\ndef recursive():\n    return recursive()\n"
                       "K = 1\n_L, __all__ = 2, []\nclass C:\n    pass\n"}
    others = {"t.py": "import m\nm.used()\nprint(_L)\n"}
    assert unread_definitions(package, others) == [("m.py", 3, "recursive"), ("m.py", 5, "K"),
                                                   ("m.py", 7, "C")]


def test_package_defines_no_unread_name():
    """What src/cluenet defines at top level is read in src/, tests/ or cluebench/."""
    package = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = {str(p.relative_to(ROOT)): p.read_text()
              for d in ("tests", "cluebench") for p in sorted((ROOT / d).glob("*.py"))}
    assert package and others, f"no sources under {ROOT}"
    unread = [f"{path}:{line}: {name}" for path, line, name in unread_definitions(package, others)]
    assert not unread, "defined but read nowhere; delete it:\n" + "\n".join(unread)


def _p(value):
    return T.Parameter("p", value)


def _gate():
    """Gate perceptron of a 2-wide block: 4 -> 2 -> 1."""
    return T.Mlp2Params(_p(np.ones((2, 4))), _p(np.zeros(2)), _p(np.ones((1, 2))), _p(np.zeros(1)))


_FFN = {"x": np.ones((1, 2, 2, 2)), "w1": np.ones((4, 2)), "b1": np.zeros(4),
        "dw": np.ones((3, 3, 4)), "w2": np.ones((2, 4)), "b2": np.zeros(2)}


def _ffn(**given):
    """T.ffn of a (1, 2, 2, 2) map through a 4-wide hidden map, ``given`` operands replaced."""
    ops = {**_FFN, **given}
    return T.ffn(ops["x"], *(_p(ops[k]) for k in ("w1", "b1", "dw", "w2", "b2")))


_ROWS = np.ones((1, 2, 2))       # (heads, rows, width) operand that fits every call below
RANK_CALLS = {   # id: call given an array ``a`` of the rank under test; the other operands fit
    "linear x": lambda a: T.linear(a, _p(np.ones((2, 2)))),
    "linear w": lambda a: T.linear(np.ones((1, 2)), _p(a)),
    "mlp2 x": lambda a: T.mlp2(a, T.Mlp2Params(_p(np.ones((2, 2))), _p(np.zeros(2)),
                                               _p(np.ones((2, 2))), _p(np.zeros(2)))),
    "ffn x": lambda a: _ffn(x=a),
    "ffn w1": lambda a: _ffn(w1=a),
    "ffn b1": lambda a: _ffn(b1=a),
    "ffn dw": lambda a: _ffn(dw=a),
    "ffn w2": lambda a: _ffn(w2=a),
    "ffn b2": lambda a: _ffn(b2=a),
    "cosine_sim a": lambda a: T.cosine_sim(a, _ROWS),
    "cosine_sim b": lambda a: T.cosine_sim(_ROWS, a),
    "cosine_sim a and b": lambda a: T.cosine_sim(a, a),
    "split_heads": lambda a: gfc.split_heads(a, 2),
    "merge_heads": lambda a: gfc.merge_heads(a),
    "init_centers": lambda a: gfc.init_centers(a, 1, 1),
    "soft_aggregate c_s": lambda a: gfc.soft_aggregate(a, _ROWS, _ROWS, _p(np.zeros(()))),
    "soft_aggregate p_s": lambda a: gfc.soft_aggregate(_ROWS, a, _ROWS, _p(np.zeros(()))),
    "soft_aggregate p_v": lambda a: gfc.soft_aggregate(_ROWS, _ROWS, a, _p(np.zeros(()))),
    "soft_aggregate tau_raw": lambda a: gfc.soft_aggregate(_ROWS, _ROWS, _ROWS, _p(a)),
    "soft_aggregate dot product": lambda a: gfc.soft_aggregate(a, a, a, None),
    "gated_fuse c_v": lambda a: gfc.gated_fuse(a, _ROWS, _gate()),
    "gated_fuse c_agg": lambda a: gfc.gated_fuse(_ROWS, a, _gate()),
    "gated_fuse c_v and c_agg": lambda a: gfc.gated_fuse(a, a, _gate()),
    "project_queries": lambda a: gfc.project_queries(a, _p(np.ones((2, 2))), 2),
    "compute_assignment p_s": lambda a: gfc.compute_assignment(a, _ROWS, 1.0, 0.0),
    "compute_assignment q": lambda a: gfc.compute_assignment(_ROWS, a, 1.0, 0.0),
    "compute_assignment p_s and q": lambda a: gfc.compute_assignment(a, a, 1.0, 0.0),
}


@pytest.mark.parametrize("rank", range(6))
@pytest.mark.parametrize("call", sorted(RANK_CALLS))
def test_an_operand_of_any_rank_raises_only_typed_errors(call, rank):
    """An operand of the wrong rank is rejected with an errors.py class, not
    an IndexError, AxisError or TypeError from inside numpy."""
    try:
        RANK_CALLS[call](np.ones((2,) * rank))
    except CluenetError:
        pass
