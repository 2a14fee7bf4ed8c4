"""The package raises only its own error classes (errors.py), never a
builtin exception class such as ValueError or FloatingPointError; and
every top-level name it defines is read somewhere, since code that
nothing calls is deleted; and every public op has a row in the op
catalogue (ops.py), whose operands of any rank it rejects with a typed error."""

import ast
import builtins
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from cluenet import gfc, pfe
from cluenet import tensor as T
from cluenet.errors import CluenetError
from ops import F64, OPS, build

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


def own_nodes(fn: ast.FunctionDef) -> list[ast.AST]:
    """The nodes of ``fn``'s body, not those of the functions it defines."""
    own, todo = [], list(fn.body)
    while todo:
        own.append(node := todo.pop())
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return own


def bare_backwards(source: str) -> list[tuple[int, str]]:
    """(line, name) of each nested function that a function in ``source``
    returns as it is, alone or in a tuple, not through ``once``. A returned
    call (``once(backward)``, ``chain(...)``) passes; ``once`` itself, which
    returns the wrapper, is exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "once":
            continue
        own = own_nodes(fn)
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


def public_ops(source: str) -> list[str]:
    """Names of the public top-level functions in ``source`` that return a
    tuple ending in a call of ``once`` or ``chain``: the ops that return
    (out, ..., backward)."""
    def backward_call(node):
        f = getattr(node, "func", None)
        return getattr(f, "id", getattr(f, "attr", None)) in ("once", "chain")
    return [fn.name for fn in ast.parse(source).body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            and any(isinstance(r, ast.Return) and isinstance(r.value, ast.Tuple) and backward_call(r.value.elts[-1])
                    for r in own_nodes(fn))]


def test_lint_finds_the_ops_that_return_a_backward():
    src = ("def op(x):\n    return x, T.once(lambda d: d)\ndef pair(x):\n    return x, x, chain(f, g)\n"
           "def _private(x):\n    return x, once(f)\ndef chain(*backs):\n    return once(f)\n"
           "def outer(x):\n    def inner(y):\n        return y, once(f)\n    return inner\n")
    assert public_ops(src) == ["op", "pair"]


def test_every_public_op_has_a_catalogue_row():
    """Each op of src/cluenet is the fn of a row of tests/ops.py, so every
    catalogue property covers it, and each row's fn is such an op."""
    found = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py")) for name in public_ops(path.read_text())}
    rows = {f"{op.fn.__module__.rsplit('.', 1)[-1]}.{op.fn.__name__}" for op in OPS.values()}
    assert found, f"no ops found under {PACKAGE}"
    assert found == rows, f"ops without a row: {sorted(found - rows)}; rows of no op: {sorted(rows - found)}"


def rank_cases() -> dict:
    """id: call given the rank under test. A case puts ones of that rank in
    place of one array or Parameter operand of an op, or of all its two or
    more array operands; the first row of an op that has those operands
    supplies the case, whose id is "<op> <operands>". Only the rank varies:
    the ones keep the (first) replaced operand's last axes, led by axes 2
    wide. Three cases keep their ids from before the catalogue. split_heads
    and merge_heads return no backward, so they are cases of their own."""
    def call(op, names):
        def run(rank):
            fn, operands = build(op, np.random.default_rng(0), F64)
            a = np.ones(((2,) * rank + operands[names[0]].shape)[len(operands[names[0]].shape):])
            return fn(**{**operands, **{k: T.Parameter(k, a) if isinstance(operands[k], T.Parameter) else a
                                        for k in names}})
        return run
    kept = {("init_centers", "p_map"): "init_centers", ("project_queries", "centers"): "project_queries",
            ("soft_aggregate_dot", "c_s and p_s and p_v"): "soft_aggregate dot product"}
    cases = {"split_heads": lambda r: gfc.split_heads(np.ones((2,) * r), 2),
             "merge_heads": lambda r: gfc.merge_heads(np.ones((2,) * r))}
    for op in OPS:
        fn, operands = build(op, np.random.default_rng(0), F64)
        arrays = [k for k, v in operands.items() if isinstance(v, np.ndarray)]
        groups = [[k] for k, v in operands.items() if isinstance(v, (np.ndarray, T.Parameter))]
        for names in groups + [arrays] * (len(arrays) > 1):
            label = " and ".join(names)
            cases.setdefault(kept.get((op, label), f"{fn.__name__} {label}"), call(op, names))
    return cases


RANK_CASES = rank_cases()


@pytest.mark.parametrize("rank", range(6))
@pytest.mark.parametrize("case", sorted(RANK_CASES))
def test_an_operand_of_any_rank_raises_only_typed_errors(case, rank):
    """An operand of the wrong rank is rejected with an errors.py class, not
    an IndexError, AxisError or TypeError from inside numpy."""
    try:
        RANK_CASES[case](rank)
    except CluenetError:
        pass


SIZED = {   # a call that passes the size n where sizes enter
    "adaptive_avg_pool2d": lambda n: T.adaptive_avg_pool2d(np.ones((1, 4, 4, 2)), n, 2),
    "init_centers": lambda n: gfc.init_centers(np.ones((1, 4, 4, 2)), n, 2),
    "block grid_hw": lambda n: gfc.make_gfc_params(np.random.default_rng(0), 8, 8, 2, (n, n)),
    "split_heads": lambda n: gfc.split_heads(np.ones((3, 8)), n),
    "block heads": lambda n: gfc.make_gfc_params(np.random.default_rng(0), 8, 8, n, (2, 2)),
    "make_grid": lambda n: pfe.make_grid(n, 3),
}
# a float, and a bool: an int to isinstance that numpy refuses as a size
NON_INTEGER_SIZES = {case + label: partial(call, n) for label, n in (("", 2.0), (" True", True))
                     for case, call in SIZED.items()}


@pytest.mark.parametrize("case", NON_INTEGER_SIZES)
def test_a_non_integer_size_raises_a_typed_error(case):
    """Not numpy's TypeError: "'float' object cannot be interpreted as an
    integer", or for a bool "an integer is required"."""
    with pytest.raises(CluenetError, match="integer"):
        NON_INTEGER_SIZES[case]()


@pytest.mark.parametrize(("case", "rank"), [
    ("linear x", 1), ("linear x", 5), ("linear w", 2), ("mlp2 x", 3), ("ffn x", 4), ("ffn w2", 2),
    ("project_queries", 3), ("gated_fuse c_v and c_agg", 3), ("soft_aggregate p_s", 4), ("patch_embed weight", 4)])
def test_a_rank_case_at_a_rank_its_op_accepts_runs_the_forward(case, rank):
    """The ones keep the operand's last axes, so they pass its width checks."""
    assert callable(RANK_CASES[case](rank)[-1])
