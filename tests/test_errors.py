"""The package raises only its own error classes (errors.py), never a
builtin exception class such as ValueError or FloatingPointError."""

import ast
import builtins
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cluenet"


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
