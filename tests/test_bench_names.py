"""The names that the benchmark in cluebench/ reads from the package exist.

cluebench/ builds its network from the package's public functions and
patches some of them to time layers, so renaming or deleting one of them,
or one of their parameters, breaks the benchmark although every package
test still passes. These tests read cluebench/ and change nothing in it.
"""

import ast
import inspect

import pytest

from cluenet import container, gfc, icp, interpret, pfe
from cluenet import tensor as T

MODULES = {"gfc": gfc, "icp": icp, "interpret": interpret, "pfe": pfe,
           "container": container, "T": T}


def bench_names(root) -> set[tuple[str, str]]:
    """(module alias, attribute) of every ``gfc.X``-style read in cluebench/*.py."""
    found = set()
    for path in sorted((root / "cluebench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                found.add((node.value.id, node.attr))
    return found


def test_every_package_name_the_benchmark_reads_exists(bench_root):
    names = bench_names(bench_root)
    assert len(names) >= 40, f"found only {len(names)} names; did the scan break?"
    missing = [f"{mod}.{attr}" for mod, attr in sorted(names)
               if not hasattr(MODULES[mod], attr)]
    assert not missing, "cluebench reads names the package no longer has: " + ", ".join(missing)


def bench_calls(root) -> list[tuple[str, str, str, int, list[str]]]:
    """(file:line, module alias, attribute, positional count, keyword names)
    of every ``gfc.f(...)``-style call in cluebench/*.py. A call that unpacks
    ``*args`` or ``**kwargs`` has no count to check and is left out."""
    found = []
    for path in sorted((root / "cluebench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id in MODULES
                    and not any(isinstance(a, ast.Starred) for a in node.args)
                    and all(k.arg is not None for k in node.keywords)):
                found.append((f"{path.name}:{node.lineno}", node.func.value.id, node.func.attr,
                              len(node.args), [k.arg for k in node.keywords]))
    return found


def test_every_package_call_the_benchmark_makes_binds(bench_root):
    """Each call's positional count and keyword names fit the function's
    current signature, so a renamed keyword fails here, not in a benchmark run."""
    calls = bench_calls(bench_root)
    assert len(calls) >= 40 and sum(bool(kw) for *_, kw in calls) >= 11, \
        f"found only {len(calls)} calls; did the scan break?"
    unbound = []
    for where, mod, attr, npos, keywords in calls:
        try:
            inspect.signature(getattr(MODULES[mod], attr)).bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{where}: {mod}.{attr}: {exc}")
    assert not unbound, "cluebench calls the package in ways it no longer accepts:\n" + "\n".join(unbound)


@pytest.mark.usefixtures("bench_root")
def test_benchmark_tracer_finds_every_name_it_patches():
    """Entering the tracer looks up every function it wraps; leaving it
    puts the originals back."""
    from cluebench import model, spans

    before = {name: getattr(gfc, name) for name in spans._GFC_MARKS}
    with spans.Tracer(model.build(model.TINY)):
        assert gfc.project_queries is not before["project_queries"]
    assert {name: getattr(gfc, name) for name in spans._GFC_MARKS} == before
