"""The names that the benchmark in cluebench/ reads from the package exist.

cluebench/ builds its network from the package's public functions and
patches some of them to time layers, so renaming or deleting one of them
breaks the benchmark although every package test still passes. These
tests read cluebench/ and change nothing in it.
"""

import ast

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


@pytest.mark.usefixtures("bench_root")
def test_benchmark_tracer_finds_every_name_it_patches():
    """Entering the tracer looks up every function it wraps; leaving it
    puts the originals back."""
    from cluebench import model, spans

    before = {name: getattr(gfc, name) for name in spans._GFC_MARKS}
    with spans.Tracer(model.build(model.TINY)):
        assert gfc.project_queries is not before["project_queries"]
    assert {name: getattr(gfc, name) for name in spans._GFC_MARKS} == before
