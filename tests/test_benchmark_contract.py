"""The package names the benchmark under ``perfbench/`` uses must keep existing.

The benchmark imports the package with its own import lines and is run on each
committed tree, so a deleted or renamed name, or a dropped keyword it passes,
would first fail there. These tests parse those lines with ``ast`` and check
every name and keyword against the package, so the break shows here instead.
"""
import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trees():
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in sorted(BENCH.glob("*.py"))]


def _imported(tree) -> dict[str, tuple[str, str]]:
    """{local name: (module, name)} of every ``from arrangerank... import`` in a file."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("arrangerank"):
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


def test_every_name_the_benchmark_imports_resolves():
    missing, count = [], 0
    for source, tree in _trees():
        for module, name in _imported(tree).values():
            count += 1
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"perfbench/{source}: {module}.{name}")
    assert count >= 30, "the parse found too few imports; has perfbench moved?"
    assert not missing, missing


def test_every_keyword_the_benchmark_passes_is_accepted():
    rejected = []
    for source, tree in _trees():
        imported = _imported(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in imported):
                continue
            module, name = imported[node.func.id]
            target = getattr(importlib.import_module(module), name, None)
            if target is None:
                continue  # reported by the import test
            params = inspect.signature(target).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            for kw in node.keywords:
                if kw.arg is not None and kw.arg not in params:
                    rejected.append(f"perfbench/{source}:{node.lineno}: {name}({kw.arg}=...)")
    assert not rejected, rejected


def test_every_call_the_benchmark_makes_binds_to_its_signature():
    unbound, count = [], 0
    for source, tree in _trees():
        imported = _imported(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in imported):
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(kw.arg is None for kw in node.keywords)):
                continue  # a starred call's argument count is not in the source
            module, name = imported[node.func.id]
            target = getattr(importlib.import_module(module), name, None)
            if target is None:
                continue  # reported by the import test
            count += 1
            try:
                inspect.signature(target).bind(*[None] * len(node.args),
                                               **{kw.arg: None for kw in node.keywords})
            except TypeError as e:
                unbound.append(f"perfbench/{source}:{node.lineno}: {name}: {e}")
    assert count >= 80, "the parse found too few calls; has perfbench moved?"
    assert not unbound, unbound
