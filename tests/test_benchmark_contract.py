"""The package names the benchmark under ``perfbench/`` uses must keep existing.

The benchmark imports the package with its own import lines and is run on each
committed tree, so a deleted or renamed name, or a dropped keyword it passes,
would first fail there. These tests parse those lines with ``ast`` and check
every name and keyword against the package, so the break shows here instead.
The last test does the same for the error text the benchmark tallies apart.
"""
import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from arrangerank.clickmodels import ClickModelSpec, oracle_permutation

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


def _calls():
    """(file name, call node, imported name, package object or None, the file's literal
    loops) of every call the benchmark makes to a name it imports from the package."""
    for source, tree in _trees():
        imported, loops = _imported(tree), _literal_loops(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in imported:
                module, name = imported[node.func.id]
                target = getattr(importlib.import_module(module), name, None)
                yield source, node, name, target, loops


def _literal_loops(tree) -> dict[str, set[str]]:
    """{loop variable: its string literals} of every ``for name in ("a", "b", ...)``."""
    loops: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, (ast.Tuple, ast.List))):
            loops.setdefault(node.target.id, set()).update(
                elt.value for elt in node.iter.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return loops


def _starred(node) -> bool:
    """A call whose argument count is not in the source."""
    return (any(isinstance(a, ast.Starred) for a in node.args)
            or any(kw.arg is None for kw in node.keywords))


def test_every_keyword_the_benchmark_passes_is_accepted():
    rejected = []
    for source, node, name, target, _ in _calls():
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
    for source, node, name, target, _ in _calls():
        if _starred(node) or target is None:
            continue  # reported by the import test if unresolved
        count += 1
        try:
            inspect.signature(target).bind(*[None] * len(node.args),
                                           **{kw.arg: None for kw in node.keywords})
        except TypeError as e:
            unbound.append(f"perfbench/{source}:{node.lineno}: {name}: {e}")
    assert count >= 80, "the parse found too few calls; has perfbench moved?"
    assert not unbound, unbound


def test_every_model_kind_the_benchmark_names_is_valid():
    """Each string literal that reaches a ``kind`` or ``model_kind`` parameter of a package
    function, itself or through a loop over literals, passes ``normalize_kind``; so every
    checkpoint the benchmark saves names a kind that ``load_model`` accepts."""
    from arrangerank.model import normalize_kind

    seen, rejected = set(), []
    for source, node, name, target, loops in _calls():
        if _starred(node) or not inspect.isfunction(target):
            continue  # a class such as ClickModelSpec, whose kind is a click model's
        try:
            bound = inspect.signature(target).bind(
                *node.args, **{kw.arg: kw.value for kw in node.keywords}).arguments
        except TypeError:
            continue  # reported by the binding test
        for param in ("kind", "model_kind"):
            arg = bound.get(param)
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                literals = {arg.value}
            else:
                literals = loops.get(arg.id, set()) if isinstance(arg, ast.Name) else set()
            for literal in sorted(literals):
                seen.add(literal)
                try:
                    normalize_kind(literal)
                except ValueError as e:
                    rejected.append(f"perfbench/{source}:{node.lineno}: {name}: {e}")
    assert {"starank", "pointwise_baseline", "pointwise"} <= seen, seen
    assert not rejected, rejected


def test_the_overflow_the_benchmark_tallies_apart_still_raises_its_message():
    """``oracle`` tallies the int64 tie-count overflow of 40-item slates apart by the text of
    ``checks.KNOWN_DEFECT``; under another message those calls would count as failed."""
    [known] = [node.value.value for node in ast.parse((BENCH / "checks.py").read_text()).body
               if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
               and [getattr(t, "id", None) for t in node.targets] == ["KNOWN_DEFECT"]]
    labels = dict(enumerate(np.random.default_rng(40).integers(0, 5, 40).tolist()))
    for metric in ("ndcg", ClickModelSpec(kind="pbm"), ClickModelSpec(kind="ubm")):
        with pytest.raises(ValueError) as raised:
            oracle_permutation(labels, metric, seed=1)
        assert known in str(raised.value), (metric, str(raised.value))
