"""Every library name the benchmark wraps or reads still exists."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    """``Tracer.install`` looks each name up with ``getattr`` on its module,
    or on its class for ``Class.method``; a renamed function would make the
    traced benchmark fail.  Resolved here the same way, without installing."""
    missing = []
    names = 0
    for _, module_name, attrs in load_tracer().TARGETS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            names += 1
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            target = getattr(holder, leaf, None) if holder is not None else None
            if not callable(target) or (owner and not inspect.isclass(holder)):
                missing.append(f"{module_name}.{attr}")
    assert not missing, missing
    assert names >= 40


def _import_name(module, name: str):
    """``from module import name``: an attribute, or else a submodule."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ImportError:
        return None


def _dotted(node: ast.Attribute):
    """(base name, attribute path) of a chain such as ``mp.normest.f``."""
    path = []
    while isinstance(node, ast.Attribute):
        path.append(node.attr)
        node = node.value
    return (node.id, path[::-1]) if isinstance(node, ast.Name) else (None, path)


def _roots(tree: ast.Module, where: str) -> tuple[dict, int, list[str]]:
    """Local names bound to a martpara module or object by the imports of
    ``tree``, how many ``from martpara... import`` names it has, and those
    that do not resolve."""
    roots, names, missing = {}, 0, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "martpara":
                    module = importlib.import_module(a.name)
                    roots[a.asname or "martpara"] = (
                        module if a.asname else importlib.import_module("martpara"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "martpara":
            module = importlib.import_module(node.module)
            for a in node.names:
                names += 1
                roots[a.asname or a.name] = target = _import_name(module, a.name)
                if target is None:
                    missing.append(f"{where}: from {node.module} import {a.name}")
    return roots, names, missing


def _resolve(node: ast.expr, roots: dict):
    """The martpara object a name or attribute chain reads, else None."""
    base, attrs = (node.id, []) if isinstance(node, ast.Name) else _dotted(node)
    target = roots.get(base)
    for attr in attrs:
        target = getattr(target, attr, None)
    return target


def test_every_perfbench_name_resolves():
    """The benchmark reads the library as ``mp.<name>``, ``mp.normest.<name>``,
    ``cli.<name>`` and through ``from martpara... import``; a renamed name
    would otherwise show only when the benchmark runs.  Every such import
    and every attribute chain read off a martpara name in ``perfbench/*.py``
    is resolved here with ``getattr``."""
    missing = []
    names = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        roots, imported, unresolved = _roots(tree, path.name)
        names += imported
        missing += unresolved
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or not isinstance(node.ctx, ast.Load):
                continue
            base, attrs = _dotted(node)
            if base not in roots or roots[base] is None:
                continue
            names += 1
            if _resolve(node, roots) is None:
                missing.append(f"{path.name}: {base}.{'.'.join(attrs)}")
    assert not missing, missing
    assert names >= 40


def test_every_perfbench_call_binds():
    """Each call the benchmark makes into martpara still fits its signature:
    the number of positional arguments and every keyword name are bound
    with ``inspect.signature(target).bind_partial``.  Calls are the direct
    ones (``mp.f(...)``, ``f(...)`` after ``from martpara import f``) and
    those run through ``attempt(out, label, fn, *args)``, which calls
    ``fn(*args)`` and records an exception as a failed operation."""
    unbound = []
    calls = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        roots = _roots(tree, path.name)[0]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee, args, keywords = node.func, node.args, node.keywords
            if isinstance(callee, ast.Attribute) and callee.attr == "attempt" and len(args) >= 3:
                callee, args, keywords = args[2], args[3:], []
            if not isinstance(callee, (ast.Name, ast.Attribute)):
                continue
            target = _resolve(callee, roots)
            if not callable(target) or not getattr(target, "__module__", "").startswith("martpara"):
                continue
            unpacked = any(isinstance(a, ast.Starred) for a in args)
            if unpacked or any(k.arg is None for k in keywords):
                continue  # an unpacked argument list has no count to check
            calls += 1
            try:
                inspect.signature(target).bind_partial(
                    *[None] * len(args), **{k.arg: None for k in keywords})
            except TypeError as exc:
                unbound.append(f"{path.name}:{node.lineno} {ast.unparse(callee)}: {exc}")
    assert not unbound, unbound
    assert calls >= 30
