"""The public API: every exported name resolves, the benchmark's traced
names exist, the sweep engine stays apart from the scenarios, and the
README's library example runs as documented."""

import ast
import contextlib
import importlib
import importlib.util
import io
import pkgutil
import re
from pathlib import Path

import specx

ROOT = Path(__file__).resolve().parents[1]


def _modules():
    return [
        importlib.import_module(f"specx.{info.name}")
        for info in pkgutil.iter_modules(specx.__path__)
        if info.name != "__main__"  # runs the CLI on import
    ]


def _tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_specx_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_layers_exist():
    """perfbench's tracer wraps each LAYERS name on specx.<layer> and fails
    on a missing one, so a deleted name breaks every traced run."""
    tracer = _tracer()
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"specx.{layer}"), name, None))
    ]
    assert missing == []


def test_every_all_entry_resolves():
    modules = _modules()
    assert {m.__name__ for m in modules} >= {"specx.pipeline", "specx.sensing"}
    missing = [
        f"{m.__name__}.{name}"
        for m in modules
        for name in getattr(m, "__all__", ())
        if not hasattr(m, name)
    ]
    assert missing == []


def test_engine_imports_no_specx_module():
    """The sweep engine knows no scenario: it imports no specx module, and
    specx exports its WorkerDied."""
    engine = importlib.import_module("specx.engine")
    tree = ast.parse(Path(engine.__file__).read_text())
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        "." * node.level + (node.module or "") for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ]
    assert [name for name in imported if name.split(".")[0] in ("", "specx")] == []
    assert specx.WorkerDied is engine.WorkerDied


def test_every_exported_name_has_a_user():
    """Each name in a specx module's __all__ is used in specx outside its
    own definition, traced by perfbench, or named in the README, so a
    public helper that only tests call does not linger. Imports and
    __all__ entries are not uses."""
    used, exported = set(), []
    for path in sorted(Path(specx.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)  # a def or class does not use itself
            used |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))
            } - {own}
            targets = [getattr(t, "id", None) for t in getattr(stmt, "targets", ())]
            if targets == ["__all__"]:
                exported += [(path.stem, entry.value) for entry in stmt.value.elts]
    traced = {name for names in _tracer().LAYERS.values() for name in names}
    readme = (ROOT / "README.md").read_text()
    orphans = [
        f"{module}.{name}" for module, name in exported
        if name not in used | traced and not re.search(rf"\b{name}\b", readme)
    ]
    assert orphans == []


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[0] == "[14, 26]"
