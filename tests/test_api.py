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

import numpy as np
import pytest

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


def test_only_frozen_sets_writeable_flags():
    """Every array a value object, cache or shared set-up holds is frozen by
    freqs.frozen, so it is the one place that switches writeable off."""
    owners = []
    for path in sorted(Path(specx.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
                sets = any(isinstance(t, ast.Attribute) and t.attr == "writeable" for t in targets)
                if sets or isinstance(node, ast.Attribute) and node.attr == "setflags":
                    owners.append((path.stem, getattr(stmt, "name", None)))
    assert owners == [("freqs", "frozen")]


_GRID = specx.GridSpec(f_nyq=4.0, f_p=1.0, f_s=1.0, n_grid=2)
_SHAPE = (_GRID.n_slices, _GRID.n_grid)
_VALUE_OBJECTS = {
    "RemGrid": (lambda x: specx.RemGrid(x, 1.0), "energies", np.array([1.0, 2.0])),
    "MappingMatrix": (specx.MappingMatrix, "d", np.eye(2)),
    "BlockSparseVector": (lambda x: specx.BlockSparseVector(x, 1.0), "w", np.array([0.0, 1.0])),
    "MixingSequenceSet": (specx.MixingSequenceSet, "signs", np.array([[1, -1], [-1, 1]])),
    "SensingMatrix": (specx.SensingMatrix, "a", np.ones((2, 2), complex)),
    "ChannelSamples": (lambda x: specx.ChannelSamples(x, _GRID), "z", np.ones((3, 2), complex)),
    "FrameMatrix": (specx.FrameMatrix, "v", np.ones((2, 2), complex)),
    "SliceEstimate": (
        lambda x: specx.SliceEstimate(x, specx.SliceSupport(), _GRID), "x_hat", np.ones(_SHAPE)
    ),
    "FocusedMatrix": (
        lambda x: specx.FocusedMatrix(x, np.array([0.0, 1.0]), 1.0), "psi", np.ones((2, 2))
    ),
    "SliceSpectrum": (lambda x: specx.SliceSpectrum(x, _GRID), "values", np.ones(_SHAPE)),
    "RadarWaveformSpec": (
        lambda x: specx.RadarWaveformSpec(2.0, specx.FrequencySet([(-0.5, 0.5)]), 1.0, x, 1.0),
        "base_spectrum",
        np.ones(4),
    ),
    "TargetScene": (
        lambda x: specx.TargetScene(x, np.zeros(2), np.ones(2)), "delays", np.array([1.0, 2.0])
    ),
}


@pytest.mark.parametrize("name", sorted(_VALUE_OBJECTS))
def test_array_value_objects_hold_frozen_copies_and_compare_by_identity(name):
    """A value object over arrays hashes, equals itself and differs from a
    twin built from the same input, without comparing arrays; it holds a
    read-only copy that its caller's later writes do not reach."""
    build, field, given = _VALUE_OBJECTS[name]
    source = given.copy()
    x = build(source)
    assert hash(x) == hash(x) and x == x
    twin = build(source)
    assert x != twin and not x == twin
    source.fill(7)
    held = getattr(x, field)
    assert np.array_equal(held, given)
    assert not held.flags.writeable


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
