"""No module imports a name at top level that nothing in it reads, and only
``restuner.tensor`` touches the autodiff graph's internals."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# ``__init__.py`` is left out: its imports are the package's re-exported API.
MODULES = [p for p in sorted((ROOT / "src" / "restuner").glob("*.py")) if p.name != "__init__.py"]
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression reads.

    ``from __future__`` imports are directives, not bindings, and are skipped.
    """
    tree = ast.parse(source)
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound += [a.asname or a.name for a in stmt.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_scanner_finds_unused_and_ignores_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import pi, tau as t\n"
        "def f(x: pi) -> None:\n    return os.sep\n"
    )
    assert unused_imports(source) == ["j", "t"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


GRAPH_INTERNALS = {"_make", "_accumulate", "_vertex"}
# every package module but the engine, ``__init__.py`` included
OUTSIDE_ENGINE = [p for p in sorted((ROOT / "src" / "restuner").glob("*.py")) if p.name != "tensor.py"]


def graph_internals(source: str) -> set:
    """The names in GRAPH_INTERNALS that the module imports, reads, binds or
    accesses as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found & GRAPH_INTERNALS


def test_graph_scanner_finds_imports_names_and_attributes():
    source = "from .tensor import _make as m\nT._accumulate(t._vertex, g)\n_accumulated = 1\n"
    assert graph_internals(source) == GRAPH_INTERNALS


@pytest.mark.parametrize("path", OUTSIDE_ENGINE, ids=lambda p: p.name)
def test_only_the_engine_touches_graph_internals(path):
    assert graph_internals(path.read_text()) == set()


def test_eval_imports_neither_numpy_random_nor_scipy(tmp_path):
    """``restuner eval`` loads a checkpoint without drawing a weight it would
    overwrite, so it never imports ``numpy.random`` (whose first generator
    costs about 5.5 MiB of peak RSS), nor scipy."""
    import os
    import subprocess
    import sys

    import numpy as np

    from restuner.backbone import BackboneConfig, build_backbone
    from restuner.data_io import Dataset, save_binary_dataset, save_checkpoint
    from restuner.tuners import AttachSpec, attach

    model = build_backbone(BackboneConfig(dim=8, depth=1, heads=2, patch=4, image_size=8))
    attach(model, [AttachSpec(0, "mha", "res_attn"), AttachSpec(0, "ffn", "adapter"),
                   AttachSpec(0, "block", "prefix")])
    save_checkpoint(model, tmp_path / "m.rtck")
    images = np.linspace(-1.0, 1.0, 4 * 64, dtype=np.float32).reshape(4, 1, 8, 8)
    save_binary_dataset(Dataset(images, np.arange(4) % 4, 4), tmp_path / "d.rtds")
    probe = (
        "import sys\nfrom restuner import cli\n"
        f"code = cli.main(['eval', '--checkpoint', {str(tmp_path / 'm.rtck')!r}, '--data', {str(tmp_path / 'd.rtds')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m == 'numpy.random' or m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == "0 []", out.stdout
