"""No module imports a name at top level that nothing in it reads, only
``restuner.tensor`` touches the autodiff graph's internals,
``backbone.py`` branches on no tuner kind, ``backbone.py`` alone
decides that the backbone is frozen and builds a model, ``tuners.py``
alone orders a model's tuners, and ``backbone.py`` alone decides how much
of a batch a forward that records nothing holds."""

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
PACKAGE = sorted((ROOT / "src" / "restuner").glob("*.py"))
# every package module but the engine, ``__init__.py`` included
OUTSIDE_ENGINE = [p for p in PACKAGE if p.name != "tensor.py"]


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


def tuner_names(source: str, kinds, classes) -> set:
    """The tuner class names the module reads, binds or imports, and the
    string constants in it that are tuner kinds."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in classes:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in classes:
            found.add(node.attr)
        elif isinstance(node, ast.alias) and node.name in classes:
            found.add(node.name)
        elif isinstance(node, ast.Constant) and node.value in kinds:
            found.add(node.value)
    return found


def test_tuner_scanner_finds_classes_and_kind_strings():
    source = (
        "from .tuners import PrefixTuner as P\n"
        "if t.kind == 'prompt' or isinstance(t, tuners.AdapterTuner):\n    ResAttnTuner\n"
        "x = 'prefix_len', 'mha'\n"
    )
    assert tuner_names(source, {"prompt", "prefix"}, {"PrefixTuner", "AdapterTuner", "ResAttnTuner"}) == {
        "PrefixTuner", "prompt", "AdapterTuner", "ResAttnTuner"}


def test_backbone_branches_on_no_tuner_kind():
    """``block_forward`` hands each tuner the input its class declares, so
    per-kind branching stays in ``tuners.py``: ``backbone.py`` names no
    tuner subclass and no kind string."""
    from restuner.tuners import TUNERS

    classes = {cls.__name__ for cls in TUNERS.values()}
    source = (ROOT / "src" / "restuner" / "backbone.py").read_text()
    assert tuner_names(source, set(TUNERS), classes) == set()


def freeze_decisions(source: str) -> list[str]:
    """Where the module decides what trains: each function that takes a
    ``trainable`` parameter, and each assignment of ``False`` to a
    ``.requires_grad`` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p]
            if "trainable" in params:
                found.append(f"{getattr(node, 'name', 'lambda')}(trainable)")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if isinstance(node.value, ast.Constant) and node.value.value is False:
                found += ["requires_grad = False" for t in targets
                          if isinstance(t, ast.Attribute) and t.attr == "requires_grad"]
    return found


def test_freeze_scanner_finds_trainable_parameters_and_false_assignments():
    source = (
        "def f(x, *, trainable=True):\n    pass\n"
        "class L:\n    def __init__(self, dim, trainable: bool = True):\n        pass\n"
        "g = lambda trainable: trainable\n"
        "p.requires_grad = q.requires_grad = False\n"
        "p.requires_grad = True\np.requires_grad = flag\nrequires_grad = False\n"
        "def h(x, freeze=False):\n    return Tensor(x, requires_grad=False)\n"
    )
    assert sorted(freeze_decisions(source)) == [
        "__init__(trainable)", "f(trainable)", "lambda(trainable)",
        "requires_grad = False", "requires_grad = False",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_model_freezes_its_backbone(path):
    """No layer takes a ``trainable`` flag: every parameter builds
    trainable, and ``ModelGraph`` freezes the backbone in one loop."""
    expected = ["requires_grad = False"] if path.name == "backbone.py" else []
    assert freeze_decisions(path.read_text()) == expected


BUILDERS = {"ModelGraph", "attach"}


def builder_calls(source: str) -> list[str]:
    """Each call in the module of a name in BUILDERS, bare or as an attribute."""
    calls = [node.func for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    names = [f.id if isinstance(f, ast.Name) else getattr(f, "attr", None) for f in calls]
    return [name for name in names if name in BUILDERS]


def test_builder_scanner_finds_bare_and_attribute_calls():
    source = "m = ModelGraph(cfg, None)\ntuners.attach(m, [])\nf = attach\nModelGraph.features(m, x)\n"
    assert builder_calls(source) == ["ModelGraph", "attach"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_build_backbone_builds_a_model(path):
    """``build_backbone`` is the one builder of a model and its tuners: no
    other package module constructs ``ModelGraph`` or calls ``attach``."""
    expected = ["ModelGraph", "attach"] if path.name == "backbone.py" else []
    assert builder_calls(path.read_text()) == expected


def tuner_sorts(source: str) -> list[str]:
    """Each argument of a ``sorted(...)`` call in the module that reads a
    ``.tuners`` attribute, as source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sorted":
            args = [*node.args, *(k.value for k in node.keywords)]
            found += [ast.unparse(a) for a in args
                      if any(isinstance(n, ast.Attribute) and n.attr == "tuners" for n in ast.walk(a))]
    return found


def test_tuner_sort_scanner_finds_tuners_in_any_argument():
    source = (
        "a = sorted(model.tuners.items(), key=k)\nb = sorted(self.tuners)\n"
        "c = sorted([t.kind for t in m.tuners.values()])\nd = sorted(x, key=lambda s: m.tuners[s])\n"
        "e = sorted(tuners)\nf = list(model.tuners)\ng = model.sorted(m.tuners)\n"
    )
    assert tuner_sorts(source) == [
        "model.tuners.items()", "self.tuners", "[t.kind for t in m.tuners.values()]",
        "lambda s: m.tuners[s]",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_attach_orders_the_tuners(path):
    """``attach`` leaves ``model.tuners`` in forward slot order, so every
    other reader (the parameter walk, the counts, the checkpoint's config
    echo) iterates it as given: no package module but ``tuners.py`` sorts it."""
    expected = ["model.tuners"] if path.name == "tuners.py" else []
    assert tuner_sorts(path.read_text()) == expected


# the modules a forward runs through
FORWARD = [p for p in PACKAGE if p.name in ("backbone.py", "layers.py", "tensor.py", "tuners.py")]


def stream_decisions(source: str) -> set:
    """Where the module decides how much of a batch a forward holds: a read
    or binding of ``STREAM_VALUES``, a call of ``array_split``, a loop or
    comprehension over a ``range`` with a step (``range(..., step)``, by its
    step's text) other than erf's element slices, ``_ERF_CHUNK``, and a
    function named ``ffn``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in ("STREAM_VALUES", "array_split"):
            found.add(name)
        elif isinstance(node, (ast.For, ast.comprehension)):
            call = node.iter
            if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "range"
                    and len(call.args) == 3 and ast.unparse(call.args[2]) != "_ERF_CHUNK"):
                found.add(f"range(..., {ast.unparse(call.args[2])})")
        elif isinstance(node, ast.FunctionDef) and node.name == "ffn":
            found.add("def ffn")
    return found


def test_stream_scanner_finds_the_budget_splits_stepped_loops_and_ffn():
    source = (
        "from .backbone import STREAM_VALUES as S\nstep = backbone.STREAM_VALUES // 3\n"
        "for lo in range(0, n, step):\n    pass\nrows = [x[i] for i in range(0, n, 2 * k)]\n"
        "for lo in range(0, flat.size, _ERF_CHUNK):\n    pass\nfor i in range(n):\n    pass\n"
        "for i in range(1, n):\n    pass\ndef ffn(x):\n    pass\nffn = 1\nparts = np.array_split(x, 3)\n"
    )
    assert stream_decisions(source) == {"STREAM_VALUES", "range(..., step)", "range(..., 2 * k)", "def ffn",
                                        "array_split"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_model_streams_item_blocks(path):
    """``ModelGraph.__call__`` is the one place that splits a batch that
    records nothing into item blocks, by ``backbone.STREAM_VALUES``: no
    other module reads the budget, no other module a forward runs through
    splits an array or loops over stepped blocks, and no op streams an
    ``ffn`` of its own."""
    found = stream_decisions(path.read_text())
    if path.name == "backbone.py":
        assert found == {"STREAM_VALUES", "array_split"}
    else:
        assert "STREAM_VALUES" not in found and "def ffn" not in found
        assert path not in FORWARD or found == set(), found


def test_eval_imports_neither_numpy_random_nor_scipy(tmp_path):
    """``restuner eval`` loads a checkpoint without drawing a weight it would
    overwrite, so it never imports ``numpy.random``, whose first generator
    adds to the command's peak RSS, nor scipy."""
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


def test_commands_map_no_openssl_and_only_evaluation_loads_a_thread_pool(tmp_path):
    """``cli.main`` marks ``_hashlib`` missing, so a command that draws
    weights maps no OpenSSL, and ``concurrent.futures`` loads only with an
    evaluation. ``hashlib.sha256`` still gives the standard digest."""
    import json
    import os
    import subprocess
    import sys

    config = tmp_path / "run.cfg"
    config.write_text(
        "[backbone]\ndim = 8\ndepth = 1\nheads = 2\npatch = 4\nimage = 8\nclasses = 4\n"
        "[tuner]\nkind = prefix\nop = mha\nblocks = all\n"
        "[train]\nepochs = 1\nbatch = 16\nlr = 0.01\n"
        f"[data]\nsize = 16\nsignal = 3.0\ntrain_fraction = 1.0\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    out = tmp_path / "out"
    commands = [
        ["train", "--config", str(config)],
        ["count-params", "--config", str(config), "--json"],
        ["grad-check", "--config", str(config)],
        ["eval", "--checkpoint", str(out / "model.rtck"), "--data", str(out / "train.rtds")],
        ["matrix", "--config", str(config)],
    ]
    probe = (
        "import json, sys\nfrom restuner import cli\n"
        "loaded = lambda: sorted(m for m in ('_hashlib', 'concurrent.futures') if sys.modules.get(m) is not None)\n"
        f"results = [(cli.main(argv), loaded()) for argv in {commands!r}]\n"
        "import hashlib\n"
        "print(json.dumps([results, hashlib.sha256(b'').hexdigest()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
    results, digest = json.loads(run.stdout.splitlines()[-1])
    # the commands run in one process, in this order, so each list is cumulative
    assert results == [[0, []], [0, []], [0, []], [0, ["concurrent.futures"]], [0, ["concurrent.futures"]]]
    assert digest == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
