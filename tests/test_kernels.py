"""The kernel matrix: the forward identities that the README states per
OpenBLAS core, each checked in a child process under a forced core.

numpy's bundled OpenBLAS is a DYNAMIC_ARCH build. It picks a core at start-up,
and ``OPENBLAS_CORETYPE`` forces another. A core newer than the CPU may fault
or fall back, so the matrix forces only the cores at or below the one the
library runs on, and skips a core whose name the library does not report back.
Run it alone with ``python -m pytest tests/test_kernels.py -s``, which prints
one line per core.
"""

import ctypes
import glob
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import restuner
from restuner.tuners import TUNERS

# (forced core, the name the library reports for it), oldest first
CORES = [("Prescott", "Katmai"), ("Sandybridge", "Sandybridge"),
         ("Haswell", "Haswell"), ("SkylakeX", "SkylakeX")]


def _corename() -> str | None:
    """The core numpy's bundled OpenBLAS runs on, or None where the library
    or its ``scipy_openblas_get_corename64_`` is missing."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if not libs:
        return None
    get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None)
    if get is None:
        return None
    get.argtypes, get.restype = (), ctypes.c_char_p
    return get().decode()


def claims_bits(core: str, shape: str, slots) -> bool:
    """Whether the README claims that the no-grad logits equal the recorded
    ones bit for bit: at the toy and eval-mix shapes on every core but
    Katmai, where a q reader's two-row attention at eval-mix's shape may sum
    in another order than those rows of the whole one."""
    return not (core == "Katmai" and shape == "eval_mix"
                and any(TUNERS[kind].reads_q for _, kind in slots))


def _child() -> None:
    """Print the core, and each grid case's rel error and bit equality, as
    JSON; fail if the vit-tiny-width matrix identity does."""
    import test_backbone as tb
    import test_cli
    from restuner.tensor import rel_error

    cases = []
    for shape in ("toy", "eval_mix"):
        cfg, batch = tb.SHAPES[shape]
        for slots in tb.SLOT_GRID:
            recorded, bare = tb._forward_both_ways(cfg, slots, batch)
            cases.append([shape, slots, rel_error(bare, recorded),
                          bare.tobytes() == recorded.tobytes()])
    test_cli.test_matrix_zero_init_identity_holds_at_vit_tiny_width()
    print(json.dumps({"core": _corename(), "cases": cases}))


def _run_child(core: str) -> dict:
    here = Path(__file__).resolve().parent
    src = str(Path(restuner.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, str(here), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, f"{core}: {out.stderr}"
    return json.loads(out.stdout)


@pytest.mark.slow
def test_kernel_matrix_holds_each_cores_identities():
    """Under each forced core at or below the runtime one: the no-grad
    logits are within 1e-12 of the recorded ones for every ``SLOT_GRID``
    case at the toy and eval-mix shapes, equal them bit for bit where
    ``claims_bits`` says so, and the matrix's zero-init identity holds at
    vit-tiny width. Children run two at a time on one BLAS thread each,
    which gives the same bits as more threads."""
    runtime = _corename()
    if runtime is None:
        pytest.skip("numpy's OpenBLAS reports no core name")
    names = [name for _, name in CORES]
    if runtime not in names:
        pytest.skip(f"core {runtime} is not in the kernel matrix's order")
    forced = CORES[:names.index(runtime) + 1]
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(_run_child, [core for core, _ in forced]))
    checked = []
    for (core, name), result in zip(forced, results):
        if result["core"] != name:
            print(f"{core}: skipped, the library reports {result['core']}")
            continue
        differ = [f"{shape}:{'+'.join(f'{k}@{op}' for op, k in slots)}"
                  for shape, slots, _, equal in result["cases"] if not equal]
        print(f"{core}: {name}, {len(differ)} cases differ in bits {differ}")
        assert max(err for _, _, err, _ in result["cases"]) <= 1e-12, name
        assert [c for c in result["cases"] if not c[3] and claims_bits(name, c[0], c[1])] == [], name
        checked.append(name)
    assert runtime in checked


if __name__ == "__main__":
    _child()
