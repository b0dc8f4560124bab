"""The kernel matrix: the bit identities that the README states for every
OpenBLAS core, each checked in a child process under a forced core.

numpy's bundled OpenBLAS is a DYNAMIC_ARCH build. It picks a core at start-up,
and ``OPENBLAS_CORETYPE`` forces another. A core newer than the CPU may fault
or fall back, so the matrix forces only the cores at or below the one the
library runs on, and skips a core whose name the library does not report back.
Run it alone with ``python -m pytest tests/test_kernels.py -s``, which prints
one line per core.
"""

import contextlib
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

# (forced core, the name the library reports for it), oldest first
CORES = [("Prescott", "Katmai"), ("Sandybridge", "Sandybridge"),
         ("Haswell", "Haswell"), ("SkylakeX", "SkylakeX")]


def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, or None where it is missing."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    return ctypes.CDLL(libs[0]) if libs else None


def _corename() -> str | None:
    """The core numpy's bundled OpenBLAS runs on, or None where the library
    or its ``scipy_openblas_get_corename64_`` is missing."""
    get = getattr(_openblas(), "scipy_openblas_get_corename64_", None)
    if get is None:
        return None
    get.argtypes, get.restype = (), ctypes.c_char_p
    return get().decode()


# each fused op against its primitive chain, the streamed no-grad forward
# against the whole batch with every tuner kind (``SLOT_GRID``'s three mixes;
# its 90 cases would take a minute per core), and the matrix's zero-init
# identity at vit-tiny width
STREAMED = "test_backbone.py::test_streamed_forward_equals_the_whole_batch_bit_for_bit"
MIXES = ("prefix@mha+prompt@ffn+prefix@block", "res_attn@mha+adapter@ffn+prompt@block",
         "prefix@mha+res_attn@ffn+adapter@block")
CHILD_TESTS = [
    "test_tensor.py::test_fused_op_equals_composed_chain_bit_for_bit",
    *(f"{STREAMED}[{shape}-{mix}-{batch}]" for shape in ("eval_mix", "vit_tiny_width")
      for mix in MIXES for batch in (64, 65, 1)),
    "test_cli.py::test_fused_ops_train_the_checkpoint_their_primitive_chains_train",
    "test_cli.py::test_matrix_zero_init_identity_holds_at_vit_tiny_width",
]


def _child() -> None:
    """Run ``CHILD_TESTS``, then print as JSON the core and the grid cases
    whose no-grad logits differ in bits from the recorded ones at the toy,
    eval-mix and vit-tiny shapes on one BLAS thread, or whose logits on two
    threads differ from those on one at the toy and eval-mix shapes."""
    import test_backbone as tb

    here = Path(__file__).resolve().parent
    with contextlib.redirect_stdout(sys.stderr):
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(str(here / t) for t in CHILD_TESTS)])
    assert code == 0, f"CHILD_TESTS failed: {code}"

    def grid(shapes) -> dict:
        logits = {}
        for shape in shapes:
            cfg, batch = tb.SHAPES[shape]
            for slots in tb.SLOT_GRID:
                logits[f"{shape}:{tb._slot_ids(slots)}"] = tb._forward_both_ways(cfg, slots, batch)
        return logits

    one = grid(tb.SHAPES)
    lib = _openblas()
    set_threads, get_threads = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
    set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
    get_threads.argtypes, get_threads.restype = (), ctypes.c_int
    set_threads(2)
    assert get_threads() == 2
    two = grid(("toy", "eval_mix"))
    print(json.dumps({
        "core": _corename(),
        "differ": [case for case, (recorded, bare) in one.items()
                   if bare.tobytes() != recorded.tobytes()],
        "threads_differ": [case for case, pair in two.items()
                           if [a.tobytes() for a in pair] != [a.tobytes() for a in one[case]]],
    }))


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
    """Under each forced core at or below the runtime one: ``CHILD_TESTS``
    pass, so each fused op gives its primitive chain's bytes; for every
    ``SLOT_GRID`` case at the toy, eval-mix and vit-tiny shapes the no-grad
    logits equal the recorded ones bit for bit; and at the toy and eval-mix
    shapes two BLAS threads give the bytes of one (at vit-tiny width the
    Katmai and Haswell kernels do not). Children run two at a time, on one
    BLAS thread each until the thread check."""
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
        print(f"{core}: {name}, no-grad differs in {result['differ']}, "
              f"two threads in {result['threads_differ']}")
        assert result["differ"] == [] and result["threads_differ"] == [], name
        checked.append(name)
    assert runtime in checked


if __name__ == "__main__":
    _child()
