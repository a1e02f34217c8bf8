"""What a request loads, how it exits, and the package's names resolved on
first access.

A ``python -m stateprep`` request imports the modules of its subcommand
and no others: ``compile`` no simulator, a time-encoding ``compile`` no
plan kernel (``discrimination``) either, ``verify`` no synthesis, no angle
tree and no document writer, an enumerating ``verify`` no sampler
(``binomial``), and neither of them
``numpy.random``, whose import costs about 6 MiB of RSS and 8 ms: sample
mode draws from the standard library's generator.  The package imports
``circuit`` eagerly; each name of ``__all__``, and each submodule,
resolves on first access to its defining module's object.
A request exits through ``cli.run``, which freezes the heap so that
shutdown's collections skip it; ``cli.main`` in process freezes nothing.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stateprep as sp

DATA = Path(__file__).parent / "data"
SIMULATION = {"stateprep.simulator", "stateprep.resources"}
SYNTHESIS = {"stateprep.divide_conquer", "stateprep.discrimination", "stateprep.resources",
             "stateprep.time_encoding"}
WRITING = {"stateprep.tree", "stateprep.writer"}  # the angle tree, depth figures, documents


def child_env() -> dict:
    """An environment whose children import the same package as this process."""
    path = [str(Path(sp.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def probe(tmp_path, *argv):
    """Run ``python -m stateprep *argv`` in a child that imports the same
    package as this process.  Its completed process, and at its exit (an
    atexit handler) ``gc.get_freeze_count()`` and ``sys.modules``."""
    out = tmp_path / "probe.txt"
    code = (f"import atexit, gc, runpy, sys; atexit.register(lambda: open({str(out)!r}, 'w')"
            ".write('\\n'.join([str(gc.get_freeze_count()), *sys.modules]))); "
            "runpy.run_module('stateprep', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=child_env())
    frozen, *modules = out.read_text().split()
    return proc, int(frozen), set(modules)


def loaded_after(tmp_path, *argv) -> set[str]:
    """``sys.modules`` when ``python -m stateprep *argv`` exits 0, having
    frozen its heap."""
    proc, frozen, loaded = probe(tmp_path, *argv)
    assert proc.returncode == 0, proc.stderr
    assert frozen > 0
    return loaded


def numpy_loads(module: str) -> bool:
    """Whether a bare ``import numpy`` imports ``module``: numpy 1.x imports
    ``numpy.ma`` and ``numpy.random``, numpy 2 neither."""
    code = f"import sys, numpy; print({module!r} in sys.modules)"
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True).stdout.strip() == "True"


@pytest.mark.parametrize("method", ["time", "dc", "dc --prune", "dc --parallelize",
                                    "hybrid --lambda 2"])
def test_compile_loads_no_simulator(method, tmp_path):
    loaded = loaded_after(tmp_path, "compile", str(DATA / "dc_n3_vector.json"),
                          "--method", *method.split(), "--out", str(tmp_path / "c.json"))
    assert {"stateprep.divide_conquer", "stateprep.vector", *WRITING} <= loaded
    assert sorted(loaded & SIMULATION) == []
    # Time encoding combines no registers, so it plans no disentangling stage.
    assert ("stateprep.discrimination" in loaded) == (method != "time")
    assert "numpy.random" not in loaded or numpy_loads("numpy.random")


@pytest.mark.parametrize("mode", [["--mode", "enumerate"],
                                  ["--mode", "sample", "--shots", "256", "--seed", "1"]])
def test_verify_loads_no_synthesis(mode, tmp_path):
    # Enumerating this document merges rows (``_merge_rows``), where a plain
    # ``np.setdiff1d`` or ``np.unique`` would import ``numpy.ma`` on numpy 2.
    loaded = loaded_after(tmp_path, "verify", str(DATA / "exact" / "hybrid4_dense_n6.json"),
                          str(DATA / "golden_dense_n6_vector.json"), *mode)
    assert {"stateprep.simulator", "stateprep.vector"} <= loaded
    assert sorted(loaded & (SYNTHESIS | WRITING)) == []
    assert ("stateprep.binomial" in loaded) == (mode[1] == "sample")
    assert "numpy.random" not in loaded or numpy_loads("numpy.random")
    if mode[1] == "enumerate":
        assert "numpy.ma" not in loaded or numpy_loads("numpy.ma")


def test_version_loads_neither_layer(tmp_path):
    loaded = loaded_after(tmp_path, "--version")
    assert "stateprep.cli" in loaded
    assert sorted(loaded & (SIMULATION | SYNTHESIS | WRITING)) == []


@pytest.mark.parametrize("code, argv", [
    (0, ["compile", str(DATA / "dc_n3_vector.json"), "--method", "dc", "--out", "{doc}"]),
    (1, ["verify", str(DATA / "exact" / "dc_prune_sparse_n5.json"),
         str(DATA / "golden_w_n5_vector.json")]),
    (2, ["verify", "{doc}", str(DATA / "dc_n3_vector.json")]),  # no such file
    (2, ["compile", "--no-such-flag"]),  # argparse exits
    (3, ["verify", str(DATA / "exact" / "dc_prune_sparse_n5.json"),
         str(DATA / "golden_sparse_n5_vector.json"), "--shots", "16"]),
])
def test_exit_code_comes_through_the_freeze(code, argv, tmp_path):
    doc = str(tmp_path / "c.json")
    proc, frozen, _ = probe(tmp_path, *(a.format(doc=doc) for a in argv))
    assert proc.returncode == code, proc.stderr
    assert frozen > 0
    assert "Traceback" not in proc.stderr


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    assert sp.cli.main(["compile", str(DATA / "dc_n3_vector.json"), "--method", "dc",
                        "--out", str(tmp_path / "c.json")]) == 0
    assert gc.get_freeze_count() == 0


def test_every_public_name_is_its_modules_object():
    for name in sp.__all__:
        obj = getattr(sp, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(sp.__all__) <= set(dir(sp))
    namespace = {}
    exec("from stateprep import *", namespace)
    assert all(namespace[name] is getattr(sp, name) for name in sp.__all__)


def test_each_name_maps_to_its_defining_module():
    # A name routed through a module that only re-exports it would load that
    # module too on first access.
    assert sp.__all__ == sorted(sp._HOMES)
    for name, home in sp._HOMES.items():
        assert getattr(sp, name).__module__ == f"stateprep.{home}", name


def test_submodules_resolve_and_unknown_names_do_not():
    assert sp.simulator is sys.modules["stateprep.simulator"]
    assert sp.tolerances is sys.modules["stateprep.tolerances"]
    for name in ("no_such_name", "__main__"):
        with pytest.raises(AttributeError, match=name):
            getattr(sp, name)


def test_import_loads_only_the_circuit_layer():
    code = ("import sys, stateprep as sp; before = sorted(m for m in sys.modules "
            "if m.startswith('stateprep')); sp.simulator; print(*before, 'stateprep.simulator' "
            "in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=child_env()).stdout.split()
    assert out == ["stateprep", "stateprep.circuit", "stateprep.errors", "True"]


def test_the_reader_stays_in_circuit():
    # ``from stateprep.circuit import deserialize`` is how a reader of
    # documents alone imports it; that loads no writer.
    code = ("import sys; from stateprep.circuit import deserialize; "
            "print(deserialize.__module__, 'stateprep.writer' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=child_env()).stdout.split()
    assert out == ["stateprep.circuit", "False"]
