"""Amplitude-encoding circuit synthesis and verification.

Builds circuits that load a classical non-negative unit vector into the
amplitudes of a quantum register, using multiplexed rotations, bottom-up
state combining with controlled swaps and measurement-based
disentangling, or an interpolation of the two.  A branch-enumerating
statevector simulator verifies that every measurement outcome leaves the
data register in the requested state.

``_HOMES`` maps each public name to the submodule that defines it, and
``__all__`` is its keys.  Only ``circuit``, which every use needs, is
imported with the package, and first, so its source compiles before numpy
loads and the compiler's transient memory does not stack on numpy's.  A
name, or a submodule, is imported on first access and then bound here, so
a ``verify`` loads no synthesis code, no angle tree and no document writer,
and a ``compile`` no simulator.
"""

from importlib.util import find_spec

from . import circuit

# Name -> the submodule that defines it; ``cli`` binds its names through it too.
_HOMES = {name: module for module, names in (
    ("circuit", "Circuit deserialize"),
    ("discrimination", "AdaptiveMeasPlan OrthPair decompose evaluate_plan plan_document solve_ua"),
    ("divide_conquer",
     "DcOptions compile_disentangler synthesize_dc synthesize_hybrid synthesize_time"),
    ("resources", "dc_formulas hybrid_formulas midreset_formulas reuse_schedule"),
    ("simulator", "Branch VerificationReport run verify_preparation"),
    ("tree", "AmplitudeTree build_tree"),
    ("vector", "pad_to_power_of_two"),
    ("writer", "ResourceReport metrics serialize"),
) for name in names.split()}


def __getattr__(name: str):
    home = _HOMES.get(name, name)
    if home.startswith("_") or find_spec(f"{__name__}.{home}") is None:  # not ``__main__``
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Unlike ``importlib.import_module``, ``__import__`` shows in ``-X importtime``;
    # given a fromlist, it returns the submodule.
    module = __import__(f"{__name__}.{home}", fromlist=["*"])
    # Bound, so the next access is a plain lookup that calls no hook.
    value = globals()[name] = module if home == name else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = sorted(_HOMES)

__version__ = "0.1.0"
