"""Amplitude-encoding circuit synthesis and verification.

Builds circuits that load a classical non-negative unit vector into the
amplitudes of a quantum register, using multiplexed rotations, bottom-up
state combining with controlled swaps and measurement-based
disentangling, or an interpolation of the two.  A branch-enumerating
statevector simulator verifies that every measurement outcome leaves the
data register in the requested state.

Only ``circuit``, which every use needs, is imported with the package.  It
comes first, so its source compiles before numpy loads and the compiler's
transient memory does not stack on numpy's.  Every other name, and each
submodule, is imported on first access from the module that ``_HOMES``
names, so a ``verify`` loads no synthesis code and a ``compile`` no
simulator.
"""

from importlib.util import find_spec

from .circuit import (
    Circuit,
    Condition,
    Gate,
    ResourceReport,
    deserialize,
    metrics,
    serialize,
)

# Name -> the submodule that defines it, imported on first access; ``cli`` reads it too.
_HOMES = {name: module for module, names in (
    ("discrimination", "AdaptiveMeasPlan OrthPair decompose evaluate_plan plan_document solve_ua"),
    ("divide_conquer",
     "DcOptions compile_disentangler synthesize_dc synthesize_hybrid synthesize_time"),
    ("resources", "dc_formulas hybrid_formulas midreset_formulas reuse_schedule"),
    ("simulator", "Branch VerificationReport data_probabilities fidelity run statevector "
                  "verify_preparation"),
    ("tree", "AmplitudeTree build_tree pad_to_power_of_two preorder subtree_state"),
) for name in names.split()}


def __getattr__(name: str):
    home = _HOMES.get(name, name)
    if home.startswith("_") or find_spec(f"{__name__}.{home}") is None:  # not ``__main__``
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Unlike ``importlib.import_module``, ``__import__`` shows in ``-X importtime``;
    # given a fromlist, it returns the submodule.
    module = __import__(f"{__name__}.{home}", fromlist=["*"])
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [
    "AdaptiveMeasPlan",
    "AmplitudeTree",
    "Branch",
    "Circuit",
    "Condition",
    "DcOptions",
    "Gate",
    "OrthPair",
    "ResourceReport",
    "VerificationReport",
    "build_tree",
    "compile_disentangler",
    "data_probabilities",
    "dc_formulas",
    "decompose",
    "deserialize",
    "evaluate_plan",
    "fidelity",
    "hybrid_formulas",
    "metrics",
    "midreset_formulas",
    "pad_to_power_of_two",
    "preorder",
    "reuse_schedule",
    "run",
    "serialize",
    "solve_ua",
    "statevector",
    "subtree_state",
    "synthesize_dc",
    "synthesize_hybrid",
    "synthesize_time",
    "verify_preparation",
]

__version__ = "0.1.0"
