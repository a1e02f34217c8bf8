"""The identity corpus: a hash of what each of 570 fixed-seed compiles
writes, and of how the 210 at n <= 4 verify, so that "the same
behaviour" is one test to run.

Inputs are dense (uniform plus 0.1), sparse (about 30% non-zero, one
entry set to 1) and W vectors of 2**n amplitudes, n = 1..8, the first two
drawn from seeds 0 and 1.  Each is compiled by time encoding, by
divide-and-conquer under all 8 combinations of its three flags, and by
every hybrid lambda strictly between 1 and n, with and without
``--prune``.  A key names its input and its ``stateprep compile`` flags;
its value hashes the document's bytes, the metrics and the stage reports.
At n <= 4 each compile has a second key, ``<key>: verify``, which hashes
its ``verify`` reports: enumerating, and sampling 64 shots at seed 0,
floats written as 12-digit text.

``python tests/identity.py`` re-records ``tests/data/identity.json``;
``tests/test_identity.py`` recomputes the corpus and names each key
whose hash changed.
"""

import hashlib
import json
import sys
from dataclasses import asdict
from itertools import product
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tests" / "data" / "identity.json"
if __name__ == "__main__":  # run as a script: read the package from this checkout
    sys.path.insert(0, str(ROOT / "src"))

import stateprep as sp  # noqa: E402


def inputs():
    """(name, vector) pairs: ``kind/n<n>[/s<seed>]``."""
    for n in range(1, 9):
        for seed in (0, 1):
            yield f"dense/n{n}/s{seed}", np.random.default_rng(seed).random(2**n) + 0.1
            rng = np.random.default_rng(seed)
            sparse = np.where(rng.random(2**n) < 0.3, rng.random(2**n), 0.0)
            sparse[rng.integers(2**n)] = 1.0
            yield f"sparse/n{n}/s{seed}", sparse
        w = np.zeros(2**n)
        w[1 << np.arange(n)] = 1.0
        yield f"w/n{n}", w


def compiles(n):
    """(flags, synthesize) pairs, ``synthesize`` taking an angle tree."""
    yield "time", sp.synthesize_time
    for nodis, par, prune in product((False, True), repeat=3):
        opts = sp.DcOptions(disentangle=not nodis, parallelize=par, prune=prune)
        flags = "".join(f" --{f}" for f, on in
                        (("no-disentangle", nodis), ("parallelize", par), ("prune", prune)) if on)
        yield "dc" + flags, lambda tree, opts=opts: sp.synthesize_dc(tree, opts)
    for lam, prune in product(range(2, n), (False, True)):
        opts = sp.DcOptions(prune=prune)
        yield (f"hybrid --lambda {lam}" + " --prune" * prune,
               lambda tree, lam=lam, opts=opts: sp.synthesize_hybrid(tree, lam, opts))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(circuit) -> str:
    """A hash of the document, the metrics and the stage reports, as
    ``stateprep compile`` writes them."""
    return digest("\n".join((
        sp.serialize(circuit),
        json.dumps(asdict(sp.metrics(circuit))),
        json.dumps({"stages": [asdict(r) for r in circuit.stage_reports]}),
    )))


def verdicts(circuit, vector) -> str:
    """A hash of the ``verify`` reports of ``circuit`` against ``vector``,
    enumerating and sampling, floats as ``.12g`` text."""
    reports = (sp.verify_preparation(circuit, vector),
               sp.verify_preparation(circuit, vector, mode="sample", shots=64, seed=0))
    return digest(json.dumps([{k: f"{v:.12g}" if isinstance(v, float) else v
                               for k, v in r.to_json_dict().items()} for r in reports]))


def corpus():
    """Each key's hash."""
    out = {}
    for name, vector in inputs():
        tree = sp.build_tree(vector)
        for flags, synthesize in compiles(tree.n):
            key, circuit = f"{name}: {flags}", synthesize(tree)
            out[key] = fingerprint(circuit)
            if tree.n <= 4:
                out[f"{key}: verify"] = verdicts(circuit, vector)
    return out


def changed(recorded: dict, current: dict) -> list[str]:
    """The keys whose hash differs, or that only one side holds, sorted."""
    return sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))


if __name__ == "__main__":
    current = corpus()
    previous = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}
    RECORDED.write_text(json.dumps(current, indent=0, sort_keys=True) + "\n")
    keys = changed(previous, current)
    print(f"{len(current)} keys recorded, {len(keys)} changed" + "".join(f"\n  {k}" for k in keys))
