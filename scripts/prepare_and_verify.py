#!/usr/bin/env python3
"""End-to-end demo: draw a random non-negative unit vector, synthesize a
circuit with each method, enumerate every measurement branch and print
the verification summary per method.  Exits 1 if any method fails."""

import argparse

import numpy as np

import stateprep as sp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--lam", type=int, default=2, help="hybrid block size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--prune", action="store_true")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    x = rng.random(2**args.n) + 0.05
    x /= np.linalg.norm(x)
    tree = sp.build_tree(x)
    opts = sp.DcOptions(prune=args.prune)

    circuits = {
        "time": sp.synthesize_time(tree),
        "dc": sp.synthesize_dc(tree, opts),
        "dc+parallel": sp.synthesize_dc(
            tree, sp.DcOptions(parallelize=True, prune=args.prune)
        ),
    }
    if 1 <= args.lam <= args.n:
        circuits[f"hybrid(lam={args.lam})"] = sp.synthesize_hybrid(tree, args.lam, opts)

    print(f"target: n={args.n}, seed={args.seed}")
    failed = 0
    for name, circuit in circuits.items():
        m = sp.metrics(circuit)
        rep = sp.verify_preparation(circuit, x)
        print(
            f"{name:15s} qubits={m.qubits:3d} cswaps={m.unit_cswaps:3d} "
            f"depth={m.depth_gates:3d} depth_full={m.depth_full:3d} "
            f"branches={rep.branches:5d} min_fidelity={rep.min_fidelity:.12f} "
            f"{'ok' if rep.passed else 'FAILED'}"
        )
        failed += not rep.passed
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
