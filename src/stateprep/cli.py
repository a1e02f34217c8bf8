"""Command-line front end.

Subcommands: ``compile`` (vector file to circuit document plus a metrics
summary line), ``verify`` (circuit against a target vector), ``analyze``
(closed-form table per n), ``sweep`` (width/depth tradeoff per lambda
for one or more n) and ``distinguish`` (adaptive measurement plan for
two orthogonal states).  Exit codes: 0 success, 1 verification failure,
2 usage, bad input or an unusable path, 3 conflicting flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .circuit import deserialize, metrics, serialize
from .discrimination import OrthPair, decompose, evaluate_plan, plan_document
from .divide_conquer import DcOptions, synthesize_dc, synthesize_hybrid, synthesize_time
from .errors import StatePrepError
from .resources import dc_formulas, hybrid_formulas
from .simulator import DEFAULT_BRANCH_CAP, verify_preparation, widest_cluster
from .tolerances import PLAN_MISS_TOL
from .tree import build_tree, pad_to_power_of_two

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_FLAG_CONFLICT = 3


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_vector(path: str) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "amplitudes" not in doc:
        raise ValueError(f"{path}: expected an object with an 'amplitudes' field")
    amps = doc["amplitudes"]
    # ``type`` rather than ``isinstance`` so that JSON booleans are refused;
    # the bound refuses NaN, infinities and integers no float can hold.
    if not isinstance(amps, list) or not all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in amps
    ):
        raise ValueError(f"{path}: amplitudes must be a list of finite numbers")
    return np.asarray(amps, dtype=float)


def cmd_compile(args) -> int:
    if args.method != "hybrid" and args.lambda_ is not None:
        return _fail("--lambda is only valid with --method hybrid", EXIT_FLAG_CONFLICT)
    if args.method == "hybrid" and args.lambda_ is None:
        return _fail("--method hybrid requires --lambda", EXIT_FLAG_CONFLICT)
    if args.method != "dc" and args.no_disentangle:
        return _fail("--no-disentangle is only valid with --method dc", EXIT_FLAG_CONFLICT)
    if args.method != "dc" and args.parallelize:
        return _fail("--parallelize is only valid with --method dc", EXIT_FLAG_CONFLICT)
    if args.method == "time" and args.prune:
        return _fail("--prune is implicit for --method time", EXIT_FLAG_CONFLICT)
    tree = build_tree(pad_to_power_of_two(_load_vector(args.input)))
    if args.method == "time":
        circuit = synthesize_time(tree)
    else:
        opts = DcOptions(
            disentangle=not args.no_disentangle,
            parallelize=args.parallelize,
            prune=args.prune,
        )
        if args.method == "dc":
            circuit = synthesize_dc(tree, opts)
        else:
            circuit = synthesize_hybrid(tree, args.lambda_, opts)
    with open(args.out, "w") as fh:
        fh.write(serialize(circuit))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"stages": [asdict(r) for r in circuit.stage_reports]}, fh, indent=2)
            fh.write("\n")
    print(json.dumps(asdict(metrics(circuit))))
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.circuit) as fh:
        circuit = deserialize(fh.read())
    try:
        report = verify_preparation(
            circuit,
            pad_to_power_of_two(_load_vector(args.target)),
            mode=args.mode,
            shots=args.shots,
            seed=args.seed,
            branch_cap=args.branch_cap,
        )
    except MemoryError:
        raise ValueError(
            f"a cluster of {widest_cluster(circuit)} wires does not fit in memory"
        ) from None
    print(json.dumps(report.to_json_dict()))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _measured_dc(n: int, parallel: bool):
    rng = np.random.default_rng(2**16 + n)
    x = rng.random(2**n) + 0.1
    x /= np.linalg.norm(x)
    opts = DcOptions(parallelize=parallel)
    return metrics(synthesize_dc(build_tree(x), opts))


def cmd_analyze(args) -> int:
    if args.n_min < 1 or args.n_max < args.n_min:
        return _fail("need 1 <= n-min <= n-max", EXIT_USAGE)
    header = "n,qubits,cswaps,depth,depth_parallel"
    if args.measure:
        header += ",measured_qubits,measured_cswaps,measured_depth,measured_depth_parallel"
    lines = [header]
    for n in range(args.n_min, args.n_max + 1):
        f = dc_formulas(n)
        row = f"{n},{f.qubits},{f.cswaps},{f.depth},{f.depth_parallel}"
        if args.measure:
            m = _measured_dc(n, parallel=False)
            mp = _measured_dc(n, parallel=True)
            row += f",{m.qubits},{m.unit_cswaps},{m.depth_gates},{mp.depth_gates}"
        lines.append(row)
    print("\n".join(lines))
    return EXIT_OK


def cmd_sweep(args) -> int:
    lam_min = args.lambda_min
    header = "n,lambda,qubits,depth_gates"
    if args.measure:
        header += ",measured_qubits,measured_cswaps,measured_depth_gates,measured_depth_full"
    lines = [header]
    for n in args.n:
        lam_max = args.lambda_max if args.lambda_max is not None else n
        if n < 1 or not 1 <= lam_min <= lam_max <= n:
            return _fail("need 1 <= lambda-min <= lambda-max <= n", EXIT_USAGE)
        if args.measure:
            rng = np.random.default_rng(2**20 + n)
            x = rng.random(2**n) + 0.1
            tree = build_tree(x / np.linalg.norm(x))
        for lam in range(lam_min, lam_max + 1):
            f = hybrid_formulas(n, lam)
            row = f"{n},{lam},{f.qubits},{f.depth}"
            if args.measure:
                m = metrics(synthesize_hybrid(tree, lam))
                row += f",{m.qubits},{m.unit_cswaps},{m.depth_gates},{m.depth_full}"
            lines.append(row)
    print("\n".join(lines))
    return EXIT_OK


def cmd_distinguish(args) -> int:
    pair = OrthPair.from_states(_load_vector(args.plus), _load_vector(args.minus))
    plan = decompose(pair)
    p_plus = sum(p for _, label, p in evaluate_plan(plan, pair.plus) if label == "+")
    p_minus = sum(p for _, label, p in evaluate_plan(plan, pair.minus) if label == "-")
    if args.plan_out:
        with open(args.plan_out, "w") as fh:
            json.dump(plan_document(plan), fh, indent=2)
            fh.write("\n")
    print(json.dumps({"p_correct_plus": p_plus, "p_correct_minus": p_minus}))
    ok = p_plus >= 1.0 - PLAN_MISS_TOL and p_minus >= 1.0 - PLAN_MISS_TOL
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stateprep", description="Amplitude-encoding circuit tools"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="synthesize a circuit from a vector file")
    p.add_argument("input", help="JSON file with an 'amplitudes' list")
    p.add_argument("--method", choices=("time", "dc", "hybrid"), required=True)
    p.add_argument("--lambda", dest="lambda_", type=int, default=None,
                   help="sub-block size for the hybrid method")
    p.add_argument("--no-disentangle", action="store_true",
                   help="skip the ancilla measurements (dc only)")
    p.add_argument("--parallelize", action="store_true",
                   help="reposition movable swaps into earlier layers (dc only)")
    p.add_argument("--prune", action="store_true",
                   help="drop gates and wires that the input makes redundant")
    p.add_argument("--out", required=True, help="circuit document output path")
    p.add_argument("--report", default=None,
                   help="also write the per-stage measurement/correction report")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="check a circuit against a target vector")
    p.add_argument("circuit")
    p.add_argument("target")
    p.add_argument("--mode", choices=("enumerate", "sample"), default="enumerate")
    p.add_argument("--shots", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--branch-cap", type=int, default=DEFAULT_BRANCH_CAP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="closed-form resource table")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--measure", action="store_true",
                   help="also synthesize circuits and report measured metrics")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="width/depth tradeoff across lambda")
    p.add_argument("--n", type=int, nargs="+", required=True, help="one or more sizes")
    p.add_argument("--lambda-min", type=int, default=1)
    p.add_argument("--lambda-max", type=int, default=None)
    p.add_argument("--measure", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("distinguish", help="adaptive plan for two orthogonal states")
    p.add_argument("plus")
    p.add_argument("minus")
    p.add_argument("--plan-out", default=None)
    p.set_defaults(func=cmd_distinguish)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, StatePrepError) as exc:
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(main())
