"""Command-line front end.

Subcommands: ``compile`` (vector file to circuit document plus a metrics
summary line), ``verify`` (circuit against a target vector), ``analyze``
(closed-form table per n), ``sweep`` (width/depth tradeoff per lambda
for one or more n) and ``distinguish`` (adaptive measurement plan for
two orthogonal states).  Exit codes: 0 success, 1 verification failure,
2 usage, bad input, an unusable path or too little memory, 3 conflicting
flags.

Beside the package's ``circuit``, this module imports only ``errors`` and
``tolerances``.  Commands call every library name (``build_tree``,
``synthesize_dc``, ``verify_preparation``, ...) as ``_cli.<name>``, which
resolves through the package's name map, ``_HOMES``, on first use: whatever
this module holds under that name then, a wrapper set on it included.
``run`` is this module's own: the process's one exit, which both entry
points call and in-process callers do not.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import asdict
from functools import cache

import numpy as np

from . import _HOMES, __version__
from .errors import StatePrepError
from .tolerances import DEFAULT_BRANCH_CAP, PLAN_MISS_TOL

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_FLAG_CONFLICT = 3

_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_vector(path: str) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "amplitudes" not in doc:
        raise ValueError(f"{path}: expected an object with an 'amplitudes' field")
    amps = doc["amplitudes"]
    message = f"{path}: amplitudes must be a non-empty list of finite numbers"
    # ``type`` rather than ``isinstance`` so that JSON booleans are refused.
    if not isinstance(amps, list) or not amps or not set(map(type, amps)) <= {int, float}:
        raise ValueError(message)
    try:
        vector = np.asarray(amps, dtype=float)
    except OverflowError:  # an integer that no float can hold
        raise ValueError(message) from None
    if not np.isfinite(vector).all():
        raise ValueError(message)
    return vector


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
    tree = _cli.build_tree(_cli.pad_to_power_of_two(_load_vector(args.input)))
    if args.method == "time":
        circuit = _cli.synthesize_time(tree)
    else:
        opts = _cli.DcOptions(
            disentangle=not args.no_disentangle,
            parallelize=args.parallelize,
            prune=args.prune,
        )
        if args.method == "dc":
            circuit = _cli.synthesize_dc(tree, opts)
        else:
            circuit = _cli.synthesize_hybrid(tree, args.lambda_, opts)
    del tree  # not held while the document is written and measured
    with open(args.out, "w") as fh:
        _cli.serialize(circuit, fh)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"stages": [asdict(r) for r in circuit.stage_reports]}, fh, indent=2)
            fh.write("\n")
    print(json.dumps(asdict(_cli.metrics(circuit))))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.mode != "sample" and (args.shots is not None or args.seed is not None):
        return _fail("--shots and --seed are only valid with --mode sample", EXIT_FLAG_CONFLICT)
    with open(args.circuit) as fh:
        circuit = _cli.deserialize(fh.read())
    report = _cli.verify_preparation(
        circuit,
        _cli.pad_to_power_of_two(_load_vector(args.target)),
        mode=args.mode,
        shots=4096 if args.shots is None else args.shots,
        seed=0 if args.seed is None else args.seed,
        branch_cap=args.branch_cap,
    )
    print(json.dumps(report.to_json_dict()))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _measured(n: int, seed: int, synthesize):
    """The metrics of ``synthesize`` on the angle tree of a dense input of
    2**n amplitudes, uniform plus 0.1, drawn from ``seed``."""
    x = np.random.default_rng(seed).random(2**n) + 0.1
    return _cli.metrics(synthesize(_cli.build_tree(x / np.linalg.norm(x))))


def cmd_analyze(args) -> int:
    if args.n_min < 1 or args.n_max < args.n_min:
        return _fail("need 1 <= n-min <= n-max", EXIT_USAGE)
    header = "n,qubits,cswaps,depth,depth_parallel"
    if args.measure:
        header += ",measured_qubits,measured_cswaps,measured_depth,measured_depth_parallel"
    lines = [header]
    for n in range(args.n_min, args.n_max + 1):
        f = _cli.dc_formulas(n)
        row = f"{n},{f.qubits},{f.cswaps},{f.depth},{f.depth_parallel}"
        if args.measure:
            dc, parallel = _cli.synthesize_dc, _cli.DcOptions(parallelize=True)
            m = _measured(n, 2**16 + n, dc)
            mp = _measured(n, 2**16 + n, lambda t: dc(t, parallel))
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
        for lam in range(lam_min, lam_max + 1):
            f = _cli.hybrid_formulas(n, lam)
            row = f"{n},{lam},{f.qubits},{f.depth}"
            if args.measure:
                m = _measured(n, 2**20 + n, lambda t: _cli.synthesize_hybrid(t, lam))
                row += f",{m.qubits},{m.unit_cswaps},{m.depth_gates},{m.depth_full}"
            lines.append(row)
    print("\n".join(lines))
    return EXIT_OK


def cmd_distinguish(args) -> int:
    pair = _cli.OrthPair.from_states(_load_vector(args.plus), _load_vector(args.minus))
    plan = _cli.decompose(pair)
    p_plus = sum(p for _, label, p in _cli.evaluate_plan(plan, pair.plus) if label == "+")
    p_minus = sum(p for _, label, p in _cli.evaluate_plan(plan, pair.minus) if label == "-")
    if args.plan_out:
        with open(args.plan_out, "w") as fh:
            json.dump(_cli.plan_document(plan), fh, indent=2)
            fh.write("\n")
    print(json.dumps({"p_correct_plus": p_plus, "p_correct_minus": p_minus}))
    ok = p_plus >= 1.0 - PLAN_MISS_TOL and p_minus >= 1.0 - PLAN_MISS_TOL
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


COMMANDS = ("compile", "verify", "analyze", "sweep", "distinguish")


@cache  # one parser per subcommand and process, however often ``main`` runs in it
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, if it is one of ``COMMANDS``, else of
    all of them.  The usage names every subcommand either way, so help and
    error texts are those of the parser of all five."""
    parser = argparse.ArgumentParser(
        prog="stateprep", description="Amplitude-encoding circuit tools"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # Given a metavar, argparse names the argument by it in its errors, not by ``dest``:
    # only a parser of one subcommand, which raises no error about the subcommand, has one.
    one = command in COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=f"{{{','.join(COMMANDS)}}}" if one else None)
    wanted = {command} if one else set(COMMANDS)

    if "compile" in wanted:
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

    if "verify" in wanted:
        p = sub.add_parser("verify", help="check a circuit against a target vector")
        p.add_argument("circuit")
        p.add_argument("target")
        p.add_argument("--mode", choices=("enumerate", "sample"), default="enumerate")
        p.add_argument("--shots", type=int, default=None, help="sample mode only (default 4096)")
        p.add_argument("--seed", type=int, default=None, help="sample mode only (default 0)")
        p.add_argument("--branch-cap", type=int, default=DEFAULT_BRANCH_CAP)
        p.set_defaults(func=cmd_verify)

    if "analyze" in wanted:
        p = sub.add_parser("analyze", help="closed-form resource table")
        p.add_argument("--n-min", type=int, required=True)
        p.add_argument("--n-max", type=int, required=True)
        p.add_argument("--measure", action="store_true",
                       help="also synthesize circuits and report measured metrics")
        p.set_defaults(func=cmd_analyze)

    if "sweep" in wanted:
        p = sub.add_parser("sweep", help="width/depth tradeoff across lambda")
        p.add_argument("--n", type=int, nargs="+", required=True, help="one or more sizes")
        p.add_argument("--lambda-min", type=int, default=1)
        p.add_argument("--lambda-max", type=int, default=None)
        p.add_argument("--measure", action="store_true")
        p.set_defaults(func=cmd_sweep)

    if "distinguish" in wanted:
        p = sub.add_parser("distinguish", help="adaptive plan for two orthogonal states")
        p.add_argument("plus")
        p.add_argument("minus")
        p.add_argument("--plan-out", default=None)
        p.set_defaults(func=cmd_distinguish)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the named subcommand's parser is built: argparse looks up a
    # translation for each parser and help text it builds.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError, StatePrepError) as exc:
        # A MemoryError is worded where it is raised: numpy names the allocation.
        return _fail(str(exc) or type(exc).__name__, EXIT_USAGE)


def run() -> int:
    """``main``'s exit code, after ``gc.freeze()``: the process's one exit.
    Frozen, the roughly 21k objects that numpy, the package and the request
    leave tracked are skipped by the full collections of interpreter
    shutdown (about 4 ms each on a 2-core x86 host).  The process holds
    them to its end anyway, and atexit handlers and stdio teardown still
    run.  Argparse's own exits (``--version``, usage errors) freeze too."""
    try:
        return main()
    finally:
        gc.freeze()
