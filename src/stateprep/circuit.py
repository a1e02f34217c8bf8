"""Circuit intermediate representation.

Gates, mid-circuit measurements and classically conditioned operations are
stored as one flat op list.  A condition fires when the integer that
previously written classical ``bits`` spell (``bits[0]`` most significant)
is one of ``values``, OpenQASM 3's ``if (c == v)`` widened to a set.  A
``Circuit`` validates itself when constructed.  ``deserialize`` also reads
the older ``{"bits", "table"}`` truth-table form.

Two depth figures are reported.  ``depth_gates`` layers only the loading
and combining unitaries (ops whose ``role`` is not measurement machinery
and that carry no classical condition); it is the figure the closed-form
resource expressions describe.  ``depth_full`` layers every op, including
basis-change rotations, measurements and conditioned corrections.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import InvalidCircuit, ParseError

KINDS = ("roty", "rotz", "z", "x", "h", "cswap", "mcroty", "measure", "reset")
UNITARY_KINDS = ("roty", "rotz", "z", "x", "h", "cswap", "mcroty")
ANGLE_KINDS = ("roty", "rotz", "mcroty")

ROLE_MEAS_BASIS = "meas_basis"
ROLE_CORRECT = "correct"
ROLE_LOAD = "load"
ROLE_COMBINE = "combine"


@dataclass(frozen=True)
class Condition:
    """Fires when the integer ``bits`` spell (``bits[0]`` most significant)
    is in ``values``, which ascends strictly within ``[0, 2**len(bits))``."""

    bits: tuple[int, ...]
    values: tuple[int, ...]


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    clbit: int | None = None
    polarities: tuple[int, ...] | None = None
    condition: Condition | None = None
    role: str | None = None

    @property
    def is_unitary(self) -> bool:
        return self.kind in UNITARY_KINDS


def roty(q: int, theta: float, condition=None, role=None) -> Gate:
    return Gate("roty", (q,), angle=float(theta), condition=condition, role=role)


def rotz(q: int, phi: float, condition=None, role=None) -> Gate:
    return Gate("rotz", (q,), angle=float(phi), condition=condition, role=role)


def pauli_z(q: int, condition=None, role=None) -> Gate:
    return Gate("z", (q,), condition=condition, role=role)


def pauli_x(q: int, condition=None, role=None) -> Gate:
    return Gate("x", (q,), condition=condition, role=role)


def hadamard(q: int, condition=None, role=None) -> Gate:
    return Gate("h", (q,), condition=condition, role=role)


def cswap(control: int, target_a: int, target_b: int, role=None) -> Gate:
    return Gate("cswap", (control, target_a, target_b), role=role)


def mcroty(theta: float, controls, target: int, role=None) -> Gate:
    controls = tuple(controls)
    qubits = tuple(q for q, _ in controls) + (target,)
    pols = tuple(int(p) for _, p in controls)
    return Gate("mcroty", qubits, angle=float(theta), polarities=pols, role=role)


def measure(q: int, clbit: int) -> Gate:
    return Gate("measure", (q,), clbit=int(clbit))


def reset(q: int) -> Gate:
    return Gate("reset", (q,))


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    n_clbits: int
    ops: tuple[Gate, ...]
    data_qubits: tuple[int, ...]
    stage_reports: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "Circuit":
        """Raise ``InvalidCircuit`` unless well formed; construction runs it.

        Besides the document's own consistency this fixes what the
        simulator relies on: no op touches a wire after its ``measure``.
        """
        if self.n_qubits < 0 or self.n_clbits < 0:
            raise InvalidCircuit(f"negative register size {self.n_qubits}, {self.n_clbits}")
        written: set[int] = set()
        measured: set[int] = set()
        for i, op in enumerate(self.ops):
            if op.kind not in KINDS:
                raise InvalidCircuit(f"op {i}: unknown kind {op.kind!r}")
            if len(set(op.qubits)) != len(op.qubits):
                raise InvalidCircuit(f"op {i}: repeated qubit in {op.qubits}")
            for q in op.qubits:
                if not 0 <= q < self.n_qubits:
                    raise InvalidCircuit(f"op {i}: qubit {q} out of range")
                if q in measured:
                    raise InvalidCircuit(f"op {i}: qubit {q} used after its measurement")
            if (op.angle is not None) != (op.kind in ANGLE_KINDS):
                raise InvalidCircuit(f"op {i}: angle mismatch for kind {op.kind!r}")
            if op.angle is not None and not math.isfinite(op.angle):
                raise InvalidCircuit(f"op {i}: angle {op.angle} is not finite")
            arity = 3 if op.kind == "cswap" else 1
            if op.kind != "mcroty" and len(op.qubits) != arity:
                raise InvalidCircuit(f"op {i}: {op.kind} needs {arity} qubit(s)")
            if op.kind == "mcroty":
                if op.polarities is None or len(op.polarities) != len(op.qubits) - 1:
                    raise InvalidCircuit(f"op {i}: bad mcroty polarities")
                if any(p not in (0, 1) for p in op.polarities):
                    raise InvalidCircuit(f"op {i}: polarities must be 0/1")
            elif op.polarities is not None:
                raise InvalidCircuit(f"op {i}: polarities only valid on mcroty")
            if op.kind == "measure":
                if op.clbit is None or not 0 <= op.clbit < self.n_clbits:
                    raise InvalidCircuit(f"op {i}: bad clbit {op.clbit}")
                if op.clbit in written:
                    raise InvalidCircuit(f"op {i}: clbit {op.clbit} written twice")
                written.add(op.clbit)
                measured.add(op.qubits[0])
            elif op.clbit is not None:
                raise InvalidCircuit(f"op {i}: clbit only valid on measure")
            if op.condition is not None:
                if op.kind in ("measure", "reset"):
                    raise InvalidCircuit(f"op {i}: conditions on {op.kind} unsupported")
                cond = op.condition
                vals = cond.values
                if any(a >= b for a, b in zip(vals, vals[1:])):
                    raise InvalidCircuit(f"op {i}: condition values must ascend strictly")
                if vals and not (vals[0] >= 0 and vals[-1] < 2 ** len(cond.bits)):
                    raise InvalidCircuit(f"op {i}: condition value out of range")
                if len(set(cond.bits)) != len(cond.bits):
                    raise InvalidCircuit(f"op {i}: repeated clbit in {cond.bits}")
                for b in cond.bits:
                    if b not in written:
                        raise InvalidCircuit(f"op {i}: condition reads unmeasured bit {b}")
        for q in self.data_qubits:
            if not 0 <= q < self.n_qubits:
                raise InvalidCircuit(f"data qubit {q} out of range")
        if len(set(self.data_qubits)) != len(self.data_qubits):
            raise InvalidCircuit("repeated data qubit")
        return self


@dataclass(frozen=True)
class ResourceReport:
    qubits: int
    unit_cswaps: int
    depth_gates: int
    depth_full: int


def _asap_layers(ops) -> tuple[list[int | None], list[int]]:
    """ASAP layer per op for gate depth (None for ops it leaves out) and
    for full depth, in one pass.

    An op starts one layer after the latest op sharing a wire or, for
    conditioned ops, after the measurement writing any bit it reads.
    """
    gate_free, full_free, bit_ready = defaultdict(int), defaultdict(int), defaultdict(int)
    gate_out: list[int | None] = []
    full_out: list[int] = []
    for op in ops:
        # A valid op touches at least one wire.
        layer = max(map(full_free.__getitem__, op.qubits))
        if op.condition is not None:
            for b in op.condition.bits:
                layer = max(layer, bit_ready[b])
        full_out.append(layer)
        for q in op.qubits:
            full_free[q] = layer + 1
        if op.kind == "measure":
            bit_ready[op.clbit] = layer + 1
        if op.is_unitary and op.condition is None and op.role != ROLE_MEAS_BASIS:
            layer = max(map(gate_free.__getitem__, op.qubits))
            gate_out.append(layer)
            for q in op.qubits:
                gate_free[q] = layer + 1
        else:
            gate_out.append(None)
    return gate_out, full_out


def layers(circuit: Circuit, full: bool = True) -> list[int | None]:
    """Layer index per op; with ``full=False`` only the gate-depth ops."""
    gate_layers, full_layers = _asap_layers(circuit.ops)
    return full_layers if full else gate_layers


def metrics(circuit: Circuit) -> ResourceReport:
    gate_layers, full_layers = _asap_layers(circuit.ops)
    return ResourceReport(
        qubits=circuit.n_qubits,
        unit_cswaps=sum(1 for op in circuit.ops if op.kind == "cswap"),
        depth_gates=1 + max((v for v in gate_layers if v is not None), default=-1),
        depth_full=1 + max(full_layers, default=-1),
    )


def _format_angle(a: float) -> float:
    return float(f"{a:.12g}")


def _op_to_dict(op: Gate) -> dict:
    doc: dict = {"kind": op.kind, "qubits": list(op.qubits)}
    if op.angle is not None:
        doc["angle"] = _format_angle(op.angle)
    if op.clbit is not None:
        doc["clbit"] = op.clbit
    if op.polarities is not None:
        doc["polarities"] = list(op.polarities)
    if op.condition is not None:
        doc["condition"] = {
            "bits": list(op.condition.bits),
            "values": list(op.condition.values),
        }
    if op.role is not None:
        doc["role"] = op.role
    return doc


def serialize(circuit: Circuit) -> str:
    doc = {
        "n_qubits": circuit.n_qubits,
        "n_clbits": circuit.n_clbits,
        "data_qubits": list(circuit.data_qubits),
        "ops": [_op_to_dict(op) for op in circuit.ops],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


# ``type`` rather than ``isinstance`` refuses JSON booleans as numbers.
def _expect(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise ParseError(f"missing field {key!r}", where)
    value = doc[key]
    if type(value) is not kind:
        raise ParseError(f"field {key!r} has wrong type", f"{where}.{key}")
    return value


def _parse_int_list(value, where: str) -> list[int]:
    if type(value) is not list or not all(type(v) is int for v in value):
        raise ParseError("expected a list of integers", where)
    return value


def _parse_condition(cond, where: str) -> Condition:
    if not isinstance(cond, dict):
        raise ParseError("condition is not an object", where)
    bits = tuple(_parse_int_list(_expect(cond, "bits", list, where), f"{where}.bits"))
    if "table" in cond:
        # Older documents spell the condition as a truth table with one 0/1
        # entry per assignment of ``bits``.
        table = _parse_int_list(_expect(cond, "table", list, where), f"{where}.table")
        if len(table) != 2 ** len(bits) or any(v not in (0, 1) for v in table):
            raise ParseError("truth table needs 2**len(bits) 0/1 entries", f"{where}.table")
        return Condition(bits=bits, values=tuple(i for i, v in enumerate(table) if v))
    values = _parse_int_list(_expect(cond, "values", list, where), f"{where}.values")
    return Condition(bits=bits, values=tuple(values))


def _parse_op(doc, i: int) -> Gate:
    where = f"ops[{i}]"
    if not isinstance(doc, dict):
        raise ParseError("op is not an object", where)
    known = {"kind", "qubits", "angle", "clbit", "polarities", "condition", "role"}
    for key in doc:
        if key not in known:
            raise ParseError(f"unknown field {key!r}", f"{where}.{key}")
    kind = _expect(doc, "kind", str, where)
    if kind not in KINDS:
        raise ParseError(f"unknown op kind {kind!r}", f"{where}.kind")
    qubits = tuple(_parse_int_list(_expect(doc, "qubits", list, where), f"{where}.qubits"))
    angle = doc.get("angle")
    # The bound refuses NaN, infinities and integers no float can hold.
    finite = type(angle) in (int, float) and abs(angle) <= sys.float_info.max
    if angle is not None and not finite:
        raise ParseError("angle must be a finite number", f"{where}.angle")
    clbit = doc.get("clbit")
    if clbit is not None and type(clbit) is not int:
        raise ParseError("clbit must be an integer", f"{where}.clbit")
    pols = doc.get("polarities")
    if pols is not None:
        pols = tuple(_parse_int_list(pols, f"{where}.polarities"))
    condition = None
    if "condition" in doc:
        condition = _parse_condition(doc["condition"], f"{where}.condition")
    role = doc.get("role")
    if role is not None and not isinstance(role, str):
        raise ParseError("role must be a string", f"{where}.role")
    return Gate(
        kind=kind,
        qubits=qubits,
        angle=float(angle) if angle is not None else None,
        clbit=clbit,
        polarities=pols,
        condition=condition,
        role=role,
    )


def deserialize(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"offset {exc.pos}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document is not an object", "$")
    n_qubits = _expect(doc, "n_qubits", int, "$")
    n_clbits = _expect(doc, "n_clbits", int, "$")
    data_qubits = tuple(
        _parse_int_list(_expect(doc, "data_qubits", list, "$"), "$.data_qubits")
    )
    ops_doc = _expect(doc, "ops", list, "$")
    ops = tuple(_parse_op(op, i) for i, op in enumerate(ops_doc))
    try:
        return Circuit(n_qubits=n_qubits, n_clbits=n_clbits, ops=ops, data_qubits=data_qubits)
    except InvalidCircuit as exc:
        raise ParseError(str(exc), "$.ops") from exc
