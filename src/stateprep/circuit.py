"""Circuit intermediate representation.

Gates, mid-circuit measurements and classically conditioned operations are
stored as one op table (``OpTable``), an array per field, which synthesis
emits level by level and ``validate``, ``metrics``, ``serialize`` and the
simulator read.  ``Circuit.ops`` is that table; read as a sequence it yields
one ``Gate`` record per op, made when first read.  A sequence of ``Gate``
records is accepted as ``ops`` and converted once, and converting a
table's records gives that table back.  A condition fires when the
integer that previously written classical ``bits`` spell (``bits[0]`` most
significant) is one of ``values``, OpenQASM 3's ``if (c == v)`` widened to
a set.  A conditioned ``roty`` may hold one angle per value, OpenQASM 3's
``ry(theta[c]) q;``: one op that the outcome selects the angle of, whose
record holds the angles as a tuple aligned with ``values``.  A ``Circuit``
validates itself when constructed.  ``deserialize`` reads a document's
``ops`` by one set of rules over columns, which also locate its first
malformed op and field, and reads the older ``{"bits", "table"}``
truth-table form.

An op waits for the last earlier op on each of its wires and for the
``measure`` of each bit its condition reads: ``OpTable.waits``, which
``validate`` and both depth figures read; the simulator's ``_plan`` reads
only its bit half, ``OpTable.bit_waits``.  One last-writer pass,
``_last_writer``, computes both halves, and ``validate``'s clbits written
twice: a qubit entry writes its wire, a ``measure`` its clbit, and a
condition bit only reads.

Two depth figures are reported.  ``depth_gates`` layers only the loading
and combining unitaries (ops whose ``role`` is not measurement machinery
and that carry no classical condition); it is the figure the closed-form
resource expressions describe.  ``depth_full`` layers every op, including
basis-change rotations, measurements and conditioned corrections.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain, compress, islice, repeat

import numpy as np

from .errors import InvalidCircuit, ParseError

KINDS = ("roty", "rotz", "z", "x", "h", "cswap", "mcroty", "measure", "reset")
UNITARY_KINDS = KINDS[:7]
ANGLE_KINDS = ("roty", "rotz", "mcroty")
KIND = {k: code for code, k in enumerate(KINDS)}

ROLE_MEAS_BASIS = "meas_basis"
ROLE_CORRECT = "correct"
ROLE_LOAD = "load"
ROLE_COMBINE = "combine"
ROLES = (None, ROLE_MEAS_BASIS, ROLE_CORRECT, ROLE_LOAD, ROLE_COMBINE)
ROLE = {r: code for code, r in enumerate(ROLES)}

# The ragged fields, in the order of the columns of ``OpTable.counts``.
RAGGED = ("qubits", "polarities", "bits", "values", "angle")
_INT64 = range(-(2**63), 2**63)  # the integers a table's columns hold


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
    angle: float | tuple[float, ...] | None = None  # a tuple: one per condition value
    clbit: int | None = None
    polarities: tuple[int, ...] | None = None
    condition: Condition | None = None
    role: str | None = None

    @property
    def is_unitary(self) -> bool:
        return self.kind in UNITARY_KINDS


def roty(q: int, theta: float | tuple[float, ...], condition=None, role=None) -> Gate:
    theta = tuple(map(float, theta)) if isinstance(theta, tuple) else float(theta)
    return Gate("roty", (q,), angle=theta, condition=condition, role=role)


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


@dataclass(frozen=True, eq=False)
class OpTable:
    """Ops as columns.  Per op: ``kind`` and ``role`` codes (indices into
    ``KINDS`` and ``ROLES``, -1 for a name neither holds) and ``clbit`` (-1
    where none).  Each field of ``RAGGED`` is one flat array of every op's
    entries in op order, and ``counts[i, j]`` is how many entries of
    ``RAGGED[j]`` op ``i`` has: ``polarities`` one per control qubit of an
    ``mcroty``, ``bits`` and ``values`` those of its condition, none if it
    has no condition, and ``angle`` one for a rotation, none for other
    kinds.  A conditioned ``roty`` may instead hold one angle per condition
    value, aligned with ``values``: the outcome selects the angle, and no
    rotation is applied if no value matches.

    Callers outside the package read it as a sequence of ``Gate`` records,
    one per op, made on first read; ``from_gates`` of them is this table.
    ``len`` and ``n_ops`` count the ops."""

    kind: np.ndarray
    role: np.ndarray
    clbit: np.ndarray
    qubits: np.ndarray
    polarities: np.ndarray
    bits: np.ndarray
    values: np.ndarray
    angle: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)

    n_ops = property(__len__)

    def __getitem__(self, i):
        return self.gates[i]

    def __iter__(self):
        return iter(self.gates)

    def __eq__(self, other) -> bool:
        return isinstance(other, OpTable) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        unknown_kind = (self.kind < 0) | (self.kind >= len(KINDS))
        unknown = unknown_kind | (self.role < 0) | (self.role >= len(ROLES))
        if unknown.any():  # no record for a code that names nothing, worded as ``validate`` does
            i = int(np.argmax(unknown))
            field, code = ("kind", self.kind[i]) if unknown_kind[i] else ("role", self.role[i])
            raise InvalidCircuit(f"op {i}: unknown {field} code {code}")

        def record(k, r, c, q, p, b, v, a):
            return Gate(KINDS[k], q, a[0] if len(a) == 1 else a or None, None if c < 0 else c,
                        p if k == KIND["mcroty"] else None, Condition(b, v) if b else None, ROLES[r])

        return tuple(map(record, self.kind.tolist(), self.role.tolist(), self.clbit.tolist(),
                         *((map(tuple, self.rows(j))) for j in range(len(RAGGED)))))

    def offsets(self, j: int) -> np.ndarray:
        """Where each op's entries of ``RAGGED[j]`` start, then where the last ends."""
        return np.concatenate(([0], np.cumsum(self.counts[:, j])))

    def rows(self, j: int, flat: np.ndarray | None = None) -> list[list[int]]:
        """Each op's entries of ``RAGGED[j]``, or of ``flat``, aligned with them."""
        flat = getattr(self, RAGGED[j]) if flat is None else flat
        flat, off = flat.tolist(), self.offsets(j).tolist()
        return [flat[a:b] for a, b in zip(off, off[1:])]

    def owner(self, j: int) -> np.ndarray:
        """The op holding each entry of ``RAGGED[j]``."""
        return np.repeat(np.arange(self.n_ops), self.counts[:, j])

    @cached_property
    def waits(self) -> tuple[np.ndarray, np.ndarray]:
        """The ops each op waits for, -1 for none: per ``qubits`` entry the
        last earlier op on that wire, and per ``bits`` entry ``bit_waits``."""
        return _last_writer(self.qubits, self.owner(0)), self.bit_waits

    @cached_property
    def bit_waits(self) -> np.ndarray:
        """Per ``bits`` entry, the last earlier ``measure`` that wrote that bit, else -1."""
        written = np.flatnonzero(self.kind == KIND["measure"])
        keys = np.concatenate((self.clbit[written], self.bits))
        ops = np.concatenate((written, self.owner(2)))
        return _last_writer(keys, ops, reads=len(self.bits))[len(written):]

    def take(self, order) -> OpTable:
        """The ops at the indices ``order``, in that order."""
        counts, flats = self.counts[order], []
        for j, name in enumerate(RAGGED):
            c = counts[:, j]
            flats.append(getattr(self, name)[np.repeat(self.offsets(j)[order], c) + ranges(c)])
        columns = (self.kind, self.role, self.clbit)
        return OpTable(*(col[order] for col in columns), *flats, counts)

    @staticmethod
    def concat(tables) -> OpTable:
        if len(tables) == 1:
            return tables[0]
        columns = (f.name for f in fields(OpTable))
        return OpTable(*(np.concatenate([getattr(t, name) for t in tables]) for name in columns))

    @staticmethod
    def from_gates(gates) -> OpTable:
        """The table of ``Gate`` records, which it keeps as its sequence."""
        gates = tuple(gates)
        conds = [g.condition or Condition((), ()) for g in gates]
        ragged = ([g.qubits for g in gates], [g.polarities or () for g in gates],
                  [c.bits for c in conds], [c.values for c in conds],
                  [() if g.angle is None else np.ravel(g.angle) for g in gates])
        try:
            flats = [list(chain.from_iterable(r)) for r in ragged]
            clbit = [-1 if g.clbit is None else g.clbit for g in gates]
            # Numpy's casts would read 1.7 or "1" as a qubit, and "0.5" as an angle.
            integers, reals = set(map(type, chain(*flats[:4], clbit))), set(map(type, flats[4]))
            if not (all(map(_integer, integers)) and all(map(_real, reals))):
                raise TypeError
            table = op_table(
                [KIND.get(g.kind, -1) for g in gates],
                *[(flat, list(map(len, r))) for flat, r in zip(flats, ragged)],
                role=[ROLE.get(g.role, -1) for g in gates],
                clbit=clbit,
            )
        except (OverflowError, TypeError, ValueError) as exc:
            raise InvalidCircuit(_malformed(gates, conds) or str(exc)) from None
        table.__dict__["gates"] = table.__dict__["given"] = gates
        return table


def _integer(t: type) -> bool:
    """Whether a record field's entry of type ``t`` is an integer: a Python
    or numpy integer, and not a bool."""
    return issubclass(t, (int, np.integer)) and t is not bool


def _real(t: type) -> bool:
    """Whether an angle's entry of type ``t`` is a real number."""
    return _integer(t) or issubclass(t, (float, np.floating))


def _malformed(gates, conds) -> str | None:
    """The first field of the records that holds an entry other than an
    integer (a real number, in an angle), or an integer past 64 bits,
    worded as ``validate`` names an op."""
    for i, (g, c) in enumerate(zip(gates, conds)):
        for field, value, entries, integer in (
            ("qubits", g.qubits, g.qubits, True),
            ("polarities", g.polarities, g.polarities or (), True),
            ("condition bits", c.bits, c.bits, True),
            ("condition values", c.values, c.values, True),
            ("angle", g.angle, () if g.angle is None else np.ravel(g.angle), False),
            ("clbit", g.clbit, () if g.clbit is None else (g.clbit,), True),
        ):
            try:
                types = set(map(type, entries))
            except TypeError:  # not a sequence, which the caller's error names
                continue
            if not all(map(_integer if integer else _real, types)):
                number = "an integer" if all(map(_real, types)) else "a number"
                return f"op {i}: {field} {value!r} is not {number}"
            try:
                np.asarray(list(entries), dtype=np.int64 if integer else float)
            except OverflowError:
                return f"op {i}: {field} {value!r} does not fit in 64 bits"
    return None


def op_table(kind, qubits, polarities=None, bits=None, values=None, angle=None, *, role=0,
             clbit=-1) -> OpTable:
    """A table from columns.  ``kind``, ``role`` and ``clbit`` hold a value
    per op or one for all (codes for ``kind`` and ``role``).  Each ragged
    field is a 2-d array with a row per op, a pair (flat entries, count per
    op), or None for no entries.  The table keeps, and does not copy, the
    arrays it is given, so a caller does not change them afterwards."""
    n = len(qubits[1]) if isinstance(qubits, tuple) else len(qubits)
    counts, flats = np.zeros((n, len(RAGGED)), dtype=np.int64), []
    for j, x in enumerate((qubits, polarities, bits, values, angle)):
        dtype = float if RAGGED[j] == "angle" else np.int64
        if x is None:
            x = ((), 0)
        elif not isinstance(x, tuple):
            x = np.asarray(x, dtype=dtype)
            x = (x.reshape(-1), x.shape[1])
        flats.append(np.asarray(x[0], dtype=dtype))
        counts[:, j] = x[1]

    def column(value, dtype):
        out = np.empty(n, dtype=dtype)
        out[...] = value
        return out

    return OpTable(column(kind, np.int8), column(role, np.int8), column(clbit, np.int64),
                   *flats, counts)


def ranges(counts: np.ndarray) -> np.ndarray:
    """``0, 1, ..., c - 1`` for each ``c`` of ``counts``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    n_clbits: int
    ops: OpTable  # a sequence of ``Gate`` records is converted
    data_qubits: tuple[int, ...]
    stage_reports: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.ops, OpTable):
            object.__setattr__(self, "ops", OpTable.from_gates(self.ops))
        self.validate()

    def validate(self) -> "Circuit":
        """Raise ``InvalidCircuit`` unless well formed; construction runs it.

        Besides the document's own consistency this fixes what the
        simulator relies on: no op touches a wire after its ``measure``.
        Of several malformed ops the message names the first.
        """
        if self.n_qubits < 0 or self.n_clbits < 0:
            raise InvalidCircuit(f"negative register size {self.n_qubits}, {self.n_clbits}")
        t, errors = self.ops, []  # (op, message), in the order one op's checks run
        c, v, (nq, npol, nb, nv, na) = t.clbit, t.values, t.counts.T
        given = t.__dict__.get("given", ())  # the records a table was made from, one per op

        def unknown(field, codes, names):  # worded by the name its record gave, else the code
            return (codes < 0) | (codes >= len(names)), lambda i: f"unknown {field} " + (
                repr(getattr(given[i], field)) if given else f"code {codes[i]}")

        def check(bad, message, owner=None):
            """Note ``message(i)`` for the first op ``i`` where ``bad`` holds,
            or, given the entries' ``owner``, that holds the first bad entry."""
            if bad.any():
                j = int(np.argmax(bad))
                errors.append((j if owner is None else int(owner[j]), message(j)))

        def any_entry(bad, owner):
            out = np.zeros(t.n_ops, dtype=bool)
            out[owner[bad]] = True
            return out

        bad_kind, message = unknown("kind", t.kind, KINDS)
        check(bad_kind, message)
        kind = np.where(bad_kind, -1, t.kind)  # a code that indexes ``KINDS``
        measure, mcroty = kind == KIND["measure"], kind == KIND["mcroty"]
        # Without a measurement nothing follows one, and no bit is written.
        after, unwritten = False, np.ones(len(t.bits), dtype=bool)
        if len(written := np.flatnonzero(measure)):
            wire, bit = t.waits  # before the owners below, so as not to hold both at once
            after, unwritten = (wire >= 0) & measure[wire], bit < 0
        q, qown, b, bown, vown = t.qubits, t.owner(0), t.bits, t.owner(2), t.owner(3)
        check(_repeats(q, qown, t.n_ops), lambda i: f"repeated qubit in {tuple(t.rows(0)[i])}")
        out = (q < 0) | (q >= self.n_qubits)
        check(out | after, lambda j: f"qubit {q[j]} " + (
            "out of range" if out[j] else "used after its measurement"), qown)
        angled = np.isin(kind, [KIND[k] for k in ANGLE_KINDS])
        check((na > 0) != angled, lambda i: f"angle mismatch for kind {KINDS[kind[i]]!r}")
        check(~np.isfinite(t.angle), lambda j: f"angle {t.angle[j]} is not finite", t.owner(4))
        several = (na > 1) & ((kind != KIND["roty"]) | (na != nv))
        check(several, lambda i: f"{na[i]} angles: only a conditioned roty has one per value")
        arity = np.where(kind == KIND["cswap"], 3, 1)
        check(~mcroty & (nq != arity), lambda i: f"{KINDS[kind[i]]} needs {arity[i]} qubit(s)")
        check(mcroty & (npol != nq - 1), lambda i: "bad mcroty polarities")
        pol_bad = any_entry((t.polarities != 0) & (t.polarities != 1), t.owner(1))
        check(mcroty & pol_bad, lambda i: "polarities must be 0/1")
        check(~mcroty & (npol > 0), lambda i: "polarities only valid on mcroty")
        check(measure & ((c < 0) | (c >= self.n_clbits)),
              lambda i: f"bad clbit {None if c[i] == -1 else c[i]}")
        check(_last_writer(c[written], written) >= 0,
              lambda j: f"clbit {c[written[j]]} written twice", written)
        check(~measure & (c >= 0), lambda i: "clbit only valid on measure")
        fixed = (nb > 0) & (measure | (kind == KIND["reset"]))
        check(fixed, lambda i: f"conditions on {KINDS[kind[i]]} unsupported")
        conditioned = (nb > 0) | (nv > 0)
        if given:  # a record's condition may hold neither bits nor values
            conditioned |= np.array([g.condition is not None for g in given])
        check(conditioned & ((nb == 0) | (nb > 63)),
              lambda i: f"{nb[i]} condition bits, not 1 to 63")
        descends = (vown[1:] == vown[:-1]) & (v[1:] <= v[:-1])
        check(any_entry(descends, vown[1:]), lambda i: "condition values must ascend strictly")
        big = np.right_shift(v, nb[vown]) != 0  # a condition reads 1 to 63 bits
        check(any_entry(big, vown), lambda i: "condition value out of range")
        check(_repeats(b, bown, t.n_ops), lambda i: f"repeated clbit in {tuple(t.rows(2)[i])}")
        check(unwritten, lambda j: f"condition reads unmeasured bit {b[j]}", bown)
        check(*unknown("role", t.role, ROLES))
        if errors:
            i, message = min(errors, key=lambda e: e[0])
            raise InvalidCircuit(f"op {i}: {message}")
        for dq in self.data_qubits:
            if not 0 <= dq < self.n_qubits:
                raise InvalidCircuit(f"data qubit {dq} out of range")
        if len(set(self.data_qubits)) != len(self.data_qubits):
            raise InvalidCircuit("repeated data qubit")
        return self


def _repeats(flat: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """Whether each of ``n`` ops holds one of its ``flat`` entries twice."""
    if not np.any((owner[1:] == owner[:-1]) & (flat[1:] <= flat[:-1])):
        return np.zeros(n, dtype=bool)  # every op's entries ascend
    order = np.lexsort((flat, owner))
    flat, owner = flat[order], owner[order]
    bad = np.zeros(n, dtype=bool)
    bad[owner[1:][(flat[1:] == flat[:-1]) & (owner[1:] == owner[:-1])]] = True
    return bad


def _last_writer(keys: np.ndarray, ops: np.ndarray, reads: int = 0) -> np.ndarray:
    """Entry ``i`` is key ``keys[i]`` held by op ``ops[i]``.  For each entry,
    the op of the last entry of an earlier op that holds the same key and
    writes it, else -1.  The last ``reads`` entries only read their key,
    and the others write it.  Sorted by (key, op), that is the last writing
    entry before the first of the entry's own (key, op) group, so an op
    never waits for itself."""
    order = np.lexsort((ops, keys))
    keys, ops = keys[order], ops[order]
    start = np.arange(len(order))  # where each entry's (key, op) group starts
    start[1:][(keys[1:] == keys[:-1]) & (ops[1:] == ops[:-1])] = 0
    np.maximum.accumulate(start, out=start)
    writer = np.arange(-1, len(order))  # at k, the last writing entry before entry k
    writer[1:][order >= len(order) - reads] = -1
    np.maximum.accumulate(writer, out=writer)
    last = writer[start]
    del start, writer
    found = (last >= 0) & (keys[last] == keys)
    keys[order] = np.where(found, ops[last], -1)  # the sorted keys, read no more, hold the result
    return keys


@dataclass(frozen=True)
class ResourceReport:
    qubits: int
    unit_cswaps: int
    depth_gates: int
    depth_full: int


def _asap(t: OpTable, full: bool) -> tuple[np.ndarray, list[int]]:
    """The ops that a depth figure layers, and the ASAP layer of each.
    Full depth layers every op, and gate depth its counted ops on their own
    table.  An op's layer is one after the latest of the ops it waits for
    (``OpTable.waits``), else 0."""
    counted = (t.kind < len(UNITARY_KINDS)) & (t.counts[:, 2] == 0)
    counted &= t.role != ROLE[ROLE_MEAS_BASIS]
    ops = np.arange(t.n_ops) if full else np.flatnonzero(counted)
    # Ops that all touch the first one's first wire run one per layer.
    if np.bincount(t.owner(0)[t.qubits == t.qubits[:1]], minlength=t.n_ops).all():
        return ops, list(range(len(ops)))
    t = t if full else t.take(ops)
    wire, bit = (w.tolist() for w in t.waits)
    q_off, b_off = t.offsets(0).tolist(), t.offsets(2).tolist()
    layer = [0] * t.n_ops + [-1]  # the last, read at index -1, stands for no op
    for i, a, b, c, d in zip(range(t.n_ops), q_off, q_off[1:], b_off, b_off[1:]):
        layer[i] = 1 + max(map(layer.__getitem__, wire[a:b] + bit[c:d]))
    return ops, layer[:-1]


def layers(circuit: Circuit, full: bool = True) -> list[int | None]:
    """Layer index of each op of ``circuit.ops``, None for an op that the
    figure does not layer: with ``full=False`` all but the gate-depth ops."""
    ops, layer = _asap(circuit.ops, full)
    out = np.full(circuit.ops.n_ops, None)
    out[ops] = layer
    return out.tolist()


def metrics(circuit: Circuit) -> ResourceReport:
    t = circuit.ops
    depths = (1 + max(_asap(t, full)[1], default=-1) for full in (False, True))
    return ResourceReport(circuit.n_qubits, int(np.count_nonzero(t.kind == KIND["cswap"])), *depths)


_KIND_TEXT = [f'{{"kind":"{k}","qubits":[' for k in KINDS]
_ROLE_TEXT = ["}" if r is None else f',"role":"{r}"}}' for r in ROLES]
CHUNK = 4096  # ops rendered at a time; writing a document holds one such run's text


def _joined(t: OpTable, j: int) -> list[str]:
    """Each op's entries of ``RAGGED[j]``, comma-separated; the entries of a
    valid table are non-negative.  The digits are written with numpy."""
    flat = getattr(t, RAGGED[j])
    digits = np.ones(len(flat), dtype=np.int64)
    for k in range(1, len(str(flat.max(initial=0)))):
        digits += flat >= 10**k
    end = np.cumsum(digits + 1)  # just past each entry's comma
    text = np.full(end[-1] if len(end) else 0, ord(","), dtype=np.uint8)
    rest = flat.copy()
    for k in range(int(digits.max(initial=0))):
        on = digits > k
        text[(end - 2 - k)[on]] = ord("0") + rest[on] % 10
        rest //= 10
    text, starts = text.tobytes().decode(), np.append(end - digits - 1, len(text))
    off = t.offsets(j)
    first = starts[off[:-1]]
    return list(map(text.__getitem__, map(slice, first.tolist(),
                                          np.maximum(starts[off[1:]] - 1, first).tolist())))


def _number(a: float) -> str:
    """``json.dumps(float(f"{a:.12g}"))``: 12 significant digits, then the
    shortest repr of that float.  A fixed-point text of at most 12 digits
    is that repr already."""
    text = f"{a:.12g}"
    return text if "." in text and "e" not in text else repr(float(text))


def serialize(circuit: Circuit, out=None) -> str | None:
    """One line of JSON, as ``json.dumps`` with compact separators spells
    it; angles keep 12 significant digits.  Returned, or written to the
    text file ``out`` a run of ``CHUNK`` ops at a time."""
    t, data = circuit.ops, ",".join(map(str, circuit.data_qubits))
    head = (f'{{"n_qubits":{circuit.n_qubits},"n_clbits":{circuit.n_clbits},'
            f'"data_qubits":[{data}],"ops":[')
    pieces = chain((head,), map(_ops_text, repeat(t), range(0, t.n_ops, CHUNK)), ("]}\n",))
    if out is None:
        return "".join(pieces)
    out.writelines(pieces)


def _ops_text(t: OpTable, a: int) -> str:
    """Ops ``a`` to ``a + CHUNK`` of ``t``, comma-separated, and after a
    comma unless ``a`` is 0."""
    run, first = slice(a, a + CHUNK), t.counts[:a].sum(axis=0)
    flats = zip(RAGGED, first.tolist(), (first + t.counts[run].sum(axis=0)).tolist())
    t = OpTable(t.kind[run], t.role[run], t.clbit[run],  # views of the run's columns
                *(getattr(t, name)[i:j] for name, i, j in flats), t.counts[run])
    kinds = t.kind.tolist()
    numbers = map(_number, t.angle.tolist())  # read in op order, each op its count
    angles = ["]" if k == 0 else f'],"angle":{next(numbers)}' if k == 1 else
              f'],"angle":[{",".join(islice(numbers, k))}]' for k in t.counts[:, 4].tolist()]
    del numbers  # and with it the list of floats, before the larger parts are built
    clbits = [f',"clbit":{c}' if c >= 0 else "" for c in t.clbit.tolist()]
    pols = [f',"polarities":[{p}]' if k == KIND["mcroty"] else ""
            for k, p in zip(kinds, _joined(t, 1))]
    conds = [f',"condition":{{"bits":[{b}],"values":[{v}]}}' if b else ""
             for b, v in zip(_joined(t, 2), _joined(t, 3))]
    texts = map("".join, zip(map(_KIND_TEXT.__getitem__, kinds), _joined(t, 0), angles, clbits,
                             pols, conds, map(_ROLE_TEXT.__getitem__, t.role.tolist())))
    return ("," if a else "") + ",".join(texts)


_FIELDS = {"kind", "qubits", "angle", "clbit", "polarities", "condition", "role"}
_INTS = "expected a list of 64-bit integers"


class _Malformed(Exception):
    """Raised with the op that breaks a rule, the message and the field."""


def _check(entries, allowed, message: str, where: str = "", key=type, lengths=None) -> None:
    """Check on their distinct keys that ``key(x)``, or ``x`` if ``key`` is
    None, is in ``allowed`` for every ``x`` of ``entries``.  Else raise
    ``_Malformed`` at the op holding the first ``x`` that is not, with
    ``message`` and ``where`` formatted with it.  An op holds one entry, or
    as many as its count in ``lengths``."""
    if all(map(allowed.__contains__, set(entries if key is None else map(key, entries)))):
        return
    keys = entries if key is None else map(key, entries)
    j, x = next((j, x) for j, (x, k) in enumerate(zip(entries, keys)) if k not in allowed)
    i = j if lengths is None else int(np.searchsorted(np.cumsum(lengths), j, side="right"))
    raise _Malformed(i, message.format(x), where.format(x))


def _typed(rows: list, key: str, kind: type, where: str = "", has=None) -> list:
    """Each row's field ``key``, which every row must hold, of type ``kind``.
    The rows are the ops, or a row each for the ops that the mask ``has`` marks."""
    col = list(map(dict.get, rows, repeat(key)))
    if not set(map(type, col)) <= {kind}:
        _check(rows, {True}, f"missing field {key!r}", where, lambda row: key in row, has)
        _check(col, {kind}, f"field {key!r} has wrong type", f"{where}.{key}", lengths=has)
    return col


def _known(rows: list, fields: set, where: str = "", has=None) -> None:
    """Refuse the first key of ``rows`` (as for ``_typed``) that is not in ``fields``."""
    if not fields.issuperset(set().union(*rows)):
        i, key = next((i, k) for i, row in enumerate(rows) for k in row if k not in fields)
        i = i if has is None else int(np.flatnonzero(has)[i])
        raise _Malformed(i, f"unknown field {key!r}", f"{where}.{key}")


def _numbers(rows: list, message: str, where: str, real: bool = False, has=None):
    """The entries of ``rows`` (as for ``_typed``) as one array, and how many
    each op holds.  Each must be a 64-bit integer or, if ``real``, a finite
    number; ``type`` rather than ``isinstance`` refuses JSON booleans."""
    counts = np.zeros(len(rows) if has is None else len(has), dtype=np.int64)
    counts[slice(None) if has is None else has] = list(map(len, rows))
    flat = list(chain.from_iterable(rows))
    _check(flat, {int, float} if real else {int}, message, where, lengths=counts)
    try:
        if np.isfinite(array := np.array(flat, dtype=float if real else np.int64)).all():
            return array, counts
    except OverflowError:
        pass
    # The bounds refuse NaN, infinities and integers too large to hold.
    fits = (lambda a: abs(a) <= sys.float_info.max) if real else _INT64.__contains__
    _check(flat, {True}, message, where, key=fits, lengths=counts)


def _read(docs: list) -> OpTable:
    """The table of a document's ``ops``.  The rules run in the order of an
    op's fields, each over a column of every op, and the first rule that
    some op breaks raises ``_Malformed`` at the first op that breaks it."""
    _check(docs, {dict}, "op is not an object")
    _known(docs, _FIELDS)

    def column(key, rows=docs):
        return list(map(dict.get, rows, repeat(key)))

    kinds = _typed(docs, "kind", str)
    _check(kinds, KIND, "unknown op kind {!r}", ".kind", key=None)
    qubits = _numbers(_typed(docs, "qubits", list), _INTS, ".qubits")
    # An op holds no angle, one, or a non-empty list of them; an empty list
    # is kept as one entry, which is not a number.
    angles = [a if type(a) is list and a else () if a is None else (a,) for a in column("angle")]
    angle = _numbers(angles, "angle must be a finite number or a list of them", ".angle", real=True)
    clbit = [-1 if x is None else x for x in column("clbit")]
    _check(clbit, {int}, "clbit must be a 64-bit integer", ".clbit")
    try:
        clbit = np.array(clbit, dtype=np.int64)
    except OverflowError:
        _check(clbit, _INT64, "clbit must be a 64-bit integer", ".clbit", key=None)
    polarities = column("polarities")
    _check(polarities, {list, type(None)}, _INTS, ".polarities")
    polarities = _numbers([p or () for p in polarities], _INTS, ".polarities")
    has = np.fromiter(map(dict.__contains__, docs, repeat("condition")), bool, len(docs))
    conds = column("condition", compress(docs, has))
    _check(conds, {dict}, "condition is not an object", ".condition", lengths=has)
    _known(conds, {"bits", "values", "table"}, ".condition", has)
    bits = _numbers(_typed(conds, "bits", list, ".condition", has), _INTS, ".condition.bits",
                    has=has)
    widths = bits[1][has].tolist()
    _check(widths, range(1, 64), "{} condition bits, not 1 to 63", ".condition.bits", key=None,
           lengths=has)
    if "table" in set().union(*conds):
        # Older documents spell a condition as a truth table, with one 0/1
        # entry per assignment of its bits; a condition without one reads
        # here as an empty table that no rule looks at.
        _check(conds, {False}, "condition holds both values and a table", ".condition",
               key=lambda c: "table" in c and "values" in c, lengths=has)
        tables = _typed([c if "table" in c else {"table": []} for c in conds], "table", list,
                        ".condition", has)
        _numbers(tables, _INTS, ".condition.table", has=has)
        complete = [len(t) == 1 << w and set(t) <= {0, 1} or "table" not in c
                    for c, t, w in zip(conds, tables, widths)]
        _check(complete, {True}, "truth table needs 2**len(bits) 0/1 entries", ".condition.table",
               key=None, lengths=has)
        conds = [{"values": [v for v, bit in enumerate(t) if bit]} if "table" in c else c
                 for c, t in zip(conds, tables)]
    values = _numbers(_typed(conds, "values", list, ".condition", has), _INTS,
                      ".condition.values", has=has)
    roles = column("role")
    _check(roles, {type(None), str}, "role must be a string", ".role")
    _check(roles, ROLE, "unknown role {!r}", ".role", key=None)
    return op_table(list(map(KIND.get, kinds)), qubits, polarities, bits, values, angle,
                    role=list(map(ROLE.get, roles)), clbit=clbit)


def _columns(docs: list) -> OpTable:
    """The table of a document's ``ops``.  Where an op breaks a rule, the
    same rules read the ops before it, and the error names the first of
    those that is malformed, else that op."""
    try:
        return _read(docs)
    except _Malformed as bad:
        i, message, where = bad.args
        _columns(docs[:i])
        raise ParseError(message, f"ops[{i}]{where}") from None


def deserialize(text: str) -> Circuit:
    # The parsed document is acyclic and freed by reference counting; a
    # collection while it is built would only rescan it, and took half of
    # ``json.loads``'s time on a dense n=14 document.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _deserialize(text)
    finally:
        if collecting:
            gc.enable()


def _deserialize(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"offset {exc.pos}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document is not an object", "$")
    try:  # the document's own fields, read as a column of one row
        n_qubits, n_clbits = (_typed([doc], key, int)[0] for key in ("n_qubits", "n_clbits"))
        data_qubits = _numbers(_typed([doc], "data_qubits", list), _INTS, ".data_qubits")[0]
        data_qubits = tuple(data_qubits.tolist())
        ops_doc = _typed([doc], "ops", list)[0]
    except _Malformed as bad:
        raise ParseError(bad.args[1], "$" + bad.args[2]) from None
    ops = _columns(ops_doc)
    try:
        return Circuit(n_qubits=n_qubits, n_clbits=n_clbits, ops=ops, data_qubits=data_qubits)
    except InvalidCircuit as exc:
        raise ParseError(str(exc), "$.ops") from exc
