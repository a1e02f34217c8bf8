"""Circuit intermediate representation.

Gates, mid-circuit measurements and classically conditioned operations are
stored as one op table (``OpTable``), an array per field, which synthesis
emits level by level and ``validate``, the writer (``writer``: the depth
figures and ``serialize``) and the simulator read.  Beside it, ``validate``
holds a few arrays no longer than a field.
``Circuit.ops`` is that table, the one way into a circuit: synthesis
builds it with ``op_table`` and ``deserialize`` reads a document into it.
A condition fires when the integer that previously written classical
``bits`` spell (``bits[0]`` most significant) is one of ``values``,
OpenQASM 3's ``if (c == v)`` widened to a set.  A conditioned ``roty`` may
hold one angle per value, OpenQASM 3's ``ry(theta[c]) q;``: one op that the
outcome selects the angle of, its angles aligned with ``values``.  A
``Circuit`` validates itself when constructed.  ``deserialize`` reads a
document's fields and ``ops`` by one set of rules over columns, which also
locate its first malformed op and field, and reads the older
``{"bits", "table"}`` truth-table form.

An op waits for the last earlier op on each of its wires and for the
``measure`` of each bit its condition reads: ``OpTable.waits``, which
``validate`` and both depth figures read; the simulator's ``_plan`` reads
only its bit half, ``OpTable.bit_waits``.  One last-writer pass,
``_last_writer``, computes both halves, and ``validate``'s clbits written
twice: a qubit entry writes its wire, a ``measure`` its clbit, and a
condition bit only reads.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain, compress, repeat

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
    rotation is applied if no value matches.  ``len`` and ``n_ops`` count
    the ops."""

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

    def __eq__(self, other) -> bool:
        return isinstance(other, OpTable) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def offsets(self, j: int) -> np.ndarray:
        """Where each op's entries of ``RAGGED[j]`` start, then where the last ends."""
        return np.concatenate(([0], np.cumsum(self.counts[:, j])))

    def rows(self, j: int, flat: np.ndarray | None = None) -> list[list[int]]:
        """Each op's entries of ``RAGGED[j]``, or of ``flat``, aligned with them."""
        flat = getattr(self, RAGGED[j]) if flat is None else flat
        flat, off = flat.tolist(), self.offsets(j).tolist()
        return [flat[a:b] for a, b in zip(off, off[1:])]

    def owner(self, j: int, entries=None) -> np.ndarray:
        """The op holding each of ``entries`` of ``RAGGED[j]``, or each entry."""
        return np.repeat(np.arange(self.n_ops), self.counts[:, j]) if entries is None else (
            np.searchsorted(self.offsets(j), entries, side="right") - 1)

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
    def concat(tables: list) -> OpTable:
        """The ops of ``tables``; empties the list, to free a column's parts once joined."""
        if len(tables) == 1:
            return tables.pop()
        columns = [[getattr(t, f.name) for t in tables] for f in fields(OpTable)]
        tables.clear()
        return OpTable(*(np.concatenate(columns.pop(0)) for _ in fields(OpTable)))


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
    out = np.arange(counts.sum())
    out -= np.repeat(np.cumsum(counts) - counts, counts)  # in place: one temporary
    return out


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    n_clbits: int
    ops: OpTable
    data_qubits: tuple[int, ...]
    stage_reports: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
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

        def unknown(field, codes, names):
            return (codes < 0) | (codes >= len(names)), lambda i: f"unknown {field} code {codes[i]}"

        def check(bad, message, j=None):
            """Note ``message(i)`` for the first op ``i`` where ``bad`` holds,
            or, given entries of ``RAGGED[j]``, for the op of the first bad one."""
            if bad.any():
                i = int(np.argmax(bad))
                errors.append((i if j is None else int(t.owner(j, i)), message(i)))

        bad_kind, message = unknown("kind", t.kind, KINDS)
        check(bad_kind, message)
        kind = np.where(bad_kind, -1, t.kind)  # a code that indexes ``KINDS``
        measure, mcroty = kind == KIND["measure"], kind == KIND["mcroty"]
        # Without a measurement nothing follows one, and no bit is written.
        after, unwritten = False, np.ones(len(t.bits), dtype=bool)
        if len(written := np.flatnonzero(measure)):
            wire, bit = t.waits  # the dependency view, which the table keeps
            after, unwritten = (wire >= 0) & measure[wire], bit < 0
        check(_repeats(t, 0), lambda i: f"repeated qubit in {tuple(t.rows(0)[i])}")
        q = t.qubits  # viewed as unsigned, a negative entry is out of range too
        check((q.view(np.uint64) >= self.n_qubits) | after, lambda j: f"qubit {q[j]} " + (
            "used after its measurement" if 0 <= q[j] < self.n_qubits else "out of range"), 0)
        angled = np.isin(kind, [KIND[k] for k in ANGLE_KINDS])
        check((na > 0) != angled, lambda i: f"angle mismatch for kind {KINDS[kind[i]]!r}")
        check(~np.isfinite(t.angle), lambda j: f"angle {t.angle[j]} is not finite", 4)
        several = (na > 1) & ((kind != KIND["roty"]) | (na != nv))
        check(several, lambda i: f"{na[i]} angles: only a conditioned roty has one per value")
        arity = np.where(kind == KIND["cswap"], 3, 1)
        check(~mcroty & (nq != arity), lambda i: f"{KINDS[kind[i]]} needs {arity[i]} qubit(s)")
        check(mcroty & (npol != nq - 1), lambda i: "bad mcroty polarities")
        check(np.repeat(mcroty, npol) & (t.polarities.view(np.uint64) > 1),
              lambda j: "polarities must be 0/1", 1)
        check(~mcroty & (npol > 0), lambda i: "polarities only valid on mcroty")
        check(measure & ((c < 0) | (c >= self.n_clbits)),
              lambda i: f"bad clbit {None if c[i] == -1 else c[i]}")
        twice = np.zeros(t.n_ops, dtype=bool)
        twice[written[_last_writer(c[written], written) >= 0]] = True
        check(twice, lambda i: f"clbit {c[i]} written twice")
        check(~measure & (c >= 0), lambda i: "clbit only valid on measure")
        fixed = (nb > 0) & (measure | (kind == KIND["reset"]))
        check(fixed, lambda i: f"conditions on {KINDS[kind[i]]} unsupported")
        conditioned = (nb > 0) | (nv > 0)
        check(conditioned & ((nb == 0) | (nb > 63)),
              lambda i: f"{nb[i]} condition bits, not 1 to 63")
        check(_descents(t, 3), lambda j: "condition values must ascend strictly", 3)
        # An op's values ascend, or it failed above: its first and last bound the rest.
        off, has, big = t.offsets(3), nv > 0, np.zeros(t.n_ops, dtype=bool)
        big[has] = (v[off[:-1][has]] < 0) | (np.right_shift(v[off[1:][has] - 1], nb[has]) != 0)
        check(big, lambda i: "condition value out of range")
        check(_repeats(t, 2), lambda i: f"repeated clbit in {tuple(t.rows(2)[i])}")
        check(unwritten, lambda j: f"condition reads unmeasured bit {t.bits[j]}", 2)
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


def _descents(t: OpTable, j: int) -> np.ndarray:
    """Whether each entry of ``RAGGED[j]`` is at most the one before it in its op."""
    flat = getattr(t, RAGGED[j])
    out = np.zeros(len(flat) + 1, dtype=bool)
    out[1:-1] = flat[1:] <= flat[:-1]
    out[t.offsets(j)] = False  # an op's first entry
    return out[:-1]


def _repeats(t: OpTable, j: int) -> np.ndarray:
    """Whether each op holds an entry of ``RAGGED[j]`` twice; ops whose entries ascend hold none."""
    bad = np.zeros(t.n_ops, dtype=bool)
    bad[t.owner(j, np.flatnonzero(_descents(t, j)))] = True
    if bad.any():  # the others are looked at one at a time
        bad[bad] = [len(set(r)) < len(r) for r in t.take(np.flatnonzero(bad)).rows(j)]
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
    last = np.take(writer, start, out=start, mode="clip")  # in place: only "raise" copies
    del writer
    found = (last >= 0) & (keys[last] == keys)  # an index -1 reads the last key, unfound
    keys[order] = np.where(found, np.take(ops, last, out=last, mode="clip"), -1)
    return keys


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
        _known([doc], {"n_qubits", "n_clbits", "data_qubits", "ops"})
        n_qubits, n_clbits = (_typed([doc], key, int)[0] for key in ("n_qubits", "n_clbits"))
        for name, size in (("n_qubits", n_qubits), ("n_clbits", n_clbits)):
            _check([size], _INT64, f"{name} must be a 64-bit integer", f".{name}", key=None)
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
