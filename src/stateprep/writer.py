"""Writing a circuit: its depth figures and its document.

Two depth figures are reported.  ``depth_gates`` layers only the loading
and combining unitaries (ops whose ``role`` is not measurement machinery
and that carry no classical condition); it is the figure the closed-form
resource expressions describe.  ``depth_full`` layers every op, including
basis-change rotations, measurements and conditioned corrections.  Both
read ``OpTable.waits``.

``serialize`` writes the document that ``circuit.deserialize`` reads.
Beside the op table, ``metrics`` and ``serialize`` hold a few arrays no
longer than a field, or one run of at most ``CHUNK`` ops and about
``ENTRIES`` entries, and ``serialize`` a digit table of at most
``DIGIT_TOP`` rows.  A ``verify`` request, which reads a document and
writes none, does not import this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat

import numpy as np

from .circuit import (KIND, KINDS, RAGGED, ROLE, ROLE_MEAS_BASIS, ROLES, UNITARY_KINDS, Circuit,
                      OpTable)

CHUNK = 1024  # ops written, or whose waits the depth pass lists, at a time
ENTRIES = 2**14  # ragged entries written at a time, and those of one op past them


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
    # Ops that all touch the first one's first wire (once, in a valid op) run one per layer.
    if np.count_nonzero(t.qubits == t.qubits[:1]) == t.n_ops:
        return ops, list(range(len(ops)))
    t = t if full or len(ops) == t.n_ops else t.take(ops)
    (wire, bit), q_off, b_off = t.waits, t.offsets(0), t.offsets(2)
    layer = [0] * t.n_ops + [-1]  # the last, read at index -1, stands for no op
    for i in range(0, t.n_ops, CHUNK):  # the waits of a chunk of ops as lists
        q, b = q_off[i:i + CHUNK + 1], b_off[i:i + CHUNK + 1]
        w, c = wire[q[0]:q[-1]].tolist(), bit[b[0]:b[-1]].tolist()
        q, b = (q - q[0]).tolist(), (b - b[0]).tolist()
        for k, a, z, d, e in zip(range(i, i + CHUNK), q, q[1:], b, b[1:]):
            layer[k] = 1 + max(map(layer.__getitem__, w[a:z] + c[d:e]))
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


# Each op's text starts with a comma, which the document's first op drops.
_KIND_TEXT = np.array([f',{{"kind":"{k}","qubits":[' for k in KINDS], dtype=object)
_ROLE_TEXT = np.array(["}" if r is None else f',"role":"{r}"}}' for r in ROLES], dtype=object)
DIGIT_TOP = 2**15  # the integers below it that a document holds are written from a table
_FORMAT = np.frombuffer(b"%d,\0\0,", dtype=np.uint8).reshape(2, 3)  # the others by a format


def _digits(top: int) -> np.ndarray:
    """Rows of ASCII bytes, NUL-padded on the left: ``v,`` for each ``v``
    below ``top``, then a row of a lone ``,``."""
    width = len(str(top - 1)) + 1
    v, table = np.arange(top), np.zeros((top + 1, width), dtype=np.uint8)
    for k in range(width - 1):  # the k-th digit from the right, where ``v`` has one
        table[:top, -2 - k] = np.where((v >= 10**k) | (k == 0), ord("0") + v // 10**k % 10, 0)
    table[:, -1] = ord(",")
    return table


def _field(digits: np.ndarray, flat: np.ndarray, counts: np.ndarray, head: str = "",
           tail: str = "") -> list[str]:
    """Per op of ``counts``, ``head``, its entries of ``flat`` comma-separated,
    then ``tail``.  The entries of a valid table are non-negative.  Each is
    a row of ``digits``, or if one is past the table's top, a ``%d,`` row of
    a format; an op with none is the lone-comma row.  Each op's last comma
    becomes a ``|``, so one ``split`` cuts the text into ops."""
    table, args = digits, None
    if flat.max(initial=0) >= len(digits) - 1:
        table, args, flat = _FORMAT, tuple(flat.tolist()), np.zeros(len(flat), dtype=np.int64)
    if not counts.all():
        flat = np.insert(flat, np.cumsum(counts)[counts == 0], len(table) - 1)
    rows = np.take(table, flat, axis=0)
    rows[np.cumsum(np.maximum(counts, 1)) - 1, -1] = ord("|")
    text = rows.tobytes().translate(None, b"\0").decode()
    if args is not None:
        text %= args
    return (head + text[:-1].replace("|", f"{tail}|{head}") + tail).split("|")


def _scattered(texts: list[str], present: np.ndarray) -> list[str]:
    """``texts`` at the ops that ``present`` marks, and "" at the others."""
    if present.all():
        return texts
    out = np.full(len(present), "", dtype=object)
    out[present] = texts
    return out.tolist()


def _angle_format(k: int, spec: str = "%.12g") -> str:
    """The text after an op's qubits: its ``k`` angles, each written by ``spec``."""
    return ("]" if k == 0 else f'],"angle":{spec}' if k == 1 else
            f'],"angle":[{",".join([spec] * k)}]')


def _number(a: float) -> str:
    """``json.dumps(float(f"{a:.12g}"))``: 12 significant digits, then the
    shortest repr of that float.  A fixed-point text of at most 12 digits
    is that repr already."""
    text = f"{a:.12g}"
    return text if "." in text and "e" not in text else repr(float(text))


def _angles(angle: np.ndarray, counts: np.ndarray) -> list[str]:
    """Each op's ``_angle_format`` text, its ``counts`` angles read in turn
    from ``angle``, written by one ``%`` format.  ``%.12g`` is ``_number``
    unless it prints no ``.``, which needs a value that 12 digits round to
    an integer (within ``0.5e-11`` of its size of one), or an ``e``, which
    needs a size below ``1e-4`` or from ``1e12 - 0.5`` up, where every
    value is within 0.5 of an integer.  The ops holding a value within
    twice that bound of an integer, or below ``1e-4``, are written again by
    ``_number``."""
    values, counts = angle.tolist(), counts.tolist()
    formats = {k: _angle_format(k) + "|" for k in set(counts)}
    texts = ("".join(map(formats.__getitem__, counts)) % tuple(values)).split("|")
    texts.pop()  # after the last op's marker
    size = np.abs(angle)
    unsure = (size < 1e-4) | (np.abs(angle - np.rint(angle)) <= 1e-11 * size)
    if unsure.any():
        off = [0, *accumulate(counts)]
        ops = np.searchsorted(off, np.flatnonzero(unsure), "right") - 1
        for i in dict.fromkeys(ops.tolist()):
            a, b = off[i:i + 2]
            texts[i] = _angle_format(b - a, "%s") % tuple(map(_number, values[a:b]))
    return texts


def serialize(circuit: Circuit, out=None) -> str | None:
    """One line of JSON, as ``json.dumps`` with compact separators spells
    it; angles keep 12 significant digits.  Returned, or written to the
    text file ``out`` a run of ops at a time (``_runs``)."""
    t, data = circuit.ops, ",".join(map(str, circuit.data_qubits))
    head = (f'{{"n_qubits":{circuit.n_qubits},"n_clbits":{circuit.n_clbits},'
            f'"data_qubits":[{data}],"ops":[')
    runs = list(_runs(t))  # each run's ops, then where its entries start
    firsts = accumulate((t.counts[a:b].sum(axis=0) for a, b in runs),
                        initial=np.zeros(len(RAGGED), dtype=np.int64))
    top = max(int(x.max(initial=1)) for x in (t.qubits, t.clbit, t.bits, t.values))
    digits = _digits(min(top + 1, DIGIT_TOP))  # once per document
    pieces = chain((head,), map(_ops_text, repeat(t), runs, firsts, repeat(digits)), ("]}\n",))
    if out is None:
        return "".join(pieces)
    out.writelines(pieces)


def _runs(t: OpTable):
    """The runs of ops that ``serialize`` writes at a time, as (first, end)
    pairs.  Each ``CHUNK`` ops are cut before every op whose entries end in
    a later span of ``ENTRIES`` than the op before it, so a run holds at
    most ``CHUNK`` ops, and at most ``ENTRIES`` entries beside those of its
    first op: a dense circuit's last stage holds ops of thousands."""
    for a in range(0, t.n_ops, CHUNK):
        span = (np.cumsum(t.counts[a:a + CHUNK].sum(axis=1)) - 1) // ENTRIES
        cuts = (a + 1 + np.flatnonzero(span[1:] != span[:-1])).tolist()
        yield from zip([a, *cuts], [*cuts, a + len(span)])


def _ops_text(t: OpTable, run: tuple[int, int], first: np.ndarray, digits: np.ndarray) -> str:
    """The ops of ``t`` in ``run``, a (first, end) pair, whose entries start
    at ``first``, comma-separated, and after a comma unless op 0 is first.
    Each field is written for the whole run, and a field that no op of the
    run holds is left out; the run's text is one join of the fields' texts,
    op by op."""
    run = slice(*run)
    flats = zip(RAGGED, first.tolist(), (first + t.counts[run].sum(axis=0)).tolist())
    t = OpTable(t.kind[run], t.role[run], t.clbit[run],  # views of the run's columns
                *(getattr(t, name)[i:j] for name, i, j in flats), t.counts[run])
    nq, _, nb, nv, na = t.counts.T
    columns = [_KIND_TEXT[t.kind].tolist(), _field(digits, t.qubits, nq), _angles(t.angle, na)]
    measured, mcroty = t.clbit >= 0, t.kind == KIND["mcroty"]
    if measured.any():
        ones = np.ones(np.count_nonzero(measured), dtype=np.int64)
        clbits = _field(digits, t.clbit[measured], ones, ',"clbit":')
        columns.append(_scattered(clbits, measured))
    if mcroty.any():
        pols = _field(digits, t.polarities, t.counts[mcroty, 1], ',"polarities":[', "]")
        columns.append(_scattered(pols, mcroty))
    if (conditioned := nb > 0).any():
        bits = _field(digits, t.bits, nb[conditioned], ',"condition":{"bits":[', '],"values":[')
        values = _field(digits, t.values, nv[conditioned], tail="]}")
        columns += [_scattered(bits, conditioned), _scattered(values, conditioned)]
    columns.append(_ROLE_TEXT[t.role].tolist())
    parts = [""] * (len(t) * len(columns))
    for s, column in enumerate(columns):
        parts[s::len(columns)] = column
    if run.start == 0:
        parts[0] = parts[0][1:]
    return "".join(parts)
