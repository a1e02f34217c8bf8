import json
import re
import sys
import tracemalloc
from dataclasses import fields, replace
from itertools import chain, compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stateprep as sp
from stateprep.circuit import Circuit, deserialize, op_table
from stateprep.writer import CHUNK, DIGIT_TOP, ENTRIES, _runs, layers, serialize
from stateprep.errors import InvalidCircuit, ParseError

from conftest import (
    Condition, Gate, assert_waits_match_reference, cswap, hadamard, mcroty, measure, oracle_layers,
    oracle_metrics, pauli_z, per_value_records, random_unit, records_of, reset, roty, statevector,
    table_of,
)

KIND, ROLES = sp.circuit.KIND, sp.circuit.ROLES
DATA = Path(__file__).parent / "data"
# A valid document that the parser tests break one field at a time.
GOOD_DOC = (
    '{"n_qubits": 2, "n_clbits": 1, "data_qubits": [0], "ops": ['
    '{"kind": "roty", "qubits": [0], "angle": 0.5},'
    ' {"kind": "measure", "qubits": [1], "clbit": 0},'
    ' {"kind": "z", "qubits": [0], "condition": {"bits": [0], "values": [1]}}]}'
)


def simple_circuit():
    ops = (
        hadamard(0),
        roty(1, 0.7),
        cswap(0, 1, 2),
        roty(2, -0.3, role="meas_basis"),
        measure(2, 0),
        pauli_z(0, condition=Condition(bits=(0,), values=(1,)), role="correct"),
    )
    return Circuit(3, 1, table_of(ops), (0, 1))


class TestValidation:
    def test_valid_circuit_passes(self):
        simple_circuit()

    def test_rejects_duplicate_qubits(self):
        with pytest.raises(InvalidCircuit):
            Circuit(3, 0, table_of((cswap(1, 1, 2),)), (0,)).validate()

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidCircuit):
            Circuit(2, 0, table_of((roty(2, 1.0),)), (0,)).validate()

    def test_rejects_double_write(self):
        ops = (measure(0, 0), measure(1, 0))
        with pytest.raises(InvalidCircuit):
            Circuit(2, 1, table_of(ops), (0,)).validate()

    def test_rejects_condition_before_measure(self):
        ops = (pauli_z(0, condition=Condition((0,), (1,))), measure(0, 0))
        with pytest.raises(InvalidCircuit):
            Circuit(1, 1, table_of(ops), (0,)).validate()

    def test_rejects_bad_table_length(self):
        # Values must ascend strictly and fit the bits; a truth table in an
        # older document must hold one 0/1 entry per assignment of its bits.
        for values in ((2,), (-1,), (1, 0), (1, 1)):
            ops = (measure(0, 0), pauli_z(1, condition=Condition((0,), values)))
            with pytest.raises(InvalidCircuit):
                Circuit(2, 1, table_of(ops), (0,))
        for table in ([0, 1, 1, 0], [0, 2]):
            z = {"kind": "z", "qubits": [1], "condition": {"bits": [0], "table": table}}
            doc = {"n_qubits": 2, "n_clbits": 1, "data_qubits": [0],
                   "ops": [{"kind": "measure", "qubits": [0], "clbit": 0}, z]}
            with pytest.raises(ParseError):
                deserialize(json.dumps(doc))

    def test_rejects_repeated_condition_bit(self):
        ops = (measure(0, 0), measure(1, 1))
        for bits in ((0, 0), (0, 1, 0), (1,) * 70):
            cond = Condition(bits, (0,))
            with pytest.raises(InvalidCircuit):
                Circuit(3, 2, table_of(ops + (pauli_z(2, condition=cond),)), (2,))

    def test_rejects_negative_register_sizes(self):
        for n_qubits, n_clbits in ((-1, 0), (0, -1), (-1, -2)):
            with pytest.raises(InvalidCircuit):
                Circuit(n_qubits, n_clbits, table_of(()), ())

    def test_rejects_op_after_measure(self):
        # The simulator drops a measured wire from its state.
        for after in (measure(0, 1), reset(0), roty(0, 0.3), cswap(1, 0, 2),
                      mcroty(0.3, [(0, 1)], 1)):
            with pytest.raises(InvalidCircuit):
                Circuit(3, 2, table_of((measure(0, 0), after)), (1,))

    def test_rejects_wrong_arity(self):
        for op in (Gate("measure", (), clbit=0), Gate("roty", (0, 1), angle=0.1),
                   Gate("z", (0, 1)), Gate("cswap", (0, 1))):
            with pytest.raises(InvalidCircuit):
                Circuit(2, 1, table_of((op,)), (0,))

    def test_rejects_non_finite_angle(self):
        for angle in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidCircuit):
                Circuit(1, 0, table_of((roty(0, angle),)), (0,))

    @pytest.mark.parametrize("ops, data_qubits, message", [
        ((Gate("swap", (0,)),), (0,), "unknown kind"),
        ((Gate("z", (0,), angle=0.1),), (0,), "angle mismatch"),
        ((Gate("mcroty", (0, 1), angle=0.1, polarities=(0, 1)),), (0,), "bad mcroty polarities"),
        ((Gate("mcroty", (0, 1), angle=0.1, polarities=(2,)),), (0,), "polarities must be 0/1"),
        ((Gate("roty", (0,), angle=0.1, polarities=(1,)),), (0,), "only valid on mcroty"),
        ((measure(0, 1),), (1,), "bad clbit"),
        ((Gate("z", (0,), clbit=0),), (0,), "clbit only valid on measure"),
        ((Gate("measure", (0,), clbit=0, condition=Condition((0,), (1,))),), (1,),
         "conditions on measure"),
        ((measure(0, 0), Gate("reset", (1,), condition=Condition((0,), (1,)))), (1,),
         "conditions on reset"),
        ((), (2,), "data qubit 2 out of range"),
        ((), (0, 0), "repeated data qubit"),
    ])
    def test_rejects_malformed_op_or_register(self, ops, data_qubits, message):
        with pytest.raises(InvalidCircuit, match=message):
            Circuit(2, 1, table_of(ops), data_qubits)

    @pytest.mark.parametrize("first, second, message", [
        (roty(0, float("inf")), Gate("swap", (0,)), "angle inf is not finite"),
        (Gate("swap", (0,)), roty(0, float("inf")), "unknown kind code -1"),
        (Gate("z", (0,), clbit=0), cswap(1, 1, 0), "clbit only valid on measure"),
        (pauli_z(0, condition=Condition((0,), (3,))), roty(5, 0.1), "condition value out of range"),
        (Gate("mcroty", (0, 1), angle=0.1, polarities=(2,)), Gate("z", (0,), angle=0.3),
         "polarities must be 0/1"),
        (pauli_z(1, condition=Condition((1,), (1,))), measure(2, 2),
         "condition reads unmeasured bit 1"),
    ])
    def test_names_the_first_of_two_invalid_ops(self, first, second, message):
        # Mostly the second op fails a check that a single op runs earlier;
        # the first op in circuit order is still the one named.
        ops = (measure(2, 0), first, second)
        with pytest.raises(InvalidCircuit, match=f"^op 1: {message}"):
            Circuit(3, 2, table_of(ops), (0,))

    @staticmethod
    def validate_peak(c):
        """The tracemalloc peak of validating a fresh copy of ``c``'s table,
        which no view is cached on, and the bytes of that table."""
        columns = [getattr(c.ops, f.name) for f in fields(c.ops)]
        size, table = sum(col.nbytes for col in columns), sp.circuit.OpTable(*columns)
        tracemalloc.start()
        try:
            Circuit(c.n_qubits, c.n_clbits, table, c.data_qubits)  # which validates it
            return tracemalloc.get_traced_memory()[1], size
        finally:
            tracemalloc.stop()

    def test_measure_free_table_validates_in_its_own_size(self):
        # Without a measurement no op waits for one, so ``validate`` builds
        # no per-entry dependency view, and it builds no per-entry owners:
        # only a bad entry is mapped to its op.  At time encoding n=14 the
        # table holds 4.2 MB and the peak reads 0.20x that; with one owner
        # array per field it read 0.99x, and building the view 4.1x.
        c = sp.synthesize_time(sp.build_tree(random_unit(np.random.default_rng(14), 2**14)))
        peak, size = self.validate_peak(c)
        assert peak <= 0.3 * size, (peak, size)

    def test_dense_table_validates_in_little_more_than_its_size(self):
        # With measurements ``validate`` builds the dependency view, which
        # the table keeps.  The last-writer pass frees its sort's arrays as
        # it goes and indexes in place, and no per-entry owner is built
        # beside it: the peak reads 0.84x the table's 0.79 MB.  With the
        # owners it read 1.05x, and with a pass that held every array to its
        # end 1.76x.
        c = sp.synthesize_dc(sp.build_tree(np.random.default_rng(11).random(2**11) + 0.1))
        peak, size = self.validate_peak(c)
        assert peak <= 0.93 * size, (peak, size)

    @pytest.mark.parametrize("kind, role, message", [
        (-1, 0, "unknown kind code -1"), (9, 0, "unknown kind code 9"),
        (KIND["x"], -1, "unknown role code -1"), (KIND["x"], 5, "unknown role code 5"),
    ])
    def test_unknown_codes_worded_by_code(self, kind, role, message):
        # A table made from columns has no name for an unknown code.
        with pytest.raises(InvalidCircuit, match=f"^op 0: {message}$"):
            Circuit(1, 0, op_table([kind], [[0]], role=role), (0,))

    @pytest.mark.parametrize("width, values, message", [
        (0, [0], "0 condition bits"), (63, [1], None), (64, [1], "64 condition bits"),
    ])
    def test_table_condition_reads_1_to_63_bits(self, width, values, message):
        # ``width`` wires measured into as many clbits, then a z on the last
        # wire whose condition reads them all.
        table = op_table(
            [KIND["measure"]] * width + [KIND["z"]], [[q] for q in range(width + 1)],
            bits=(list(range(width)), [0] * width + [width]),
            values=(values, [0] * width + [len(values)]), clbit=list(range(width)) + [-1],
        )
        if message is None:
            Circuit(width + 1, width, table, (width,))
        else:
            with pytest.raises(InvalidCircuit, match=f"^op {width}: {message}, not 1 to 63$"):
                Circuit(width + 1, width, table, (width,))

    def test_values_without_bits_are_refused(self):
        # Written, such a table would lose its values: one read back would differ.
        table = op_table([KIND["h"], KIND["z"]], [[0], [0]], values=([0], [0, 1]))
        with pytest.raises(InvalidCircuit, match="^op 1: 0 condition bits, not 1 to 63$"):
            Circuit(1, 0, table, (0,))

    @pytest.mark.parametrize("width", [64])
    def test_record_condition_reads_1_to_63_bits(self, width):
        ops = tuple(measure(q, q) for q in range(width))
        ops += (pauli_z(width, condition=Condition(tuple(range(width)), ())),)
        with pytest.raises(InvalidCircuit, match=f"^op {width}: {width} condition bits"):
            Circuit(width + 1, width, table_of(ops), (width,))

    @pytest.mark.parametrize("kind, bits, values, angles, message", [
        ("roty", [0], [0, 1], [0.1, 0.2], None),
        ("roty", [0], [0, 1], [0.1], None),  # one angle fires on every value
        ("roty", [0], [0, 1], [0.1, 0.2, 0.3], "3 angles"),
        ("roty", None, None, [0.1, 0.2], "2 angles"),
        ("rotz", [0], [0, 1], [0.1, 0.2], "2 angles"),
        ("roty", [0], [1], [], "angle mismatch for kind 'roty'"),
        ("z", [0], [1], [0.1], "angle mismatch for kind 'z'"),
        ("roty", [0], [0, 1], [0.1, np.inf], "angle inf is not finite"),
    ])
    def test_angles_of_a_selected_rotation(self, kind, bits, values, angles, message):
        # A measurement of wire 1 into clbit 0, then the op on wire 0.
        table = op_table(
            [KIND["measure"], KIND[kind]], ([1, 0], [1, 1]), None,
            (bits or [], [0, len(bits or [])]), (values or [], [0, len(values or [])]),
            (angles, [0, len(angles)]), clbit=[0, -1],
        )
        if message is None:
            c = Circuit(2, 1, table, (0,))
            assert len(c.ops) == 2
            assert records_of(c.ops)[1].angle == (
                tuple(angles) if len(angles) > 1 else angles[0])
        else:
            with pytest.raises(InvalidCircuit, match=f"^op 1: {message}"):
                Circuit(2, 1, table, (0,))


def reference_validate(n_qubits, n_clbits, ops, data_qubits):
    """The per-op loop that ``Circuit.validate`` replaced: its message for
    the first malformed op, or None."""
    written, measured = set(), set()
    for i, op in enumerate(ops):
        if op.kind not in sp.circuit.KINDS:
            return f"op {i}: unknown kind code -1"
        if len(set(op.qubits)) != len(op.qubits):
            return f"op {i}: repeated qubit in {op.qubits}"
        for q in op.qubits:
            if not 0 <= q < n_qubits:
                return f"op {i}: qubit {q} out of range"
            if q in measured:
                return f"op {i}: qubit {q} used after its measurement"
        if (op.angle is not None) != (op.kind in sp.circuit.ANGLE_KINDS):
            return f"op {i}: angle mismatch for kind {op.kind!r}"
        if op.angle is not None and not np.isfinite(op.angle):
            return f"op {i}: angle {op.angle} is not finite"
        arity = 3 if op.kind == "cswap" else 1
        if op.kind != "mcroty" and len(op.qubits) != arity:
            return f"op {i}: {op.kind} needs {arity} qubit(s)"
        if op.kind == "mcroty":
            if op.polarities is None or len(op.polarities) != len(op.qubits) - 1:
                return f"op {i}: bad mcroty polarities"
            if any(p not in (0, 1) for p in op.polarities):
                return f"op {i}: polarities must be 0/1"
        elif op.polarities is not None:
            return f"op {i}: polarities only valid on mcroty"
        if op.kind == "measure":
            if op.clbit is None or not 0 <= op.clbit < n_clbits:
                return f"op {i}: bad clbit {op.clbit}"
            if op.clbit in written:
                return f"op {i}: clbit {op.clbit} written twice"
            written.add(op.clbit)
            measured.add(op.qubits[0])
        elif op.clbit is not None:
            return f"op {i}: clbit only valid on measure"
        if op.condition is not None:
            if op.kind in ("measure", "reset"):
                return f"op {i}: conditions on {op.kind} unsupported"
            bits, vals = op.condition.bits, op.condition.values
            if any(a >= b for a, b in zip(vals, vals[1:])):
                return f"op {i}: condition values must ascend strictly"
            if vals and not (vals[0] >= 0 and vals[-1] < 2 ** len(bits)):
                return f"op {i}: condition value out of range"
            if len(set(bits)) != len(bits):
                return f"op {i}: repeated clbit in {bits}"
            for b in bits:
                if b not in written:
                    return f"op {i}: condition reads unmeasured bit {b}"
    if any(not 0 <= q < n_qubits for q in data_qubits) or len(set(data_qubits)) != len(
        data_qubits
    ):
        return "data register"
    return None


def random_ops(rng, count):
    """Ops on 4 wires and 3 clbits, each drawn valid and then, with
    probability 0.15, given one malformed field.  A malformed condition
    reads the clbit that a ``measure`` would write, so a measure given one
    reads its own bit."""
    ops = []
    for _ in range(count):
        q = [int(v) for v in rng.permutation(4)[:3]]
        cond = None
        if rng.random() < 0.4:
            bits = tuple(int(b) for b in rng.permutation(3)[: rng.integers(1, 3)])
            cond = Condition(bits, tuple(sorted({int(v) for v in rng.integers(0, 4, 2)})))
        op = [
            roty(q[0], rng.normal(), cond), pauli_z(q[0], cond), hadamard(q[0], cond),
            cswap(*q), mcroty(rng.normal(), [(q[0], 1), (q[1], 0)], q[2]),
            measure(q[0], k := int(rng.integers(0, 3))), reset(q[0]),
        ][rng.integers(0, 7)]
        if rng.random() < 0.15:
            field, value = [
                ("kind", "swap"), ("qubits", (q[0], q[0])), ("qubits", (7,)),
                ("qubits", q[:2]), ("angle", float("inf")), ("angle", 0.5),
                ("polarities", (2,)), ("clbit", 5), ("clbit", 1),
                ("condition", Condition((k, k), (1,))), ("condition", Condition((k,), (3,))),
                ("condition", Condition((k,), (1, 0))),
            ][rng.integers(0, 12)]
            op = Gate(**{**op.__dict__, field: value})
        ops.append(op)
    return tuple(ops)


def validate_message(n_qubits, n_clbits, ops, data_qubits):
    """The message that constructing the circuit raises, or None."""
    try:
        Circuit(n_qubits, n_clbits, table_of(ops), data_qubits)
    except InvalidCircuit as exc:
        return str(exc)
    return None


def edited_condition(g, bits, values, default):
    """``g`` with its condition's bits and values replaced by what
    ``bits(b)`` and ``values(v)`` give, or, without one, with the condition
    ``default``."""
    c = g.condition
    return replace(g, condition=Condition(bits(c.bits), values(c.values)) if c else default)


def same(x):
    return x


# One malformed entry, put into a field of an op, which may hold no entries
# of that field: (the field, the edit of a ``Gate`` on ``n`` wires).
EDITS = {
    "repeated qubit": ("qubits", lambda g, n: replace(g, qubits=g.qubits + g.qubits[:1])),
    "reversed qubits": ("qubits", lambda g, n: replace(g, qubits=g.qubits[::-1])),
    "qubit out of range": ("qubits", lambda g, n: replace(g, qubits=g.qubits[:-1] + (n,))),
    "negative qubit": ("qubits", lambda g, n: replace(g, qubits=(-1,) + g.qubits[1:])),
    "angle": ("angle", lambda g, n: replace(g, angle=float("nan"))),
    "polarity": ("polarities", lambda g, n: replace(
        g, polarities=(g.polarities or (0,))[:-1] + (2,))),
    "negative polarity": ("polarities", lambda g, n: replace(
        g, polarities=(-1,) + (g.polarities or ())[1:])),
    "descending values": ("condition", lambda g, n: edited_condition(
        g, same, lambda v: v[::-1] + (0,), Condition((0,), (1, 0)))),
    "negative value": ("condition", lambda g, n: edited_condition(
        g, same, lambda v: (-1,) + v, Condition((0,), (-1,)))),
    "value too large": ("condition", lambda g, n: edited_condition(
        g, same, lambda v: v + (1 << 40,), Condition((0,), (2,)))),
    "repeated bit": ("condition", lambda g, n: edited_condition(
        g, lambda b: b + b[:1], same, Condition((0, 0), (1,)))),
    "unmeasured bit": ("condition", lambda g, n: edited_condition(
        g, lambda b: b + (99,), same, Condition((99,), (1,)))),
}


class TestValidateAgainstReference:
    def test_malformed_entries_first_middle_and_last(self):
        # ``validate`` finds a bad entry by masks over a field's entries, and
        # maps only that entry to its op.  A hybrid circuit's records hold
        # every field, with runs of ops that hold none of a field's entries;
        # one op at a time (the first, a middle and the last op, and the
        # first, a middle and the last that holds the field) gets a bad entry.
        c = sp.synthesize_hybrid(sp.build_tree(random_unit(np.random.default_rng(5), 32)), 2)
        ops, shape = per_value_records(c.ops), (c.n_qubits, c.n_clbits)
        seen = set()
        for name, (field, edit) in EDITS.items():
            held, n = [i for i, g in enumerate(ops) if getattr(g, field)], len(ops)
            bare = [i for i in range(n) if i not in held][:1]  # none for ``qubits``
            for i in {0, n // 2, n - 1, held[0], held[len(held) // 2], held[-1], *bare}:
                broken = ops[:i] + [edit(ops[i], c.n_qubits)] + ops[i + 1:]
                want = reference_validate(*shape, broken, c.data_qubits)
                assert validate_message(*shape, broken, c.data_qubits) == want, (name, i)
                seen.add(want and re.sub(r"\(.*\)|-?\d+|nan|'\w+'", "", want))
        assert len(seen) > 10, seen

    def test_messages_match_the_per_op_loop(self):
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(3000):
            ops = random_ops(rng, int(rng.integers(1, 9)))
            data = (int(rng.integers(0, 5)),)
            want = reference_validate(4, 3, ops, data)
            try:
                Circuit(4, 3, table_of(ops), data)
                got = None
            except InvalidCircuit as exc:
                got = str(exc) if str(exc).startswith("op ") else "data register"
            assert got == want, ops
            seen.add(want.split(":")[-1].split()[0] if want else None)
        assert len(seen) > 10


class TestWaitsAgainstReference:
    """``OpTable.waits``, the one dependency view that ``validate``, both
    depth figures and the walk planner read, against a per-op walk."""

    def test_random_circuits_malformed_ones_too(self):
        rng = np.random.default_rng(31)
        seen = dict.fromkeys(("repeated wire", "unwritten bit", "after measurement",
                              "bit written twice", "repeated bit", "measure reads own bit"), 0)
        for _ in range(3000):
            table = table_of(random_ops(rng, int(rng.integers(1, 9))))
            assert_waits_match_reference(table)
            wire, bit = table.waits
            measures = table.kind == KIND["measure"]
            written = table.clbit[measures].tolist()
            seen["repeated wire"] += any(len(set(q)) < len(q) for q in table.rows(0))
            seen["unwritten bit"] += bool((bit < 0).any())
            seen["after measurement"] += bool(
                (table.kind[wire[wire >= 0]] == KIND["measure"]).any())
            seen["bit written twice"] += len(set(written)) < len(written)
            seen["repeated bit"] += any(len(set(b)) < len(b) for b in table.rows(2))
            seen["measure reads own bit"] += any(
                c in b for c, b in zip(written, compress(table.rows(2), measures)))
        assert min(seen.values()) > 50, seen

    def test_synthesized_circuits_of_every_method(self):
        rng = np.random.default_rng(8)
        options = (sp.DcOptions(), sp.DcOptions(prune=True), sp.DcOptions(parallelize=True),
                   sp.DcOptions(disentangle=False))
        for n in range(1, 7):
            tree = sp.build_tree(random_unit(rng, 2**n))
            circuits = [sp.synthesize_time(tree)] + [
                sp.synthesize_hybrid(tree, lam, o) for lam in range(1, n + 1) for o in options]
            for c in circuits:
                assert_waits_match_reference(c.ops)


def reference_locate(ops):
    """The per-op locator that the column rules of ``deserialize`` replaced:
    the ``ParseError`` for the first malformed op of a document's ``ops``,
    or None."""
    int64 = range(-(2**63), 2**63)

    def expect(doc, key, kind, where):
        if key not in doc:
            raise ParseError(f"missing field {key!r}", where)
        value = doc[key]
        if type(value) is not kind:
            raise ParseError(f"field {key!r} has wrong type", f"{where}.{key}")
        return value

    def parse_int_list(value, where):
        if type(value) is not list or not all(type(v) is int and v in int64 for v in value):
            raise ParseError("expected a list of 64-bit integers", where)
        return value

    def parse_condition(cond, where):
        if not isinstance(cond, dict):
            raise ParseError("condition is not an object", where)
        for key in cond:
            if key not in {"bits", "values", "table"}:
                raise ParseError(f"unknown field {key!r}", f"{where}.{key}")
        bits = tuple(parse_int_list(expect(cond, "bits", list, where), f"{where}.bits"))
        if not 0 < len(bits) <= 63:
            raise ParseError(f"{len(bits)} condition bits, not 1 to 63", f"{where}.bits")
        if "table" in cond:
            if "values" in cond:
                raise ParseError("condition holds both values and a table", where)
            table = parse_int_list(expect(cond, "table", list, where), f"{where}.table")
            if len(table) != 2 ** len(bits) or any(v not in (0, 1) for v in table):
                raise ParseError("truth table needs 2**len(bits) 0/1 entries", f"{where}.table")
            return
        parse_int_list(expect(cond, "values", list, where), f"{where}.values")

    def check_op(doc, i):
        where = f"ops[{i}]"
        if not isinstance(doc, dict):
            raise ParseError("op is not an object", where)
        for key in doc:
            if key not in {"kind", "qubits", "angle", "clbit", "polarities", "condition", "role"}:
                raise ParseError(f"unknown field {key!r}", f"{where}.{key}")
        if expect(doc, "kind", str, where) not in sp.circuit.KINDS:
            raise ParseError(f"unknown op kind {doc['kind']!r}", f"{where}.kind")
        parse_int_list(expect(doc, "qubits", list, where), f"{where}.qubits")
        angle = doc.get("angle")
        angles = angle if type(angle) is list and angle else [angle]
        if angle is not None and not all(
            type(a) in (int, float) and abs(a) <= sys.float_info.max for a in angles
        ):
            raise ParseError("angle must be a finite number or a list of them", f"{where}.angle")
        if doc.get("clbit") is not None and not (type(doc["clbit"]) is int
                                                 and doc["clbit"] in int64):
            raise ParseError("clbit must be a 64-bit integer", f"{where}.clbit")
        if doc.get("polarities") is not None:
            parse_int_list(doc["polarities"], f"{where}.polarities")
        if "condition" in doc:
            parse_condition(doc["condition"], f"{where}.condition")
        role = doc.get("role")
        if role is not None and not isinstance(role, str):
            raise ParseError("role must be a string", f"{where}.role")
        if role not in sp.circuit.ROLE:
            raise ParseError(f"unknown role {role!r}", f"{where}.role")

    try:
        for i, op in enumerate(ops):
            check_op(op, i)
    except ParseError as exc:
        return exc
    return None


# One malformed value per entry, put in place of (or, for None, taken out
# of) the named field of an op; "op" replaces the whole op, None included.
# An angle of 1e400 reads as float("inf").
MALFORMED = [
    ("op", 3), ("op", [1]), ("op", None), ("extra", 1), ("kind", None), ("kind", 5),
    ("kind", "swap"), ("qubits", None), ("qubits", 0), ("qubits", [True]), ("qubits", [0.5]),
    ("qubits", [2**64]), ("qubits", [[0]]), ("angle", float("nan")), ("angle", float("inf")),
    ("angle", []), ("angle", [0.5, True]), ("angle", [[0.5]]), ("angle", "0.5"),
    ("angle", 10**400), ("angle", [0.5, -(10**400)]), ("clbit", True), ("clbit", 0.5),
    ("clbit", 2**63), ("clbit", [0]), ("polarities", 5), ("polarities", [0.5]),
    ("polarities", [2**70]), ("polarities", [True]), ("condition", [0, 1]),
    ("condition", None), ("condition", {"values": [1]}), ("condition", {"bits": 0, "values": []}),
    ("condition", {"bits": [], "values": []}), ("condition", {"bits": [0] * 64, "values": []}),
    ("condition", {"bits": [True], "values": [1]}), ("condition", {"bits": [0]}),
    ("condition", {"bits": [0], "values": 1}), ("condition", {"bits": [0], "values": [0.5]}),
    ("condition", {"bits": [0], "values": [2**63]}), ("condition", {"bits": [0], "table": 1}),
    ("condition", {"bits": [0], "table": [0, 1, 1]}), ("condition", {"bits": [0], "table": [0, 2]}),
    ("condition", {"bits": [0], "table": [False, True]}),
    ("condition", {"bits": [0], "table": [2**64, 0]}),
    ("condition", {"bits": [0], "values": [0], "table": [0, 1]}),
    ("condition", {"bits": [0], "values": [1], "extra": 5}),
    ("condition", {"extra": 5, "bits": [0.5]}), ("role", 3), ("role", "loud"),
    ("role", True), ("role", ["load"]),
]


def random_op_docs(rng, count):
    """Ops of a document on 4 wires and 3 clbits, each drawn valid and then,
    with probability 0.3, given one value of ``MALFORMED`` (two, with
    probability 0.3 of that)."""
    ops = []
    for _ in range(count):
        q = [int(v) for v in rng.permutation(4)[:3]]
        kind = ["roty", "z", "h", "cswap", "mcroty", "measure", "reset"][rng.integers(0, 7)]
        op = {"kind": kind, "qubits": q if kind in ("cswap", "mcroty") else q[:1]}
        if kind in ("roty", "mcroty"):
            op["angle"] = float(rng.normal())
        if kind == "mcroty":
            op["polarities"] = [1, 0]
        if kind == "measure":
            op["clbit"] = int(rng.integers(0, 3))
        if kind in ("roty", "z", "h") and rng.random() < 0.5:
            bits = [int(b) for b in rng.permutation(3)[: rng.integers(1, 3)]]
            values = sorted({int(v) for v in rng.integers(0, 2 ** len(bits), 2)})
            if rng.random() < 0.3:  # the older truth-table form
                op["condition"] = {"bits": bits, "table": [int(v in values) for v in
                                                            range(2 ** len(bits))]}
            else:
                op["condition"] = {"bits": bits, "values": values}
                if kind == "roty" and rng.random() < 0.5:  # an angle per value
                    op["angle"] = [float(a) for a in rng.normal(size=len(values))]
        if rng.random() < 0.3:
            op["role"] = ["load", "combine", "correct", "meas_basis"][rng.integers(0, 4)]
        # Some ops get a second malformed field, which an earlier field may hide.
        for _ in range((rng.random() < 0.3) * (1 + (rng.random() < 0.3))):
            field, value = MALFORMED[rng.integers(0, len(MALFORMED))]
            if field == "op" or not isinstance(op, dict):
                op = value
            elif value is None:
                op.pop(field, None)
            else:
                op[field] = value
        ops.append(op)
    return ops


class TestDeserializeAgainstReference:
    def test_errors_match_the_per_op_locator(self):
        rng = np.random.default_rng(41)
        seen = set()
        for _ in range(3000):
            ops = random_op_docs(rng, int(rng.integers(1, 9)))
            want = reference_locate(ops)
            doc = {"n_qubits": 4, "n_clbits": 3, "data_qubits": [0], "ops": ops}
            try:
                deserialize(json.dumps(doc))
                got = None
            except ParseError as exc:
                got = None if exc.location == "$.ops" else exc  # a ``validate`` error
            assert (str(got), getattr(got, "location", None)) == (
                str(want), getattr(want, "location", None)), ops
            if want is not None:
                rule = want.location.split("]", 1)[1], re.sub(r"'.*'|\d+", "", str(want))
                seen.add(rule)
        assert len(seen) > 15


class TestMetrics:
    def test_empty_circuit(self):
        m = sp.metrics(Circuit(0, 0, table_of(()), ()))
        assert (m.qubits, m.unit_cswaps, m.depth_gates, m.depth_full) == (0, 0, 0, 0)

    def test_sequential_rotations(self):
        ops = tuple(roty(0, 0.1 * (i + 1)) for i in range(3))
        m = sp.metrics(Circuit(1, 0, table_of(ops), (0,)))
        assert m.depth_gates == 3

    def test_parallel_rotations_share_layer(self):
        ops = (roty(0, 0.1), roty(1, 0.2), roty(2, 0.3))
        m = sp.metrics(Circuit(3, 0, table_of(ops), (0, 1, 2)))
        assert m.depth_gates == 1

    def test_dc_n3_metrics(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        m = sp.metrics(c)
        assert (m.qubits, m.unit_cswaps, m.depth_gates) == (7, 4, 4)
        assert m.depth_gates <= m.depth_full

    def test_meas_basis_rotations_excluded_from_gate_depth(self):
        ops = (roty(0, 1.0), roty(0, 0.5, role="meas_basis"), measure(0, 0))
        m = sp.metrics(Circuit(1, 1, table_of(ops), (0,)))
        assert m.depth_gates == 1
        assert m.depth_full == 3

    def test_conditioned_ops_excluded_from_gate_depth(self):
        ops = (
            hadamard(0),
            measure(0, 0),
            pauli_z(1, condition=Condition((0,), (1,))),
        )
        m = sp.metrics(Circuit(2, 1, table_of(ops), (1,)))
        assert m.depth_gates == 1
        assert m.depth_full == 3

    def test_selected_rotation_takes_one_layer(self):
        text = ('{"n_qubits":2,"n_clbits":1,"data_qubits":[1],"ops":[{"kind":"h","qubits":[0]},'
                '{"kind":"measure","qubits":[0],"clbit":0},{"kind":"roty","qubits":[1],'
                '"angle":[0.1,0.2],"condition":{"bits":[0],"values":[0,1]}}]}\n')
        selected = deserialize(text)
        records = (hadamard(0), measure(0, 0), roty(1, 0.1, Condition((0,), (0,))),
                   roty(1, 0.2, Condition((0,), (1,))))
        per_value = Circuit(2, 1, table_of(records), (1,))
        assert records_of(selected.ops) == [hadamard(0), measure(0, 0),
                                            roty(1, (0.1, 0.2), Condition((0,), (0, 1)))]
        assert per_value_records(selected.ops) == list(records) and serialize(selected) == text
        assert layers(selected) == oracle_layers(selected) == [0, 1, 2]
        assert layers(per_value) == oracle_layers(per_value) == [0, 1, 2, 3]
        assert (sp.metrics(selected).depth_full, sp.metrics(per_value).depth_full) == (3, 4)

    @pytest.mark.parametrize("angle", [[0.1, 0.2], np.array([0.1, 0.2])])
    def test_selected_angles_given_as_any_sequence(self, angle):
        # A record's angles, as any sequence, make the same flat column.
        cond, head = Condition((0,), (0, 1)), (hadamard(0), measure(0, 0))
        c = Circuit(2, 1, table_of(head + (Gate("roty", (1,), angle, condition=cond),)), (1,))
        assert c.ops == Circuit(2, 1, table_of(head + (roty(1, (0.1, 0.2), cond),)), (1,)).ops

    def test_records_convert_back_to_the_circuit(self):
        # Dense n=4 holds selected rotations: one record each, so the
        # circuit made from its records has the same ops, depth and document.
        c = sp.synthesize_dc(sp.build_tree(np.random.default_rng(0).random(16) + 0.1))
        back = Circuit(c.n_qubits, c.n_clbits, table_of(records_of(c.ops)), c.data_qubits)
        assert (len(back.ops), sp.metrics(back).depth_full, len(layers(back))) == (55, 19, 55)
        assert back.ops == c.ops and serialize(back) == serialize(c)

    @pytest.mark.parametrize("parallelize", [False, True])
    def test_dense_full_depth_is_n_squared_plus_n_minus_one(self, parallelize):
        # One selected rotation and one measurement per measured wire: the
        # paper's O(n) depth, exactly, plain and parallelized.
        rng = np.random.default_rng(41)
        for n in range(2, 11):
            c = sp.synthesize_dc(sp.build_tree(random_unit(rng, 2**n)),
                                 sp.DcOptions(parallelize=parallelize))
            assert sp.metrics(c).depth_full == oracle_metrics(c)[3] == n * n + n - 1, n

    def test_dense_depths_take_less_than_the_table(self):
        # The depth pass turns its waits into lists a chunk of ops at a
        # time, and the one-wire shortcut counts entries without owners: at
        # dense dc n=13 ``metrics`` peaks at 0.81x the table's 3.2 MiB, where
        # whole-table lists peaked at 1.89x.
        c = sp.synthesize_dc(sp.build_tree(np.random.default_rng(13).random(2**13) + 0.1))
        size = sum(getattr(c.ops, f.name).nbytes for f in fields(c.ops))
        tracemalloc.start()
        try:
            sp.metrics(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= size, (peak, size)

    def test_cswap_occupies_one_layer_on_three_wires(self):
        ops = (cswap(0, 1, 2), cswap(3, 4, 5), cswap(0, 3, 4))
        m = sp.metrics(Circuit(6, 0, table_of(ops), (0,)))
        assert m.depth_gates == 2

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(21)
        option_sets = (
            sp.DcOptions(),
            sp.DcOptions(prune=True),
            sp.DcOptions(parallelize=True),
            sp.DcOptions(parallelize=True, prune=True),
            sp.DcOptions(disentangle=False),
        )
        checked = 0
        for n in range(1, 8):
            w = np.zeros(2**n)
            w[[2**j for j in range(n)]] = 1.0
            sparse = np.where(rng.random(2**n) < 0.4, rng.random(2**n), 0.0)
            sparse[0] += 0.1
            for x in (random_unit(rng, 2**n), w, sparse):
                tree = sp.build_tree(x / np.linalg.norm(x))
                circuits = [sp.synthesize_time(tree)]
                for lam in range(1, n + 1):
                    circuits += [sp.synthesize_hybrid(tree, lam, o) for o in option_sets]
                for c in circuits:
                    m = sp.metrics(c)
                    assert (m.qubits, m.unit_cswaps, m.depth_gates, m.depth_full) == (
                        oracle_metrics(c)
                    )
                    assert layers(c, full=True) == oracle_layers(c, full=True)
                    assert layers(c, full=False) == oracle_layers(c, full=False)
                    checked += 1
        assert checked > 300
        # The depth pass reads the waits of ``CHUNK`` ops at a time.  Longer
        # circuits, whose waits reach back across chunk edges: dense ones,
        # and ones whose every conditioned op waits for the first op.
        long = [chunk_circuit(n) for n in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)]
        for n in (9, 10):
            tree = sp.build_tree(random_unit(rng, 2**n))
            long += [sp.synthesize_dc(tree), sp.synthesize_hybrid(tree, 2, option_sets[2]),
                     sp.synthesize_dc(tree, option_sets[2])]
        crossing = np.zeros(2, dtype=int)  # waits, per wire and per bit, on an earlier chunk
        for c in long:
            assert len(c.ops) >= CHUNK - 1
            assert tuple(sp.metrics(c).__dict__.values()) == oracle_metrics(c)
            assert layers(c, full=True) == oracle_layers(c, full=True)
            assert layers(c, full=False) == oracle_layers(c, full=False)
            crossing += [np.count_nonzero((w >= 0) & (w // CHUNK < c.ops.owner(j) // CHUNK))
                         for w, j in zip(c.ops.waits, (0, 2))]
        assert min(crossing) > 500, crossing


class TestLayerReplay:
    def test_layer_order_matches_sequential(self, dense_vector):
        tree = sp.build_tree(dense_vector)
        c = sp.synthesize_dc(tree, sp.DcOptions(disentangle=False))
        layer_idx = layers(c, full=True)
        order = sorted(range(len(c.ops)), key=lambda i: (layer_idx[i], i))
        reordered = Circuit(c.n_qubits, c.n_clbits, c.ops.take(order), c.data_qubits)
        assert np.allclose(statevector(c), statevector(reordered), atol=1e-12)

    def test_layer_order_matches_sequential_with_measurements(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        layer_idx = layers(c, full=True)
        order = sorted(range(len(c.ops)), key=lambda i: (layer_idx[i], i))
        reordered = Circuit(c.n_qubits, c.n_clbits, c.ops.take(order), c.data_qubits)

        # Measurement execution order may change, so match branches by
        # the per-wire outcome map instead of the outcome sequence.
        def keyed(circ):
            return {
                tuple(sorted(b.fixed_outcomes.items())): (b.probability, b.data_state)
                for b in sp.run(circ)
            }

        a, b = keyed(c), keyed(reordered)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key][0] == pytest.approx(b[key][0], abs=1e-12)
            assert np.allclose(a[key][1], b[key][1], atol=1e-12)


def chunk_circuit(n_ops):
    """``n_ops`` ops built with ``op_table``: a measurement, then in turn a
    conditioned and a selected y-rotation, an ``mcroty`` and an ``h``, so
    that every field has entries on both sides of a chunk edge."""
    ops = [("measure", [2], [], [], [], [])]
    for i in range(1, n_ops):
        ops.append([("roty", [0], [], [0], [1], [0.1 * i]),
                    ("roty", [1], [], [0], [0, 1], [0.2, -0.3 * i]),
                    ("mcroty", [1, 0], [i % 2], [], [], [1e-7 * i]),
                    ("h", [1], [], [], [], [])][i % 4])
    kinds, *ragged = zip(*ops[:n_ops]) if n_ops else [()] * 6
    table = op_table([KIND[k] for k in kinds],
                     *((list(chain.from_iterable(r)), list(map(len, r))) for r in ragged),
                     clbit=[0 if k == "measure" else -1 for k in kinds])
    return Circuit(3, 1, table, (0, 1))


def selected_circuit(end):
    """Fourteen measurements, then y-rotations of wire 14 selected by all
    fourteen bits, each holding 15 + 2v entries for v values, then two
    ``h``: the first rotation ends at entry ``end`` (an ``h`` before it
    sets the parity), the second holds 17 entries and the third more than
    ``ENTRIES``."""
    ops = [measure(k, k) for k in range(14)] + [hadamard(14)] * ((end - 1) % 2)
    for v in ((end - 29 - (end - 1) % 2) // 2, 1, 2**14 - 1):
        ops.append(roty(14, tuple(np.linspace(0.1, 3.0, v)), Condition(tuple(range(14)),
                                                                       tuple(range(v)))))
    return Circuit(15, 14, table_of(ops + [hadamard(14)] * 2), (14,))


# Angles of every printed form: integers, subnormals, the edges of the
# fixed-point form, values that 12 digits round to an integer, and large ones.
ODD_ANGLES = (0.0, -0.0, 1.0, -3.0, 100.0, 5e-324, -2.5e-310, 1e-4, 9.99999999999e-5, 1e-5,
              1e11, 999999999999.5, 1e12, 123456789012.0, 1e15, 1e16, 2.0 + 1e-12,
              0.99999999999995, 7.0 - 3e-12, np.pi)


def writer_circuit(seed):
    """A valid circuit for the writer: seventeen measurements, then more
    than ``CHUNK`` ops of every other kind in random order, some
    conditioned, among them a rotation selected by fourteen bits with
    more than ``ENTRIES / 2`` angles.  Wires and clbits are drawn from
    the first integers, and unless the registers are small, from around
    ``DIGIT_TOP`` and the registers' last index, where condition values
    past ``DIGIT_TOP`` are read too.  Angles mix ``ODD_ANGLES``, normal
    draws of sizes 1e-30 to 1e30 and draws from 1e12 to 1e16."""
    rng = np.random.default_rng(seed)
    size = int(rng.choice([20, DIGIT_TOP + 2, 10**12]))

    def indices(k):
        """``k`` distinct indices below ``size``, each of its edges among them."""
        high = sorted({DIGIT_TOP - 1, DIGIT_TOP, DIGIT_TOP + 1, size - 1}) if size > 20 else []
        return rng.permutation(high + list(range(k - len(high)))).tolist()

    def angle():
        source = rng.integers(3)
        return float(rng.choice(ODD_ANGLES) if source == 0 else rng.uniform(1e12, 1e16)
                     if source == 1 else rng.normal() * 10.0 ** rng.uniform(-30, 30))

    wires, clbits = indices(20), indices(17)
    measured, data = wires[:17], wires[17:]
    ops = [op for w, c in zip(measured, clbits) for op in (hadamard(w), measure(w, c))]
    values = np.sort(rng.choice(2**14, 2**13 + 5, replace=False)).tolist()
    body = [roty(data[0], tuple(angle() for _ in values), Condition(tuple(clbits[:14]),
                                                                    tuple(values)))]
    if size > 20:
        body.append(pauli_z(data[1], Condition(tuple(clbits), (DIGIT_TOP - 1, DIGIT_TOP,
                                                               2**17 - 1))))
    for _ in range(CHUNK + int(rng.integers(CHUNK))):
        q, role, cond = rng.permutation(data).tolist(), ROLES[rng.integers(len(ROLES))], None
        if rng.random() < 0.3:
            nb = int(rng.integers(1, 18))
            vals = np.sort(rng.choice(2**nb, int(rng.integers(min(4, 2**nb) + 1)), replace=False))
            cond = Condition(tuple(rng.permutation(clbits)[:nb].tolist()), tuple(vals.tolist()))
        kind = str(rng.choice(["roty", "rotz", "z", "x", "h", "cswap", "mcroty", "reset",
                               "selected"]))
        if kind == "selected" and cond and cond.values:
            body.append(roty(q[0], tuple(angle() for _ in cond.values), cond, role))
        elif kind == "mcroty":  # zero to two controls
            pols = rng.integers(2, size=int(rng.integers(3))).tolist()
            body.append(mcroty(angle(), zip(q[1:], pols), q[0], role))
        else:
            kind = "roty" if kind == "selected" else kind
            angled = angle() if kind in ("roty", "rotz") else None
            body.append(Gate(kind, tuple(q) if kind == "cswap" else (q[0],), angled,
                             condition=None if kind == "reset" else cond, role=role))
    order = rng.permutation(len(body))
    ops += [body[i] for i in order]
    return Circuit(size, size, table_of(ops), tuple(data))


def document_of(c):
    """``c`` as ``json.dumps`` writes it, its ops read back as records;
    an angle is ``float(f"{a:.12g}")``."""
    def number(a):
        return float(f"{a:.12g}")

    def op(g):
        doc = {"kind": g.kind, "qubits": list(g.qubits)}
        if g.angle is not None:
            doc["angle"] = [*map(number, g.angle)] if type(g.angle) is tuple else number(g.angle)
        if g.clbit is not None:
            doc["clbit"] = g.clbit
        if g.polarities is not None:
            doc["polarities"] = list(g.polarities)
        if g.condition is not None:
            doc["condition"] = {"bits": list(g.condition.bits),
                                "values": list(g.condition.values)}
        if g.role is not None:
            doc["role"] = g.role
        return doc

    doc = {"n_qubits": c.n_qubits, "n_clbits": c.n_clbits, "data_qubits": list(c.data_qubits),
           "ops": list(map(op, records_of(c.ops)))}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def assert_written_as_text(c, tmp_path):
    """Writing ``c`` to a file writes the text that ``serialize`` returns, which
    is the compact JSON encoding and reads back to itself."""
    path = tmp_path / "c.json"
    with open(path, "w") as fh:
        assert serialize(c, fh) is None
    text = path.read_text()
    assert text == serialize(c)
    assert json.dumps(json.loads(text), separators=(",", ":")) + "\n" == text
    assert len(json.loads(text)["ops"]) == len(c.ops)
    assert serialize(deserialize(text)) == text


class TestSerialization:
    # A run ends at least at every CHUNK-th op: edges after the first chunk,
    # and after the fourth.
    @pytest.mark.parametrize("n_ops", [0, CHUNK - 1, CHUNK, CHUNK + 1, 4 * CHUNK - 1, 4 * CHUNK,
                                       4 * CHUNK + 1])
    def test_written_document_is_the_text_across_chunk_edges(self, n_ops, tmp_path):
        assert_written_as_text(chunk_circuit(n_ops), tmp_path)

    @pytest.mark.parametrize("end", [ENTRIES - 1, ENTRIES, ENTRIES + 1])
    def test_written_document_is_the_text_across_entry_edges(self, end, tmp_path):
        # A run also ends before an op whose entries end in a later span of
        # ENTRIES, so the op ending at entry ``end`` ends the first run if
        # ``end`` is at most ENTRIES and starts the second if not.  The op of
        # more than ENTRIES entries starts a run, and the two small ops after
        # it, ending in its last span, join it.
        c, first = selected_circuit(end), 14 + (end - 1) % 2
        assert c.ops.counts[: first + 1].sum() == end
        cut = first + (end <= ENTRIES)
        assert list(_runs(c.ops)) == [(0, cut), (cut, first + 2), (first + 2, first + 5)]
        assert_written_as_text(c, tmp_path)

    def test_writing_holds_one_chunk_of_text(self, tmp_path):
        # Time encoding at n=14 writes sixteen chunks of ops, at n=13 eight.
        # Building the whole text first peaked at 14.2 MB against 6.7 MB.
        # A chunk of 1,024 ops, its text and its temporaries peaked at 0.91
        # MiB, and one of 4,096 at 3.6 MiB; written a field at a time, a
        # run bounded in entries peaks at 0.38 MiB.
        peaks = []
        for n in (13, 14):
            c = sp.synthesize_time(sp.build_tree(random_unit(np.random.default_rng(n), 2**n)))
            with open(tmp_path / "c.json", "w") as fh:
                tracemalloc.start()
                try:
                    serialize(c, fh)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks
        assert peaks[1] <= 2**20, peaks

    def test_writing_a_dense_document_holds_one_run_of_entries(self, tmp_path):
        # A dense dc circuit's last stage holds selected rotations of
        # thousands of entries.  In runs of 1,024 ops they shared one chunk,
        # which peaked at 1.12 MiB at n=12 and 2.05 MiB at n=13; runs of at
        # most ENTRIES entries peaked at 0.63 and 0.69 MiB written an op at a
        # time, and peak at 0.51 and 0.59 MiB written a field at a time.
        peaks = []
        for n in (12, 13):
            c = sp.synthesize_dc(sp.build_tree(random_unit(np.random.default_rng(n), 2**n)))
            with open(tmp_path / "c.json", "w") as fh:
                tracemalloc.start()
                try:
                    serialize(c, fh)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks
        assert peaks[1] <= 2**20, peaks

    def test_round_trip_structural(self):
        c = simple_circuit()
        text = serialize(c)
        back = deserialize(text)
        assert back.n_qubits == c.n_qubits
        assert back.n_clbits == c.n_clbits
        assert back.data_qubits == c.data_qubits
        assert len(back.ops) == len(c.ops)
        for a, b in zip(records_of(c.ops), records_of(back.ops)):
            assert (a.kind, a.qubits, a.clbit, a.polarities, a.condition, a.role) == (
                b.kind,
                b.qubits,
                b.clbit,
                b.polarities,
                b.condition,
                b.role,
            )
            if a.angle is not None:
                assert b.angle == pytest.approx(a.angle, abs=1e-9)

    def test_double_serialize_is_fixed_point(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        once = serialize(c)
        assert serialize(deserialize(once)) == once

    def test_metrics_invariant_under_round_trip(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        assert sp.metrics(deserialize(serialize(c))) == sp.metrics(c)

    def test_condition_on_unmeasured_bit_rejected(self):
        text = """
        {"n_qubits": 2, "n_clbits": 1, "data_qubits": [0],
         "ops": [{"kind": "z", "qubits": [0],
                  "condition": {"bits": [0], "table": [0, 1]}}]}
        """
        with pytest.raises(ParseError):
            deserialize(text)

    def test_rejects_non_finite_and_boolean_fields(self):
        good = GOOD_DOC
        deserialize(good)
        for old, new in (
            ('"angle": 0.5', '"angle": NaN'),
            ('"angle": 0.5', '"angle": Infinity'),
            ('"angle": 0.5', '"angle": -Infinity'),
            ('"angle": 0.5', '"angle": 1' + "0" * 400),
            ('"angle": 0.5', '"angle": true'),
            ('"qubits": [0], "angle"', '"qubits": [false], "angle"'),
            ('"clbit": 0', '"clbit": false'),
            ('"n_qubits": 2', '"n_qubits": true'),
            ('"data_qubits": [0]', '"data_qubits": [false]'),
            ('"values": [1]', '"values": [true]'),
            ('"values": [1]', '"table": [false, true]'),
        ):
            bad = good.replace(old, new)
            assert bad != good
            with pytest.raises(ParseError):
                deserialize(bad)

    @pytest.mark.parametrize("cond, message, where", [
        ('{"bits": [0], "values": [0], "table": [0, 1]}', "condition holds both values and a table",
         ""),
        ('{"bits": [0], "table": [0, 1], "values": [1]}', "condition holds both values and a table",
         ""),
        ('{"bits": [0], "values": [1], "extra": 5}', "unknown field 'extra'", ".extra"),
        # An unknown field is named before the rules of the known ones.
        ('{"extra": 5, "bits": [0.5], "values": [1], "table": [0, 1]}', "unknown field 'extra'",
         ".extra"),
        ('{"bits": [0.5], "values": [1], "table": [0, 1]}', "expected a list of 64-bit integers",
         ".bits"),
    ])
    def test_condition_spells_its_values_once(self, cond, message, where):
        bad = GOOD_DOC.replace('{"bits": [0], "values": [1]}', cond)
        assert bad != GOOD_DOC
        with pytest.raises(ParseError) as err:
            deserialize(bad)
        location = "ops[2].condition" + where
        assert (str(err.value), err.value.location) == (f"{message} (at {location})", location)

    @pytest.mark.parametrize("angle", ["[]", "[0.5, true]", "[0.5, NaN]", "[0.5, 1e400]",
                                       "[0.5, 1" + "0" * 400 + "]", "[[0.5]]", '"0.5"'])
    def test_rejects_malformed_angle_list(self, angle):
        bad = GOOD_DOC.replace('"angle": 0.5', f'"angle": {angle}')
        with pytest.raises(ParseError) as err:
            deserialize(bad)
        assert err.value.location == "ops[0].angle"

    def test_angle_list_of_one_reads_as_a_number(self):
        one = deserialize(GOOD_DOC.replace('"angle": 0.5', '"angle": [0.5]'))
        assert serialize(one) == serialize(deserialize(GOOD_DOC))
        two = GOOD_DOC.replace('"angle": 0.5', '"angle": [0.5, 0.25]')
        with pytest.raises(ParseError, match="2 angles") as err:  # no condition selects one
            deserialize(two)
        assert err.value.location == "$.ops"

    def test_legacy_truth_table_document(self):
        # Written by the truth-table version of ``serialize`` (dc, n=3).
        with open(DATA / "dc_n3_legacy.json") as fh:
            text = fh.read()
        with open(DATA / "dc_n3_vector.json") as fh:
            x = np.array(json.load(fh)["amplitudes"])
        assert '"table"' in text
        legacy = deserialize(text)
        # One op per value there; the compiler's selected rotations, split
        # per value, are the same records.
        new = deserialize(serialize(sp.synthesize_dc(sp.build_tree(x))))
        assert (legacy.n_qubits, legacy.n_clbits, legacy.data_qubits, records_of(legacy.ops)) == (
            new.n_qubits, new.n_clbits, new.data_qubits, per_value_records(new.ops))
        assert any(op.condition and len(op.condition.bits) == 2 for op in records_of(legacy.ops))
        assert sp.verify_preparation(legacy, x).passed

    @pytest.mark.parametrize("old, new, location", [
        ('"n_clbits": 1, ', "", "$"),
        ('"values": [1]}', '"values": [1]}, "x": 1', "ops[2].x"),
        ('"kind": "z"', '"kind": "swap"', "ops[2].kind"),
        ('"angle": 0.5}', '"angle": 0.5, "role": 3}', "ops[0].role"),
        ('"angle": 0.5}', '"angle": 0.5, "polarities": 5}', "ops[0].polarities"),
        ('{"bits": [0], "values": [1]}', "[0, 1]", "ops[2].condition"),
        ('"values": [1]', f'"values": [{2**64}]', "ops[2].condition.values"),
        (GOOD_DOC, f"[{GOOD_DOC}]", "$"),
        ('"n_clbits": 1, ', '"n_clbits": 1, "extra": 1, ', "$.extra"),
        ('"n_qubits": 2', f'"n_qubits": {2**70}', "$.n_qubits"),
        ('"n_clbits": 1', f'"n_clbits": {2**70}', "$.n_clbits"),
    ])
    def test_rejects_malformed_field_at_location(self, old, new, location):
        bad = GOOD_DOC.replace(old, new)
        assert bad != GOOD_DOC
        with pytest.raises(ParseError) as err:
            deserialize(bad)
        assert err.value.location == location

    @pytest.mark.parametrize("field, value", [
        ("kind", "swap"), ("qubits", [0.5]), ("clbit", "0"), ("role", "loud"), ("extra", 1),
        ("qubits", [2**70]), ("clbit", 2**64), ("polarities", 5), ("polarities", [0.5]),
    ])
    def test_parse_error_names_the_first_malformed_op(self, field, value):
        x = random_unit(np.random.default_rng(8), 2**9)
        doc = json.loads(serialize(sp.synthesize_dc(sp.build_tree(x))))
        assert len(doc["ops"]) > 1500
        doc["ops"][1000][field] = value
        doc["ops"][1500] = [1]  # a later op, malformed in a field checked earlier
        with pytest.raises(ParseError) as err:
            deserialize(json.dumps(doc))
        assert err.value.location == f"ops[1000].{field}"

    def test_angle_text_matches_the_json_encoder(self):
        rng = np.random.default_rng(12)
        special = [0.0, -0.0, 1.0, 100.0, 1e12, 1e15, 1e16, 123456789012.0, 1e-5, 1e-4, 5e-324]
        angles = np.concatenate([rng.normal(size=2000) * 10.0 ** rng.integers(-30, 30, 2000),
                                 special])
        c = Circuit(1, 0, table_of([roty(0, a) for a in angles]), (0,))
        ops = [{"kind": "roty", "qubits": [0], "angle": float(f"{a:.12g}")} for a in angles]
        doc = {"n_qubits": 1, "n_clbits": 0, "data_qubits": [0], "ops": ops}
        assert serialize(c) == json.dumps(doc, separators=(",", ":")) + "\n"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_writer_matches_the_json_encoder(self, seed):
        # The writer builds each field of a run of ops at once: integers from
        # a digit table, or past its top by a format; angles by one format,
        # then the few that it may misprint by ``_number``.
        c = writer_circuit(seed)
        text = serialize(c)
        assert text == document_of(c)
        assert serialize(deserialize(text)) == text
        runs = list(_runs(c.ops))
        sizes = [c.ops.counts[a:b].sum() for a, b in runs]
        assert len(c.ops) > CHUNK and max(sizes) > ENTRIES / 2 and sum(sizes) > ENTRIES
        assert set(c.ops.kind.tolist()) == set(range(len(sp.circuit.KINDS)))
        if c.n_qubits > 20:  # wires, clbits and values at and past the digit table's top
            assert min(getattr(c.ops, f).max() for f in ("qubits", "clbit", "values")) > DIGIT_TOP

    def test_malformed_json_reports_location(self):
        with pytest.raises(ParseError):
            deserialize("{not json")
        with pytest.raises(ParseError) as err:
            deserialize('{"n_qubits": 2, "n_clbits": 0, "data_qubits": [0], "ops": [3]}')
        assert "ops[0]" in str(err.value)

    def test_angles_printed_at_twelve_significant_digits(self):
        c = Circuit(1, 0, table_of((roty(0, np.pi / 3),)), (0,)).validate()
        text = serialize(c)
        assert "1.0471975512" in text

    def test_w_state_document_inventory(self, w_vector):
        c = sp.synthesize_dc(sp.build_tree(w_vector), sp.DcOptions(prune=True))
        doc = serialize(c)
        back = deserialize(doc)
        kinds, ops = {}, records_of(back.ops)
        for op in ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        # One roty selects its angle by the outcome: one op, two angles.
        assert kinds == {"h": 1, "x": 1, "roty": 4, "cswap": 3, "measure": 3, "z": 2}
        assert sorted(np.size(op.angle) for op in ops if op.kind == "roty") == [1, 1, 1, 2]

    def test_document_is_one_line(self, w_vector):
        text = serialize(sp.synthesize_dc(sp.build_tree(w_vector), sp.DcOptions(prune=True)))
        assert text.endswith("\n")
        assert text.count("\n") == 1

    def test_dense_n10_document_at_most_47_percent_of_indented(self):
        # 0.460 here; a document of one op per value, with fewer lists, 0.445.
        x = random_unit(np.random.default_rng(10), 2**10)
        text = serialize(sp.synthesize_dc(sp.build_tree(x)))
        indented = json.dumps(json.loads(text), indent=2) + "\n"
        assert len(text.encode()) <= 0.47 * len(indented.encode())

    def test_indented_golden_documents_still_read(self):
        names = sorted(
            p for p in DATA.glob("golden_*.json")
            if not p.name.endswith(("_stages.json", "_vector.json"))
        )
        assert len(names) == 8
        for path in names:
            text = path.read_text()
            assert text.count("\n") > 1, path.name  # the older, indented form
            circuit = deserialize(text)
            once = serialize(circuit)
            assert deserialize(once) == circuit
            assert serialize(deserialize(once)) == once

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_random_synthesized(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        x = random_unit(rng, 2**n)
        c = sp.synthesize_dc(sp.build_tree(x))
        assert serialize(deserialize(serialize(c))) == serialize(c)
