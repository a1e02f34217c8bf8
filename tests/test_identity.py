"""Every corpus circuit writes, and at n <= 4 verifies to, what
``tests/data/identity.json`` recorded (see ``tests/identity.py``, which
re-records it), and reads back exactly from its ``Gate`` records."""

import json

from stateprep.circuit import OpTable

from identity import RECORDED, changed, corpus


def test_corpus_matches_its_record():
    inexact = []

    def round_trip(key, circuit):
        t = circuit.ops
        if not (len(t) == t.n_ops and OpTable.from_gates(t.gates) == t):
            inexact.append(key)

    keys = changed(json.loads(RECORDED.read_text()), corpus(round_trip))
    assert not keys, f"{len(keys)} corpus keys changed:\n" + "\n".join(keys)
    assert not inexact, f"{len(inexact)} record views are not exact:\n" + "\n".join(inexact)
