"""Every corpus circuit writes, and at n <= 4 verifies to, what
``tests/data/identity.json`` recorded (see ``tests/identity.py``, which
re-records it)."""

import json

from identity import RECORDED, changed, corpus


def test_corpus_matches_its_record():
    keys = changed(json.loads(RECORDED.read_text()), corpus())
    assert not keys, f"{len(keys)} corpus keys changed:\n" + "\n".join(keys)
