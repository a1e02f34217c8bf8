"""Run one ``stateprep`` CLI request with a span around every layer call.

Usage: ``PYTHONPATH=src python bench/traced.py SPANS_OUT ARGS...``, where
``ARGS`` are what ``python -m stateprep`` would receive.

Each wrapper is installed under the name the calling module looks the
function up by, so the package's sources stay untouched.  Spans nest on a
stack (the CLI is single-threaded) and are kept in memory until the
request ends; then ``SPANS_OUT`` receives ``{"spans": [[name, parent,
start_ns, end_ns], ...]}``, ``parent`` being the index of the enclosing
span or -1.  The process exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
from functools import wraps
from time import perf_counter_ns

from stateprep import circuit, cli, divide_conquer, simulator, time_encoding

# (owner, attribute, span name).  The span name's prefix is the layer.
WRAPPED = (
    (cli, "build_tree", "tree.build_tree"),
    (cli, "synthesize_dc", "divide_conquer.synthesize"),
    (cli, "synthesize_hybrid", "divide_conquer.synthesize"),
    (cli, "synthesize_time", "time_encoding.synthesize"),
    (cli, "serialize", "circuit.serialize"),
    (cli, "metrics", "circuit.metrics"),
    (cli, "deserialize", "circuit.deserialize"),
    (cli, "verify_preparation", "simulator.verify_preparation"),
    (divide_conquer, "compile_disentangler", "divide_conquer.compile_disentangler"),
    (divide_conquer, "decompose", "discrimination.decompose"),
    (divide_conquer, "rotation_ops", "time_encoding.rotation_ops"),
    (time_encoding, "rotation_ops", "time_encoding.rotation_ops"),
    (simulator, "run", "simulator.run"),
    (circuit.Circuit, "validate", "circuit.validate"),
)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, perf_counter_ns(), 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                self._open.pop()

        return traced


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    for owner, attr, name in WRAPPED:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))
    try:
        return recorder.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(spans_out, "w") as fh:
            json.dump({"spans": recorder.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
