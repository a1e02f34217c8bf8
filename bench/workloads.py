"""Workloads: their seeded inputs, set-up and output checks.

Every request gets its own vector, entries uniform on [0, 1) plus 0.1,
drawn in order from ``numpy.random.default_rng(seed)``.  A ``verify``
workload also compiles each vector's circuit document during set-up, so
its timed requests only verify.  Why each workload exists is in
README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import dataclasses
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layers import doc_counts


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # stateprep compile --method
    n: int
    lam: int | None = None
    verify: tuple[str, ...] | None = None  # extra verify flags; None: a compile workload
    shots: int = 0
    min_requests: int = 0  # timed requests a --trace 0 run sends at least, over the scale's

    def compile_args(self, vector: Path, doc: Path) -> list[str]:
        args = ["compile", str(vector), "--method", self.method, "--out", str(doc)]
        if self.lam is not None:
            args += ["--lambda", str(self.lam)]
        return args

    def verify_args(self, doc: Path, vector: Path) -> list[str]:
        return ["verify", str(doc), str(vector), *self.verify]


def _sample(n: int, shots: int, min_requests: int = 0) -> Workload:
    flags = ("--mode", "sample", "--shots", str(shots))
    return Workload("verify_sample", "dc", n, verify=flags, shots=shots,
                    min_requests=min_requests)


# The measured sizes, and tiny ones for the smoke test of the benchmark.
SCALES = {
    "full": {
        "compile_dense": Workload("compile_dense", "dc", 11),
        "compile_time": Workload("compile_time", "time", 14),
        # The verify workloads' tails scattered most between runs, so they
        # take more samples: the tail is then the 6th-lowest of 16, not the
        # lowest of 11.
        "verify_enumerate": Workload("verify_enumerate", "hybrid", 6, lam=4, verify=(),
                                     min_requests=16),
        "verify_sample": _sample(4, 256, min_requests=16),
    },
    "smoke": {
        "compile_dense": Workload("compile_dense", "dc", 3),
        "compile_time": Workload("compile_time", "time", 4),
        "verify_enumerate": Workload("verify_enumerate", "hybrid", 3, lam=2, verify=()),
        "verify_sample": _sample(2, 16),
    },
}


def expected_summary(w: Workload) -> dict[str, int]:
    """The paper's closed forms for ``compile``'s summary line, restated
    here so that a change to ``stateprep.resources`` cannot hide a miss."""
    n = w.n
    if w.method == "dc":
        return {"qubits": 2**n - 1, "unit_cswaps": 2**n - n - 1,
                "depth_gates": 1 + n * (n - 1) // 2}
    if w.method == "time":
        return {"qubits": n, "unit_cswaps": 0, "depth_gates": 2**n - 1}
    return {"qubits": (w.lam + 1) * 2 ** (n - w.lam) - 1}


class ConfigRefused(Exception):
    """The workload cannot run here; nothing was started."""


def state_bytes(n_qubits: int) -> int:
    """Bytes of the simulator's initial complex128 tensor."""
    return 16 * 2**n_qubits


def memory_budget() -> int:
    # Enumeration holds the initial tensor, copies along one branch path
    # and op temporaries: a few times the tensor.  The machine is shared,
    # so allow an eighth of what is free now.
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 8


def check_memory(n_qubits: int, budget: int) -> None:
    need = state_bytes(n_qubits)
    if need > budget:
        raise ConfigRefused(
            f"verifying a {n_qubits}-wire circuit needs a {need / 2**30:.3g} GiB state, "
            f"over the {budget / 2**30:.3g} GiB budget"
        )


@dataclass
class Inputs:
    vectors: list[Path]
    docs: list[Path]  # verify workloads: the documents compiled in set-up
    control: Path | None  # verify workloads: the first vector reversed
    vectors_sha256: str
    docs_sha256: str | None
    doc_counts: list[dict]  # verify workloads: doc_counts of each document

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(dataclasses.asdict(self), default=str))

    @classmethod
    def load(cls, path: Path) -> Inputs:
        d = json.loads(path.read_text())
        return cls(
            vectors=[Path(p) for p in d["vectors"]],
            docs=[Path(p) for p in d["docs"]],
            control=Path(d["control"]) if d["control"] else None,
            vectors_sha256=d["vectors_sha256"],
            docs_sha256=d["docs_sha256"],
            doc_counts=d["doc_counts"],
        )


def set_up(w: Workload, seed: int, pool: int, workdir: Path) -> Inputs:
    """Write ``pool`` seeded vectors under ``workdir/in`` (emptied first) and,
    for a verify workload, compile each one's document in process with
    ``stateprep.cli.main``.  Refuses, before any request starts, a
    document whose simulation would not fit in memory."""
    from stateprep import cli

    shutil.rmtree(workdir / "in", ignore_errors=True)
    (workdir / "in").mkdir(parents=True)
    rng = np.random.default_rng(seed)
    vec_hash, doc_hash = hashlib.sha256(), hashlib.sha256()
    vectors, docs, counts = [], [], []
    budget = memory_budget()
    expected = expected_summary(w)
    for i in range(pool):
        x = rng.random(2**w.n) + 0.1
        if i == 0:
            first = x
        path = workdir / "in" / f"vec{i}.json"
        text = json.dumps({"amplitudes": x.tolist()})
        path.write_text(text)
        vec_hash.update(text.encode())
        vectors.append(path)
        if w.verify is None:
            continue
        doc = workdir / "in" / f"doc{i}.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(w.compile_args(path, doc))
        summary = json.loads(out.getvalue())
        if rc != 0 or any(summary[k] != v for k, v in expected.items()):
            raise RuntimeError(f"set-up compile of {path.name} gave rc={rc}, {summary}")
        text = doc.read_text()
        doc_hash.update(text.encode())
        counts.append(doc_counts(json.loads(text)))
        check_memory(counts[-1]["n_qubits"], budget)
        docs.append(doc)
    control = None
    if w.verify is not None:
        control = workdir / "in" / "control.json"
        control.write_text(json.dumps({"amplitudes": first[::-1].tolist()}))
    return Inputs(
        vectors=vectors,
        docs=docs,
        control=control,
        vectors_sha256=vec_hash.hexdigest(),
        docs_sha256=doc_hash.hexdigest() if docs else None,
        doc_counts=counts,
    )


def check_compile(w: Workload, stdout: str, doc_text: str | None) -> str | None:
    """Why a compile request's output is wrong, or None if it is right."""
    from stateprep.circuit import deserialize
    from stateprep.errors import StatePrepError

    try:
        summary = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return "no summary line"
    for key, want in expected_summary(w).items():
        if summary.get(key) != want:
            return f"{key}={summary.get(key)}, closed form {want}"
    if doc_text is None:
        return "no document written"
    try:
        circuit = deserialize(doc_text)
    except StatePrepError as exc:
        return f"document does not deserialize: {exc}"
    if circuit.n_qubits != summary["qubits"]:
        return f"document has {circuit.n_qubits} wires, summary {summary['qubits']}"
    return None


def parse_verify(stdout: str) -> dict | None:
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def check_verify(rc: int, report: dict | None) -> str | None:
    if rc != 0 or report is None or report.get("pass") is not True:
        return f"exit {rc}, report {report}"
    if abs(report["sum_prob"] - 1.0) > 1e-10:
        return f"sum_prob {report['sum_prob']} differs from 1 by more than 1e-10"
    return None


def check_control(rc: int, report: dict | None) -> str | None:
    """The negative control must be rejected: exit 1 and ``"pass": false``."""
    if rc != 1 or report is None or report.get("pass") is not False:
        return f"wrong target accepted or errored: exit {rc}, report {report}"
    return None


def main(argv: list[str]) -> int:
    """Set up in a process of its own, so that the benchmark can probe the
    host's speed while it runs, as it does for requests.

    Usage: ``python bench/workloads.py SCALE WORKLOAD SEED POOL WORKDIR``.
    Writes ``WORKDIR/inputs.json``; exits 3 if the memory guard refuses.
    """
    scale, name, seed, pool, workdir = argv
    try:
        inputs = set_up(SCALES[scale][name], int(seed), int(pool), Path(workdir))
    except ConfigRefused as exc:
        print(exc, file=sys.stderr)
        return 3
    inputs.save(Path(workdir) / "inputs.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
