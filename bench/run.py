#!/usr/bin/env python3
"""Closed-loop benchmark of the ``stateprep`` command line.

Run from the repository root:

    python3 bench/run.py --workload compile_dense --seed 1 --seconds 15 --trace 0

One client sends one request at a time; each request is a fresh
``python -m stateprep compile|verify`` process with ``PYTHONPATH=src``,
timed from its start to its exit.  Requests are sent until ``--seconds``
have passed and at least ``min_requests`` have completed, so the latency
tail is always defined.  Outputs are checked after the timed window.
Times are corrected for the host's drifting speed, which is probed while
each request runs (``speed.py``); raw wall times are reported beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sends the same
requests, each once plainly and once through ``bench/traced.py``, and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is the JSON result; a fuller report, with the environment
and the sha256 of the inputs, goes to ``.bench_work/<scale>-<workload>/``.
README.md says why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACED = Path(__file__).resolve().parent / "traced.py"
SET_UP = Path(__file__).resolve().parent / "workloads.py"

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "doc_bytes": "bytes",
    "ok_frac": "ratio",
}

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
REQUEST_TIMEOUT_S = 40
WINDOW_CAP_S = 80  # with REQUEST_TIMEOUT_S, keeps a run under 180 s when requests slow down


@dataclass(frozen=True)
class Limits:
    pool: int  # distinct seeded inputs; a longer window reuses them in order
    min_requests: int  # per --trace 0 window: TAIL_BEYOND + 1 makes the tail defined
    counted: int  # leading requests every run sends: counts and document hashes
    # Set-up runs at least 2 * SETUP_REPEATS times and for at least this
    # long, and reports its median, so that millisecond-scale set-up is steady.
    setup_seconds: float


LIMITS = {"full": Limits(pool=32, min_requests=TAIL_BEYOND + 1, counted=5, setup_seconds=1.0),
          "smoke": Limits(pool=3, min_requests=2, counted=2, setup_seconds=0.0)}


@dataclass
class Record:
    index: int
    traced: bool
    doc: Path
    wall_s: float
    rc: int
    maxrss_kb: int
    stdout: str
    stderr: str
    spans: Path | None
    speed_factor: float  # speed.factor of the probes taken while it ran
    error: str | None = None
    doc_bytes: int = 0
    layers: dict = field(default_factory=dict)  # traced: layers.request_metrics
    nesting: dict = field(default_factory=dict)  # traced: span totals for the smoke test

    @property
    def corrected_s(self) -> float:
        return self.wall_s * self.speed_factor


def wait_or_kill(proc: subprocess.Popen, timeout: float):
    """Reap ``proc``, probing the host's speed while it runs, and killing
    it first if it outlives ``timeout`` or this process is interrupted;
    returns its exit code, resource usage and speed factor."""
    exited = False
    try:
        exited, samples = speed.wait_probing(proc.pid, timeout)
    finally:
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, speed.factor(samples)


def launch(cli_args: list[str], out_dir: Path, tag: str, env: dict, traced: bool):
    spans = out_dir / f"{tag}.spans.json" if traced else None
    cmd = [sys.executable, "-m", "stateprep", *cli_args]
    if traced:
        cmd = [sys.executable, str(TRACED), str(spans), *cli_args]
    out_path, err_path = out_dir / f"{tag}.out", out_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        rc, usage, factor = wait_or_kill(proc, REQUEST_TIMEOUT_S)
        wall = time.perf_counter() - t0
    return wall, rc, usage.ru_maxrss, out_path.read_text(), err_path.read_text(), spans, factor


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def tail(walls: list[float]) -> tuple[float, float, int]:
    """The highest sample with TAIL_BEYOND samples above it: (value,
    percentile, samples beyond).  With fewer samples, the smallest."""
    ordered = sorted(walls)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SCALES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(LIMITS), default="full",
                        help="'smoke' runs tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "stateprep" / "cli.py").is_file():
        print(f"error: no stateprep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = workloads.SCALES[args.scale][args.workload]
    limits = LIMITS[args.scale]
    workdir = WORK / f"{args.scale}-{w.name}"
    # One CPU, probed while each request runs (speed.py); one BLAS thread
    # to match.
    nproc = os.cpu_count()
    cpu = speed.pin_to_one_cpu()
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    traced = bool(args.trace)

    setup_walls: list[float] = []
    setup_runs: list[float] = []  # speed-corrected

    def set_up() -> workloads.Inputs:
        """Set up at least SETUP_REPEATS times and for half of ``setup_seconds``,
        each time in a process of its own, probed like a request.  A
        --trace 0 run does this both before and after its window, so that
        the median spans two moments of a machine whose speed drifts."""
        start = len(setup_walls)
        cmd = [sys.executable, str(SET_UP), args.scale, w.name, str(args.seed),
               str(limits.pool), str(workdir)]
        while (len(setup_walls) - start < SETUP_REPEATS
               or sum(setup_walls[start:]) < limits.setup_seconds / 2):
            with open(workdir / "setup.err", "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(cmd, stderr=err, env=env, cwd=ROOT)
                rc, _, factor = wait_or_kill(proc, REQUEST_TIMEOUT_S)
                wall = time.perf_counter() - t0
            message = (workdir / "setup.err").read_text().strip()
            if rc == 3:
                raise workloads.ConfigRefused(message)
            if rc != 0:
                raise RuntimeError(f"set-up exited {rc}: {message[-300:]}")
            setup_walls.append(wall)
            setup_runs.append(wall * factor)
        return workloads.Inputs.load(workdir / "inputs.json")

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = set_up()
    except workloads.ConfigRefused as exc:
        print(f"error: refused {w.name}: {exc}", file=sys.stderr)
        return 3
    out_dir = workdir / "out"
    out_dir.mkdir()

    def send(i: int, trace_it: bool) -> Record:
        k = i % limits.pool
        tag = f"{'t' if trace_it else 'u'}{i}"
        if w.verify is None:
            doc = out_dir / f"{tag}.doc.json"
            cli_args = w.compile_args(inputs.vectors[k], doc)
        else:
            doc = inputs.docs[k]
            cli_args = w.verify_args(doc, inputs.vectors[k])
        return Record(i, trace_it, doc, *launch(cli_args, out_dir, tag, env, trace_it))

    # The timed window: nothing but requests.
    records: list[Record] = []
    want = limits.counted if traced else max(limits.min_requests, w.min_requests)
    t0 = time.perf_counter()
    i = 0
    while (i < want or time.perf_counter() - t0 < args.seconds) and (
        time.perf_counter() - t0 < WINDOW_CAP_S
    ):
        records.append(send(i, False))
        if traced:
            records.append(send(i, True))
        i += 1
    window_s = time.perf_counter() - t0

    docs_hash = hashlib.sha256()
    for r in records:
        check(w, inputs, r, docs_hash, limits.counted)
    attempted = len(records)
    if w.verify is not None:
        # Negative control: the first document against its reversed vector.
        _, rc, _, stdout, _, _, _ = launch(
            w.verify_args(inputs.docs[0], inputs.control), out_dir, "control", env, False
        )
        control_error = workloads.check_control(rc, workloads.parse_verify(stdout))
        attempted += 1
    else:
        control_error = None
    errors = [f"request {r.index}{' traced' if r.traced else ''}: {r.error}"
              for r in records if r.error]
    if control_error:
        errors.append(f"negative control: {control_error}")
    if not traced:
        set_up()

    plain = [r for r in records if not r.traced]
    walls = [r.corrected_s for r in plain]
    # Host speed over the window, weighted by time: corrected over raw.
    window_factor = sum(r.corrected_s for r in records) / sum(r.wall_s for r in records)
    raw = {
        "latency_p50_s": statistics.median(r.wall_s for r in plain),
        "latency_tail_s": tail([r.wall_s for r in plain])[0],
        "requests_per_s": len(plain) / window_s,
        "setup_s": statistics.median(setup_walls),
    }
    if traced:
        good = [r for r in records if r.traced and r.error is None]
        metrics = layers.run_metrics(
            [r.layers for r in good], limits.counted, [r.corrected_s for r in good], walls
        )
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        tail_s, tail_pct, beyond = tail(walls)
        metrics = {
            "latency_p50_s": statistics.median(walls),
            "latency_tail_s": tail_s,
            "requests_per_s": len(plain) / (window_s * window_factor),
            "setup_s": statistics.median(setup_runs),
            "peak_rss_mb": max(r.maxrss_kb for r in plain) / 1024.0,
            "doc_bytes": statistics.mean(r.doc_bytes for r in plain),
            "ok_frac": 1.0 - len(errors) / attempted,
        }
        units = END_TO_END
        tail_note = (f"latency_tail_s is p{tail_pct:.1f} of {len(walls)} samples, "
                     f"{beyond} beyond it")

    report = {
        "workload": w.name,
        "scale": args.scale,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "nproc": nproc,
            "pinned_cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": git_commit(),
        },
        "inputs": {
            "vectors": limits.pool,
            "vectors_sha256": inputs.vectors_sha256,
            "documents": "compiled in set-up" if w.verify is not None
            else f"written by the first {limits.counted} requests",
            "documents_sha256": inputs.docs_sha256 or docs_hash.hexdigest(),
        },
        "window_s": window_s,
        "speed_factor": window_factor,
        "raw": raw,
        "setup_runs_s": setup_runs,
        "setup_walls_s": setup_walls,
        "tail": None if traced else tail_note,
        "failed_frac": len(errors) / attempted,
        "errors": errors,
        "requests": [
            {"index": r.index, "traced": r.traced, "wall_s": r.wall_s,
             "corrected_s": r.corrected_s, "rc": r.rc,
             "maxrss_kb": r.maxrss_kb, "doc_bytes": r.doc_bytes, "error": r.error,
             **r.layers, **r.nesting}
            for r in records
        ],
        "metrics": metrics,
    }
    (workdir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    shutil.rmtree(workdir / "in")
    shutil.rmtree(out_dir)

    print(f"# {w.name} seed={args.seed} trace={args.trace} scale={args.scale}")
    print(f"# env {json.dumps(report['env'])}")
    print(f"# inputs {json.dumps(report['inputs'])}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    if not traced:
        print(f"# {tail_note}")
    print(f"# times above are at the reference speed; the speed probe took"
          f" {1 / window_factor:.3g} x its reference time; uncorrected: {json.dumps(raw)}")
    print(f"# failed_frac {len(errors)}/{attempted} = {report['failed_frac']:.6g}")
    for line in errors:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def check(w, inputs, r: Record, docs_hash, counted: int) -> None:
    """Check one request's output and, if traced, derive its layer metrics."""
    verify_out = None
    if w.verify is None:
        doc_text = r.doc.read_text() if r.doc.exists() else None
        r.error = f"exit {r.rc}: {r.stderr[-300:]}" if r.rc else workloads.check_compile(
            w, r.stdout, doc_text)
        if doc_text is not None:
            r.doc_bytes = len(doc_text.encode())
            if not r.traced and r.index < counted:
                docs_hash.update(doc_text.encode())
            r.doc.unlink()
        counts = layers.doc_counts(json.loads(doc_text)) if r.traced and not r.error else None
    else:
        verify_out = workloads.parse_verify(r.stdout)
        r.error = workloads.check_verify(r.rc, verify_out)
        r.doc_bytes = r.doc.stat().st_size
        counts = inputs.doc_counts[r.index % len(inputs.doc_counts)]
    if not r.traced or r.error:
        return
    spans = json.loads(r.spans.read_text())["spans"]
    r.layers = layers.request_metrics(spans, r.wall_s, counts, verify_out, w.shots)
    r.nesting = {
        "root_ns": sum(end - start for _, parent, start, end in spans if parent < 0),
        "layer_self_ns": layers.layer_self_ns(spans),
        "min_self_ns": min(layers.self_times_ns(spans)),
    }


if __name__ == "__main__":
    raise SystemExit(main())
