"""Per-layer metrics of one traced request, and their per-run medians.

A layer is a module on the request path; a span belongs to the layer its
name starts with.  Self time is a span's duration minus the durations of
the spans directly inside it, so the self times of one request add up to
its ``cli.main`` span.  README.md maps each metric to the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

import statistics

LAYERS = (
    "cli", "tree", "divide_conquer", "time_encoding", "discrimination", "circuit", "simulator",
)

# name -> (unit, better).  Metrics whose unit is not "s" or "1/s" are
# counts (or ratios of counts) and must repeat exactly between runs.
PER_LAYER = {
    "cli.startup_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "tree.build_s": ("s", "lower"),
    "divide_conquer.self_s": ("s", "lower"),
    "divide_conquer.synth_self_s": ("s", "lower"),
    "divide_conquer.disentangle_self_s": ("s", "lower"),
    "divide_conquer.stages": ("count", "lower"),
    "discrimination.decompose_s": ("s", "lower"),
    "discrimination.decompose_calls": ("count", "lower"),
    "discrimination.meas_basis_ops": ("count", "lower"),
    "time_encoding.self_s": ("s", "lower"),
    "time_encoding.rotation_ops_s": ("s", "lower"),
    "time_encoding.load_ops": ("count", "lower"),
    "circuit.self_s": ("s", "lower"),
    "circuit.validate_s": ("s", "lower"),
    "circuit.validate_calls": ("count", "lower"),
    "circuit.metrics_s": ("s", "lower"),
    "circuit.serialize_s": ("s", "lower"),
    "circuit.deserialize_s": ("s", "lower"),
    "circuit.ops": ("count", "lower"),
    "circuit.condition_entries": ("count", "lower"),
    "circuit.condition_fill": ("ratio", "higher"),
    "simulator.self_s": ("s", "lower"),
    "simulator.run_s": ("s", "lower"),
    "simulator.verify_self_s": ("s", "lower"),
    "simulator.branches": ("count", "lower"),
    "simulator.branches_per_s": ("1/s", "higher"),
    "simulator.pruned_mass": ("ratio", "lower"),
    "simulator.distinct_per_shot": ("ratio", "higher"),
    "simulator.state_bytes": ("bytes", "lower"),
    "trace.latency_p50_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

TIMED_UNITS = ("s", "1/s")


def self_times_ns(spans: list[list]) -> list[int]:
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_ns(spans: list[list]) -> dict[str, int]:
    """Self time per layer, in ns; sums to the ``cli.main`` span."""
    out = dict.fromkeys(LAYERS, 0)
    for (name, *_), own in zip(spans, self_times_ns(spans)):
        out[name.split(".", 1)[0]] += own
    return out


def doc_counts(doc: dict) -> dict[str, int]:
    """Counts read from a circuit document."""
    entries = filled = 0
    for op in doc["ops"]:
        table = op.get("condition", {}).get("table", ())
        entries += len(table)
        filled += sum(1 for v in table if v)
    return {
        "n_qubits": doc["n_qubits"],
        "ops": len(doc["ops"]),
        "meas_basis_ops": sum(1 for op in doc["ops"] if op.get("role") == "meas_basis"),
        "load_ops": sum(1 for op in doc["ops"] if op.get("role") == "load"),
        "condition_entries": entries,
        "condition_filled": filled,
    }


def request_metrics(
    spans: list[list], wall_s: float, counts: dict, verify_out: dict | None, shots: int
) -> dict[str, float]:
    """Per-layer values of one traced request.

    ``counts`` comes from ``doc_counts`` on the document the request wrote
    or read; ``verify_out`` is the ``verify`` summary line, or None for a
    compile request; ``shots`` is 0 unless the request sampled.  Values a
    workload does not exercise are 0.
    """
    own = self_times_ns(spans)
    total: dict[str, int] = {}
    mine: dict[str, int] = {}
    calls: dict[str, int] = {}
    for (name, _, start, end), self_ns in zip(spans, own):
        total[name] = total.get(name, 0) + end - start
        mine[name] = mine.get(name, 0) + self_ns
        calls[name] = calls.get(name, 0) + 1
    by_layer = layer_self_ns(spans)

    def s(ns: int) -> float:
        return ns / 1e9

    run_self = s(mine.get("simulator.run", 0))
    branches = verify_out["branches"] if verify_out else 0
    entries = counts["condition_entries"]
    return {
        "cli.startup_s": wall_s - s(total["cli.main"]),
        "cli.self_s": s(by_layer["cli"]),
        "tree.build_s": s(by_layer["tree"]),
        "divide_conquer.self_s": s(by_layer["divide_conquer"]),
        "divide_conquer.synth_self_s": s(mine.get("divide_conquer.synthesize", 0)),
        "divide_conquer.disentangle_self_s": s(mine.get("divide_conquer.compile_disentangler", 0)),
        "divide_conquer.stages": calls.get("divide_conquer.compile_disentangler", 0),
        "discrimination.decompose_s": s(by_layer["discrimination"]),
        "discrimination.decompose_calls": calls.get("discrimination.decompose", 0),
        "discrimination.meas_basis_ops": counts["meas_basis_ops"],
        "time_encoding.self_s": s(by_layer["time_encoding"]),
        "time_encoding.rotation_ops_s": s(total.get("time_encoding.rotation_ops", 0)),
        "time_encoding.load_ops": counts["load_ops"],
        "circuit.self_s": s(by_layer["circuit"]),
        "circuit.validate_s": s(total.get("circuit.validate", 0)),
        "circuit.validate_calls": calls.get("circuit.validate", 0),
        "circuit.metrics_s": s(mine.get("circuit.metrics", 0)),
        "circuit.serialize_s": s(mine.get("circuit.serialize", 0)),
        "circuit.deserialize_s": s(mine.get("circuit.deserialize", 0)),
        "circuit.ops": counts["ops"],
        "circuit.condition_entries": entries,
        "circuit.condition_fill": counts["condition_filled"] / entries if entries else 0.0,
        "simulator.self_s": s(by_layer["simulator"]),
        "simulator.run_s": run_self,
        "simulator.verify_self_s": s(mine.get("simulator.verify_preparation", 0)),
        "simulator.branches": branches,
        "simulator.branches_per_s": branches / run_self if run_self else 0.0,
        "simulator.pruned_mass": 1.0 - verify_out["sum_prob"] if verify_out else 0.0,
        "simulator.distinct_per_shot": branches / shots if shots else 0.0,
        "simulator.state_bytes": 16 * 2 ** counts["n_qubits"] if verify_out else 0,
    }


def run_metrics(
    per_request: list[dict[str, float]], n_counted: int, traced_walls: list[float],
    untraced_walls: list[float],
) -> dict[str, float]:
    """Medians over a run's traced requests.  Counts use only the first
    ``n_counted`` requests, which every run sends, so they repeat exactly."""
    out: dict[str, float] = {}
    for name, (unit, _) in PER_LAYER.items():
        if name.startswith("trace."):
            continue
        rows = per_request if unit in TIMED_UNITS else per_request[:n_counted]
        out[name] = statistics.median(r[name] for r in rows)
    traced = statistics.median(traced_walls)
    out["trace.latency_p50_s"] = traced
    out["trace.overhead_s"] = traced - statistics.median(untraced_walls)
    return out
