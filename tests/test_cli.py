import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stateprep as sp
from stateprep.cli import main

from conftest import DENSE_SQUARES, per_value_records, random_unit


@pytest.fixture
def dense_file(tmp_path):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"amplitudes": [float(np.sqrt(v)) for v in DENSE_SQUARES]}))
    return str(path)


def write_vector(tmp_path, name, amps):
    path = tmp_path / name
    path.write_text(json.dumps({"amplitudes": [float(a) for a in amps]}))
    return str(path)


def run_module(*argv):
    """``python -m stateprep *argv`` in a child that imports the same package
    as this process, installed or not."""
    path = [str(Path(sp.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "stateprep", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


class TestCompile:
    def test_dc_summary(self, dense_file, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        assert main(["compile", dense_file, "--method", "dc", "--out", out]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["qubits"] == 7
        assert summary["depth_gates"] == 4
        assert summary["unit_cswaps"] == 4

    def test_main_twice_in_one_process(self, dense_file, tmp_path, capsys):
        # One parser serves every ``main`` of a process, and its second run
        # prints and writes what its first did.
        from stateprep import cli

        cli.build_parser.cache_clear()
        runs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            argv = ["compile", dense_file, "--method", "dc", "--prune", "--out", str(out)]
            assert main(argv) == 0
            runs.append((capsys.readouterr(), out.read_text()))
        assert runs[0] == runs[1]
        assert cli.build_parser.cache_info().misses == 1
        assert main(["verify", str(tmp_path / "a.json"), dense_file]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        assert cli.build_parser.cache_info().misses == 1

    def test_hybrid_endpoint_matches_time(self, tmp_path, capsys):
        rng = np.random.default_rng(60)
        vec = write_vector(tmp_path, "v.json", random_unit(rng, 16))
        out_h = str(tmp_path / "h.json")
        out_t = str(tmp_path / "t.json")
        assert main(["compile", vec, "--method", "hybrid", "--lambda", "4", "--out", out_h]) == 0
        sum_h = json.loads(capsys.readouterr().out)
        assert main(["compile", vec, "--method", "time", "--out", out_t]) == 0
        sum_t = json.loads(capsys.readouterr().out)
        assert sum_h == sum_t

    def test_parallelize_depth(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        vec = write_vector(tmp_path, "v.json", random_unit(rng, 32))
        out = str(tmp_path / "c.json")
        assert main(["compile", vec, "--method", "dc", "--parallelize", "--out", out]) == 0
        assert json.loads(capsys.readouterr().out)["depth_gates"] == 8

    def test_lambda_conflicts(self, dense_file, tmp_path):
        out = str(tmp_path / "c.json")
        assert main(["compile", dense_file, "--method", "dc", "--lambda", "2", "--out", out]) == 3
        assert main(["compile", dense_file, "--method", "hybrid", "--out", out]) == 3
        assert main(["compile", dense_file, "--method", "time", "--no-disentangle", "--out", out]) == 3
        assert main(["compile", dense_file, "--method", "time", "--parallelize", "--out", out]) == 3
        assert main(["compile", dense_file, "--method", "time", "--prune", "--out", out]) == 3

    def test_shots_and_seed_need_sample_mode(self, dense_file, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        assert main(["compile", dense_file, "--method", "dc", "--out", out]) == 0
        capsys.readouterr()
        for flags in (["--shots", "16"], ["--seed", "1"], ["--mode", "enumerate", "--seed", "0"]):
            assert main(["verify", out, dense_file, *flags]) == 3, flags
            assert capsys.readouterr().err == (
                "error: --shots and --seed are only valid with --mode sample\n")
        # Sample mode draws 4,096 shots from seed 0 unless told otherwise.
        sample = ["verify", out, dense_file, "--mode", "sample"]
        assert main(sample) == 0
        assert main([*sample, "--shots", "4096", "--seed", "0"]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == second

    def test_bad_input_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        out = str(tmp_path / "c.json")
        for text in ('{"amplitudes": [0.5, -0.5]}', '{"values": [0.5, 0.5]}'):
            bad.write_text(text)
            assert main(["compile", str(bad), "--method", "dc", "--out", out]) == 2, text

    def test_non_finite_or_bool_amplitudes_exit_two(self, tmp_path, dense_file, capsys):
        out = str(tmp_path / "c.json")
        assert main(["compile", dense_file, "--method", "dc", "--out", out]) == 0
        bad = tmp_path / "bad.json"
        message = f"error: {bad}: amplitudes must be a non-empty list of finite numbers\n"
        for amps in ("[NaN, 1, 1, 1]", "[Infinity, 1, 1, 1]", "[true, false]", "[1e400, 1]",
                     "[1" + "0" * 399 + ", 1]", "[]"):
            bad.write_text('{"amplitudes": %s}' % amps)
            capsys.readouterr()
            assert main(["compile", str(bad), "--method", "dc", "--out", out + "2"]) == 2, amps
            assert main(["verify", out, str(bad)]) == 2, amps
            assert main(["distinguish", str(bad), dense_file]) == 2, amps
            assert capsys.readouterr().err == message * 3, amps

    def test_huge_entries_compile_and_verify(self, tmp_path, capsys):
        vec = write_vector(tmp_path, "v.json", [1e300, 1e300, 1.0, 1.0])
        out = str(tmp_path / "c.json")
        assert main(["compile", vec, "--method", "dc", "--out", out]) == 0
        capsys.readouterr()
        assert main(["verify", out, vec]) == 0
        assert json.loads(capsys.readouterr().out)["pass"]

    def test_tiny_and_negative_entries_judged_against_largest(self, tmp_path, capsys):
        tiny = write_vector(tmp_path, "tiny.json", [1e-13, 1e-13])
        out = str(tmp_path / "c.json")
        assert main(["compile", tiny, "--method", "dc", "--out", out]) == 0
        capsys.readouterr()
        assert main(["verify", out, tiny]) == 0
        signed = write_vector(tmp_path, "signed.json", [3e-12, -9e-13])
        assert main(["compile", signed, "--method", "dc", "--out", out]) == 2
        assert "negative amplitude" in capsys.readouterr().err

    def test_short_vector_padded(self, tmp_path, capsys):
        vec = write_vector(tmp_path, "v.json", [3.0, 4.0, 5.0])
        out = str(tmp_path / "c.json")
        assert main(["compile", vec, "--method", "dc", "--out", out]) == 0
        assert json.loads(capsys.readouterr().out)["qubits"] == 3

    def test_document_round_trips(self, dense_file, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["compile", dense_file, "--method", "dc", "--out", str(out)]) == 0
        capsys.readouterr()
        circuit = sp.deserialize(out.read_text())
        assert sp.metrics(circuit).qubits == 7

    def test_document_of_two_chunks_round_trips(self, tmp_path, capsys):
        vec = write_vector(tmp_path, "v.json", random_unit(np.random.default_rng(13), 2**13))
        out = tmp_path / "c.json"
        assert main(["compile", vec, "--method", "time", "--out", str(out)]) == 0
        capsys.readouterr()
        text = out.read_text()
        circuit = sp.deserialize(text)
        assert circuit.ops.n_ops == 8191 > sp.circuit.CHUNK
        assert sp.serialize(circuit) == text

    def test_stage_report_sidecar(self, dense_file, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        report = tmp_path / "stages.json"
        assert main(
            ["compile", dense_file, "--method", "dc", "--out", out, "--report", str(report)]
        ) == 0
        capsys.readouterr()
        doc = json.loads(report.read_text())
        assert [s["ancilla_wires"] for s in doc["stages"]] == [[3], [6], [4, 5]]
        final = doc["stages"][-1]
        assert final["control_wire"] == 0
        correction = json.loads(Path(out).read_text())["ops"][-1]
        assert correction["kind"] == "z"
        assert final["correction_values"] == correction["condition"]["values"]
        assert len(final["correction_values"]) == 2


class TestVerify:
    @pytest.mark.parametrize("method, code", [
        ("time", 0), ("dc", 0), ("dc --prune", 0), ("dc --parallelize", 0),
        ("dc --no-disentangle", 1), ("hybrid --lambda 2", 0),
    ])
    def test_compile_and_verify_make_no_gate_records(self, method, code, dense_file, tmp_path):
        # The op table is the one form of a circuit: compile and verify, in
        # both modes, read and write only its columns.
        out = str(tmp_path / "c.json")
        assert main(["compile", dense_file, "--method", *method.split(), "--out", out]) == 0
        assert main(["verify", out, dense_file]) == code
        sample = ["--mode", "sample", "--shots", "256", "--seed", "1"]
        assert main(["verify", out, dense_file, *sample]) == code

    def test_round_trip_passes(self, dense_file, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        main(["compile", dense_file, "--method", "dc", "--out", out])
        capsys.readouterr()
        assert main(["verify", out, dense_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] and report["min_fidelity"] >= 1 - 1e-9

    def test_entangled_baseline_fails(self, tmp_path, capsys):
        rng = np.random.default_rng(62)
        vec = write_vector(tmp_path, "v.json", random_unit(rng, 8))
        out = str(tmp_path / "c.json")
        main(["compile", vec, "--method", "dc", "--no-disentangle", "--out", out])
        capsys.readouterr()
        assert main(["verify", out, vec]) == 1
        assert not json.loads(capsys.readouterr().out)["pass"]

    def test_near_uniform_entangled_baseline_fails(self, tmp_path, capsys):
        # Without the disentangling measurements the ancillas stay entangled
        # with the data.  The principal data state is close to the target,
        # but the reduced state is mixed: sqrt(<t|rho|t>) = 0.99969.
        vec = write_vector(tmp_path, "v.json", [1.0, 1.05, 1.0, 0.95])
        out = str(tmp_path / "c.json")
        main(["compile", vec, "--method", "dc", "--no-disentangle", "--out", out])
        capsys.readouterr()
        assert main(["verify", out, vec]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["min_fidelity"] == pytest.approx(0.999688, abs=1e-6)

    def test_short_vector_round_trip(self, tmp_path, capsys):
        vec = write_vector(tmp_path, "v.json", [0.3, 0.5, 0.8])
        out = str(tmp_path / "c.json")
        assert main(["compile", vec, "--method", "dc", "--out", out]) == 0
        assert main(["verify", out, vec]) == 0

    def test_zero_norm_target_exits_two(self, dense_file, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        assert main(["compile", dense_file, "--method", "dc", "--out", out]) == 0
        zero = write_vector(tmp_path, "zero.json", [0.0] * 8)
        assert main(["verify", out, zero]) == 2
        assert "zero norm" in capsys.readouterr().err

    def test_target_of_the_wrong_size_exits_two(self, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        vec = write_vector(tmp_path, "v.json", [0.6, 0.0, 0.0, 0.8])
        assert main(["compile", vec, "--method", "time", "--out", out]) == 0
        capsys.readouterr()
        assert main(["verify", out, write_vector(tmp_path, "t.json", [0.6, 0.8])]) == 2
        assert capsys.readouterr().err == (
            "error: target dimension 2 vs 4 of a 2-qubit data register\n")

    def test_time_single_branch(self, dense_file, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        main(["compile", dense_file, "--method", "time", "--out", out])
        capsys.readouterr()
        assert main(["verify", out, dense_file]) == 0
        assert json.loads(capsys.readouterr().out)["branches"] == 1

    def test_sample_mode_deterministic(self, dense_file, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        main(["compile", dense_file, "--method", "dc", "--out", out])
        capsys.readouterr()
        assert main(["verify", out, dense_file, "--mode", "sample", "--shots", "500", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        main(["verify", out, dense_file, "--mode", "sample", "--shots", "500", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_oversized_shot_count_exits_two(self, dense_file, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        main(["compile", dense_file, "--method", "dc", "--out", out])
        capsys.readouterr()
        args = ["verify", out, dense_file, "--mode", "sample", "--shots"]
        for shots in (10**20, 0):
            assert main(args + [str(shots)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
        assert main(args + [str(2**63 - 1)]) == 0

    def test_non_finite_or_bool_document_fields_exit_two(self, tmp_path, capsys):
        vec = write_vector(tmp_path, "v.json", [0.6, 0.8])
        out = tmp_path / "c.json"
        assert main(["compile", vec, "--method", "dc", "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["ops"][0]["kind"] == "roty"
        for field, value in (("angle", "NaN"), ("angle", "Infinity"), ("angle", "true"),
                             ("qubits", "[true]")):
            doc["ops"][0][field] = "@"
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc).replace('"@"', value))
            assert main(["verify", str(bad), vec]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "NaN" not in captured.err
            doc = json.loads(out.read_text())

    @pytest.mark.parametrize("n_qubits", [50_000, 10**9])
    def test_unallocatable_final_register_exits_two_at_once(self, n_qubits, tmp_path, capsys):
        # One ``h`` and no measurement: the final register holds every wire.
        # It is refused before the walk plans a cluster per wire.
        vec = write_vector(tmp_path, "v.json", [1.0, 0.0])
        doc = tmp_path / "wide.json"
        doc.write_text(json.dumps({"n_qubits": n_qubits, "n_clbits": 0, "data_qubits": [0],
                                   "ops": [{"kind": "h", "qubits": [0]}]}))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            rc = main(["verify", str(doc), vec])
            elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2 and elapsed < 1.0 and peak < 2**20
        assert f"{n_qubits} wires" in capsys.readouterr().err

    @pytest.mark.parametrize("module, name", [("simulator", "_product"), ("cli", "deserialize")])
    def test_memory_error_is_worded_where_it_is_raised(self, module, name, monkeypatch, capsys):
        # At a cap of 18 the walk of this parallelized dense n=6 document
        # joins a cluster of 15 wires and 94,699 rows, about 46 GiB, though
        # its final register holds 6 wires; reading a document can run out
        # of memory too.  A refused join or read stands in for those
        # allocations on hosts that could make them.
        def refuse(*args):
            raise MemoryError("unable to allocate")

        monkeypatch.setattr(getattr(sp, module), name, refuse)
        data = Path(__file__).parent / "data"
        rc = main(["verify", str(data / "exact" / "dc_parallel_dense_n6.json"),
                   str(data / "golden_dense_n6_vector.json"), "--branch-cap", "18"])
        err = capsys.readouterr().err
        assert rc == 2 and err == "error: unable to allocate\n"

    def test_malformed_or_oversized_documents_exit_two(self, tmp_path, capsys):
        vec = write_vector(tmp_path, "v.json", [1.0, 0.0])
        measure = {"kind": "measure", "qubits": [0], "clbit": 0}
        docs = (
            {"n_qubits": -1, "n_clbits": -2, "data_qubits": [], "ops": []},
            {"n_qubits": 1, "n_clbits": 2, "data_qubits": [0],
             "ops": [measure, dict(measure, clbit=1)]},
            {"n_qubits": 1, "n_clbits": 1, "data_qubits": [0],
             "ops": [measure, {"kind": "x", "qubits": [0]}]},
            # 2**40 amplitudes: numpy refuses the 16 TiB at once.
            {"n_qubits": 40, "n_clbits": 0, "data_qubits": [0], "ops": []},
        )
        for doc in docs:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            assert main(["verify", str(bad), vec]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
        assert "40 wires" in captured.err

    def test_repeated_or_overwide_condition_documents_exit_two(self, tmp_path, capsys):
        # A condition names each clbit once, and reads at most 63 of them:
        # 70 bits that repeat bit 0, and 64 distinct bits, are refused
        # however wide the branch cap.
        vec = write_vector(tmp_path, "v.json", [1.0, 0.0])
        measures = [{"kind": "measure", "qubits": [k], "clbit": k} for k in range(64)]
        docs = ((2, [0] * 70, 2**70 - 1), (65, list(range(64)), 2**64 - 1))
        for n_qubits, bits, value in docs:
            flip = {"kind": "x", "qubits": [n_qubits - 1],
                    "condition": {"bits": bits, "values": [value]}}
            doc = {"n_qubits": n_qubits, "n_clbits": n_qubits - 1,
                   "data_qubits": [n_qubits - 1],
                   "ops": [{"kind": "h", "qubits": [0]}, *measures[: n_qubits - 1], flip]}
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            assert main(["verify", str(bad), vec, "--branch-cap", "64"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
        assert "64 condition bits" in captured.err

    def test_wide_condition_document_verifies(self, tmp_path, capsys):
        # 64 wires never form one state: each is its own cluster, so a
        # condition on 63 measured bits is read, and fires on the one
        # branch whose bits spell its value.
        vec = write_vector(tmp_path, "v.json", [1.0, 0.0])
        measures = [{"kind": "measure", "qubits": [k], "clbit": k} for k in range(63)]
        for value, code in ((2**63 - 1, 0), (2**62, 1)):
            flip = {"kind": "x", "qubits": [63],
                    "condition": {"bits": list(range(63)), "values": [value]}}
            doc = {"n_qubits": 64, "n_clbits": 63, "data_qubits": [63],
                   "ops": [{"kind": "h", "qubits": [0]}, *measures, flip]}
            path = tmp_path / "wide.json"
            path.write_text(json.dumps(doc))
            assert main(["verify", str(path), vec]) == code
            report = json.loads(capsys.readouterr().out)
            assert report["branches"] == 2 and report["min_fidelity"] == 1.0 - code

    @pytest.mark.parametrize("method", ["time", "dc"])
    def test_negative_branch_cap_exits_two_before_walking(self, method, tmp_path, capsys,
                                                          monkeypatch):
        # A time document has no measurement to reach the cap at, and a dc
        # one would reach it mid-walk; both are refused before the walk.
        vec = str(Path(__file__).parent / "data" / "dc_n3_vector.json")
        doc = str(tmp_path / "c.json")
        assert main(["compile", vec, "--method", method, "--out", doc]) == 0
        capsys.readouterr()
        monkeypatch.setattr(sp.simulator, "_plan", lambda *a: pytest.fail("walked"))
        for mode in (["--mode", "enumerate"], ["--mode", "sample", "--shots", "16"]):
            assert main(["verify", doc, vec, "--branch-cap", "-1", *mode]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: branch cap -1 is negative\n")


class TestAnalyzeSweep:
    def test_analyze_n3_row(self, capsys):
        assert main(["analyze", "--n-min", "3", "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,qubits,cswaps,depth,depth_parallel"
        assert lines[1] == "3,7,4,4,4"

    def test_analyze_bad_range_exits_two(self, capsys):
        assert main(["analyze", "--n-min", "0", "--n-max", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: need 1 <= n-min")

    def test_analyze_measured_columns_match(self, capsys):
        assert main(["analyze", "--n-min", "1", "--n-max", "6", "--measure"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for row in lines[1:]:
            vals = row.split(",")
            assert vals[1:5] == vals[5:9]

    def test_sweep_contains_published_point(self, capsys):
        assert main(["sweep", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "4,2,11,8" in out

    def test_sweep_monotone_n6(self, capsys):
        assert main(["sweep", "--n", "6"]) == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()[1:]]
        qubits = [int(r[2]) for r in rows]
        depth = [int(r[3]) for r in rows]
        assert qubits == sorted(qubits, reverse=True) and len(set(qubits)) == len(qubits)
        assert depth == sorted(depth) and len(set(depth)) == len(depth)

    def test_sweep_several_sizes(self, capsys):
        assert main(["sweep", "--n", "4", "6", "--measure"]) == 0
        both = capsys.readouterr().out.splitlines()
        main(["sweep", "--n", "4", "--measure"])
        four = capsys.readouterr().out.splitlines()
        main(["sweep", "--n", "6", "--measure"])
        six = capsys.readouterr().out.splitlines()
        assert both == four + six[1:]
        assert main(["sweep", "--n", "4", "2", "--lambda-min", "3"]) == 2

    def test_byte_identical_across_runs(self, capsys):
        main(["sweep", "--n", "5", "--measure"])
        first = capsys.readouterr().out
        main(["sweep", "--n", "5", "--measure"])
        assert capsys.readouterr().out == first

    def test_formula_sweep_builds_no_tree(self, monkeypatch, capsys):
        def refuse(_):
            raise AssertionError("a formula-only sweep built a tree")

        monkeypatch.setattr("stateprep.cli.build_tree", refuse)
        assert main(["sweep", "--n", "3", "4"]) == 0
        assert "4,2,11,8" in capsys.readouterr().out


class TestDistinguish:
    def test_computational_pair(self, tmp_path, capsys):
        p = write_vector(tmp_path, "p.json", [1, 0])
        m = write_vector(tmp_path, "m.json", [0, 1])
        plan_out = str(tmp_path / "plan.json")
        assert main(["distinguish", p, m, "--plan-out", plan_out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_correct_plus"] >= 1 - 1e-10
        assert report["p_correct_minus"] >= 1 - 1e-10
        plan = json.loads(open(plan_out).read())
        assert plan["m"] == 1

    def test_two_qubit_pair(self, tmp_path, capsys):
        rng = np.random.default_rng(63)
        a = rng.random(4) + 0.1
        a /= np.linalg.norm(a)
        b = rng.random(4)
        b -= (a @ b) * a
        b /= np.linalg.norm(b)
        p = write_vector(tmp_path, "p.json", a)
        m = write_vector(tmp_path, "m.json", b)
        assert main(["distinguish", p, m]) == 0

    def test_huge_entries(self, tmp_path, capsys):
        p = write_vector(tmp_path, "p.json", [1e308, 1e308])
        m = write_vector(tmp_path, "m.json", [1e308, -1e308])
        assert main(["distinguish", p, m]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_correct_plus"] >= 1 - 1e-10
        assert report["p_correct_minus"] >= 1 - 1e-10

    @pytest.mark.parametrize("plus, minus", [([1, 0], [0, 1, 0, 0]), ([1, 0, 0], [0, 1, 0])])
    def test_mismatched_or_non_power_of_two_pair_exits_two(self, plus, minus, tmp_path, capsys):
        p = write_vector(tmp_path, "p.json", plus)
        m = write_vector(tmp_path, "m.json", minus)
        assert main(["distinguish", p, m]) == 2
        assert "error: " in capsys.readouterr().err

    def test_not_orthogonal_exits_two(self, tmp_path):
        p = write_vector(tmp_path, "p.json", [1, 0])
        m = write_vector(tmp_path, "m.json", [np.sqrt(0.5), np.sqrt(0.5)])
        assert main(["distinguish", p, m]) == 2


def test_compile_verify_round_trip_every_method(tmp_path, capsys):
    rng = np.random.default_rng(64)
    for n in (2, 3, 4):
        vec = write_vector(tmp_path, f"v{n}.json", random_unit(rng, 2**n))
        for method, extra in (("time", []), ("dc", []), ("hybrid", ["--lambda", "2"])):
            if method == "hybrid" and n < 2:
                continue
            out = str(tmp_path / f"{method}{n}.json")
            assert main(["compile", vec, "--method", method, *extra, "--out", out]) == 0
            capsys.readouterr()
            assert main(["verify", out, vec]) == 0, (method, n)
            capsys.readouterr()


def test_module_entry_point(dense_file, tmp_path):
    out = str(tmp_path / "c.json")
    proc = run_module("compile", dense_file, "--method", "dc", "--out", out)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["qubits"] == 7


@pytest.mark.parametrize("flag", ["--out", "--report", "--plan-out"])
def test_unwritable_output_path_exits_two(flag, dense_file, tmp_path):
    # Exit 1 is a failed verification; a path that cannot be written is bad input.
    missing = str(tmp_path / "missing" / "out.json")
    compile_dc = ["compile", dense_file, "--method", "dc", "--out"]
    p = write_vector(tmp_path, "p.json", [1, 0])
    m = write_vector(tmp_path, "m.json", [0, 1])
    argv = {
        "--out": compile_dc + [missing],
        "--report": compile_dc + [str(tmp_path / "c.json"), "--report", missing],
        "--plan-out": ["distinguish", p, m, "--plan-out", missing],
    }[flag]
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


DATA = Path(__file__).parent / "data"
GOLDEN = {
    "dc_dense_n6": ("dense_n6", ["--method", "dc"]),
    "dc_parallel_dense_n6": ("dense_n6", ["--method", "dc", "--parallelize"]),
    "dc_parallel_nodis_dense_n6": (
        "dense_n6",
        ["--method", "dc", "--parallelize", "--no-disentangle"],
    ),
    "dc_parallel_prune_sparse_n5": ("sparse_n5", ["--method", "dc", "--parallelize", "--prune"]),
    "dc_parallel_prune_w_n5": ("w_n5", ["--method", "dc", "--parallelize", "--prune"]),
    "hybrid2_prune_dense_n6": ("dense_n6", ["--method", "hybrid", "--lambda", "2", "--prune"]),
    "dc_prune_w_n5": ("w_n5", ["--method", "dc", "--prune"]),
    "dc_sparse_n5": ("sparse_n5", ["--method", "dc"]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_documents(name, tmp_path, capsys):
    # ``golden_<name>.json`` and its ``_stages.json`` sidecar were written by
    # earlier versions of the synthesis (the per-stage recursion; for the
    # ``parallel`` cases, a swap-scheduling pass over the finished circuit),
    # with one op per condition value of a selected rotation.  The engine
    # must emit the same circuit, compared record by record once its
    # selected rotations are split the same way.  Documents keep 12
    # significant digits, hence the angle tolerance.
    vector, flags = GOLDEN[name]
    out, report = tmp_path / "c.json", tmp_path / "r.json"
    argv = ["compile", str(DATA / f"golden_{vector}_vector.json"), *flags]
    assert main(argv + ["--out", str(out), "--report", str(report)]) == 0
    capsys.readouterr()
    got = sp.deserialize(out.read_text())
    want = sp.deserialize((DATA / f"golden_{name}.json").read_text())
    assert (got.n_qubits, got.n_clbits, got.data_qubits) == (
        want.n_qubits,
        want.n_clbits,
        want.data_qubits,
    )
    got_ops, want_ops = per_value_records(got.ops), per_value_records(want.ops)
    assert len(got_ops) == len(want_ops)
    for a, b in zip(got_ops, want_ops):
        assert (a.kind, a.qubits, a.clbit, a.polarities, a.condition, a.role) == (
            b.kind,
            b.qubits,
            b.clbit,
            b.polarities,
            b.condition,
            b.role,
        )
        assert (a.angle is None) == (b.angle is None)
        if a.angle is not None:
            assert a.angle == pytest.approx(b.angle, abs=1e-11)
    assert json.loads(report.read_text()) == json.loads(
        (DATA / f"golden_{name}_stages.json").read_text()
    )


EXACT = {
    "time_dense_n6": ("dense_n6", ["--method", "time"]),
    "hybrid4_dense_n6": ("dense_n6", ["--method", "hybrid", "--lambda", "4"]),
    "dc_parallel_dense_n6": ("dense_n6", ["--method", "dc", "--parallelize"]),
    "dc_prune_sparse_n5": ("sparse_n5", ["--method", "dc", "--prune"]),
}


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_documents(name, tmp_path, capsys):
    # ``exact/<name>.json`` holds the compact document, byte for byte, so a
    # writer that changes one digit, a key's place or a separator fails here.
    vector, flags = EXACT[name]
    out = tmp_path / "c.json"
    argv = ["compile", str(DATA / f"golden_{vector}_vector.json"), *flags, "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    want = (DATA / "exact" / f"{name}.json").read_text()
    assert out.read_text() == want
    assert sp.serialize(sp.deserialize(want)) == want


@pytest.mark.parametrize("name", sorted(set(EXACT) - {"time_dense_n6"}))
def test_per_value_documents_read_as_selected_ones(name, capsys):
    # ``exact/per_value_<name>.json`` holds the same compile with one op per
    # condition value, as documents were written before selected rotations.
    older, newer = DATA / "exact" / f"per_value_{name}.json", DATA / "exact" / f"{name}.json"
    a, b = sp.deserialize(older.read_text()), sp.deserialize(newer.read_text())
    assert sp.serialize(a) == older.read_text()
    assert a.ops.n_ops > b.ops.n_ops
    assert (a.n_qubits, a.n_clbits, a.data_qubits) == (b.n_qubits, b.n_clbits, b.data_qubits)
    assert per_value_records(a.ops) == per_value_records(b.ops)
    vector = str(DATA / f"golden_{EXACT[name][0]}_vector.json")
    reports = []
    for doc in (older, newer):
        reports.append((main(["verify", str(doc), vector]), *capsys.readouterr()))
    assert reports[0] == reports[1]
    # Parallelized, dense n=6 joins clusters past the default branch cap.
    assert reports[0][0] == (2 if "parallel" in name else 0)
