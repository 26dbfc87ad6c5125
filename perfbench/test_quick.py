"""Quick tests of the benchmark itself, on reduced inputs.

    python3 -m pytest perfbench/test_quick.py -q

Each workload runs its jobs once and its checks must pass; then a
deliberately corrupted output must be rejected by the same checks.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckError  # noqa: E402


def run_once(workload):
    outputs = []
    for job in workload.jobs():
        if job.prepare is not None:
            job.prepare()
        outputs.append(job.run())
    return outputs


@pytest.fixture(scope="module")
def roundtrip():
    wl = workloads.Roundtrip(3, reduced=True)
    return wl, run_once(wl)


@pytest.fixture(scope="module")
def centralizer():
    wl = workloads.Centralizer(3, reduced=True)
    return wl, run_once(wl)


@pytest.fixture(scope="module")
def toric():
    wl = workloads.ToricQuotient(3, reduced=True)
    return wl, run_once(wl)


@pytest.fixture(scope="module")
def cli():
    wl = workloads.CliCold(3, reduced=True)
    return wl, run_once(wl)


def corrupt_at(outputs, index, value):
    out = list(outputs)
    out[index] = value
    return out


# -- roundtrip ----------------------------------------------------------------------


def test_roundtrip_checks_pass(roundtrip):
    wl, outputs = roundtrip
    wl.check(outputs)
    assert wl.counts(outputs)["darboux.passes"] >= 0


def test_roundtrip_rejects_a_wrong_k(roundtrip):
    wl, outputs = roundtrip
    bad = copy.copy(outputs[0])
    bad.k += 1
    with pytest.raises(CheckError, match="k="):
        wl.check(corrupt_at(outputs, 0, bad))


def test_roundtrip_rejects_a_dropped_slice_entry(roundtrip):
    wl, outputs = roundtrip
    i = next(i for i, (tag, _p, _e) in enumerate(wl.inputs)
             if tag.startswith("kleinian_product(1,2) unscrambled"))
    bad = copy.copy(outputs[i])
    bad.slice_table = dict(list(outputs[i].slice_table.items())[1:])
    with pytest.raises(CheckError, match="slice entry"):
        wl.check(corrupt_at(outputs, i, bad))


def test_roundtrip_rejects_a_lost_obstruction(roundtrip):
    wl, outputs = roundtrip
    i = next(i for i, (tag, _p, _e) in enumerate(wl.inputs) if tag.startswith("coupled_line scramble"))
    bad = copy.copy(outputs[i])
    bad.residual_field = {s: v - v.constant_coefficient() for s, v in outputs[i].residual_field.items()}
    with pytest.raises(CheckError):
        wl.check(corrupt_at(outputs, i, bad))


# -- centralizer ----------------------------------------------------------------------


def _index_of(wl, prefix):
    return next(i for i, job in enumerate(wl.jobs()) if job.label.startswith(prefix))


def test_centralizer_checks_pass(centralizer):
    wl, outputs = centralizer
    wl.check(outputs)


def test_centralizer_rejects_a_kernel_vector_scaled_out_of_the_kernel(centralizer):
    wl, outputs = centralizer
    i = _index_of(wl, "extract_slice kleinian_product(1,2) w1")
    basis = list(outputs[i]["basis"])
    basis[0] = basis[0] * basis[0].ctx.var("u")  # same weight, but {u b, t} = b {u, t} != 0
    with pytest.raises(CheckError, match="not central"):
        wl.check(corrupt_at(outputs, i, dict(outputs[i], basis=basis, generators=[])))


def test_centralizer_rejects_a_dropped_kernel_vector(centralizer):
    wl, outputs = centralizer
    i = _index_of(wl, "quantized_slice differential(2,2)")
    bad = copy.copy(outputs[i])
    w = next(iter(bad.basis))
    bad.basis = {**bad.basis, w: bad.basis[w][1:]}
    with pytest.raises(CheckError, match="basis vectors, expected"):
        wl.check(corrupt_at(outputs, i, bad))


# -- toric-quotient -------------------------------------------------------------------


def test_toric_checks_pass(toric):
    wl, outputs = toric
    wl.check(outputs)
    counts = wl.counts(outputs)
    assert counts["hypertoric.leaves"] > 0 and counts["quotient.group_order"] == 8 + 12


def test_toric_rejects_a_dropped_leaf(toric):
    wl, outputs = toric
    with pytest.raises(CheckError, match="leaves of"):
        wl.check(corrupt_at(outputs, 1, outputs[1][:-1]))


def test_toric_rejects_a_wrong_unimodularity_verdict(toric):
    wl, outputs = toric
    ok, _witness = outputs[0]
    with pytest.raises(CheckError, match="unimodularity"):
        wl.check(corrupt_at(outputs, 0, (not ok, {"rows": [1, 2, 3], "minor": 2})))


def test_toric_rejects_a_wrong_reflection_count(toric):
    wl, outputs = toric
    i = next(i for i, out in enumerate(outputs) if type(out).__name__ == "SRAData")
    bad = copy.copy(outputs[i])
    bad.reflections = bad.reflections[:-1]
    with pytest.raises(CheckError, match="reflections"):
        wl.check(corrupt_at(outputs, i, bad))


def test_the_a2_cone_shows_the_extra_vertex_leaves():
    from equislice.hypertoric import enumerate_leaves

    leaves = enumerate_leaves(workloads.FAULT_MATRIX)
    oracle = oracles.gale_leaves(workloads.FAULT_MATRIX)
    assert sorted(oracle.values()) == [0, 2]
    with pytest.raises(CheckError):
        oracles.check_leaves(workloads.FAULT_MATRIX, leaves, oracle)


def test_gale_oracle_on_the_rectangle():
    dims = oracles.gale_leaves([[1, 0], [1, 0], [0, 1], [0, 1]])
    assert sorted(dims.values(), reverse=True) == [4, 2, 2, 0]


def test_leibniz_minor_of_the_plus_minus_matrix():
    minors = oracles.leibniz_minors([[1, 1], [1, -1]])
    assert minors == {(0, 1): -2}


# -- cli-cold --------------------------------------------------------------------------


def test_cli_checks_pass(cli):
    wl, outputs = cli
    wl.check(outputs)


def test_cli_rejects_a_wrong_exit_status(cli):
    wl, outputs = cli
    code, out = outputs[0]
    with pytest.raises(CheckError, match="exit status"):
        wl.check(corrupt_at(outputs, 0, (code + 1, out)))


def test_cli_rejects_a_wrong_fact(cli):
    wl, outputs = cli
    i = next(i for i, spec in enumerate(wl.specs) if spec[0] == ("hypertoric", "leaves"))
    code, out = outputs[i]
    report = json.loads(out)
    report["leaves"] = report["leaves"][:-1]
    text = json.dumps(report, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    with pytest.raises(CheckError, match="fact"):
        wl.check(corrupt_at(outputs, i, (code, text)))


# -- tracing and the command --------------------------------------------------------------


def test_tracer_restores_every_binding_and_counts_calls():
    from equislice import darboux, linalg, quantize
    from spans import Tracer

    originals = (linalg.in_span, quantize.in_span, darboux.CoordinateChange.__dict__["from_forward"])
    tracer = Tracer()
    tracer.job = 0
    tracer.install()
    try:
        assert quantize.in_span is linalg.in_span and quantize.in_span is not originals[0]
        assert linalg.in_span([[Fraction(1), Fraction(0)]], [Fraction(2), Fraction(0)]) is True
    finally:
        tracer.uninstall()
    assert (linalg.in_span, quantize.in_span, darboux.CoordinateChange.__dict__["from_forward"]) == originals
    stats = tracer.summarize({0: "all"})["all"]
    assert stats["calls"]["linalg.in_span"] == 1 and stats["calls"]["linalg.solve"] == 1
    assert tracer.counters["linalg.cells"] == 4 and tracer.counters["linalg.in_span.new"] == 0


def test_children_cache_bytecode_whatever_the_shell_sets(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "elsewhere")
    env = workloads.child_env()
    assert "PYTHONDONTWRITEBYTECODE" not in env and "PYTHONPYCACHEPREFIX" not in env
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(workloads.SRC)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
