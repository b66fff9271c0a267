import ast
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonlat
from photonlat.cli import SCHEMA, config_hash, load_config, main, read_unitary
from photonlat.errors import ConfigurationError

from conftest import evolution_log

BASE_CONFIG = {
    "seed": 20240131,
    "evolution": {"n_steps": 192},
    "sampling": {"count": 120},
    "haar": {"n_matrices": 6, "columns": 40},
}


def write_config(tmp_path, extra=None, name="config.json"):
    config = json.loads(json.dumps(BASE_CONFIG))
    for key, val in (extra or {}).items():
        if isinstance(val, dict):
            config.setdefault(key, {}).update(val)
        else:
            config[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp)
    out = tmp / "sim"
    assert run("simulate", "--config", cfg, "--out", out) == 0
    return tmp, cfg, out / "unitary.json"


def test_simulate_writes_valid_unitary(simulated):
    _, _, upath = simulated
    doc = json.loads(Path(upath).read_text())
    assert doc["m"] == 32
    assert doc["provenance"]["unitarity_defect"] < 1e-9
    u = read_unitary(upath)
    assert u.shape == (32, 32)


def test_simulate_byte_identical(simulated, tmp_path):
    tmp, cfg, upath = simulated
    out2 = tmp_path / "sim2"
    assert run("simulate", "--config", cfg, "--out", out2) == 0
    assert Path(upath).read_bytes() == (out2 / "unitary.json").read_bytes()


def test_zero_coupling_config_gives_identity(tmp_path):
    cfg = write_config(tmp_path, {
        "lattice": {"rows": 1, "cols": 2, "pitch_um": 50.0, "max_shift_um": 0.0},
        "heaters": {"powers_mw": [0.0] * 16},
        "inputs": [0, 1],
        "dropped_output": None,
    })
    out = tmp_path / "sim"
    assert run("simulate", "--config", cfg, "--out", out) == 0
    u = read_unitary(out / "unitary.json")
    assert np.array_equal(u, np.eye(2))


def test_sample_reproducible_and_well_formed(simulated, tmp_path):
    tmp, cfg, upath = simulated
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert run("sample", "--config", cfg, "--unitary", upath,
                   "--out", out) == 0
    b1 = (out1 / "samples.jsonl").read_bytes()
    assert b1 == (out2 / "samples.jsonl").read_bytes()
    lines = b1.decode().splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "header"
    assert len(lines) == 1 + 120
    ev = json.loads(lines[1])
    assert set(ev) == {"index", "branch", "output", "distinguishable"}
    assert len(ev["output"]) == 3
    assert 31 not in ev["output"]        # dropped trigger detector


def test_sample_zero_events_writes_header_only(simulated, tmp_path):
    _, cfg, upath = simulated
    out = tmp_path / "s0"
    assert run("sample", "--config", cfg, "--unitary", upath, "--out", out,
               "--events", 0) == 0
    lines = (out / "samples.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["record"] == "header"


def test_four_photon_sampling_records_branches(simulated, tmp_path):
    tmp, _, upath = simulated
    cfg = write_config(tmp_path, {"photons": {"n": 4}})
    out = tmp_path / "s4"
    assert run("sample", "--config", cfg, "--unitary", upath, "--out", out,
               "--events", 50) == 0
    lines = (out / "samples.jsonl").read_text().splitlines()[1:]
    branches = {json.loads(l)["branch"] for l in lines}
    assert branches <= {"1111", "2002", "0220"}


def test_validate_pipeline(simulated, tmp_path):
    tmp, cfg, upath = simulated
    sdir = tmp_path / "samples"
    assert run("sample", "--config", cfg, "--unitary", upath, "--out", sdir,
               "--events", 200) == 0
    for test in ("uniform", "distinguishable"):
        out = tmp_path / f"val_{test}"
        assert run("validate", "--config", cfg, "--unitary", upath,
                   "--samples", sdir / "samples.jsonl", "--out", out,
                   "--test", test, "--ensemble", 40) == 0
        summary = json.loads((out / "zscore.json").read_text())
        assert summary["slope"] > 0
        assert summary["z_score"] > 3
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "k,counter"
        assert len(trace_lines) == 1 + summary["n_events"]
        hist_lines = (out / "slope_histogram.csv").read_text().splitlines()
        assert hist_lines[0] == "edge_low,edge_high,mass"
        masses = [float(l.split(",")[2]) for l in hist_lines[1:]]
        assert sum(masses) == pytest.approx(1.0)


def _per_value_csv(header, rows):
    """A CSV text with each value formatted on its own, floats by repr and
    anything else by str: the form the whole-column writer replaced."""
    lines = [",".join(header)] + [",".join(repr(x) if isinstance(x, float) else str(x)
                                           for x in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def test_csv_columns_give_the_per_value_text(simulated, tmp_path, monkeypatch):
    tmp, cfg, upath = simulated
    written = {}
    csv_lines = photonlat.cli._csv_lines

    def recorded(header, columns):
        columns = [list(column) for column in columns]
        written[header[-1]] = header, columns
        return csv_lines(header, columns)

    monkeypatch.setattr(photonlat.cli, "_csv_lines", recorded)
    sdir = tmp_path / "samples"
    assert run("sample", "--config", cfg, "--unitary", upath, "--out", sdir,
               "--events", 100) == 0
    assert run("validate", "--config", cfg, "--unitary", upath, "--samples",
               sdir / "samples.jsonl", "--out", tmp_path / "val",
               "--test", "distinguishable", "--ensemble", 20) == 0
    noisy = write_config(tmp_path, {"reconstruction": {"noise": "poisson"}})
    assert run("reconstruct", "--config", noisy, "--unitary", upath,
               "--out", tmp_path / "rec") == 0
    for path, last in (("val/trace.csv", "counter"), ("val/slope_histogram.csv", "mass"),
                       ("rec/residuals.csv", "residual")):
        header, columns = written[last]
        assert all(type(x) in (int, float) for column in columns for x in column)
        assert (tmp_path / path).read_bytes() == _per_value_csv(
            header, zip(*columns)).encode()


def test_validate_byte_identical(simulated, tmp_path):
    tmp, cfg, upath = simulated
    sdir = tmp_path / "samples"
    run("sample", "--config", cfg, "--unitary", upath, "--out", sdir,
        "--events", 150)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"val_{tag}"
        assert run("validate", "--config", cfg, "--unitary", upath,
                   "--samples", sdir / "samples.jsonl", "--out", out,
                   "--test", "distinguishable", "--ensemble", 25) == 0
        outs.append(out)
    for name in ("trace.csv", "slope_histogram.csv", "zscore.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_validate_photon_mismatch_exits_2(simulated, tmp_path):
    tmp, cfg, upath = simulated
    sdir = tmp_path / "samples"
    run("sample", "--config", cfg, "--unitary", upath, "--out", sdir,
        "--events", 30)
    bad_cfg = write_config(tmp_path, {"photons": {"n": 4}})
    code = run("validate", "--config", bad_cfg, "--unitary", upath,
               "--samples", sdir / "samples.jsonl", "--out", tmp_path / "v")
    assert code == 2


def test_validate_ensemble_over_table_limit_exits_2(simulated, tmp_path, capsys):
    tmp, cfg, upath = simulated
    sdir = tmp_path / "samples"
    run("sample", "--config", cfg, "--unitary", upath, "--out", sdir,
        "--events", 30)
    # 65,536 draws of 3 columns of 32 modes: the QR's four stacks would hold 403 MB
    assert run("validate", "--config", cfg, "--unitary", upath,
               "--samples", sdir / "samples.jsonl", "--out", tmp_path / "v",
               "--ensemble", 65536) == 2
    assert "table limit" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("command, extra", [
    ("simulate", {"evolution": {"n_steps": 10 ** 11}}),
    ("sample", {"sampling": {"count": 10 ** 12}})])
def test_huge_count_exits_2_before_allocating(simulated, tmp_path, capsys, command, extra):
    _, _, upath = simulated
    cfg = write_config(tmp_path, extra)
    unitary = ["--unitary", upath] if command == "sample" else []
    tracemalloc.start()
    try:
        code = run(command, "--config", cfg, *unitary, "--out", tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "table limit" in capsys.readouterr().err
    assert peak < 2**20
    assert not (tmp_path / "out").exists()


def test_validate_out_of_range_output_exits_2(simulated, tmp_path):
    tmp, cfg, upath = simulated
    sdir = tmp_path / "samples"
    run("sample", "--config", cfg, "--unitary", upath, "--out", sdir,
        "--events", 30)
    lines = (sdir / "samples.jsonl").read_text().splitlines()
    rec = json.loads(lines[5])
    rec["output"] = [1, 3, 40]
    lines[5] = json.dumps(rec, sort_keys=True)
    (sdir / "samples.jsonl").write_text("\n".join(lines) + "\n")
    for test in ("uniform", "distinguishable"):
        assert run("validate", "--config", cfg, "--unitary", upath,
                   "--samples", sdir / "samples.jsonl", "--out", tmp_path / "v",
                   "--test", test, "--ensemble", 10) == 2


def test_reconstruct_noiseless(simulated, tmp_path):
    _, cfg, upath = simulated
    out = tmp_path / "rec"
    assert run("reconstruct", "--config", cfg, "--unitary", upath,
               "--out", out) == 0
    gauge = json.loads((out / "gauge_distance.json").read_text())
    assert gauge["moduli_rmse"] < 1e-6
    assert gauge["phase_quadruple_rmse"] < 1e-6
    doc = json.loads((out / "reconstructed.json").read_text())
    assert len(doc["moduli"]) == 3
    assert len(doc["moduli"][0]) == 32
    residual_lines = (out / "residuals.csv").read_text().splitlines()
    assert residual_lines[0].startswith("input_h,input_k,output_i,output_j")
    assert len(residual_lines) > 900


def test_reconstruct_noisy_residuals_sum_to_chi2(simulated, tmp_path):
    _, _, upath = simulated
    cfg = write_config(tmp_path, {"reconstruction": {"noise": "poisson"}})
    out = tmp_path / "rec"
    assert run("reconstruct", "--config", cfg, "--unitary", upath,
               "--out", out) == 0
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[0].endswith(",residual")
    chi2 = sum(float(line.rsplit(",", 1)[1]) ** 2 for line in lines[1:])
    doc = json.loads((out / "reconstructed.json").read_text())
    assert chi2 == pytest.approx(doc["chi2"], rel=1e-9)


def test_reconstruct_unresolved_dip_seed_exits_0(tmp_path):
    # at this noise seed one shallow dip's full fit runs to a width twice
    # the scan; taken at face value, that fit fails the |cos| consistency check
    cfg = write_config(tmp_path, {"reconstruction": {"noise": "poisson"}})
    chip = tmp_path / "chip.json"
    chip.write_text(json.dumps({"seed": 12345}))
    assert run("simulate", "--config", chip, "--out", tmp_path / "sim") == 0
    assert run("reconstruct", "--config", cfg, "--unitary",
               tmp_path / "sim" / "unitary.json", "--out", tmp_path / "rec",
               "--seed", 2385068500624044428) == 0


@pytest.fixture(scope="module")
def dataset_doc(simulated):
    tmp, cfg, upath = simulated
    out = tmp / "rec_doc"
    assert run("reconstruct", "--config", cfg, "--unitary", upath,
               "--out", out) == 0
    return json.loads((out / "hom_dataset.json").read_text())


@pytest.mark.parametrize("case", ["unknown_label", "repeated_row", "short_rows",
                                  "too_many_outputs", "nan_plateau",
                                  "inf_visibility", "zero_error", "missing_key",
                                  "flat_pairs", "list_doc", "float_n_outputs", "valid_2",
                                  "huge_n_outputs", "nan_intensity", "inf_intensity",
                                  "negative_intensity"])
def test_reconstruct_malformed_dataset_exits_2(simulated, dataset_doc, tmp_path, case):
    _, cfg, _ = simulated
    doc = json.loads(json.dumps(dataset_doc))
    d = doc["valid"][0].index(1)
    h = doc["rows"][0]
    if case == "unknown_label":
        doc["input_pairs"][0] = [h, 99]
    elif case == "repeated_row":
        doc["input_pairs"][0] = [h, h]
    elif case == "short_rows":
        doc["plateaus"] = [row[:-1] for row in doc["plateaus"]]
    elif case == "too_many_outputs":
        doc["n_outputs"] = 40
    elif case == "nan_plateau":
        doc["plateaus"][0][d] = float("nan")
    elif case == "inf_visibility":
        doc["visibilities"][0][d] = float("inf")
    elif case == "zero_error":
        doc["errors"][0][d] = 0.0
    elif case == "missing_key":
        del doc["va_errors"]
    elif case == "list_doc":
        doc = []
    elif case == "float_n_outputs":
        doc["n_outputs"] += 0.7
    elif case == "valid_2":
        doc["valid"][0][d] = 2
    elif case == "huge_n_outputs":
        # so large that an output-pair index built before the shape check
        # fails to allocate at once rather than filling memory
        doc["n_outputs"] = 2 ** 40
    elif case.endswith("_intensity"):
        # json.load reads NaN and Infinity; an intensity < 0 is no count
        doc["intensities"][0][0] = {"nan": float("nan"), "inf": float("inf"),
                                    "negative": -1.0}[case.split("_")[0]]
    else:
        doc["input_pairs"] = [h, doc["rows"][1]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run("reconstruct", "--config", cfg, "--dataset", path,
               "--out", tmp_path / "rec") == 2
    assert not (tmp_path / "rec").exists()


def test_reconstruct_source_flags_exit_2(simulated, dataset_doc, tmp_path):
    _, cfg, upath = simulated
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps(dataset_doc))
    out = tmp_path / "rec"
    for flags in (["--unitary", upath, "--dataset", dataset], []):
        with pytest.raises(SystemExit) as exc:
            run("reconstruct", "--config", cfg, "--out", out, *flags)
        assert exc.value.code == 2
    # a dataset holds fitted dips, not the scans --scans would write
    assert run("reconstruct", "--config", cfg, "--out", out,
               "--dataset", dataset, "--scans") == 2
    assert not out.exists()


@pytest.mark.parametrize("n_rows", [5, -1, 0])
def test_reconstruct_row_count_beyond_inputs_exits_2(simulated, tmp_path, n_rows):
    _, _, upath = simulated
    cfg = write_config(tmp_path, {"reconstruction": {"n_rows": n_rows}})
    assert run("reconstruct", "--config", cfg, "--unitary", upath,
               "--out", tmp_path / "rec") == 2


def test_reconstruct_missing_pair_exits_2(simulated, tmp_path):
    _, _, upath = simulated
    cfg = write_config(tmp_path, {
        "reconstruction": {"input_pairs": [[11, 12]]}})
    assert run("reconstruct", "--config", cfg, "--unitary", upath,
               "--out", tmp_path / "rec") == 2


def test_haar_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "haar"
    assert run("haar", "--config", cfg, "--out", out) == 0
    for name in ("moduli_hist.csv", "phase_hist.csv", "column_similarity_hist.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "edge_low,edge_high,mass"
        masses = [float(l.split(",")[2]) for l in lines[1:]]
        assert sum(masses) == pytest.approx(1.0)


def test_footprint_command_and_rerun_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    for out in (out1, out2):
        assert run("footprint", "--config", cfg, "--out", out) == 0
    assert (out1 / "footprint.csv").read_bytes() == (out2 / "footprint.csv").read_bytes()
    lines = (out1 / "footprint.csv").read_text().splitlines()
    assert lines[0] == ("m,L_clements_mm,L_spread_planar_mm,"
                        "L_spread_triangular_mm,L_fan_mm")
    first = lines[1].split(",")
    assert int(first[0]) == 8


def test_footprint_bad_arrangement_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"footprint": {"fan_arrangement": "spiral"}})
    assert run("footprint", "--config", cfg, "--out", tmp_path / "f") == 2


def test_seed_override_changes_samples(simulated, tmp_path):
    _, cfg, upath = simulated
    outs = {}
    for seed in (None, 999, 999):
        out = tmp_path / f"s{seed}_{len(outs)}"
        argv = ["sample", "--config", str(cfg), "--unitary", str(upath),
                "--out", str(out), "--events", "40"]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert run(*argv) == 0
        outs[len(outs)] = (out / "samples.jsonl").read_bytes()
    assert outs[0] != outs[1]     # override changes the stream
    assert outs[1] == outs[2]     # and stays deterministic


def test_collision_free_flag_switches_law(simulated, tmp_path):
    _, cfg, upath = simulated
    out = tmp_path / "coll"
    assert run("sample", "--config", cfg, "--unitary", upath, "--out", out,
               "--events", 500, "--collision-free", "false") == 0
    lines = (out / "samples.jsonl").read_text().splitlines()[1:]
    outputs = [json.loads(l)["output"] for l in lines]
    assert any(len(set(o)) < len(o) for o in outputs)   # collisions occur


def test_distinguishable_statistics_flag(simulated, tmp_path):
    tmp, _, upath = simulated
    cfg = write_config(tmp_path, {"photons": {"statistics": "distinguishable"}})
    out = tmp_path / "dist"
    assert run("sample", "--config", cfg, "--unitary", upath, "--out", out,
               "--events", 20) == 0
    lines = (out / "samples.jsonl").read_text().splitlines()[1:]
    assert all(json.loads(l)["distinguishable"] for l in lines)


def test_reconstruct_from_dataset_file(simulated, tmp_path):
    _, cfg, upath = simulated
    first = tmp_path / "rec1"
    assert run("reconstruct", "--config", cfg, "--unitary", upath,
               "--out", first, "--scans") == 0
    assert (first / "dip_scans.csv").exists()
    second = tmp_path / "rec2"
    assert run("reconstruct", "--config", cfg, "--dataset",
               first / "hom_dataset.json", "--out", second) == 0
    a = json.loads((first / "reconstructed.json").read_text())
    b = json.loads((second / "reconstructed.json").read_text())
    assert a["moduli"] == b["moduli"]
    assert not (second / "gauge_distance.json").exists()


def test_haar_device_ensemble(tmp_path, caplog):
    cfg = write_config(tmp_path, {"haar": {"n_matrices": 4, "columns": 10},
                                  "evolution": {"n_steps": 96}})
    out = tmp_path / "haar_dev"
    with caplog.at_level(logging.DEBUG, logger="photonlat.evolution"):
        assert run("haar", "--config", cfg, "--out", out, "--device") == 0
    # one pass: 3 rows under each histogram setting, input 0 under the rest
    assert evolution_log(caplog)[:2] == (3 * 4 + 10, 4 + 10)
    overlaps = json.loads((out / "overlap.json").read_text())
    for key in ("moduli_overlap", "phase_overlap", "column_similarity_overlap"):
        assert 0.0 <= overlaps[key] <= 1.0
    assert (out / "device_moduli_hist.csv").exists()


@pytest.mark.parametrize("rows, device", [(5, True), (0, False), (-1, False), (33, False)])
def test_haar_row_count_out_of_range_exits_2(tmp_path, rows, device):
    cfg = write_config(tmp_path, {"haar": {"rows": rows}})
    flags = ["--device"] if device else []
    assert run("haar", "--config", cfg, "--out", tmp_path / "haar", *flags) == 2


def test_haar_device_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"haar": {"n_matrices": 3, "columns": 6},
                                  "evolution": {"n_steps": 64}})
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert run("haar", "--config", cfg, "--out", out, "--device") == 0
    names = sorted(p.name for p in first.iterdir())
    assert "device_moduli_hist.csv" in names
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_non_finite_heater_power_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"heaters": {"powers_mw": [float("nan")] * 16}})
    assert run("simulate", "--config", cfg, "--out", tmp_path / "sim") == 2


def test_missing_seed_exits_2(tmp_path):
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps({"sampling": {"count": 5}}))
    assert run("footprint", "--config", path, "--out", tmp_path / "f") == 2


def test_out_of_range_input_mode_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"inputs": [11, 12, 19, 40]})
    assert run("footprint", "--config", cfg, "--out", tmp_path / "f") == 2


@pytest.mark.parametrize("extra", [
    {"lattise": {"rows": 4}},                    # unknown section
    {"evolution": {"nsteps": 8}},                # unknown key in a section
    {"evolution": {"method": "midpoint"}},       # removed integrator choice
    {"evolution": {"k0": 0.7}},                  # removed diagonal offset
    {"evolution": 8},                            # section that is not an object
], ids=["unknown_section", "unknown_key", "method", "k0", "non_object_section"])
def test_config_key_outside_schema_exits_2(tmp_path, extra):
    cfg = write_config(tmp_path, extra)
    assert run("footprint", "--config", cfg, "--out", tmp_path / "f") == 2


def test_unknown_noise_model_exits_2(simulated, tmp_path):
    _, _, upath = simulated
    cfg = write_config(tmp_path, {"reconstruction": {"noise": "gaussian"}})
    out = tmp_path / "rec"
    assert run("reconstruct", "--config", cfg, "--unitary", upath, "--out", out) == 2
    assert not out.exists()


def test_haar_without_matrices_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"haar": {"n_matrices": 0}})
    out = tmp_path / "haar"
    assert run("haar", "--config", cfg, "--out", out) == 2
    assert not out.exists()


def test_haar_device_size_other_than_lattice_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"haar": {"m": 16}})
    out = tmp_path / "haar"
    assert run("haar", "--config", cfg, "--out", out, "--device") == 2
    assert not out.exists()


def test_validate_checks_sample_provenance(simulated, tmp_path):
    _, cfg, upath = simulated
    sdir = tmp_path / "samples"
    assert run("sample", "--config", cfg, "--unitary", upath, "--out", sdir,
               "--events", 40) == 0
    samples = sdir / "samples.jsonl"

    def validate(path, *extra):
        return run("validate", "--config", cfg, "--unitary", upath, "--samples", path,
                   "--out", tmp_path / "v", "--ensemble", 10, *extra)

    assert validate(samples) == 0               # an --events stream still validates
    assert validate(samples, "--seed", 999) == 2
    headless = tmp_path / "headless.jsonl"
    headless.write_text("".join(samples.read_text().splitlines(True)[1:]))
    assert validate(headless) == 2


def test_sample_events_leave_the_defaults_alone(simulated, tmp_path):
    _, _, upath = simulated
    cfg = tmp_path / "bare.json"
    cfg.write_text(json.dumps({"seed": 3}))
    assert run("sample", "--config", cfg, "--unitary", upath, "--out", tmp_path / "s",
               "--events", 7) == 0
    assert load_config(cfg)["sampling"]["count"] == 1000


def _sampled_stream(simulated, tmp_path, events):
    tmp, cfg, upath = simulated
    sdir = tmp_path / "samples"
    assert run("sample", "--config", cfg, "--unitary", upath, "--out", sdir,
               "--events", events) == 0
    return sdir / "samples.jsonl"


def _validate(simulated, samples, tmp_path):
    _, cfg, upath = simulated
    return run("validate", "--config", cfg, "--unitary", upath, "--samples", samples,
               "--out", tmp_path / "v", "--ensemble", 10)


# (key, value) of an event record that sample never writes; None deletes the key
MALFORMED_RECORDS = dict(zip([
    "no_branch", "no_index", "no_output", "no_distinguishable", "str_index",
    "unknown_branch", "int_flag", "short_output", "bool_mode", "float_mode",
    "bool_index", "spdc_branch_in_fock_stream", "list_branch", "str_flag",
    "long_output", "mode_beyond_m", "negative_mode", "huge_mode", "index_not_position",
    "flag_not_statistics", "trigger_output", "unsorted_output"], [
    ("branch", None), ("index", None), ("output", None), ("distinguishable", None),
    ("index", "4"), ("branch", "1234"), ("distinguishable", 0),
    ("output", [1, 3]), ("output", [1, 3, True]), ("output", [1, 3, 5.0]),
    ("index", True), ("branch", "1111"), ("branch", ["fock"]), ("distinguishable", "false"),
    ("output", [1, 3, 5, 7]), ("output", [1, 3, 40]), ("output", [1, 3, -1]),
    ("output", [1, 3, 2 ** 70]), ("index", 7), ("distinguishable", True),
    ("output", [1, 3, 31]), ("output", [5, 3, 1])]))


@pytest.mark.parametrize("key, value", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS.keys())
def test_malformed_event_record_exits_2(simulated, tmp_path, capsys, key, value):
    samples = _sampled_stream(simulated, tmp_path, 30)
    lines = samples.read_text().splitlines()
    rec = json.loads(lines[5])
    if value is None:
        del rec[key]
    else:
        rec[key] = value
    lines[5] = json.dumps(rec, sort_keys=True)
    samples.write_text("\n".join(lines) + "\n")
    assert _validate(simulated, samples, tmp_path) == 2
    assert "line 6: malformed event record" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("head, tail", [
    ('{"branch": "fock", "distinguishable": false', '"index": 4, "output": [0, 1, 2]}'),
    ('{"branch": "fock", "distinguishable": false, "index": 4, "output": [0, 1', '{"k": 2}]}'),
], ids=["between-keys", "in-output"])
def test_records_split_across_lines_exit_2(simulated, tmp_path, capsys, head, tail):
    # line 6's record split over two lines and lines 7 and 8 joined: as many
    # lines as records, which one json.loads over the joined lines accepts
    samples = _sampled_stream(simulated, tmp_path, 30)
    lines = samples.read_text().splitlines()
    lines[5:8] = [head, tail, lines[6] + ", " + lines[7]]
    samples.write_text("\n".join(lines) + "\n")
    assert _validate(simulated, samples, tmp_path) == 2
    assert "configuration error: Expecting" in capsys.readouterr().err


def test_records_with_extra_keys_or_padding_still_read(simulated, tmp_path):
    samples = _sampled_stream(simulated, tmp_path, 30)
    config = load_config(simulated[1])
    want = photonlat.cli.read_samples(samples, config)
    lines = samples.read_text().splitlines()
    rec = json.loads(lines[5])
    rec["note"] = [{"x": 1}]
    lines[5] = json.dumps(rec, sort_keys=True)
    lines[6] = "  " + lines[6]
    samples.write_text("\n".join(lines) + "\n")
    got = photonlat.cli.read_samples(samples, config)
    assert np.array_equal(got.outputs, want.outputs)
    assert np.array_equal(got.branch, want.branch)
    assert _validate(simulated, samples, tmp_path) == 0


def _with_record(line, key, value):
    rec = json.loads(line)
    if value is None:
        del rec[key]
    else:
        rec[key] = value
    return json.dumps(rec, sort_keys=True)


# a line as it is, or made malformed, or changed in a way the reader accepts
LINE_EDITS = {"as_written": lambda line: line, "padding": lambda line: "  " + line,
              "extra_key": lambda line: _with_record(line, "note", [{"x": 1}]),
              **{name: lambda line, kv=kv: _with_record(line, *kv)
                 for name, kv in MALFORMED_RECORDS.items()}}


def _verdict(samples, config):
    """The columns read from a samples file, or the line its error names."""
    try:
        events = photonlat.cli.read_samples(samples, config)
    except ConfigurationError as exc:
        found = re.search(r" line (\d+): malformed event record", str(exc))
        return int(found.group(1)) if found else str(exc)
    return [events.branch.tolist(), events.outputs.tolist(), events.distinguishable]


@pytest.mark.parametrize("edit", LINE_EDITS)
def test_both_reader_paths_give_one_verdict(simulated, tmp_path, edit):
    """Line 6 edited, then an extra key added to line 21 of the same block:
    the first file's block is parsed at once where it can be, the second's
    line by line, and both read the same columns or name the same line."""
    samples = _sampled_stream(simulated, tmp_path, 30)
    config = load_config(simulated[1])
    written = _verdict(samples, config)
    lines = samples.read_text().splitlines()
    lines[5] = LINE_EDITS[edit](lines[5])
    verdicts = []
    for line in (lines[20], LINE_EDITS["extra_key"](lines[20])):
        lines[20] = line
        samples.write_text("\n".join(lines) + "\n")
        verdicts.append(_verdict(samples, config))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0] == (6 if edit in MALFORMED_RECORDS else written)


def test_validate_checks_the_ensemble_budget_before_scoring(simulated, tmp_path, capsys,
                                                           monkeypatch):
    _, cfg, upath = simulated
    samples = _sampled_stream(simulated, tmp_path, 600)

    def draw(*args, **kwargs):
        raise AssertionError("the paired reference stream was drawn")
    monkeypatch.setattr(photonlat.cli, "_draw_stream", draw)
    # 64 * 10000 * 32 * 3 + 10001 * 600 * (32 + 8 * 3) bytes: about 397 MB, over 256 MB
    assert run("validate", "--config", cfg, "--unitary", upath, "--samples", samples,
               "--out", tmp_path / "v", "--ensemble", 10000) == 2
    assert "table limit" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 4]), data=st.data())
def test_stream_round_trips_through_the_samples_file(simulated, n, data):
    """Any stream ``sample`` can write reads back as equal columns, and each
    of its lines is the bytes of json.dumps(record, sort_keys=True)."""
    tmp, _, upath = simulated
    statistics = data.draw(st.sampled_from(["indistinguishable", "distinguishable"]))
    cfg = write_config(tmp, {"photons": {"n": n, "statistics": statistics}},
                       name=f"round_trip_{n}_{statistics}.json")
    config = load_config(cfg)
    labels, inputs, detected = photonlat.cli._source(config)
    k = data.draw(st.integers(0, 25))
    outputs = data.draw(st.lists(st.lists(st.sampled_from(detected), min_size=n, max_size=n),
                                 min_size=k, max_size=k))
    events = photonlat.interference.EventStream(
        data.draw(st.lists(st.integers(0, len(labels) - 1), min_size=k, max_size=k)),
        np.sort(np.array(outputs, dtype=np.intp).reshape(k, n), axis=1), labels, inputs,
        statistics == "distinguishable")
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(photonlat.cli, "_draw_stream", return_value=events):
        assert run("sample", "--config", cfg, "--unitary", upath, "--out", out,
                   "--events", k) == 0
        path = Path(out) / "samples.jsonl"
        lines = path.read_text().splitlines(True)[1:]
        read = photonlat.cli.read_samples(path, config)
    assert lines == [json.dumps({"index": ev.index, "branch": ev.branch,
                                 "output": list(ev.output),
                                 "distinguishable": ev.distinguishable}, sort_keys=True) + "\n"
                     for ev in events]
    for name in ("branch", "outputs", "input_modes"):
        assert np.array_equal(getattr(read, name), getattr(events, name))
    assert (read.branches, read.distinguishable) == (events.branches, events.distinguishable)


@pytest.mark.parametrize("n, statistics, collision_free", [
    (3, "indistinguishable", "true"), (3, "distinguishable", "true"),
    (3, "indistinguishable", "false"), (4, "indistinguishable", "true"),
    (4, "distinguishable", "true")])
def test_sampled_file_reads_back_and_writes_the_same_bytes(simulated, tmp_path, n, statistics,
                                                           collision_free):
    _, _, upath = simulated
    cfg = write_config(tmp_path, {"photons": {"n": n, "statistics": statistics}})
    config = load_config(cfg)
    drawn, draw = [], photonlat.cli._draw_stream

    def keep(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    def sample(out, **patch):
        with mock.patch.object(photonlat.cli, "_draw_stream", **patch):
            assert run("sample", "--config", cfg, "--unitary", upath, "--out", out,
                       "--events", 400, "--collision-free", collision_free) == 0
        return out / "samples.jsonl"
    path = sample(tmp_path / "first", side_effect=keep)
    read = photonlat.cli.read_samples(path, config)
    (events,) = drawn
    assert np.array_equal(read.branch, events.branch)
    assert np.array_equal(read.outputs, events.outputs)
    assert read.distinguishable is events.distinguishable is (statistics == "distinguishable")
    # with collisions some event repeats a mode, which the reader accepts
    assert (np.diff(read.outputs, axis=1) == 0).any() == (collision_free == "false")
    assert sample(tmp_path / "again", return_value=read).read_bytes() == path.read_bytes()


def test_long_stream_crosses_write_and_read_blocks(simulated, tmp_path, capsys):
    # 20,000 events: five blocks of formatted lines, two blocks of parsed ones
    samples = _sampled_stream(simulated, tmp_path, 20000)
    assert samples.stat().st_size > 2 ** 20
    events = photonlat.cli.read_samples(samples, load_config(simulated[1]))
    lines = samples.read_text().splitlines()
    assert len(events) == 20000
    assert events.outputs.tolist() == [json.loads(line)["output"] for line in lines[1:]]
    rec = json.loads(lines[18000])
    rec["index"] = True
    lines[18000] = json.dumps(rec, sort_keys=True)
    samples.write_text("\n".join(lines) + "\n")
    assert _validate(simulated, samples, tmp_path) == 2
    assert "line 18001: malformed event record" in capsys.readouterr().err


def test_truncated_sample_stream_exits_2(simulated, tmp_path):
    samples = _sampled_stream(simulated, tmp_path, 300)
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("".join(samples.read_text().splitlines(True)[:100]))
    assert _validate(simulated, samples, tmp_path) == 0
    assert _validate(simulated, truncated, tmp_path) == 2


@pytest.mark.parametrize("section, key", [
    ("haar", "n_matrices"), ("haar", "rows"), ("reconstruction", "n_rows")])
def test_boolean_count_exits_2(simulated, tmp_path, capsys, section, key):
    _, _, upath = simulated
    cfg = write_config(tmp_path, {section: {key: True}})
    if section == "haar":
        argv = ("haar", "--config", cfg, "--out", tmp_path / "haar")
    else:
        argv = ("reconstruct", "--config", cfg, "--unitary", upath,
                "--out", tmp_path / "rec")
    assert run(*argv) == 2
    assert f"{section}.{key} = True" in capsys.readouterr().err


def test_haar_device_column_norm_defect_exits_3(tmp_path, monkeypatch):
    from photonlat import haarstats
    monkeypatch.setattr(haarstats, "MAX_UNITARITY_DEFECT", 0.0)
    cfg = write_config(tmp_path, {"haar": {"n_matrices": 2, "columns": 3},
                                  "evolution": {"n_steps": 32}})
    assert run("haar", "--config", cfg, "--out", tmp_path / "haar", "--device") == 3
    assert not (tmp_path / "haar").exists()


@pytest.mark.parametrize("key, value", [("n_matrices", 2 * 10 ** 6), ("columns", 40000)])
def test_haar_over_table_limit_exits_2(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, {"haar": {key: value}})
    out = tmp_path / "out"
    assert run("haar", "--config", cfg, "--out", out) == 2
    assert "table limit" in capsys.readouterr().err
    assert not out.exists()


# a child capped at 3 GiB of address space runs the CLI, so that an
# allocation no bound caught fails the test and leaves the machine alone
_CAPPED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
import photonlat.cli
sys.exit(photonlat.cli.main(sys.argv[1:]))
"""


def _child_env():
    """The environment of a child Python that imports this photonlat."""
    src = str(Path(photonlat.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}


def _run_capped(*argv):
    return subprocess.run([sys.executable, "-c", _CAPPED_CHILD, *map(str, argv)],
                          env=_child_env(), capture_output=True, text=True, timeout=600)


def test_similarity_bins_over_table_limit_exit_2_before_allocating(tmp_path):
    # 10^9 bins: 7.45 GiB of bin edges alone
    cfg = write_config(tmp_path, {"haar": {"similarity_pairs_bins": 10 ** 9}})
    out = tmp_path / "out"
    child = _run_capped("haar", "--config", cfg, "--out", out)
    assert child.returncode == 2, child.stderr
    assert "similarity bins exceed" in child.stderr and "table limit" in child.stderr
    assert not out.exists()


@pytest.mark.parametrize("width", [1e-300, 1.0, 1e300])
def test_kernel_width_without_a_finite_calibration_exits_2(tmp_path, capsys, width):
    # 1e-300 and 1.0 um once divided by a kernel peak of 0, 1e300 overflowed width^2
    cfg = write_config(tmp_path, {"heaters": {"kernel_width_um": width}})
    out = tmp_path / "sim"
    assert run("simulate", "--config", cfg, "--out", out) == 2
    assert f"heater kernel width {width!r} um" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("width", [1.15, 2.0])
def test_substep_cap_names_the_heater_calibration(tmp_path, width):
    # a narrow kernel inflates the calibration alpha_t: the heater detunings,
    # not the step count, drive the slice norm
    cfg = write_config(tmp_path, {"seed": 5, "evolution": {"n_steps": 64},
                                  "heaters": {"kernel_width_um": width}})
    out = tmp_path / "sim"
    child = _run_capped("simulate", "--config", cfg, "--out", out)
    assert child.returncode == 2, child.stderr
    assert "Taylor substeps, more than 100" in child.stderr
    assert "alpha_t = " in child.stderr and f"of a {width:g} um heater kernel" in child.stderr
    assert "use more steps" not in child.stderr
    assert not out.exists()


def test_source_of_each_photon_number(tmp_path):
    config = load_config(write_config(tmp_path))
    assert photonlat.cli._source(config) == (
        ("fock",), [(12, 19, 20)], [k for k in range(32) if k != 31])
    config = load_config(write_config(tmp_path, {"photons": {"n": 4}}))
    assert photonlat.cli._source(config) == (
        ("1111", "2002", "0220"), [(11, 12, 19, 20), (11, 11, 20, 20), (12, 12, 19, 19)],
        list(range(32)))


SOURCE_INPUTS = {"n=3, three inputs": {"inputs": [11, 12, 19]},
                 "n=4, five inputs": {"inputs": [11, 12, 19, 20, 21], "photons": {"n": 4}}}


@pytest.mark.parametrize("extra", SOURCE_INPUTS.values(), ids=SOURCE_INPUTS.keys())
@pytest.mark.parametrize("command", ["sample", "validate"])
def test_inputs_the_source_cannot_use_exit_2_naming_inputs(simulated, tmp_path, capsys,
                                                           command, extra):
    _, _, upath = simulated
    samples = _sampled_stream(simulated, tmp_path, 10)
    cfg = write_config(tmp_path, extra, name="source.json")
    flags = ["--samples", samples] if command == "validate" else []
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, "--config", cfg, "--unitary", upath, "--out", out, *flags) == 2
    assert f"configuration error: inputs = {extra['inputs']} must hold" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", SOURCE_INPUTS.values(), ids=SOURCE_INPUTS.keys())
def test_commands_that_read_no_source_run_on_any_inputs(tmp_path, extra):
    cfg = write_config(tmp_path, {**extra, "evolution": {"n_steps": 32},
                                  "haar": {"n_matrices": 2, "columns": 3}})
    assert run("simulate", "--config", cfg, "--out", tmp_path / "sim") == 0
    assert run("reconstruct", "--config", cfg, "--unitary", tmp_path / "sim" / "unitary.json",
               "--out", tmp_path / "rec") == 0
    assert run("haar", "--config", cfg, "--out", tmp_path / "haar", "--device") == 0


@pytest.mark.parametrize("value", [2.5, True, 0])
@pytest.mark.parametrize("command, section, key", [
    ("simulate", "evolution", "n_steps"), ("haar", "evolution", "n_steps"),
    ("haar", "haar", "columns")])
def test_non_count_exits_2(tmp_path, capsys, command, section, key, value):
    cfg = write_config(tmp_path, {section: {key: value}})
    flags = ["--device"] if command == "haar" else []
    assert run(command, "--config", cfg, "--out", tmp_path / "out", *flags) == 2
    assert f"{section}.{key} = {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("power_range", [[0, "a"], [0], [500, 0], [-1, 5]])
def test_bad_power_range_exits_2(tmp_path, capsys, power_range):
    cfg = write_config(tmp_path, {"heaters": {"power_range_mw": power_range}})
    assert run("simulate", "--config", cfg, "--out", tmp_path / "sim") == 2
    assert "heaters.power_range_mw" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("key, value", [
    ("input_pairs", [[11]]), ("input_pairs", [[11, "x"]]), ("input_pairs", [[11, True]]),
    ("input_pairs", [11, 12]), ("mean_plateau_counts", -5), ("mean_plateau_counts", 0),
    ("mean_plateau_counts", "1e4")])
def test_bad_reconstruction_setting_exits_2(simulated, tmp_path, capsys, key, value):
    _, _, upath = simulated
    cfg = write_config(tmp_path, {"reconstruction": {"noise": "poisson", key: value}})
    assert run("reconstruct", "--config", cfg, "--unitary", upath,
               "--out", tmp_path / "rec") == 2
    assert f"reconstruction.{key}" in capsys.readouterr().err
    assert not (tmp_path / "rec").exists()


@pytest.mark.parametrize("command", ["validate", "sample", "footprint", "haar"])
def test_rejected_input_leaves_no_out_directory(simulated, tmp_path, command):
    _, cfg, upath = simulated
    argv = {
        "validate": ["--config", cfg, "--unitary", upath, "--samples", os.devnull],
        "sample": ["--config", cfg, "--unitary", tmp_path / "nonexistent.json"],
        "footprint": ["--config", write_config(
            tmp_path, {"footprint": {"fan_arrangement": "weird"}})],
        # the heaters do not fit, found only after the Haar histograms are drawn
        "haar": ["--config", write_config(
            tmp_path, {"lattice": {"coupling_length_mm": 20}}, "haar.json"), "--device"],
    }[command]
    out = tmp_path / "out"
    assert run(command, *argv, "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("path", ["out_is_file", "out_under_file", "config_is_dir",
                                  "unitary_is_dir"])
def test_path_of_the_wrong_kind_exits_2(simulated, tmp_path, capsys, path):
    # unmapped, these exited 1 with a raw FileExistsError, NotADirectoryError
    # and IsADirectoryError
    _, cfg, upath = simulated
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = {"out_is_file": blocker, "out_under_file": blocker / "sub"}.get(path,
                                                                          tmp_path / "out")
    config = tmp_path if path == "config_is_dir" else cfg
    unitary = tmp_path if path == "unitary_is_dir" else upath
    assert run("sample", "--config", config, "--unitary", unitary, "--events", 5,
               "--out", out) == 2
    assert "configuration error" in capsys.readouterr().err
    assert blocker.read_text() == "kept"
    assert not out.is_dir()


@pytest.mark.parametrize("doc", [{}, [1], {"m": "a", "entries": []}, {"m": 2}],
                         ids=["empty", "list", "str_m", "no_entries"])
def test_malformed_unitary_file_exits_2(simulated, tmp_path, capsys, doc):
    _, cfg, _ = simulated
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "s"
    assert run("sample", "--config", cfg, "--unitary", bad, "--out", out) == 2
    assert "is not a unitary file" in capsys.readouterr().err
    assert not out.exists()


# each of these once reached a raw error (exit 1), ran on a wrong value
# (exit 0) or exited 2 with a message about something else
@pytest.mark.parametrize("command, extra, flags, key", [
    ("simulate", {"lattice": {"pitch_um": "x"}}, [], "lattice.pitch_um"),
    ("simulate", {"seed": "abc"}, [], "seed"),
    ("simulate", {"seed": -1}, [], "seed"),
    ("simulate", {}, ["--seed", -1], "seed"),
    ("sample", {"sampling": {"count": 2.5}}, [], "sampling.count"),
    ("footprint", {"footprint": {"m_values": ["a"]}}, [], "footprint.m_values"),
    ("simulate", {"heaters": {"kernel_width_um": "a"}}, [], "heaters.kernel_width_um"),
    ("simulate", {"lattice": {"n_modulation_knots": 2.5}}, [],
     "lattice.n_modulation_knots"),
    ("footprint", {"footprint": {"b": "x"}}, [], "footprint.b"),
    ("sample", {"photons": {"n": 4, "spdc_ratio": "x"}}, [], "photons.spdc_ratio"),
    ("simulate", {"inputs": 5}, [], "inputs"),
    ("simulate", {"inputs": "abc"}, [], "inputs"),
    ("simulate", {"coupling": {"c0_per_mm": math.nan}}, [], "coupling.c0_per_mm"),
    ("sample", {"dropped_output": True}, [], "dropped_output"),
    ("simulate", {"inputs": [1.5]}, [], "inputs"),
    ("simulate", {"seed": 1.5}, [], "seed"),
    ("footprint", {"photons": {"n": 5}}, [], "photons.n"),
    ("simulate", {"lattice": {"rows": True}}, [], "lattice.rows"),
    ("haar", {"haar": {"similarity_pairs_bins": 0}}, [], "haar.similarity_pairs_bins"),
    ("reconstruct", {"reconstruction": {"n_rows": 1}}, [], "reconstruction.n_rows"),
    ("sample", {"inputs": [11, 12]}, [], "inputs"),
    ("sample", {"inputs": [11, 11, 12, 19], "photons": {"n": 4}}, [], "inputs"),
])
def test_probed_config_value_exits_2_naming_its_key(simulated, tmp_path, capsys,
                                                     command, extra, flags, key):
    _, _, upath = simulated
    cfg = write_config(tmp_path, extra)
    unitary = ["--unitary", upath] if command in ("sample", "reconstruct") else []
    out = tmp_path / "out"
    assert run(command, "--config", cfg, "--out", out, *unitary, *flags) == 2
    assert f"configuration error: {key} = " in capsys.readouterr().err
    assert not out.exists()


def _leaves(tree, prefix=()):
    for key, val in tree.items():
        if isinstance(val, dict):
            yield from _leaves(val, prefix + (key,))
        else:
            yield prefix + (key,)


@settings(max_examples=120, deadline=None)
@given(leaf=st.sampled_from(sorted(_leaves(SCHEMA))),
       value=st.sampled_from(["x", True, math.nan, -1, 2.5, [], {}]))
def test_any_wrong_kind_value_exits_2_or_runs(leaf, value):
    config = json.loads(json.dumps(BASE_CONFIG))
    section = config
    for key in leaf[:-1]:
        section = section.setdefault(key, {})
    section[leaf[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        code = run("footprint", "--config", path, "--out", out)
        assert code in (0, 2)
        assert code == 0 or not out.exists()


@pytest.mark.parametrize("config, digest", [
    (BASE_CONFIG, "7b1621e78070ed4b1daac56707a9770bd6f3244180ab4f914992466513e8a54c"),
    ({"seed": 5}, "110a89828900337cae86227c0d3ad1861c8d59a37722dd0a959b634f995b9c21"),
])
def test_config_hash_is_pinned(tmp_path, config, digest):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert config_hash(load_config(path)) == digest


# after the import and after each command: (exit code, scipy loaded)
_LOADS_IN_CHILD = """
import json, sys
import photonlat.cli
loaded = [[None, "scipy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    loaded.append([photonlat.cli.main(argv), "scipy" in sys.modules])
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(tmp_path):
    cfg = write_config(tmp_path)
    commands = [["simulate", "--config", cfg, "--out", tmp_path / "sim"],
                ["footprint", "--config", cfg, "--out", tmp_path / "fp"],
                ["reconstruct", "--config", cfg, "--unitary", tmp_path / "sim" / "unitary.json",
                 "--out", tmp_path / "rec"]]
    child = subprocess.run(
        [sys.executable, "-c", _LOADS_IN_CHILD,
         json.dumps([[str(a) for a in argv] for argv in commands])],
        env=_child_env(), capture_output=True, text=True, timeout=600, check=True)
    loaded = json.loads(child.stdout.splitlines()[-1])
    assert loaded == [[None, False], [0, False], [0, False], [0, False]]
    assert (tmp_path / "rec" / "reconstructed.json").exists()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_import_is_stdlib_or_a_declared_dependency():
    # a runtime import of a package that pyproject.toml does not declare
    # fails here, whether at the top of a module or inside a function
    import tomllib
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[\w.-]+", dep).group().lower()
                    for dep in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in (root / "src" / "photonlat").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported - set(sys.stdlib_module_names) - {"photonlat"} <= declared
