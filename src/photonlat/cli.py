"""Command-line pipelines: simulate, sample, reconstruct, validate, haar, footprint.

Every command is a pure function of (config file, seed): outputs are
byte-identical across reruns. All randomness flows from the single
64-bit config seed, split into named substreams (lattice geometry,
heater powers, sampling, measurement noise, ensembles) so stages can be
rerun independently. Exit codes: 0 success, 2 configuration or
precondition error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import footprint as fp
from . import haarstats, interference, reconstruction, validation
from .errors import ConfigurationError, NumericalError
from .evolution import MAX_UNITARITY_DEFECT, propagate, unitarity_defect
from .lattice import CouplingModel, LatticeSpec, build_lattice, default_heater_bank

STREAM_NAMES = ("lattice", "powers", "sampling", "noise", "ensemble")

DEFAULT_CONFIG = {
    "lattice": {"rows": 4, "cols": 8, "pitch_um": 11.0, "max_shift_um": 2.0,
                "coupling_length_mm": 36.0, "n_modulation_knots": 8},
    "coupling": {"c0_per_mm": 0.2, "d0_um": 11.0, "kappa_um": 3.0,
                 "max_distance_um": 15.0},
    "heaters": {"powers_mw": None, "power_range_mw": [0.0, 500.0],
                "kernel_width_um": 50.0},
    "inputs": [11, 12, 19, 20],
    "dropped_output": 31,
    "photons": {"n": 3, "statistics": "indistinguishable", "spdc_ratio": 1.0},
    "evolution": {"n_steps": 1024},
    "sampling": {"count": 1000},
    "reconstruction": {"n_rows": 3, "noise": "none", "mean_plateau_counts": 1e4,
                       "input_pairs": None},
    "haar": {"m": 32, "rows": 3, "n_matrices": 15, "columns": 200,
             "similarity_pairs_bins": 25},
    "footprint": {"r_min_mm": 30.0, "p_mm": 0.06, "p_f_mm": 0.127, "c_per_mm": 1.0,
                  "b": 2.0, "fan_arrangement": "linear",
                  "m_values": [8, 16, 32, 64, 128, 256, 512, 1024]},
}


NOISE_MODELS = ("none", "poisson")


def _merge(defaults, override, where="config"):
    """``defaults`` overridden by ``override``, every section a new dict.

    The schema is closed: a key that ``defaults`` lacks, or a section that
    is not an object, raises.
    """
    if not isinstance(override, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    for key in override:
        if key not in defaults:
            raise ConfigurationError(f"unknown config key {where}.{key}")
    return {key: _merge(val, override.get(key, {}), f"{where}.{key}")
            if isinstance(val, dict) else override.get(key, val)
            for key, val in defaults.items()}


def load_config(path, seed_override=None) -> dict:
    """The config file merged over ``DEFAULT_CONFIG``, whose keys, plus the
    top-level ``seed``, are the only ones accepted."""
    with open(path) as fh:
        user = json.load(fh)
    config = _merge({**DEFAULT_CONFIG, "seed": None}, user)
    if seed_override is not None:
        config["seed"] = int(seed_override)
    if config["seed"] is None:
        raise ConfigurationError("config must set an explicit 64-bit 'seed'")
    m = config["lattice"]["rows"] * config["lattice"]["cols"]
    for mode in config["inputs"]:
        if not 0 <= mode < m:
            raise ConfigurationError(f"input mode {mode} out of range for m={m}")
    dropped = config.get("dropped_output")
    if dropped is not None and not 0 <= dropped < m:
        raise ConfigurationError(f"dropped output {dropped} out of range for m={m}")
    return config


def config_hash(config) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def stream_seed(seed: int, name: str) -> np.random.SeedSequence:
    """Named substream of the master seed."""
    if name not in STREAM_NAMES:
        raise ConfigurationError(f"unknown seed stream {name!r}")
    return np.random.SeedSequence(entropy=int(seed),
                                  spawn_key=(STREAM_NAMES.index(name),))


def _stream_int(seed: int, name: str) -> int:
    return int(stream_seed(seed, name).generate_state(1, dtype=np.uint64)[0])


def build_device(config):
    """(layout, coupling model, heater bank) for a config dict."""
    lat = config["lattice"]
    spec = LatticeSpec(rows=lat["rows"], cols=lat["cols"], pitch=lat["pitch_um"],
                       max_shift=lat["max_shift_um"],
                       coupling_length=lat["coupling_length_mm"],
                       n_modulation_knots=lat["n_modulation_knots"],
                       seed=_stream_int(config["seed"], "lattice"))
    layout = build_lattice(spec)
    cpl = config["coupling"]
    model = CouplingModel(c0=cpl["c0_per_mm"], d0=cpl["d0_um"],
                          kappa=cpl["kappa_um"],
                          max_distance=cpl["max_distance_um"])
    heat = config["heaters"]
    power_range = heat["power_range_mw"]
    if type(power_range) is not list or len(power_range) != 2 or \
            not all(map(_is_number, power_range)) or \
            not 0 <= power_range[0] <= power_range[1]:
        raise ConfigurationError(
            f"heaters.power_range_mw = {power_range!r} must be two finite numbers "
            "[lo, hi] with 0 <= lo <= hi")
    if heat.get("powers_mw") is not None:
        powers = np.asarray(heat["powers_mw"], dtype=float)
    else:
        lo, hi = power_range
        rng = np.random.default_rng(stream_seed(config["seed"], "powers"))
        powers = rng.uniform(lo, hi, size=16)
    bank = default_heater_bank(layout, powers,
                               kernel_width=heat["kernel_width_um"])
    return layout, model, bank


def device_unitary(config) -> np.ndarray:
    layout, model, bank = build_device(config)
    return propagate(layout, model, bank,
                     n_steps=_count(config, "evolution", "n_steps")).entries


def write_unitary(path, u: np.ndarray, config) -> None:
    u = np.asarray(u, dtype=complex)
    doc = {
        "m": u.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in u],
        "provenance": {
            "config_sha256": config_hash(config),
            "seed": config["seed"],
            "n_steps": config["evolution"]["n_steps"],
            "unitarity_defect": unitarity_defect(u),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_unitary(path) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    entries = np.asarray(doc["entries"], dtype=float)
    if entries.shape != (doc["m"], doc["m"], 2):
        raise ConfigurationError("malformed unitary file")
    return entries[..., 0] + 1j * entries[..., 1]


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row) + "\n")


def _write_histogram_csv(path, hist: haarstats.Histogram) -> None:
    rows = [(float(lo), float(hi), float(mass))
            for lo, hi, mass in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.masses)]
    _write_csv(path, ["edge_low", "edge_high", "mass"], rows)


def _count(config, section, key, limit=math.inf) -> int:
    """``config[section][key]``, checked to be a whole number in 1..limit."""
    value = config[section][key]
    if type(value) is not int or not 1 <= value <= limit:    # JSON true is no count
        raise ConfigurationError(
            f"{section}.{key} = {value!r} must be a whole number in 1..{limit}")
    return value


def _is_number(value) -> bool:
    """A finite JSON number; ``type(...)`` also rejects booleans."""
    return type(value) in (int, float) and math.isfinite(value)


def _kept_outputs(config):
    m = config["lattice"]["rows"] * config["lattice"]["cols"]
    n = config["photons"]["n"]
    dropped = config.get("dropped_output")
    if n == 3 and dropped is not None:
        return [i for i in range(m) if i != dropped]
    return list(range(m))


def _fixed_input_pattern(config) -> interference.FockPattern:
    m = config["lattice"]["rows"] * config["lattice"]["cols"]
    inputs = config["inputs"]
    n = config["photons"]["n"]
    if n == 3:
        # the first source mode is the heralding trigger and never enters
        return interference.FockPattern.from_modes(inputs[1:4], m)
    if n == 4:
        return interference.FockPattern.from_modes(inputs, m)
    raise ConfigurationError("photons.n must be 3 or 4 for sampling runs")


def _draw_stream(config, u, statistics, seed, count, collision_free=True):
    """``count`` events of the configured source through ``u``: the SPDC
    two-pair mixture for n = 4, the fixed Fock input otherwise."""
    outputs = _kept_outputs(config)
    if config["photons"]["n"] == 4:
        if not collision_free:
            raise ConfigurationError(
                "the SPDC mixture sampler is defined on the collision-free "
                "subspace only")
        weights = interference.spdc_weights(config["photons"]["spdc_ratio"])
        return interference.spdc_sample(u, weights, statistics, seed, count,
                                        config["inputs"], outputs=outputs)
    table = interference.distribution(u, _fixed_input_pattern(config),
                                      statistics=statistics,
                                      collision_free=collision_free, outputs=outputs)
    return interference.sample(table, seed, count)


def cmd_simulate(args) -> int:
    config = load_config(args.config, args.seed)
    u = device_unitary(config)
    defect = unitarity_defect(u)
    if defect > MAX_UNITARITY_DEFECT:
        raise NumericalError(
            f"unitarity defect {defect:.3e} exceeds {MAX_UNITARITY_DEFECT:g}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_unitary(out / "unitary.json", u, config)
    print(f"wrote {out / 'unitary.json'} (defect {defect:.3e})")
    return 0


def cmd_sample(args) -> int:
    config = load_config(args.config, args.seed)
    if args.events is not None:
        config["sampling"]["count"] = args.events
    u = read_unitary(args.unitary)
    n = config["photons"]["n"]
    statistics = config["photons"]["statistics"]
    count = config["sampling"]["count"]
    events = _draw_stream(config, u, statistics, _stream_int(config["seed"], "sampling"),
                          count, collision_free=args.collision_free != "false")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "samples.jsonl"
    with open(path, "w") as fh:
        header = {"record": "header", "config_sha256": config_hash(config),
                  "seed": config["seed"], "events": count,
                  "photons": n, "statistics": statistics}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for ev in events:
            fh.write(json.dumps({"index": ev.index, "branch": ev.branch,
                                 "output": list(ev.output),
                                 "distinguishable": ev.distinguishable},
                                sort_keys=True) + "\n")
    print(f"wrote {path} ({len(events)} events)")
    return 0


EVENT_KEYS = frozenset(("branch", "distinguishable", "index", "output"))
EVENT_BRANCHES = interference.SPDC_BRANCHES + ("fock",)


def _check_event(rec, n: int, m: int, where: str) -> None:
    """Raise unless ``rec`` is an event record ``sample`` could have written:
    an int index, a known branch, n int output modes in [0, m) and a bool
    distinguishable flag. ``type(...) is int`` also rejects booleans."""
    if not isinstance(rec, dict) or not EVENT_KEYS <= rec.keys():
        raise ConfigurationError(
            f"{where}: malformed event record {rec!r}: needs the keys {sorted(EVENT_KEYS)}")
    output = rec["output"]
    if type(rec["index"]) is not int or rec["branch"] not in EVENT_BRANCHES or \
            type(rec["distinguishable"]) is not bool or type(output) is not list or \
            len(output) != n or not all(type(k) is int and 0 <= k < m for k in output):
        raise ConfigurationError(
            f"{where}: malformed event record {rec!r}: needs an int index, a branch "
            f"in {EVENT_BRANCHES}, {n} int output modes in [0, {m}) and a bool "
            "distinguishable")


def read_samples(path, config):
    """Events from a JSONL file, input modes rebuilt from branch labels.

    The file must start with the header ``sample`` writes, and its
    ``config_sha256`` must be the hash of ``config`` with ``sampling.count``
    set to the header's event count, which is what ``sample --events`` hashes.
    Every event record is checked, and the file must hold exactly the
    header's count of them.
    """
    m = config["lattice"]["rows"] * config["lattice"]["cols"]
    n = config["photons"]["n"]
    events, input_modes = [], {}        # input modes per branch label
    with open(path) as fh:
        header = json.loads(fh.readline() or "{}")
        if not isinstance(header, dict) or header.get("record") != "header":
            raise ConfigurationError(f"{path} does not start with a sample header")
        written = {**config, "sampling": {**config["sampling"],
                                          "count": header.get("events")}}
        if header.get("config_sha256") != config_hash(written):
            raise ConfigurationError(
                f"{path} was sampled under a different config or seed")
        for line_no, line in enumerate(fh, start=2):
            rec = json.loads(line)
            _check_event(rec, n, m, f"{path} line {line_no}")
            branch = rec["branch"]
            if branch not in input_modes:
                pattern = interference.spdc_branch_pattern(branch, config["inputs"], m) \
                    if branch in interference.SPDC_BRANCHES else _fixed_input_pattern(config)
                input_modes[branch] = pattern.modes()
            events.append(interference.SampleEvent(
                rec["index"], branch, input_modes[branch], tuple(rec["output"]),
                rec["distinguishable"]))
    if len(events) != header.get("events"):
        raise ConfigurationError(
            f"{path} holds {len(events)} events, its header says {header.get('events')}")
    return events


def cmd_validate(args) -> int:
    config = load_config(args.config, args.seed)
    u = read_unitary(args.unitary)
    events = read_samples(args.samples, config)
    n = config["photons"]["n"]
    m_eff = len(_kept_outputs(config))
    if args.test == "uniform":
        trace = validation.run_uniform_test(events, u, n, m_eff)
    else:
        trace = validation.run_distinguishable_test(events, u)

    # paired distinguishable stream on the same circuit for normalization
    ref_events = _draw_stream(config, u, "distinguishable",
                              _stream_int(config["seed"], "noise"), len(events))
    if args.test == "uniform":
        ref_trace = validation.run_uniform_test(ref_events, u, n, m_eff)
    else:
        ref_trace = validation.run_distinguishable_test(ref_events, u)
    if ref_trace.slope != 0:
        trace = validation.normalize_trace(trace, ref_trace)

    ensemble = validation.wrong_unitary_slope_histogram(
        events, u, args.test, n, m_eff, args.ensemble,
        stream_seed(config["seed"], "ensemble"),
        reference_slope=ref_trace.slope if ref_trace.slope != 0 else None)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "trace.csv", ["k", "counter"],
               list(enumerate(trace.counters.tolist(), start=1)))
    _write_histogram_csv(out / "slope_histogram.csv", ensemble.histogram)
    summary = {
        "test": args.test,
        "n_events": trace.n_events,
        "n_rejected": trace.n_rejected,
        "slope": trace.slope,
        "normalized_slope": trace.normalized_slope,
        "ensemble_mean": ensemble.mean,
        "ensemble_std": ensemble.stddev,
        "z_score": ensemble.z_score,
    }
    with open(out / "zscore.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{args.test} test: slope {trace.slope:.4f}, z = {ensemble.z_score:.2f}")
    return 0


def cmd_reconstruct(args) -> int:
    config = load_config(args.config, args.seed)
    rec_cfg = config["reconstruction"]
    if rec_cfg["noise"] not in NOISE_MODELS:
        raise ConfigurationError(
            f"reconstruction.noise = {rec_cfg['noise']!r} must be one of {NOISE_MODELS}")

    scans = None
    if args.dataset is not None:
        # previously fitted dip data; no ground truth available
        with open(args.dataset) as fh:
            dataset = reconstruction.HomDataset.from_dict(json.load(fh))
        truth = None
        inputs = dataset.rows
    else:
        if args.unitary is None:
            raise ConfigurationError("reconstruct needs --unitary or --dataset")
        u = read_unitary(args.unitary)
        inputs = config["inputs"][:_count(config, "reconstruction", "n_rows",
                                          len(config["inputs"]))]
        pairs = rec_cfg["input_pairs"]
        if pairs is not None:
            if type(pairs) is not list or not all(
                    type(pair) is list and len(pair) == 2
                    and all(type(label) is int for label in pair) for pair in pairs):
                raise ConfigurationError(
                    f"reconstruction.input_pairs = {pairs!r} must be a list of "
                    "[h, k] pairs of input modes")
            pairs = tuple(map(tuple, pairs))
        noiseless = rec_cfg["noise"] == "none"
        counts = rec_cfg["mean_plateau_counts"]
        if not noiseless and not (_is_number(counts) and counts > 0):
            raise ConfigurationError(
                f"reconstruction.mean_plateau_counts = {counts!r} must be a finite "
                "number > 0 under Poisson noise")
        result = reconstruction.simulate_hom_dataset(
            u, inputs, input_pairs=pairs,
            rng_seed=_stream_int(config["seed"], "noise"),
            mean_plateau_counts=None if noiseless else counts,
            keep_scans=args.scans)
        dataset, scans = result if args.scans else (result, None)
        truth = reconstruction.submatrix_rows(u, inputs)

    moduli = reconstruction.reconstruct_moduli(dataset)
    candidate = reconstruction.reconstruct_phases(dataset, moduli)
    refined = reconstruction.refine_chi2(candidate, dataset)
    if not refined.converged:
        print("warning: chi-square refinement stagnated", file=sys.stderr)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "rows": list(refined.rows),
        "gauge": refined.gauge,
        "moduli": [list(map(float, row)) for row in refined.moduli],
        "phases": [list(map(float, row)) for row in refined.phases],
        "chi2": refined.chi2,
        "converged": refined.converged,
        "provenance": {"config_sha256": config_hash(config), "seed": config["seed"]},
    }
    with open(out / "reconstructed.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "hom_dataset.json", "w") as fh:
        json.dump(dataset.to_dict(), fh, sort_keys=True)
        fh.write("\n")
    if scans is not None:
        rows = []
        for ((h, k), (i, j)), (positions, counts) in scans.items():
            rows.extend((h, k, i, j, float(x), float(c))
                        for x, c in zip(positions, counts))
        _write_csv(out / "dip_scans.csv",
                   ["input_h", "input_k", "output_i", "output_j", "position",
                    "counts"], rows)

    if truth is not None:
        moduli_rmse, phase_rmse = reconstruction.gauge_distance(refined, truth)
        with open(out / "gauge_distance.json", "w") as fh:
            json.dump({"moduli_rmse": moduli_rmse,
                       "phase_quadruple_rmse": phase_rmse},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        gauge_note = f": moduli RMSE {moduli_rmse:.3e}, phase RMSE {phase_rmse:.3e} rad"
    else:
        gauge_note = " (no ground truth)"

    v = dataset.valid
    residuals = reconstruction.dip_residuals(refined.phases, refined.moduli, dataset)
    rows = [(*dataset.input_pairs[p], i, j, a, vis, eps, r)
            for p, i, j, a, vis, eps, r in zip(
                dataset.dip_pair.tolist(), dataset.dip_i.tolist(),
                dataset.dip_j.tolist(), dataset.plateaus[v].tolist(),
                dataset.visibilities[v].tolist(), dataset.errors[v].tolist(),
                residuals.tolist())]
    _write_csv(out / "residuals.csv",
               ["input_h", "input_k", "output_i", "output_j", "a", "V", "eps",
                "residual"], rows)
    print(f"reconstructed {len(inputs)}x{dataset.n_outputs} rows{gauge_note}")
    return 0


def cmd_haar(args) -> int:
    config = load_config(args.config, args.seed)
    hcfg = config["haar"]
    m = hcfg["m"]
    lattice_m = config["lattice"]["rows"] * config["lattice"]["cols"]
    if args.device and m != lattice_m:
        raise ConfigurationError(
            f"haar.m = {m!r} must equal the lattice's {lattice_m} modes with --device")
    # --device takes its rows from the configured inputs
    rows = _count(config, "haar", "rows",
                  min(m, len(config["inputs"])) if args.device else m)
    n_matrices = _count(config, "haar", "n_matrices")
    columns = _count(config, "haar", "columns")
    n_steps = _count(config, "evolution", "n_steps") if args.device else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seeds = stream_seed(config["seed"], "ensemble").spawn(n_matrices + 3)
    subs = haarstats._haar_batch(m, seeds[:n_matrices])[:, :rows, :]
    mod_hist, phase_hist = haarstats.ensemble_moduli_phase_histograms(subs)
    sim_hist = haarstats.column_similarity_distribution(
        m, columns, seeds[-3], n_bins=hcfg["similarity_pairs_bins"])
    _write_histogram_csv(out / "moduli_hist.csv", mod_hist)
    _write_histogram_csv(out / "phase_hist.csv", phase_hist)
    _write_histogram_csv(out / "column_similarity_hist.csv", sim_hist)
    if args.device:
        layout, model, bank = build_device(config)
        # one batch: the histogram settings, then one setting per similarity column
        power_range = tuple(config["heaters"]["power_range_mw"])
        powers = np.concatenate([
            haarstats.random_heater_powers(bank, n_matrices, seeds[-2], power_range),
            haarstats.random_heater_powers(bank, columns, seeds[-1], power_range)])
        subs = haarstats.device_submatrix_ensemble(
            layout, model, bank, config["inputs"][:rows], powers, n_steps=n_steps)
        dev_subs, cols = subs[:n_matrices], subs[n_matrices:, 0]
        dev_mod, dev_phase = haarstats.ensemble_moduli_phase_histograms(dev_subs)
        dev_sim = haarstats.similarity_histogram(np.abs(cols) ** 2,
                                                 sim_hist.bin_edges)
        _write_histogram_csv(out / "device_moduli_hist.csv", dev_mod)
        _write_histogram_csv(out / "device_phase_hist.csv", dev_phase)
        _write_histogram_csv(out / "device_column_similarity_hist.csv", dev_sim)
        overlaps = {
            "moduli_overlap": haarstats.histogram_overlap(dev_mod, mod_hist),
            "phase_overlap": haarstats.histogram_overlap(dev_phase, phase_hist),
            "column_similarity_overlap": haarstats.histogram_overlap(dev_sim, sim_hist),
        }
        with open(out / "overlap.json", "w") as fh:
            json.dump(overlaps, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote Haar histograms for m={m} to {out}")
    return 0


def cmd_footprint(args) -> int:
    config = load_config(args.config, args.seed)
    fcfg = config["footprint"]
    params = fp.FootprintParams(r_min=fcfg["r_min_mm"], p=fcfg["p_mm"],
                                p_f=fcfg["p_f_mm"], c=fcfg["c_per_mm"],
                                b=fcfg["b"],
                                fan_arrangement=fcfg["fan_arrangement"])
    rows = fp.compare_layouts(fcfg["m_values"], params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "footprint.csv",
               ["m", "L_clements_mm", "L_spread_planar_mm",
                "L_spread_triangular_mm", "L_fan_mm"],
               [(m, float(a), float(b_), float(c), float(d))
                for (m, a, b_, c, d) in rows])
    print(f"wrote {out / 'footprint.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonlat",
        description="Continuously-coupled photonic lattice simulator and "
                    "multi-photon sampling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p = sub.add_parser("simulate", help="build the device unitary")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sample", help="draw multi-photon samples")
    common(p)
    p.add_argument("--unitary", required=True)
    p.add_argument("--events", type=int, default=None)
    p.add_argument("--collision-free", choices=["true", "false"],
                   default="true", dest="collision_free")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("reconstruct", help="HOM-based submatrix reconstruction")
    common(p)
    p.add_argument("--unitary", default=None)
    p.add_argument("--dataset", default=None,
                   help="reconstruct from a fitted HomDataset JSON instead")
    p.add_argument("--scans", action="store_true",
                   help="also write the simulated dip scans as CSV")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("validate", help="likelihood-ratio validation")
    common(p)
    p.add_argument("--unitary", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--test", choices=["uniform", "distinguishable"],
                   default="uniform")
    p.add_argument("--ensemble", type=int, default=200)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("haar", help="Haar-ensemble reference histograms")
    common(p)
    p.add_argument("--device", action="store_true",
                   help="also emit device-ensemble histograms and overlaps")
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("footprint", help="interferometer footprint scaling table")
    common(p)
    p.set_defaults(func=cmd_footprint)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
