"""Command-line pipelines: simulate, sample, reconstruct, validate, haar, footprint.

Every command is a pure function of (config file, seed): outputs are
byte-identical across reruns. All randomness flows from the single
64-bit config seed, split into named substreams (lattice geometry,
heater powers, sampling, measurement noise, ensembles) so stages can be
rerun independently. Exit codes: 0 success, 2 configuration or
precondition error, 3 numerical failure.

A command ``cmd_x(config, args)`` takes the config ``main`` loaded and
returns ``(files, summary)``: ``files`` maps each output file name to its
text, one string for a JSON document and an iterable of lines for a CSV
or JSONL file, built from results already computed; ``summary`` is one
line for stdout. ``main`` makes ``--out`` and writes the files only after
the command returns, so a command that fails leaves no ``--out`` behind.

``sample`` writes one JSONL record per event, numbered by its position, and
``validate`` reads back only what ``sample`` can write (:func:`read_samples`).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import operator
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import footprint as fp
from . import haarstats, interference, reconstruction, validation
from .errors import ConfigurationError, NumericalError, check_column, is_finite, is_whole
from .evolution import MAX_UNITARITY_DEFECT, propagate
from .lattice import N_HEATERS, CouplingModel, LatticeSpec, build_lattice, default_heater_bank

STREAM_NAMES = ("lattice", "powers", "sampling", "noise", "ensemble")


class Kind(NamedTuple):
    """The values one config key accepts, and the text ending "must be ..."."""
    accepts: Callable[[Any], bool]
    text: str


def _whole(lo, hi=math.inf) -> Kind:
    return Kind(lambda v: is_whole(v) and lo <= v <= hi, f"a whole number in {lo}..{hi}")


def _choice(*options) -> Kind:
    # compared with their types too: JSON 3.0 is no photon number, true no 1
    return Kind(lambda v: any(type(v) is type(o) and v == o for o in options),
                f"one of {options}")


def _list(kind: Kind, length=None) -> Kind:
    return Kind(lambda v: type(v) is list and length in (None, len(v))
                and all(map(kind.accepts, v)),
                f"a list of {length or 'any number of'} items, each {kind.text}")


def _nullable(kind: Kind) -> Kind:
    return Kind(lambda v: v is None or kind.accepts(v), f"null or {kind.text}")


_POSITIVE = Kind(lambda v: is_finite(v) and v > 0, "a finite number > 0")
_NONNEGATIVE = Kind(lambda v: is_finite(v) and v >= 0, "a finite number >= 0")
_COUNT, _MODE = _whole(1), _whole(0)

# every config key as (default, kind); the top-level seed has no default
SCHEMA = {
    "seed": (None, _whole(0, 2 ** 64 - 1)),
    "lattice": {"rows": (4, _COUNT), "cols": (8, _COUNT), "pitch_um": (11.0, _POSITIVE),
                "max_shift_um": (2.0, _NONNEGATIVE),
                "coupling_length_mm": (36.0, _POSITIVE),
                "n_modulation_knots": (8, _whole(2))},
    "coupling": {"c0_per_mm": (0.2, _POSITIVE), "d0_um": (11.0, _POSITIVE),
                 "kappa_um": (3.0, _POSITIVE), "max_distance_um": (15.0, _POSITIVE)},
    "heaters": {"powers_mw": (None, _nullable(_list(_NONNEGATIVE, N_HEATERS))),
                "power_range_mw": ([0.0, 500.0], _list(_NONNEGATIVE, 2)),
                "kernel_width_um": (50.0, _POSITIVE)},
    "inputs": ([11, 12, 19, 20], _list(_MODE)),
    "dropped_output": (31, _nullable(_MODE)),
    "photons": {"n": (3, _choice(3, 4)),
                "statistics": ("indistinguishable",
                               _choice("indistinguishable", "distinguishable")),
                "spdc_ratio": (1.0, _NONNEGATIVE)},
    "evolution": {"n_steps": (1024, _COUNT)},
    "sampling": {"count": (1000, _whole(0))},
    "reconstruction": {"n_rows": (3, _whole(2)), "noise": ("none", _choice("none", "poisson")),
                       "mean_plateau_counts": (1e4, _POSITIVE),
                       "input_pairs": (None, _nullable(_list(_list(_MODE, 2))))},
    # the phase histograms need a gauge-free block, so at least 2 rows
    "haar": {"m": (32, _whole(2)), "rows": (3, _whole(2)), "n_matrices": (15, _COUNT),
             "columns": (200, _whole(2)), "similarity_pairs_bins": (25, _COUNT)},
    "footprint": {"r_min_mm": (30.0, _POSITIVE), "p_mm": (0.06, _POSITIVE),
                  "p_f_mm": (0.127, _POSITIVE), "c_per_mm": (1.0, _POSITIVE),
                  "b": (2.0, _POSITIVE),
                  "fan_arrangement": ("linear", _choice(*fp.FAN_ARRANGEMENTS)),
                  "m_values": ([8, 16, 32, 64, 128, 256, 512, 1024], _list(_whole(2)))},
}


def _defaults(schema) -> dict:
    return {key: _defaults(leaf) if isinstance(leaf, dict) else leaf[0]
            for key, leaf in schema.items()}


DEFAULT_CONFIG = {key: value for key, value in _defaults(SCHEMA).items() if key != "seed"}


def _lattice_m(config) -> int:
    return config["lattice"]["rows"] * config["lattice"]["cols"]


# rules between keys, checked after every key has its kind: (key, whether
# its value v holds in config c, what it must be, formatted with m)
CROSS_KEY_RULES = (
    ("inputs", lambda v, c: len(set(v)) == len(v) and all(k < _lattice_m(c) for k in v),
     "distinct modes below the lattice's m = {m}"),
    ("dropped_output", lambda v, c: v is None or v < _lattice_m(c),
     "null or a mode below the lattice's m = {m}"),
    ("heaters.power_range_mw", lambda v, c: v[0] <= v[1], "[lo, hi] with lo <= hi"),
    ("haar.rows", lambda v, c: v <= c["haar"]["m"], "at most haar.m"),
)


def _merge(schema, override, where=""):
    """The ``schema`` defaults overridden by ``override``, every section a new
    dict and every leaf of its ``schema`` kind. A key ``schema`` lacks, or a
    section that is not an object, raises: the schema is closed."""
    if not isinstance(override, dict):
        raise ConfigurationError(f"{where.rstrip('.') or 'config'} must be a JSON object")
    for key in override:
        if key not in schema:
            raise ConfigurationError(f"unknown config key {where}{key}")
    merged = {}
    for key, leaf in schema.items():
        if isinstance(leaf, dict):
            merged[key] = _merge(leaf, override.get(key, {}), f"{where}{key}.")
            continue
        value, kind = override.get(key, leaf[0]), leaf[1]
        if not kind.accepts(value):
            raise ConfigurationError(f"{where}{key} = {value!r} must be {kind.text}")
        merged[key] = value
    return merged


def load_config(path, seed_override=None) -> dict:
    """The config file merged over the defaults of ``SCHEMA``, whose keys are
    the only ones accepted, each of the kind ``SCHEMA`` gives it and all of
    them within ``CROSS_KEY_RULES``."""
    with open(path) as fh:
        user = json.load(fh)
    if seed_override is not None and isinstance(user, dict):
        user = {**user, "seed": seed_override}
    config = _merge(SCHEMA, user)
    for key, holds, text in CROSS_KEY_RULES:
        section, _, leaf = key.rpartition(".")
        value = (config[section] if section else config)[leaf]
        if not holds(value, config):
            raise ConfigurationError(
                f"{key} = {value!r} must be {text.format(m=_lattice_m(config))}")
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
    if heat["powers_mw"] is not None:
        powers = np.asarray(heat["powers_mw"], dtype=float)
    else:
        lo, hi = heat["power_range_mw"]
        rng = np.random.default_rng(stream_seed(config["seed"], "powers"))
        powers = rng.uniform(lo, hi, size=N_HEATERS)
    bank = default_heater_bank(layout, powers,
                               kernel_width=heat["kernel_width_um"])
    return layout, model, bank


def read_unitary(path) -> np.ndarray:
    """The matrix of a ``unitary.json`` that ``simulate`` wrote: a whole ``m`` and an
    (m, m) list of finite [re, im] entries."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        entries = np.asarray(doc["entries"], dtype=float)
        if is_whole(doc["m"]) and entries.shape == (doc["m"], doc["m"], 2) and \
                np.isfinite(entries).all():
            return entries[..., 0] + 1j * entries[..., 1]
    except (KeyError, TypeError, ValueError):    # no object, no key, no numbers
        pass
    raise ConfigurationError(f"{path} is not a unitary file: malformed m or entries")


def _json_text(doc) -> str:
    """The text of a JSON output: indented, keys sorted, one final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_lines(header, columns):
    """The lines of a CSV output from its columns of Python ints and
    floats, each column formatted by one ``map(repr, ...)``: an int's repr
    is its str, and a float's reads back exactly."""
    yield ",".join(header) + "\n"
    for row in zip(*(map(repr, column) for column in columns)):
        yield ",".join(row) + "\n"


def _histogram_csv(hist: haarstats.Histogram):
    edges = hist.bin_edges.tolist()
    return _csv_lines(("edge_low", "edge_high", "mass"),
                      (edges[:-1], edges[1:], hist.masses.tolist()))


def _source(config):
    """(branch labels, input-mode rows, detected outputs) of the configured
    photon source, the one place that reads it.

    For ``photons.n`` = 4 it is the two-pair SPDC mixture on exactly four
    ``inputs``, the source modes (n4, n1, n2, n3) in that order: the rows
    of |1111>, |2002> and |0220>, seen on every output. For n = 3 it is a
    heralded Fock input: ``inputs[0]`` triggers, one photon enters each of
    ``inputs[1:4]``, and every output but ``dropped_output`` is kept.
    Any other count of inputs raises :class:`ConfigurationError`.
    """
    inputs, n, m = config["inputs"], config["photons"]["n"], _lattice_m(config)
    if len(inputs) < 4 or (n == 4 and len(inputs) > 4):
        raise ConfigurationError(
            f"inputs = {inputs} must hold {'exactly' if n == 4 else 'at least'} 4 "
            f"modes for photons.n = {n}")
    if n == 4:
        return (interference.SPDC_BRANCHES,
                [interference.spdc_branch_pattern(label, inputs, m).modes()
                 for label in interference.SPDC_BRANCHES], list(range(m)))
    return (("fock",), [tuple(sorted(inputs[1:4]))],
            [k for k in range(m) if k != config["dropped_output"]])


def _draw_stream(config, u, statistics, seed, count, collision_free=True):
    """``count`` events of the configured source (:func:`_source`) through
    ``u``, detected on its outputs: for n = 4 a branch of the SPDC mixture
    drawn per event, with ``photons.spdc_ratio`` setting the branch
    weights, for n = 3 the heralded Fock input. ``count`` is checked
    before any table is built."""
    interference.check_event_count(count, config["photons"]["n"])
    labels, rows, outputs = _source(config)
    if labels == interference.SPDC_BRANCHES:
        if not collision_free:
            raise ConfigurationError(
                "the SPDC mixture sampler is defined on the collision-free "
                "subspace only")
        weights = interference.spdc_weights(config["photons"]["spdc_ratio"])
        return interference.spdc_sample(u, weights, statistics, seed, count,
                                        config["inputs"], outputs=outputs)
    table = interference.distribution(
        u, interference.FockPattern.from_modes(rows[0], _lattice_m(config)),
        statistics=statistics, collision_free=collision_free, outputs=outputs)
    return interference.sample(table, seed, count)


def cmd_simulate(config, args):
    unitary = propagate(*build_device(config), n_steps=config["evolution"]["n_steps"])
    u, defect = unitary.entries, unitary.unitarity_defect
    if defect > MAX_UNITARITY_DEFECT:
        raise NumericalError(
            f"unitarity defect {defect:.3e} exceeds {MAX_UNITARITY_DEFECT:g}")
    doc = {
        "m": u.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in u],
        "provenance": {
            "config_sha256": config_hash(config),
            "seed": config["seed"],
            "n_steps": config["evolution"]["n_steps"],
            "unitarity_defect": defect,
        },
    }
    return {"unitary.json": _json_text(doc)}, f"unitarity defect {defect:.3e}"


EVENT_KEYS = frozenset(("branch", "distinguishable", "index", "output"))
_WRITE_EVENTS = 4096        # the event lines sample formats at once
_READ_BYTES = 2 ** 20       # the event lines read_samples parses at once


def cmd_sample(config, args):
    if args.events is not None:
        config["sampling"]["count"] = args.events
    u = read_unitary(args.unitary)
    n = config["photons"]["n"]
    statistics = config["photons"]["statistics"]
    count = config["sampling"]["count"]
    events = _draw_stream(config, u, statistics, _stream_int(config["seed"], "sampling"),
                          count, collision_free=args.collision_free != "false")
    header = {"record": "header", "config_sha256": config_hash(config),
              "seed": config["seed"], "events": count,
              "photons": n, "statistics": statistics}
    lines = itertools.chain([json.dumps(header, sort_keys=True) + "\n"], _event_lines(events))
    return {"samples.jsonl": lines}, f"{len(events)} events"


def _event_lines(events: interference.EventStream):
    """The JSONL lines of a stream, each the bytes of ``json.dumps(record,
    sort_keys=True)`` from one format string (the branch labels need no
    escapes): an event's index is its position and its flag the stream's.
    They are made ``_WRITE_EVENTS`` events at a time so that the Python
    values they are formatted from stay few."""
    line = ('{"branch": "%s", "distinguishable": ' + json.dumps(events.distinguishable)
            + ', "index": %d, "output": [' + ", ".join(["%d"] * events.n) + ']}\n')
    for lo in range(0, len(events), _WRITE_EVENTS):
        rows = slice(lo, lo + _WRITE_EVENTS)
        yield from map(line.__mod__, zip(
            map(events.branches.__getitem__, events.branch[rows].tolist()),
            itertools.count(lo), *events.outputs[rows].T.tolist()))


def _records_stream(recs, start: int, expect) -> interference.EventStream:
    """The stream of parsed event records, the first of them event ``start``,
    each as ``sample`` writes it under the config of ``expect``: (branch
    labels, input rows, mask of the detected outputs among the m modes,
    statistics flag). Its index is its position, its flag the config's, its
    branch a label and its output modes detected, in non-decreasing order;
    any other raises :class:`ConfigurationError`. A record that is no object
    raises ``TypeError``, one without a key ``KeyError``."""
    labels, inputs, detected, flag = expect
    codes = {label: code for code, label in enumerate(labels)}
    field = {key: list(map(operator.itemgetter(key), recs)) for key in EVENT_KEYS}
    index = check_column(field["index"], "event indices")
    if not np.array_equal(index, np.arange(start, start + len(recs))):
        raise ConfigurationError("event indices must be the events' positions")
    if not all(map(operator.is_, field["distinguishable"], itertools.repeat(flag))):
        raise ConfigurationError(f"every distinguishable flag must be {json.dumps(flag)}")
    stream = interference.EventStream(
        list(map(codes.get, field["branch"])),
        field["output"] or np.empty((0, len(inputs[0])), dtype=np.intp), labels, inputs, flag)
    outputs = check_column(stream.outputs, "output modes", ("K", "n"), lo=0, hi=len(detected))
    if not detected[outputs].all() or (np.diff(outputs, axis=1) < 0).any():
        raise ConfigurationError("output modes must be detected and in non-decreasing order")
    return stream


def _event_block(lines, first: int, where, expect):
    """The stream of a block of event lines, the first of them line ``first``
    of the file ``where`` and event ``first - 2``. The block is parsed by
    one ``json.loads`` over all its lines where that shows each line to hold
    one record, and line by line otherwise; either way its stream is built
    once (:func:`_records_stream`, which ``expect`` is passed to). Only
    when that fails are the records checked one at a time, to name the
    first line whose record ``sample`` could not have written.

    Each line but the last ends in a newline, which no JSON string holds,
    and each starts with "{", which neither a key nor an output mode may
    be; so once every record holds exactly the four keys, each joining
    comma separates two records: one per line.
    """
    bad = (ConfigurationError, KeyError, TypeError)    # TypeError: no object, or a list label
    try:
        recs = json.loads("[" + ",".join(lines) + "]")
        if len(recs) == len(lines) and all(map(str.startswith, lines, itertools.repeat("{"))) \
                and set(map(type, recs)) <= {dict} and all(map(
                    operator.eq, map(dict.keys, recs), itertools.repeat(EVENT_KEYS))):
            return _records_stream(recs, first - 2, expect)
    except (json.JSONDecodeError, *bad):
        pass
    recs = list(map(json.loads, lines))
    try:
        return _records_stream(recs, first - 2, expect)
    except bad:
        labels, inputs, detected, flag = expect
        for line_no, rec in enumerate(recs, start=first):
            try:
                _records_stream([rec], line_no - 2, expect)
            except bad as exc:
                raise ConfigurationError(
                    f"{where} line {line_no}: malformed event record {rec!r}: needs the "
                    f"keys {sorted(EVENT_KEYS)}, index {line_no - 2}, a branch in {labels}, "
                    f"{len(inputs[0])} int output modes in non-decreasing order, in [0, "
                    f"{len(detected)}) and not in {np.flatnonzero(~detected).tolist()}, and "
                    f"distinguishable {json.dumps(flag)}") from exc
        raise


def read_samples(path, config) -> interference.EventStream:
    """The event stream of a JSONL file, input modes rebuilt from branch
    labels by the configured source (:func:`_source`), checked first.

    The file must start with the header ``sample`` writes, and its
    ``config_sha256`` must be the hash of ``config`` with ``sampling.count``
    set to the header's event count, which is what ``sample --events`` hashes.
    Every event record is checked against what ``sample`` writes under
    ``config``, its index its position and its flag ``photons.statistics``,
    and the file must hold exactly the header's count of them. The records
    are read in blocks of whole lines, about ``_READ_BYTES`` each, so that
    few parsed records are held at once, and each block is checked as
    columns (:func:`_event_block`).
    """
    labels, inputs, outputs = _source(config)
    flag = config["photons"]["statistics"] == "distinguishable"
    expect = (labels, inputs, np.isin(np.arange(_lattice_m(config)), outputs), flag)
    with open(path) as fh:
        header = json.loads(fh.readline() or "{}")
        if not isinstance(header, dict) or header.get("record") != "header":
            raise ConfigurationError(f"{path} does not start with a sample header")
        written = {**config, "sampling": {**config["sampling"],
                                          "count": header.get("events")}}
        if header.get("config_sha256") != config_hash(written):
            raise ConfigurationError(
                f"{path} was sampled under a different config or seed")
        blocks, first = [_records_stream([], 0, expect)], 2
        for lines in iter(functools.partial(fh.readlines, _READ_BYTES), []):
            blocks.append(_event_block(lines, first, path, expect))
            first += len(lines)
    events = interference.EventStream(
        *(np.concatenate([getattr(block, name) for block in blocks])
          for name in ("branch", "outputs")), labels, inputs, flag)
    if len(events) != header.get("events"):
        raise ConfigurationError(
            f"{path} holds {len(events)} events, its header says {header.get('events')}")
    return events


def cmd_validate(config, args):
    u = read_unitary(args.unitary)
    events = read_samples(args.samples, config)
    # the ensemble's memory is known from the stream: check it before any scoring
    validation.check_ensemble_bytes(events, len(u), args.ensemble)
    m_eff = len(_source(config)[2])
    # paired distinguishable stream on the same circuit for normalization
    paired = _draw_stream(config, u, "distinguishable", _stream_int(config["seed"], "noise"),
                          len(events))
    reference = (validation.run_uniform_test(paired, u, m_eff) if args.test == "uniform"
                 else validation.run_distinguishable_test(paired, u))
    ensemble = validation.wrong_unitary_slope_histogram(
        events, u, args.test, m_eff, args.ensemble,
        stream_seed(config["seed"], "ensemble"), reference_slope=reference.slope or None)
    trace = ensemble.trace

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
    files = {
        "trace.csv": _csv_lines(("k", "counter"),
                                (range(1, trace.n_events + 1), trace.counters.tolist())),
        "slope_histogram.csv": _histogram_csv(ensemble.histogram),
        "zscore.json": _json_text(summary),
    }
    return files, f"{args.test} test: slope {trace.slope:.4f}, z = {ensemble.z_score:.2f}"


def cmd_reconstruct(config, args):
    rec_cfg = config["reconstruction"]
    files = {}
    if args.dataset is not None:
        if args.scans:
            raise ConfigurationError("--scans needs --unitary: a --dataset holds no scans")
        # previously fitted dip data; no ground truth available
        with open(args.dataset) as fh:
            dataset = reconstruction.HomDataset.from_dict(json.load(fh))
        truth = None
        inputs = dataset.rows
    else:
        u = read_unitary(args.unitary)
        n_rows = rec_cfg["n_rows"]
        if n_rows > len(config["inputs"]):
            raise ConfigurationError(f"reconstruction.n_rows = {n_rows} must be at "
                                     f"most the {len(config['inputs'])} configured inputs")
        inputs = config["inputs"][:n_rows]
        pairs = rec_cfg["input_pairs"]
        dataset, counts = reconstruction.simulate_hom_dataset(
            u, inputs, input_pairs=None if pairs is None else tuple(map(tuple, pairs)),
            rng_seed=_stream_int(config["seed"], "noise"),
            mean_plateau_counts=None if rec_cfg["noise"] == "none"
            else rec_cfg["mean_plateau_counts"])
        truth = reconstruction.submatrix_rows(u, inputs)
    # the (input h, input k, output i, output j) columns of the dataset's dip index
    dips = (*np.array(dataset.input_pairs)[dataset.dip_pair].T, dataset.dip_i, dataset.dip_j)
    if args.scans:    # each dip's scan, one row per scan position
        files["dip_scans.csv"] = _csv_lines(
            ("input_h", "input_k", "output_i", "output_j", "position", "counts"),
            (*(np.repeat(column, counts.shape[1]).tolist() for column in dips),
             np.tile(reconstruction.SCAN_POSITIONS, len(counts)).tolist(),
             counts.ravel().tolist()))

    moduli = reconstruction.reconstruct_moduli(dataset)
    candidate = reconstruction.reconstruct_phases(dataset, moduli)
    refined = reconstruction.refine_chi2(candidate, dataset)

    files["reconstructed.json"] = _json_text({
        "rows": list(refined.rows),
        "gauge": reconstruction.GAUGE,
        "moduli": [list(map(float, row)) for row in refined.moduli],
        "phases": [list(map(float, row)) for row in refined.phases],
        "chi2": refined.chi2,
        "converged": refined.converged,
        "provenance": {"config_sha256": config_hash(config), "seed": config["seed"]},
    })
    # one string: json.dumps without an indent runs the C encoder
    files["hom_dataset.json"] = json.dumps(dataset.to_dict(), sort_keys=True) + "\n"
    if truth is not None:
        moduli_rmse, phase_rmse = reconstruction.gauge_distance(refined, truth)
        files["gauge_distance.json"] = _json_text(
            {"moduli_rmse": moduli_rmse, "phase_quadruple_rmse": phase_rmse})
        gauge_note = f": moduli RMSE {moduli_rmse:.3e}, phase RMSE {phase_rmse:.3e} rad"
    else:
        gauge_note = " (no ground truth)"

    v = dataset.valid
    residuals = reconstruction.dip_residuals(refined.phases, refined.moduli, dataset)
    files["residuals.csv"] = _csv_lines(
        ("input_h", "input_k", "output_i", "output_j", "a", "V", "eps", "residual"),
        (*(column.tolist() for column in dips), dataset.plateaus[v].tolist(),
         dataset.visibilities[v].tolist(), dataset.errors[v].tolist(), residuals.tolist()))
    return files, f"reconstructed {len(inputs)}x{dataset.n_outputs} rows{gauge_note}"


def cmd_haar(config, args):
    hcfg = config["haar"]
    m, rows = hcfg["m"], hcfg["rows"]
    n_matrices, columns = hcfg["n_matrices"], hcfg["columns"]
    if args.device and m != _lattice_m(config):
        raise ConfigurationError(f"haar.m = {m} must equal the lattice's "
                                 f"{_lattice_m(config)} modes with --device")
    # --device takes its rows from the configured inputs
    if args.device and rows > len(config["inputs"]):
        raise ConfigurationError(
            f"haar.rows = {rows} must be at most the {len(config['inputs'])} "
            "configured inputs with --device")
    # children 0 .. n_matrices - 1 draw the rows (Haar U^T is Haar), the next three the rest
    ensemble = stream_seed(config["seed"], "ensemble")
    subs = haarstats._haar_columns(m, rows, ensemble, n_matrices).transpose(0, 2, 1)
    columns_seed, *powers_seeds = ensemble.spawn(3)
    hists = dict(zip(("moduli", "phase"), haarstats.ensemble_moduli_phase_histograms(subs)))
    hists["column_similarity"] = haarstats.column_similarity_distribution(
        m, columns, columns_seed, n_bins=hcfg["similarity_pairs_bins"])
    files = {}
    if args.device:
        layout, model, bank = build_device(config)
        # one batch: the histogram settings, then one setting per similarity column
        power_range = tuple(config["heaters"]["power_range_mw"])
        powers = np.concatenate([
            haarstats.random_heater_powers(bank, count, seed, power_range)
            for count, seed in zip((n_matrices, columns), powers_seeds)])
        # the histogram settings read every row, the similarity settings one
        inputs = config["inputs"][:rows]
        read = haarstats.device_submatrix_ensemble(
            layout, model, bank, [inputs] * n_matrices + [inputs[:1]] * columns, powers,
            n_steps=config["evolution"]["n_steps"])
        dev_subs, cols = np.array(read[:n_matrices]), np.concatenate(read[n_matrices:])
        device = dict(zip(("moduli", "phase"),
                          haarstats.ensemble_moduli_phase_histograms(dev_subs)))
        device["column_similarity"] = haarstats.similarity_histogram(
            np.abs(cols) ** 2, hists["column_similarity"].bin_edges)
        files["overlap.json"] = _json_text(
            {f"{kind}_overlap": haarstats.histogram_overlap(hist, hists[kind])
             for kind, hist in device.items()})
        hists.update({f"device_{kind}": hist for kind, hist in device.items()})
    files.update({f"{name}_hist.csv": _histogram_csv(hist) for name, hist in hists.items()})
    return files, f"Haar histograms for m={m}"


def cmd_footprint(config, args):
    fcfg = config["footprint"]
    params = fp.FootprintParams(r_min=fcfg["r_min_mm"], p=fcfg["p_mm"],
                                p_f=fcfg["p_f_mm"], c=fcfg["c_per_mm"],
                                b=fcfg["b"],
                                fan_arrangement=fcfg["fan_arrangement"])
    rows = fp.compare_layouts(fcfg["m_values"], params)
    lines = _csv_lines(("m", "L_clements_mm", "L_spread_planar_mm",
                        "L_spread_triangular_mm", "L_fan_mm"), zip(*rows))
    return {"footprint.csv": lines}, f"{len(rows)} mode counts"


@functools.cache    # one parser per process: parsing leaves it as it was
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--unitary")
    source.add_argument("--dataset",
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
    args = build_parser().parse_args(argv)
    try:
        files, summary = args.func(load_config(args.config, args.seed), args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            with open(out / name, "w", newline="") as fh:
                fh.writelines((text,) if isinstance(text, str) else text)
    # a path that names the wrong kind of file is a configuration error; any
    # other OSError, a failed write say, is not
    except (ConfigurationError, FileNotFoundError, FileExistsError, NotADirectoryError,
            IsADirectoryError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {', '.join(files)} to {out}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
