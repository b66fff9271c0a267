"""The benchmark's workloads: set-up, the timed op, and the checks of each op.

A workload draws every input from the run seed: the device config seed,
heater powers, and one seed (plus, for ``table_n5``, one input pattern) per
op, so the same seed gives the same inputs however long the run is.
``hom_reconstruct`` is the exception: it keeps one chip and one fixed round
of noise seeds (see its docstring).
Ops drive ``photonlat.cli.main`` in-process where a CLI command exists and
the library's public functions otherwise; outputs are read back with the
benchmark's own parsers and checked against ``reference.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

INPUTS = (11, 12, 19, 20)          # default source waveguides (n4, n1, n2, n3)
M = 32
DROPPED_OUTPUT = 31                # trigger detector in 3-photon runs
OUTPUTS31 = tuple(i for i in range(M) if i != DROPPED_OUTPUT)
EVENTS = 1000
ENSEMBLE = 200
HIST_BINS = 25                     # photonlat's default histogram bins


class OpFailed(RuntimeError):
    """A CLI command of an op exited with a non-zero code."""


# ------------------------------------------------------------ file readers

def write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def read_unitary_file(path: Path) -> np.ndarray:
    doc = read_json(path)
    entries = np.asarray(doc["entries"], dtype=float)
    if entries.shape != (doc["m"], doc["m"], 2):
        raise ValueError(f"{path}: malformed unitary")
    return entries[..., 0] + 1j * entries[..., 1]


def read_csv(path: Path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def read_samples_file(path: Path):
    """(branches, outputs) of the events in a samples.jsonl file."""
    branches, outputs = [], []
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec.get("record") != "header":
            branches.append(rec["branch"])
            outputs.append(tuple(rec["output"]))
    return branches, outputs


def check_histogram(path: Path, edges, errors: list) -> np.ndarray:
    """Masses of a histogram CSV after checking its edges and its mass."""
    rows = read_csv(path)
    got = np.concatenate([rows[:, 0], rows[-1:, 1]])
    if got.shape != np.shape(edges) or not np.allclose(got, edges, rtol=0, atol=1e-12):
        errors.append(f"{path.name}: bin edges differ from the Haar reference's")
    masses = rows[:, 2]
    if masses.min() < 0 or abs(masses.sum() - 1.0) > 1e-12:
        errors.append(f"{path.name}: masses negative or not summing to 1")
    return masses


# ------------------------------------------------------------ workloads

class Workload:
    """Set-up, op and checks of one workload; see the README for each."""

    name = ""
    ROUND = 1           # a run attempts a whole number of rounds of this many ops

    def __init__(self, photonlat, seed: int):
        self.pl = photonlat
        self.cli = photonlat.cli
        device, powers, check, ops = np.random.SeedSequence(seed).spawn(4)
        self.device_seed = int(device.generate_state(1, dtype=np.uint64)[0])
        self.powers = np.random.default_rng(powers).uniform(0.0, 500.0, 16).tolist()
        self.check_rng = np.random.default_rng(check)
        self.op_rng = np.random.default_rng(ops)
        self.config = {"seed": self.device_seed}
        self.near_threshold = 0     # events left out of step-by-step comparisons

    def run_cli(self, *argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main([str(a) for a in argv])
        if code != 0:
            raise OpFailed(f"photonlat {argv[0]} exited with code {code}")

    def setup(self, workdir: Path) -> None:
        """One set-up: configs, the fixed device unitary and a warm-up."""
        self.config_path = write_json(workdir / "config.json", self.config)
        self.run_cli("simulate", "--config", self.config_path, "--out", workdir)
        self.unitary_path = workdir / "unitary.json"
        self.unitary = read_unitary_file(self.unitary_path)
        self.warm_up(workdir / "warm")

    def warm_up(self, workdir: Path) -> None:
        raise NotImplementedError

    def next_inputs(self) -> dict:
        return {"seed": int(self.op_rng.integers(2 ** 63))}

    def op(self, workdir: Path, inputs: dict):
        raise NotImplementedError

    def check(self, result) -> list:
        raise NotImplementedError

    def final_check(self) -> list:
        defect = ref.unitarity_defect(self.unitary)
        if defect > 1e-9:
            return [f"device unitary defect {defect:.2e} > 1e-9"]
        return []


class Reconfigure(Workload):
    """One op = one ``haar --device``: a batch of random heater settings,
    each propagated at the default 1024 cf4 steps, binned against Haar."""

    name = "reconfigure"
    N_MATRICES = 4      # heater settings for the moduli and phase histograms
    N_COLUMNS = 8       # heater settings for the column-similarity histogram

    def __init__(self, photonlat, seed):
        super().__init__(photonlat, seed)
        self.config = {"seed": self.device_seed,
                       "heaters": {"powers_mw": self.powers},
                       "haar": {"n_matrices": self.N_MATRICES, "columns": self.N_COLUMNS}}

    def warm_up(self, workdir):
        cfg = write_json(workdir / "config.json",
                         {**self.config, "haar": {"n_matrices": 1, "columns": 2}})
        self.run_cli("haar", "--config", cfg, "--out", workdir, "--device")

    def op(self, workdir, inputs):
        self.run_cli("haar", "--config", self.config_path, "--out", workdir,
                     "--device", "--seed", inputs["seed"])
        return workdir

    def check(self, out):
        errors = []
        unit = np.linspace(0.0, 1.0, HIST_BINS + 1)
        edges = {"moduli": unit, "phase": np.linspace(-np.pi, np.pi, HIST_BINS + 1),
                 "column_similarity": unit}
        overlaps = read_json(out / "overlap.json")
        for kind, kind_edges in edges.items():
            haar = check_histogram(out / f"{kind}_hist.csv", kind_edges, errors)
            device = check_histogram(out / f"device_{kind}_hist.csv", kind_edges, errors)
            overlap = overlaps[f"{kind}_overlap"]
            if not 0.0 <= overlap <= 1.0:
                errors.append(f"{kind} overlap {overlap} outside [0, 1]")
            if abs(overlap - np.minimum(haar, device).sum()) > 1e-12:
                errors.append(f"{kind} overlap differs from the shared histogram area")
        return errors

    def final_check(self):
        """``simulate`` at the benchmark's heater powers against the ODE."""
        errors = super().final_check()
        config = self.cli.load_config(self.config_path)
        layout, model, bank = self.cli.build_device(config)
        if not np.array_equal(bank.powers, self.powers):
            errors.append("simulate did not use the configured heater powers")
        u_ode = ref.ode_unitary(
            layout.positions_at, layout.base_positions, layout.knot_z, layout.length,
            {"c0": model.c0, "d0": model.d0, "kappa": model.kappa,
             "max_distance": model.max_distance, "truncation": model.truncation},
            {"positions": bank.positions, "spans": bank.z_spans,
             "powers": np.asarray(self.powers), "kernel_width": bank.kernel_width,
             "alpha_t": bank.alpha_t})
        err = float(np.abs(self.unitary - u_ode).max())
        if err > 1e-8:
            errors.append(f"simulate differs from the ODE reference by {err:.2e} > 1e-8")
        return errors


class SampleValidate(Workload):
    """One op = 3-photon and 4-photon SPDC ``sample``, ``validate`` of both
    streams with both tests, and the library's mixture-scored C test."""

    name = "sample_validate"
    SPDC_RATIO = 1.0    # photonlat's default pair-rate ratio R

    def __init__(self, photonlat, seed):
        super().__init__(photonlat, seed)
        self.config4 = {"seed": self.device_seed, "photons": {"n": 4}}

    def setup(self, workdir):
        self.config4_path = write_json(workdir / "config4.json", self.config4)
        super().setup(workdir)

    def warm_up(self, workdir):
        self.op(workdir, {"seed": 1}, events=200, ensemble=10)

    def op(self, workdir, inputs, events=EVENTS, ensemble=ENSEMBLE):
        seed = inputs["seed"]
        streams = {"s3": self.config_path, "s4": self.config4_path}
        for stream, cfg in streams.items():
            self.run_cli("sample", "--config", cfg, "--unitary", self.unitary_path,
                         "--out", workdir / stream, "--events", events, "--seed", seed)
        for stream, cfg in streams.items():
            for test in ("uniform", "distinguishable"):
                self.run_cli("validate", "--config", cfg, "--unitary", self.unitary_path,
                             "--samples", workdir / stream / "samples.jsonl",
                             "--out", workdir / f"{stream}_{test}", "--test", test,
                             "--ensemble", ensemble, "--seed", seed)
        config4 = self.cli.load_config(self.config4_path, seed)
        u = self.cli.read_unitary(self.unitary_path)
        stream4 = self.cli.read_samples(workdir / "s4" / "samples.jsonl", config4)
        mixture = self.pl.run_distinguishable_test(
            stream4, u, weights=self.pl.spdc_weights(self.SPDC_RATIO),
            input_modes=config4["inputs"])
        return workdir, mixture.counters.copy()

    def _compare_trace(self, label, counters, steps, near, errors):
        """Step-by-step comparison of a counter trace with reference steps;
        steps of 0 (events without a likelihood ratio) are skipped."""
        keep = steps != 0
        steps, near = steps[keep], near[keep]
        got = np.diff(np.concatenate([[0], counters]))
        if len(got) != len(steps):
            errors.append(f"{label}: {len(got)} trace steps, reference has {len(steps)}")
            return
        if np.any(np.abs(got) != 1):
            errors.append(f"{label}: counter steps other than +-1")
        self.near_threshold += int(near.sum())
        bad = int(((got != steps) & ~near).sum())
        if bad:
            errors.append(f"{label}: {bad} steps differ from the reference counter rule")

    def check(self, result):
        out, mixture_counters = result
        errors = []
        u = self.unitary
        for stream, n, detected in (("s3", 3, OUTPUTS31), ("s4", 4, tuple(range(M)))):
            branches, outputs = read_samples_file(out / stream / "samples.jsonl")
            if len(outputs) != EVENTS:
                errors.append(f"{stream}: {len(outputs)} events, asked for {EVENTS}")
            outputs = np.asarray(outputs, dtype=np.intp)
            if outputs.shape[1] != n or np.any(np.diff(outputs, axis=1) <= 0) \
                    or not np.isin(outputs, detected).all():
                errors.append(f"{stream}: events are not collision-free {n}-photon "
                              "patterns over the detected outputs")
                continue
            branches = np.asarray(branches)
            w_all = np.zeros(len(outputs), dtype=int)
            c_all = np.zeros(len(outputs), dtype=int)
            w_near = np.zeros(len(outputs), dtype=bool)
            c_near = np.zeros(len(outputs), dtype=bool)
            for branch in np.unique(branches):
                sel = branches == branch
                modes = INPUTS[1:] if branch == "fock" else \
                    ref.spdc_input_modes(branch, INPUTS)
                w_all[sel], w_near[sel] = ref.w_steps(u, modes, outputs[sel], len(detected))
                c_all[sel], c_near[sel] = ref.c_steps_from_qd(
                    *ref.qd_probabilities(u, modes, outputs[sel]))
            for test, steps, near in (("uniform", w_all, w_near),
                                      ("distinguishable", c_all, c_near)):
                vdir = out / f"{stream}_{test}"
                counters = read_csv(vdir / "trace.csv")[:, 1]
                self._compare_trace(f"{stream} {test}", counters, steps, near, errors)
                summary = read_json(vdir / "zscore.json")
                own = ref.ls_slope(counters)
                if abs(summary["slope"] - own) > 1e-9 * (1 + abs(own)):
                    errors.append(f"{stream} {test}: slope {summary['slope']} != {own}")
                # the 3-photon W test is weak on some devices (expected slope
                # down to 0.016), so only the other three must come out positive
                if (stream, test) != ("s3", "uniform") and summary["slope"] <= 0:
                    errors.append(f"{stream} {test}: faithful stream slope <= 0")
                if not math.isfinite(summary["z_score"]):
                    errors.append(f"{stream} {test}: z-score not finite")
                hist = read_csv(vdir / "slope_histogram.csv")
                if hist[:, 2].min() < 0 or abs(hist[:, 2].sum() - 1.0) > 1e-12:
                    errors.append(f"{stream} {test}: slope histogram mass != 1")
            if stream == "s4":
                weights = ref.spdc_weights(self.SPDC_RATIO)
                for branch, w in weights.items():
                    count = int((branches == branch).sum())
                    sigma = math.sqrt(EVENTS * w * (1 - w))
                    if abs(count - EVENTS * w) > 5 * sigma:
                        errors.append(f"s4: branch {branch} drawn {count} times, "
                                      f"expected {EVENTS * w:.0f} +- {sigma:.0f}")
                steps, near = ref.c_steps_from_qd(
                    *ref.mixture_qd(u, INPUTS, weights, outputs))
                self._compare_trace("s4 mixture", mixture_counters, steps, near, errors)
        return errors


class HomReconstruct(Workload):
    """One op = one noisy ``reconstruct`` of three input rows.

    Dip-fit iterations depend on the chip: one chip's reconstruct took
    0.37 s and another's 0.85 s. So every seed reconstructs the same chip,
    the default one at config seed 12345.

    About 1 noise draw in 2000 makes ``reconstruct`` exit with code 3: a
    shallow dip's fit runs to a width far beyond the scan, and the tiny
    uncertainty it then reports for a V trips the |cos| consistency check.
    Noise drawn from the run seed would fail on some seeds only, so every
    run repeats one fixed round of noise seeds instead: op seeds 1-9, then
    ``FAILING_NOISE_SEED``, a draw that fails this way every time.
    """

    name = "hom_reconstruct"
    ROWS = INPUTS[:3]
    DEVICE_SEED = 12345
    FAILING_NOISE_SEED = 2385068500624044428
    NOISE_SEEDS = tuple(range(1, 10)) + (FAILING_NOISE_SEED,)
    ROUND = len(NOISE_SEEDS)

    def __init__(self, photonlat, seed):
        super().__init__(photonlat, seed)
        self.config = {"seed": self.DEVICE_SEED,
                       "reconstruction": {"noise": "poisson", "mean_plateau_counts": 1e4}}
        self.n_ops = 0

    def next_inputs(self):
        seed = self.NOISE_SEEDS[self.n_ops % self.ROUND]
        self.n_ops += 1
        return {"seed": seed}

    def warm_up(self, workdir):
        cfg = write_json(workdir / "config.json",
                         {**self.config, "reconstruction": {"noise": "poisson", "n_rows": 2}})
        self.run_cli("reconstruct", "--config", cfg, "--unitary", self.unitary_path,
                     "--out", workdir)

    def op(self, workdir, inputs):
        self.run_cli("reconstruct", "--config", self.config_path, "--unitary",
                     self.unitary_path, "--out", workdir, "--seed", inputs["seed"])
        return workdir

    def check(self, out):
        errors = []
        doc = read_json(out / "reconstructed.json")
        if tuple(doc["rows"]) != self.ROWS:
            return [f"reconstructed rows {doc['rows']}, expected {list(self.ROWS)}"]
        truth = self.unitary[:, list(self.ROWS)].T
        moduli = np.asarray(doc["moduli"], dtype=float)
        rel = float(np.median(np.abs(moduli - np.abs(truth)) / np.abs(truth)))
        if not rel < 0.03:
            errors.append(f"median relative moduli error {rel:.4f} >= 0.03")
        rmse = ref.quadruple_rmse(doc["phases"], truth)
        if not rmse < 0.1:
            errors.append(f"phase-quadruple RMSE {rmse:.4f} rad >= 0.1")
        if not math.isfinite(doc["chi2"]):
            errors.append("chi-square not finite")
        return errors


class TableN5(Workload):
    """One op = the 5-photon ``distribution`` over the 31 detected outputs
    (169,911 patterns) and a ``sample`` of 1000 events from it."""

    name = "table_n5"
    N = 5
    N_CHECKED = 200
    N_LARGEST = 20

    def warm_up(self, workdir):
        pattern = self.pl.FockPattern.from_modes(range(self.N), M)
        table = self.pl.distribution(self.unitary, pattern, outputs=range(12))
        self.pl.sample(table, 1, 10)

    def next_inputs(self):
        inputs = super().next_inputs()
        inputs["modes"] = tuple(sorted(int(x) for x in
                                       self.op_rng.choice(M, self.N, replace=False)))
        return inputs

    def op(self, workdir, inputs):
        pattern = self.pl.FockPattern.from_modes(inputs["modes"], M)
        table = self.pl.distribution(self.unitary, pattern, outputs=OUTPUTS31)
        events = self.pl.sample(table, inputs["seed"], EVENTS)
        return inputs["modes"], table.mode_lists, table.probs, table.total_mass, events

    def check(self, result):
        modes, lists, probs, total_mass, events = result
        errors = []
        if len(probs) != math.comb(len(OUTPUTS31), self.N):
            errors.append(f"table has {len(probs)} entries")
        if probs.min() < 0 or not total_mass <= 1.0 or \
                abs(total_mass - probs.sum()) > 1e-12:
            errors.append(f"negative probabilities or total mass {total_mass} > 1")
        idx = np.concatenate([self.check_rng.choice(len(probs), self.N_CHECKED, replace=False),
                              np.argpartition(probs, -self.N_LARGEST)[-self.N_LARGEST:]])
        want, _ = ref.qd_probabilities(self.unitary, modes, lists[idx])
        rel = np.abs(probs[idx] - want) / want
        if not rel.max() <= 1e-10:
            errors.append(f"table entries differ from reference permanents by "
                          f"{rel.max():.2e} relative")
        # mode lists are lexicographic, so base-M keys locate each event
        keys = lists @ (M ** np.arange(self.N - 1, -1, -1))
        outs = np.array([ev.output for ev in events], dtype=np.intp)
        ev_keys = outs @ (M ** np.arange(self.N - 1, -1, -1))
        pos = np.clip(np.searchsorted(keys, ev_keys), 0, len(keys) - 1)
        if len(events) != EVENTS or np.any(np.diff(keys) <= 0) \
                or np.any(keys[pos] != ev_keys) or np.any(probs[pos] <= 0):
            errors.append("sampled events outside the table's support")
        return errors


WORKLOADS = {cls.name: cls for cls in (Reconfigure, SampleValidate, HomReconstruct, TableN5)}
