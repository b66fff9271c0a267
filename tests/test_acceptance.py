"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import binomtest, chisquare, kstest

from photonlat import interference as itf
from photonlat import validation as val
from photonlat.cli import main as cli_main
from photonlat.evolution import propagate, unitarity_defect
from photonlat.footprint import (FootprintParams, clements_increment,
                                 min_spread_length, scaling_exponents)
from photonlat.haarstats import haar_unitary
from photonlat.lattice import (CouplingModel, LatticeSpec, build_lattice,
                               coupling_coefficient, default_heater_bank)
from photonlat.reconstruction import (gauge_distance, reconstruct_moduli,
                                      reconstruct_phases, refine_chi2,
                                      simulate_hom_dataset, submatrix_rows)

from oracles import naive_permanent, statevector_distribution

INPUTS4 = (11, 12, 19, 20)
INPUTS3 = INPUTS4[1:]
OUTPUTS31 = tuple(i for i in range(32) if i != 31)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_device(seed_sequence, n_steps=512):
    s_lat, s_pow = seed_sequence.spawn(2)
    layout = build_lattice(LatticeSpec(
        seed=int(s_lat.generate_state(1, dtype=np.uint64)[0])))
    powers = np.random.default_rng(s_pow).uniform(0.0, 500.0, 16)
    bank = default_heater_bank(layout, powers)
    return layout, CouplingModel(), bank, propagate(
        layout, CouplingModel(), bank, n_steps=n_steps)


def test_criterion_01_permanent_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        got = itf.permanent(a)
        want = naive_permanent(a)
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report(1, ok, f"200 permanents n in [2,7]: worst rel diff {worst:.2e} "
                  f"vs naive sum, {elapsed:.1f} s")


def test_criterion_02_unitarity_and_convergence():
    root = np.random.SeedSequence(20240202)
    worst_defect = 0.0
    worst_halving = 0.0
    for child in root.spawn(100):
        layout, model, bank, u512 = random_device(child)
        u1024 = propagate(layout, model, bank, n_steps=1024)
        worst_defect = max(worst_defect, u512.unitarity_defect,
                           u1024.unitarity_defect)
        worst_halving = max(worst_halving,
                            float(np.abs(u512.entries - u1024.entries).max()))
    # analytic two-mode coupler
    layout2 = build_lattice(LatticeSpec(rows=1, cols=2, pitch=11.0,
                                        max_shift=0.0, seed=0))
    bank2 = default_heater_bank(layout2, np.zeros(16))
    model = CouplingModel()
    u2 = propagate(layout2, model, bank2, n_steps=64)
    c = coupling_coefficient(11.0, model)
    coupler_err = abs(abs(u2.entries[0, 1]) ** 2 - math.sin(c * 36.0) ** 2)
    ok = worst_defect <= 1e-9 and worst_halving <= 1e-8 and coupler_err <= 1e-10
    report(2, ok, f"100 devices: max defect {worst_defect:.2e}, max step-halving "
                  f"change {worst_halving:.2e}, coupler error {coupler_err:.2e}")


def test_criterion_03_brute_force_distribution():
    u = haar_unitary(6, rng_seed=33).entries
    inp = itf.FockPattern((1, 1, 1, 0, 0, 0))
    table = itf.distribution(u, inp, collision_free=False)
    oracle = statevector_distribution(u, inp.occupations)
    worst = max(abs(table.probs[k] - oracle[table.pattern(k).occupations])
                for k in range(len(table.probs)))
    total_err = abs(table.total_mass - 1.0)
    ok = len(table.probs) == 56 and worst <= 1e-10 and total_err <= 1e-9
    report(3, ok, f"m=6 n=3: 56 outcomes, worst |Delta p| {worst:.2e} vs "
                  f"state-vector evolution, mass error {total_err:.2e}")


def test_criterion_04_hom_identities():
    worst_vis = 0.0
    worst_plateau = 0.0
    iu, ju = np.triu_indices(32, k=1)
    for seed in range(50):
        u = haar_unitary(32, rng_seed=1000 + seed).entries
        rho, theta = np.abs(u), np.angle(u)
        h, k = 11, 19
        a = rho[iu, h] ** 2 * rho[ju, k] ** 2 + rho[ju, h] ** 2 * rho[iu, k] ** 2
        amp = u[iu, h] * u[ju, k] + u[ju, h] * u[iu, k]
        v1 = (a - np.abs(amp) ** 2) / a
        quad = theta[iu, h] + theta[ju, k] - theta[ju, h] - theta[iu, k]
        v2 = -(2 * rho[iu, h] * rho[ju, k] * rho[ju, h] * rho[iu, k] / a) * np.cos(quad)
        worst_vis = max(worst_vis, float(np.abs(v1 - v2).max()))
        subs = np.abs(u[np.stack([iu, ju], axis=1)[:, :, None],
                        np.array([h, k])[None, None, :]]) ** 2
        d = itf._permanent_batch(subs).real
        worst_plateau = max(worst_plateau, float(np.abs(a - d).max()))
    ok = worst_vis <= 1e-12 and worst_plateau <= 1e-12
    report(4, ok, f"50 unitaries x 496 pairs: visibility expressions agree to "
                  f"{worst_vis:.2e}, plateau vs distinguishable to {worst_plateau:.2e}")


def test_criterion_05_reconstruction_round_trip():
    t0 = time.time()
    root = np.random.SeedSequence(505)
    worst_mod = worst_phase = 0.0
    worst_noisy_mod = worst_noisy_phase = 0.0
    for rep, child in enumerate(root.spawn(15)):
        _, _, _, um = random_device(child)
        u = um.entries
        truth = submatrix_rows(u, INPUTS3)

        ds, _ = simulate_hom_dataset(u, INPUTS3)
        moduli = reconstruct_moduli(ds)
        refined = refine_chi2(reconstruct_phases(ds, moduli), ds)
        mr, pr = gauge_distance(refined, truth)
        worst_mod, worst_phase = max(worst_mod, mr), max(worst_phase, pr)

        ds, _ = simulate_hom_dataset(u, INPUTS3, rng_seed=rep,
                                     mean_plateau_counts=1e4)
        moduli = reconstruct_moduli(ds)
        refined = refine_chi2(reconstruct_phases(ds, moduli), ds)
        rel = np.median(np.abs(moduli - np.abs(truth)) / np.abs(truth))
        _, prn = gauge_distance(refined, truth)
        worst_noisy_mod = max(worst_noisy_mod, float(rel))
        worst_noisy_phase = max(worst_noisy_phase, prn)
    elapsed = time.time() - t0
    ok = (worst_mod < 1e-6 and worst_phase < 1e-6
          and worst_noisy_mod < 0.03 and worst_noisy_phase < 0.1
          and elapsed < 300.0)
    report(5, ok, f"15 devices, 2 input pairs: noiseless RMSE (moduli {worst_mod:.2e}, "
                  f"phases {worst_phase:.2e} rad); 1% noise (median moduli "
                  f"{worst_noisy_mod:.4f}, phases {worst_noisy_phase:.4f} rad); "
                  f"{elapsed:.0f} s")


def test_criterion_06_validation_separation():
    root = np.random.SeedSequence(606)
    reps = 50
    z_pass = 0
    slopes_ok = True
    dist_p_ok = True
    for child in root.spawn(reps):
        s_dev, s_bs, s_dist, s_ens = child.spawn(4)
        _, _, _, um = random_device(s_dev)
        u = um.entries
        pattern = itf.FockPattern.from_modes(INPUTS3, 32)
        table = itf.distribution(u, pattern, outputs=OUTPUTS31)
        events = itf.sample(table, int(s_bs.generate_state(1, dtype=np.uint64)[0]), 300)
        w = val.run_uniform_test(events, u, 31)
        c = val.run_distinguishable_test(events, u)
        slopes_ok &= w.slope > 0 and c.slope > 0
        ens_w = val.wrong_unitary_slope_histogram(events, u, "uniform", 31,
                                                  200, s_ens)
        ens_c = val.wrong_unitary_slope_histogram(events, u, "distinguishable",
                                                  31, 200, s_ens)
        if ens_w.z_score > 3 and ens_c.z_score > 3:
            z_pass += 1
        # the p < 1e-3 bound on distinguishable streams is a >= 1e3-event
        # claim: at 300 events the binomial test cannot reach it reliably
        d_table = itf.distribution(u, pattern, statistics="distinguishable",
                                   outputs=OUTPUTS31)
        d_events = itf.sample(d_table, int(s_dist.generate_state(1, dtype=np.uint64)[0]), 1000)
        c_d = val.run_distinguishable_test(d_events, u)
        ups = int((np.diff(np.concatenate([[0], c_d.counters])) == 1).sum())
        p_val = binomtest(ups, c_d.n_events, 0.5, alternative="less").pvalue
        dist_p_ok &= c_d.slope < 0 and p_val < 1e-3
    ok = slopes_ok and dist_p_ok and z_pass >= 0.95 * reps
    report(6, ok, f"{reps} reps x 300 events: all true-U slopes positive "
                  f"({slopes_ok}), z > 3 in {z_pass}/{reps}, distinguishable "
                  f"streams negative with p < 1e-3 ({dist_p_ok})")


def test_criterion_07_haar_statistics():
    m, n_samples = 32, 1000
    mean_sq = 0.0
    phases = []
    moduli_sq = []
    for s in range(n_samples):
        u = haar_unitary(m, rng_seed=7000 + s).entries
        mean_sq += (np.abs(u) ** 2).mean()
        phases.append(np.angle(u).ravel())
        moduli_sq.append((np.abs(u) ** 2).ravel())
    mean_sq /= n_samples
    stderr = (1.0 / m) / math.sqrt(n_samples * m * m / 2.0)
    mean_ok = abs(mean_sq - 1.0 / m) < 3 * stderr

    phases = np.concatenate(phases)
    ks = kstest(phases, "uniform", args=(-math.pi, 2 * math.pi))
    ks_ok = ks.pvalue > 0.01

    x = np.concatenate(moduli_sq)
    edges = np.linspace(0.0, 1.0, 101)
    counts, _ = np.histogram(x, bins=edges)
    cdf = 1.0 - (1.0 - edges) ** (m - 1)
    expected = np.diff(cdf) * len(x)
    keep = expected >= 10
    f_obs = np.append(counts[keep], counts[~keep].sum())
    f_exp = np.append(expected[keep], expected[~keep].sum())
    chi = chisquare(f_obs, f_exp * f_obs.sum() / f_exp.sum())
    chi_ok = chi.pvalue > 0.01
    ok = mean_ok and ks_ok and chi_ok
    report(7, ok, f"1000 Haar samples: E|U|^2 = {mean_sq:.6f} (1/32 +- 3se: "
                  f"{mean_ok}), phase KS p = {ks.pvalue:.3f}, moduli chi2 p = "
                  f"{chi.pvalue:.3f}")


def test_criterion_08_footprint_numbers():
    t0 = time.time()
    inc = clements_increment(30.0, 0.06, 1.0)
    inc_ok = abs(inc - 4.55) <= 0.1
    planar = min_spread_length("linear", 32, 0.2)
    planar_ok = planar == 80.0
    tri = min_spread_length("triangular", 32, 0.2, b=2.0)
    tri_ok = abs(tri - 14.1) < 0.1 and 7.5 <= tri <= 22.5   # "order of 15 mm"
    slope_clem, slope_tri = scaling_exponents(FootprintParams())
    slopes_ok = abs(slope_clem - 1.0) <= 0.02 and abs(slope_tri - 0.5) <= 0.02
    elapsed = time.time() - t0
    ok = inc_ok and planar_ok and tri_ok and slopes_ok and elapsed < 1.0
    report(8, ok, f"increment {inc:.3f} mm/mode, planar L_m {planar:.0f} mm, "
                  f"triangular L_m {tri:.1f} mm, slopes ({slope_clem:.3f}, "
                  f"{slope_tri:.3f}), {elapsed * 1000:.0f} ms")


def test_criterion_09_spdc_model():
    r = 1.7
    w = itf.spdc_weights(r)
    weights_ok = (w.alpha, w.beta, w.gamma) == (r, r * r, 1.0)

    u = haar_unitary(6, rng_seed=99).entries
    inputs = (0, 1, 2, 3)
    mix = itf.spdc_mixture_table(u, w, inputs)
    oracle = np.zeros_like(mix.probs)
    for wt, branch in zip(w.normalized, itf.SPDC_BRANCHES):
        pat = itf.spdc_branch_pattern(branch, inputs, 6)
        dist = statevector_distribution(u, pat.occupations)
        for k in range(len(mix.probs)):
            oracle[k] += wt * dist[mix.pattern(k).occupations]
    mix_err = float(np.abs(mix.probs - oracle).max())

    u32 = haar_unitary(32, rng_seed=98).entries
    events = itf.spdc_sample(u32, w, "indistinguishable", 909, 100000, INPUTS4)
    counts = {b: 0 for b in itf.SPDC_BRANCHES}
    for ev in events:
        counts[ev.branch] += 1
    freq_ok = all(
        abs(counts[b] - 1e5 * p) <= 3 * math.sqrt(1e5 * p * (1 - p))
        for b, p in zip(itf.SPDC_BRANCHES, w.normalized))
    ok = weights_ok and mix_err <= 1e-10 and freq_ok
    report(9, ok, f"weights (R, R^2, 1) exact: {weights_ok}, mixture vs "
                  f"weighted branch sum {mix_err:.2e}, branch counts within "
                  f"3 sigma: {freq_ok}")


def test_criterion_10_cli_reproducibility(tmp_path):
    config = {
        "seed": 4242,
        "evolution": {"n_steps": 192},
        "sampling": {"count": 100},
        "haar": {"n_matrices": 5, "columns": 30},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    def run_all(tag):
        base = tmp_path / tag
        outputs = {}
        assert cli_main(["simulate", "--config", str(cfg),
                         "--out", str(base / "sim")]) == 0
        unitary = base / "sim" / "unitary.json"
        assert cli_main(["sample", "--config", str(cfg), "--unitary",
                         str(unitary), "--out", str(base / "smp")]) == 0
        samples = base / "smp" / "samples.jsonl"
        assert cli_main(["reconstruct", "--config", str(cfg), "--unitary",
                         str(unitary), "--out", str(base / "rec")]) == 0
        assert cli_main(["validate", "--config", str(cfg), "--unitary",
                         str(unitary), "--samples", str(samples),
                         "--out", str(base / "val"), "--test", "uniform",
                         "--ensemble", "25"]) == 0
        assert cli_main(["haar", "--config", str(cfg),
                         "--out", str(base / "haar")]) == 0
        assert cli_main(["footprint", "--config", str(cfg),
                         "--out", str(base / "fp")]) == 0
        for sub in ("sim", "smp", "rec", "val", "haar", "fp"):
            for f in sorted((base / sub).iterdir()):
                outputs[f"{sub}/{f.name}"] = f.read_bytes()
        return outputs

    first = run_all("run1")
    second = run_all("run2")
    identical = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first)
    report(10, identical,
           f"all 6 subcommands, {len(first)} files byte-identical across reruns")
