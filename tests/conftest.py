import re

import numpy as np
import pytest

from photonlat.evolution import propagate
from photonlat.lattice import (CouplingModel, LatticeSpec, build_lattice,
                               default_heater_bank)


def make_device(seed=7, power_seed=11, n_steps=512):
    """Standard 32-mode device with random heater powers."""
    layout = build_lattice(LatticeSpec(seed=seed))
    model = CouplingModel()
    powers = np.random.default_rng(power_seed).uniform(0.0, 500.0, 16)
    bank = default_heater_bank(layout, powers)
    unitary = propagate(layout, model, bank, n_steps=n_steps)
    return layout, model, bank, unitary


@pytest.fixture(scope="session")
def device():
    return make_device()


@pytest.fixture(scope="session")
def device_unitary(device):
    return device[3].entries


def evolution_log(caplog):
    """(columns, settings, heated, fixed, max theta, p min, p max, substeps,
    G products, defect) of the one record the integrator logged."""
    [record] = [r for r in caplog.records if r.name == "photonlat.evolution"]
    caplog.clear()
    found = re.fullmatch(r"(\d+) columns carried under (\d+) settings: (\d+) heated and "
                         r"(\d+) fixed slices, max theta (\S+), Taylor order p (\d+)\.\.(\d+), "
                         r"(\d+) substeps, (\d+) real G products, column-norm defect (\S+)",
                         record.getMessage())
    return tuple(float(v) for v in found.groups())
