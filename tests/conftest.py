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


_PASS_RECORD = re.compile(r"(\d+) columns carried under (\d+) settings: (\d+) heated and "
                          r"(\d+) fixed slices, max theta (\S+), Taylor order p (\d+)\.\.(\d+), "
                          r"(\d+) substeps, (\d+) real G products, column-norm defect (\S+)")
_BUILD_RECORD = re.compile(r"chip built from (\d+) CF4 steps: (\d+) heated and (\d+) fixed "
                           r"slices, (\d+) runs, (\d+) bytes kept \(heated G and K\), "
                           r"largest block (\d+) steps holding (\d+) bytes")


def _one_record(caplog, pattern):
    """The numbers of the one integrator record that ``pattern`` matches."""
    found = [pattern.fullmatch(r.getMessage()) for r in caplog.records
             if r.name == "photonlat.evolution"]
    [found] = [f for f in found if f]
    return tuple(float(v) for v in found.groups())


def evolution_log(caplog):
    """(columns, settings, heated, fixed, max theta, p min, p max, substeps,
    G products, defect) of the one pass the integrator logged; clears the
    records."""
    found = _one_record(caplog, _PASS_RECORD)
    caplog.clear()
    return found


def build_log(caplog):
    """(steps, heated, fixed, runs, bytes kept, block steps, block bytes) of
    the one chip build the integrator logged."""
    return _one_record(caplog, _BUILD_RECORD)
