"""Simulator and analysis toolkit for continuously-coupled 3D photonic lattices.

The top level exports the error classes, the names of the library quick
start in README.md, and the SPDC source weights; everything else lives in
its submodule.
"""

from .errors import (CapacityError, ConfigurationError, FitError,
                     InconsistentDataError, NumericalError, UnderdeterminedError)
from .evolution import propagate
from .interference import FockPattern, distribution, sample, spdc_weights
from .lattice import CouplingModel, LatticeSpec, build_lattice, default_heater_bank
from .reconstruction import (gauge_distance, reconstruct_moduli, reconstruct_phases,
                             refine_chi2, simulate_hom_dataset, submatrix_rows)
from .validation import run_distinguishable_test, wrong_unitary_slope_histogram

__version__ = "0.1.0"
