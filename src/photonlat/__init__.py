"""Simulator and analysis toolkit for continuously-coupled 3D photonic lattices."""

from .errors import (CapacityError, ConfigurationError, FitError,
                     InconsistentDataError, NumericalError,
                     UndefinedVisibilityError, UnderdeterminedError)
from .evolution import UnitaryMatrix, assemble_hamiltonian, propagate, unitarity_defect
from .footprint import (FootprintParams, clements_increment, clements_length,
                        compare_layouts, coupler_length, coupler_reflectivity,
                        dispersion, fan_length, group_velocity,
                        min_spread_length, sbend_length, scaling_exponents)
from .haarstats import (Histogram, column_similarity_distribution,
                        device_submatrix_ensemble,
                        ensemble_moduli_phase_histograms, gauge_fix_phases,
                        haar_columns, haar_unitary, histogram_overlap,
                        pairwise_similarities, random_heater_powers,
                        similarity)
from .interference import (FockPattern, ProbabilityTable, SampleEvent,
                           SourceWeights, distribution, enumerate_patterns,
                           output_probability, permanent, sample,
                           scattering_submatrix, spdc_branch_pattern,
                           spdc_branch_tables, spdc_mixture_table, spdc_sample,
                           spdc_weights)
from .lattice import (CouplingModel, HeaterBank, LatticeSpec, WaveguideLayout,
                      build_lattice, coupling_coefficient, default_heater_bank,
                      heater_detunings, symmetry_permutations)
from .reconstruction import (DipFit, HomDataset, ReconstructedSubmatrix,
                             default_input_pairs, default_scan_positions,
                             dip_profile, dip_residuals, fit_dip, gauge_distance,
                             hom_plateau, hom_visibility, reconstruct_moduli,
                             reconstruct_phases, refine_chi2, simulate_dip_scan,
                             simulate_hom_dataset, submatrix_rows)
from .validation import (ValidationTrace, WrongUnitaryEnsemble, normalize_trace,
                         run_distinguishable_test, run_uniform_test,
                         wrong_unitary_slope_histogram)

__version__ = "0.1.0"
