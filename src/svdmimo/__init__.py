"""Blind subspace-projection receivers for cellular massive MIMO, with
random-matrix eigenvalue-spectrum analysis and Monte Carlo BER experiments."""

from .bulk_support import (BulkInterval, RegimeError, ScaleFactors, SupportEstimate,
                           appendixB_scale_verification, bilateral_supports_general,
                           bilateral_supports_highsnr, bilateral_validity,
                           interference_scale_factors, noise_scale_factors,
                           quartic_extremes, rho0_zero_supports, s1_inverse, s1_supports,
                           s2_inverse_highsnr, separability_boundary,
                           separability_boundary_ratio, unilateral_intervals,
                           unilateral_separable, unilateral_supports)
from .montecarlo import (BerPoint, ExperimentConfig, SpectrumResult, ber_vs_IP, ber_vs_R,
                         spectrum_experiment, write_ber_csv, write_spectrum_csv)
from .numerics import Polynomial, bisect, poly_roots
from .rmt_spectrum import (FixedPointParams, SpectralDensity, StieltjesSolverError,
                           StieltjesValue, density_from_stieltjes, empirical_spectrum,
                           mp_density, noise_bulk_max_power, snr_lower_bound, stieltjes_solve)
from .subspace_receiver import (BeamformerVector, ProjectedChannel, SubspaceBasis,
                                conventional_receiver, count_bit_errors, detect_subspace,
                                estimate_projected_channel, matched_filter_principal,
                                project, signal_subspace, slice_qpsk)
from .system_model import (LIGHT_SPEED, ChannelRealization, DerivedParams,
                           InterferenceProfile, PilotConfig, RadioParams, SystemParams,
                           assemble_received, coherence_symbols, derive_params,
                           interference_profile, make_pilots, sample_realization)

__version__ = "0.1.0"
