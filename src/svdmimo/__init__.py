"""Blind subspace-projection receivers for cellular massive MIMO, with
random-matrix eigenvalue-spectrum analysis and Monte Carlo BER experiments."""

from .bulk_support import (BulkInterval, RegimeError, SupportEstimate,
                           bilateral_supports_general, bilateral_supports_highsnr,
                           interference_scale_factors, noise_scale_factors,
                           quartic_extremes, s1_inverse, s1_supports, separability_boundary,
                           separability_boundary_ratio, support_estimates,
                           unilateral_intervals, unilateral_separable, unilateral_supports)
from .montecarlo import (BerPoint, ExperimentConfig, SpectrumResult, ber_vs_IP, ber_vs_R,
                         spectrum_experiment, write_ber_csv, write_spectrum_csv)
from .numerics import bisect, poly_roots
from .rmt_spectrum import (FixedPointParams, SpectralDensity, StieltjesSolverError,
                           StieltjesValue, density_from_stieltjes, empirical_spectrum,
                           stieltjes_solve)
from .subspace_receiver import (conventional_receiver, count_bit_errors, detect_subspace,
                                estimate_projected_channel, project, signal_subspace)
from .system_model import (LIGHT_SPEED, ChannelRealization, InterferenceProfile, PilotConfig,
                           RadioParams, SystemParams, assemble_received, coherence_symbols,
                           interference_profile, make_pilots, sample_realization)

__version__ = "0.1.0"
