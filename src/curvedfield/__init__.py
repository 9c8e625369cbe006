"""Spectral expansions and Gaussian random fields on constant-curvature spaces.

Subpackage map:

    geometry   curvature models, f_K, shell areas
    cosmology  FLRW background quantities
    specfun    Wigner d/D, spin harmonics, radial eigenfunctions, zonal kernels
    sft        isotropic spherical Fourier transform
    randfield  scalar Gaussian field synthesis and correlation checks
    spinfield  spin-weighted fields, lensing ladder, kernel recovery
    fieldfile  binary field container
    cli        command line entry points
"""

__version__ = "0.1.0"

from .errors import (AccuracyError, ConfigError, ConvergenceError,
                     CurvedFieldError, DomainError, FieldFileError,
                     KernelDefinitenessError, SpectralLatticeError)
from .geometry import Geometry, Kind, f_K, surface_area
from .cosmology import (CosmologyParams, comoving_distance, critical_density,
                        geometry_from_params, hubble, lookback_time,
                        make_params, scale_factor)
from .specfun import (conical_legendre, eth_ladder, eth_numeric, gegenbauer,
                      radial, radial_table, spherical_bessel, spin_harmonic,
                      spin_harmonic_table, wigner_D, wigner_d, zonal_spherical)
from .sft import (RadialProfile, Spectrum, bump_profile, closed_k_lattice,
                  forward_isotropic, inverse_isotropic, parseval_constant,
                  profile_norm2, roundtrip_isotropic, spectrum_norm2, zonal_kernel)
from .randfield import (CorrelationEstimate, FieldRealization, GaussianBump,
                        PowerLaw, PowerSpectrum, SynthesisConfig, Tabulated,
                        analytic_correlation, estimate_correlation,
                        power_law_eval, synthesize)
from .spinfield import (LensingCoefficientSet, PointPairFrame, SpinFieldRealization,
                        SpinKernelSet, beta_rule, euler_frame, ladder_radicand,
                        lensing_coefficients, lensing_ladder, lensing_multiplier,
                        recover_kernels, separable_kernels, spin_correlation,
                        synthesize_spin)
from .fieldfile import FieldFile, read_field, write_field

__all__ = [
    "__version__",
    "AccuracyError", "ConfigError", "ConvergenceError", "CurvedFieldError",
    "DomainError", "FieldFileError", "KernelDefinitenessError", "SpectralLatticeError",
    "Geometry", "Kind", "f_K", "surface_area",
    "CosmologyParams", "comoving_distance", "critical_density",
    "geometry_from_params", "hubble", "lookback_time", "make_params", "scale_factor",
    "conical_legendre", "eth_ladder", "eth_numeric", "gegenbauer", "radial",
    "radial_table", "spherical_bessel", "spin_harmonic", "spin_harmonic_table",
    "wigner_D", "wigner_d", "zonal_spherical",
    "RadialProfile", "Spectrum", "bump_profile", "closed_k_lattice",
    "forward_isotropic", "inverse_isotropic", "parseval_constant",
    "profile_norm2", "roundtrip_isotropic", "spectrum_norm2", "zonal_kernel",
    "CorrelationEstimate", "FieldRealization", "GaussianBump", "PowerLaw",
    "PowerSpectrum", "SynthesisConfig", "Tabulated", "analytic_correlation",
    "estimate_correlation", "power_law_eval", "synthesize",
    "LensingCoefficientSet", "PointPairFrame", "SpinFieldRealization",
    "SpinKernelSet", "beta_rule", "euler_frame", "ladder_radicand",
    "lensing_coefficients", "lensing_ladder", "lensing_multiplier",
    "recover_kernels", "separable_kernels", "spin_correlation", "synthesize_spin",
    "FieldFile", "read_field", "write_field",
]
