"""Exact exterior-algebra engine for charge-L (beta = L^2) log-gas
ensembles: hyperpfaffian partition functions, momentum structure
tables, Plucker/Toeplitz residuals, tau functions, Baker-Akhiezer wave
functions, and independent numeric oracles.
"""

from .scalars import ScaleMismatchError, Tagged, format_rational, rational, tagged
from .exterior import (
    ModelShape,
    Multivector,
    basis_blade,
    blade_weights,
    divided_wedge_power,
    fermion_vector,
    hyperpfaffian,
    omega,
    pfaffian_classical,
    star,
    superfactorial,
    wedge,
    zero_multivector,
)
from .spine import (
    StructureTable,
    ToeplitzOperator,
    adjunction_expansion,
    epsilon,
    higher_plucker_residual,
    momentum_project,
    plucker_residual,
    structure_table,
    toeplitz_residual,
)
from .ensemble import (
    MomentRangeError,
    MomentSequence,
    NamedWeight,
    correlation,
    gram_form,
    partition_function,
    r1_normalization,
)
from .tau import (
    LaurentPolynomial,
    extraction_evaluate,
    hirota_residual,
    miwa_negative_moments,
    psi_minus,
    psi_plus,
    tau,
    transport_spectrum,
)
from .oracle import (
    IntegrationReport,
    direct_interaction,
    integrate_R1,
    integrate_partition,
)

__version__ = "0.1.0"

__all__ = [
    "ModelShape",
    "Multivector",
    "MomentSequence",
    "MomentRangeError",
    "NamedWeight",
    "StructureTable",
    "ToeplitzOperator",
    "LaurentPolynomial",
    "IntegrationReport",
    "Tagged",
    "ScaleMismatchError",
    "rational",
    "tagged",
    "format_rational",
    "basis_blade",
    "zero_multivector",
    "blade_weights",
    "superfactorial",
    "wedge",
    "star",
    "divided_wedge_power",
    "hyperpfaffian",
    "pfaffian_classical",
    "fermion_vector",
    "omega",
    "epsilon",
    "momentum_project",
    "structure_table",
    "adjunction_expansion",
    "plucker_residual",
    "higher_plucker_residual",
    "toeplitz_residual",
    "gram_form",
    "partition_function",
    "correlation",
    "r1_normalization",
    "tau",
    "miwa_negative_moments",
    "psi_minus",
    "psi_plus",
    "extraction_evaluate",
    "hirota_residual",
    "transport_spectrum",
    "direct_interaction",
    "integrate_partition",
    "integrate_R1",
]
