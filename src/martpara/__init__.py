"""Two-weight testing constants, paraproducts and stopping decompositions on
finite uniform-arity trees."""

from .lattice import Atom, Lattice, build_lattice
from .measure import (
    Exponents,
    Measure,
    atom_averages,
    atom_integrals,
    average,
    conjugate,
    leaf_function,
    lp_norm,
)
from .martingale import (
    expectation,
    martingale_difference,
    maximal_function,
    reconstruct,
    rubio_de_francia,
    square_function,
)
from .paraproduct import (
    EdgeCoefficients,
    NonnegativeCoefficients,
    SequenceField,
    Symbol,
    bilinear_form,
    pairing,
    paraproduct_apply,
    positive_apply,
    positive_from_symbol,
    power_apply,
    project_mean_zero,
    sequence_norm,
    shifted_apply,
    vector_paraproduct,
)
from .testing import (
    adjoint_testing,
    direct_testing,
    direct_testing_symbol,
    positive_operator_testing,
)
from .normest import (
    AscentConfig,
    EquivalenceReport,
    NormEstimate,
    OperatorHandle,
    equivalence_report,
    grid_oracle_norm,
    necessity_report,
    norm_lower_bound,
)
from .stopping import (
    DecompositionReport,
    StoppingForest,
    carleson_constant,
    carleson_embedding_check,
    modified_stopping_forest,
    modified_stopping_generation,
    normalize_for_mirror,
    proof_mirror,
    split_collections,
    stopping_forest,
    stopping_generation,
)
from .counterexample import (
    CantorInstance,
    build_cantor_instance,
    chain_energy,
    direct_testing_cap,
    divergence_report,
)
from .instances import (
    Instance,
    InstanceFormatError,
    generate_random_instance,
    load_instance,
    save_instance,
)

__version__ = "0.1.0"
