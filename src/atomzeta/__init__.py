"""Exact arithmetic for atoms, ideal norms and restricted zeta partial sums
in quadratic integer rings (and Z itself)."""

__version__ = "0.1.0"

from atomzeta.ring import (
    FieldSpec,
    RingElement,
    canonical_associate,
    divides,
    exact_div,
    fundamental_unit,
    is_associated,
    make_field,
    rational_field,
    roots_of_unity,
)
from atomzeta.ideals import (
    Ideal,
    PrimeIdeal,
    FactoredIdeal,
    factor_ideal,
    ideal_mul,
    primes_above,
    principal_ideal,
    splitting_type,
    unit_ideal,
)
from atomzeta.classgroup import (
    AbelianGroupSpec,
    ClassGroup,
    QuadForm,
    class_group,
    class_group_structure,
    class_number,
    compose,
    davenport_constant,
    form_to_ideal,
    ideal_to_form,
    is_principal,
    reduce_form,
)
from atomzeta.atoms import (
    AtomFactorization,
    atoms_dividing,
    factor_into_atoms,
    is_atom,
    verify_norm_identity,
)
from atomzeta.series import (
    ASetSpec,
    CensusTable,
    SeriesTable,
    XSetSpec,
    asymptotic_report,
    atom_census,
    build_ideal_set,
    divergence_table,
    euler_primes_sum,
    zeta_partial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
