"""Constituent-monopole calorons on R^3 x S^1.

Numerical and combinatorial toolkit for approximate instantons on the
collapsing circle: exact root-system data for all simple types, closed-form
SU(2) monopole building blocks, the gluing construction into Dirac-monopole
backgrounds, curvature/energy/holonomy diagnostics under the squashed flat
metric, and the exact index and dimension formulas.
"""

from .assembler import (
    ApproximateCaloron,
    CaloronSpec,
    Constituent,
    FundamentalCaloron,
    GluingProfile,
    SingularCaloron,
    alcove_exclusion_constant,
    alcove_margin_report,
    approximate_caloron,
    gluing_radius,
    holonomy_shifts,
)
from .errors import (
    CaloronError,
    ChartDomainError,
    FluxAmbiguityError,
    GluingInfeasibleError,
    HolonomyParameterError,
    InputError,
    InvalidGroupError,
    ResonanceError,
    SingularPointError,
    UnsupportedRepresentationError,
)
from .fieldcalc import (
    CurvatureSample,
    FieldReport,
    circle_holonomy,
    curvature_at,
    energy_and_tr_f_wedge_f,
    magnetic_charge,
    sd_error_l2,
    sphere_averaged_holonomy,
)
from .indexes import (
    IndexReport,
    WeightList,
    adjoint_weights,
    defining_weights,
    dynkin_index_su2,
    energy_formula,
    moduli_dimension,
    transverse_index,
    twisted_dirac_index,
)
from .rootsys import (
    RootDatum,
    alcove_check,
    alcove_margin,
    build_root_datum,
    decompose_charge,
    dynkin_index_adjoint,
    parse_group_label,
    random_interior_omega,
    reassemble_charge,
    su2_embedding,
)
from .su2 import (
    BPSCaloron,
    GaugeMap,
    RotatedBPSCaloron,
    bps_fields,
    hedgehog_framing,
    rotation_gauge,
)
from .verify import run_verification

__version__ = "0.1.0"
