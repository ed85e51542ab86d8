"""Constituent-monopole calorons on R^3 x S^1.

Numerical and combinatorial toolkit for approximate instantons on the
collapsing circle: exact root-system data for all simple types, closed-form
SU(2) monopole building blocks, the gluing construction into Dirac-monopole
backgrounds, curvature/energy/holonomy diagnostics under the squashed flat
metric, and the exact index and dimension formulas.

Lazy (PEP 562): `import calorons` loads no submodule; each exported name
loads its own on first access, so the exact layers never load the field layers.
"""

import importlib

_EXPORTS = {
    "assembler": ("ApproximateCaloron", "CaloronSpec", "Constituent", "FundamentalCaloron",
                  "GluingProfile", "SingularCaloron", "alcove_exclusion_constant", "alcove_margin_report",
                  "approximate_caloron", "gluing_radius", "holonomy_shifts"),
    "errors": ("CaloronError", "ChartDomainError", "FluxAmbiguityError", "GluingInfeasibleError",
               "HolonomyParameterError", "InputError", "InvalidGroupError", "ResonanceError",
               "SingularPointError"),
    "fieldcalc": ("CurvatureSample", "FieldReport", "circle_holonomy", "curvature_at",
                  "energy_and_tr_f_wedge_f", "magnetic_charge", "sd_error_l2",
                  "sphere_averaged_holonomy"),
    "indexes": ("IndexReport", "WeightList", "adjoint_weights", "dynkin_index_su2",
                "energy_formula", "moduli_dimension", "transverse_index", "twisted_dirac_index"),
    "rootsys": ("RootDatum", "alcove_margin", "build_root_datum", "decompose_charge",
                "dynkin_index_adjoint", "parse_group_label", "random_interior_omega", "reassemble_charge",
                "su2_embedding"),
    "verify": ("run_verification",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # the next lookup skips this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
