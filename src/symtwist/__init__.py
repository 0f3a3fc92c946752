"""Exact-arithmetic toolkit for symplectic spinor calculus.

Everything runs over Gaussian rationals: the polynomial spinor model with
its symplectic Clifford multiplication, the five-operator algebra on
spinor-valued exterior forms, spectral component projectors, the twistor
symbol maps with a constructive exactness checker, and the symplectic
Ricci/Weyl curvature split.
"""

from .curvature import (
    CurvatureTensor,
    InvalidCurvatureError,
    RicciTensor,
    is_ricci_type,
    random_ricci_type,
    ricci_contract,
    sigma_tilde,
    weyl_part,
)
from .forms import FormWindow, SpinorForm, contract, wedge
from .linalg import OperatorMatrix, kernel_basis, rank, solve
from .osp import (
    chain_model,
    component_basis,
    component_scalar,
    edge_basis,
    edge_projector,
    project_wedge,
)
from .scalars import Scalar
from .spinors import clifford_apply, commutator_defect
from .symbols import check_complex, check_exactness, symbol_apply
from .symplectic import Covector, SymplecticSpace, canonical_covector, sharp, standard_space

__version__ = "0.1.0"
