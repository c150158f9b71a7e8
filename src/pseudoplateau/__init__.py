"""Computational geometry of the pseudo-hyperbolic space H^{2,n}, its
Einstein boundary, and maximal spacelike surfaces spanning boundary loops.

Submodules:
    qcore        linear algebra over the signature-(2, n+1) form
    einstein     boundary points, positivity, charts, loops, crowns
    crossratio   cross-ratios, quasisymmetry certification, contraction
    hspace       points, distances, horofunctions, analytic surfaces
    plateau      disk meshes and the discrete Plateau solver
    diagnostics  quantitative audits of solved surfaces
    cli          command-line driver
"""

from .qcore import BilinearForm, Isometry, SubspaceSignature, subspace_signature
from .einstein import (
    BarbotCrown,
    LipschitzLoop,
    barbot_crown_standard,
    loop_classify,
    loop_load,
    loop_save,
)
from .hspace import HPoint, Horofunction, spatial_distance
from .plateau import DiskMesh, SurfaceState, build_state, plateau_solve

__all__ = [
    "BilinearForm",
    "Isometry",
    "SubspaceSignature",
    "subspace_signature",
    "BarbotCrown",
    "LipschitzLoop",
    "barbot_crown_standard",
    "loop_classify",
    "loop_load",
    "loop_save",
    "HPoint",
    "Horofunction",
    "spatial_distance",
    "DiskMesh",
    "SurfaceState",
    "build_state",
    "plateau_solve",
]
__version__ = "0.1.0"
