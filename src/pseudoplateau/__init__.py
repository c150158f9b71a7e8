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

Import names from the submodules; the package itself imports none of them,
so that `import pseudoplateau.einstein` does not load scipy.
"""

__version__ = "0.1.0"
