"""Reference for `qcore.standardize_triples`: the standardiser of one
triple, computed the way it was before the stacked kernel, with Python
scalars, one `BilinearForm.inner` per form product and Gram-Schmidt over
a list of basis vectors. Tests require the kernel's rows to equal it to
the bit.
"""

import numpy as np

from pseudoplateau.qcore import (ISOMETRY_ATOL, NULL_EIGENVALUE_RTOL, DegenerateTripleError,
                                 isometry_defect)


def _signature(form, vecs, tol=NULL_EIGENVALUE_RTOL):
    """The signature of span(vecs) from the eigenvalues of its Gram matrix,
    with the cutoff floored at the vectors' own scale."""
    V = np.asarray(vecs)
    eig = np.linalg.eigvalsh((V * form.signs) @ V.T)
    scale = max(np.linalg.norm(v) for v in vecs)
    cutoff = tol * max(np.max(np.abs(eig)), scale**2)
    return (int(np.sum(eig > cutoff)), int(np.sum(eig < -cutoff)),
            int(np.sum(np.abs(eig) <= cutoff)))


def _consistent_lifts(form, triple):
    """Signs of the three representatives making all pairwise products
    negative, possible exactly for a positive triple."""
    u = np.array(triple, dtype=float)
    p01 = form.inner(u[0], u[1])
    p02 = form.inner(u[0], u[2])
    if p01 == 0.0 or p02 == 0.0:
        raise DegenerateTripleError("triple contains a non-transverse pair")
    if p01 > 0:
        u[1] = -u[1]
    if p02 > 0:
        u[2] = -u[2]
    p12 = form.inner(u[1], u[2])
    if p12 == 0.0:
        raise DegenerateTripleError("triple contains a non-transverse pair")
    if p12 > 0:
        raise DegenerateTripleError("pairwise products cannot be made negative")
    return u


def _triple_frame(form, triple):
    """The orthonormal frame (e1, e2, e3) of span(triple) with e1 + e3,
    -e1/2 + sqrt(3)/2 e2 + e3 and -e1/2 - sqrt(3)/2 e2 + e3 on the lines."""
    u = _consistent_lifts(form, triple)
    p01 = form.inner(u[0], u[1])
    p02 = form.inner(u[0], u[2])
    p12 = form.inner(u[1], u[2])
    a = np.sqrt(-1.5 * p12 / (p01 * p02))
    b = -1.5 / (a * p01)
    c = -1.5 / (a * p02)
    w0, w1, w2 = a * u[0], b * u[1], c * u[2]
    e3 = (w0 + w1 + w2) / 3.0
    return np.array([w0 - e3, (w1 - w2) / np.sqrt(3.0), e3])


def _project_out(form, v, basis):
    out = v.astype(float).copy()
    for b in basis:
        out -= (form.inner(out, b) / form.q(b)) * b
    return out


def standardize_triple_reference(triple, form):
    """The matrix of the isometry carrying a positive triple onto the
    reference triple; raises DegenerateTripleError where the kernel masks
    the row out."""
    vecs = [np.asarray(t, dtype=float) for t in triple]
    sig = _signature(form, vecs)
    if sig != (2, 1, 0):
        raise DegenerateTripleError(f"not a positive triple: signature {sig}")
    basis = list(_triple_frame(form, vecs))
    for k in range(form.dim):
        if len(basis) == form.dim:
            break
        cand = np.zeros(form.dim)
        cand[k] = 1.0
        cand = _project_out(form, cand, basis)
        qc = form.q(cand)
        if abs(qc) < 1e-10:
            continue
        cand = cand / np.sqrt(abs(qc))
        if cand[np.argmax(np.abs(cand))] < 0:
            cand = -cand
        basis.append(cand)
    if len(basis) != form.dim:
        raise DegenerateTripleError("failed to complete the adapted frame to a basis")
    M = np.column_stack(basis)
    if np.linalg.det(M) < 0:
        if form.dim > 3:
            M[:, -1] = -M[:, -1]
        else:
            M = -M
    Q = form.matrix
    g = Q @ M.T @ Q
    for _ in range(2):
        E = Q @ g.T @ Q @ g - np.eye(form.dim)
        if np.max(np.abs(E)) < 1e-14:
            break
        g = g @ (np.eye(form.dim) - 0.5 * E)
    defect = isometry_defect(form, g)
    if defect > ISOMETRY_ATOL:
        raise DegenerateTripleError(f"standardizer defect {defect:.2e} exceeds tolerance")
    return g
