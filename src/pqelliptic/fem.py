"""Structured simplicial meshes, P1 assembly and discrete norms.

Meshes are uniform tensor grids on an axis-aligned box.  One table,
SIMPLICES, holds a row per dimension: how a cell splits into simplices
(looked up by the parity of the cell's index on each axis), the quadrature
rule, exact for quadratics, and the red refinement of a simplex.  Mesh
build, assembly and the norms read that row and do not branch on the
dimension; the table has rows for 1D (a testing device) and 2D.  Assembly
integrates the weak form

    R_j = int a(x, u_h, Du_h) . grad(phi_j) dx + int b phi_j dx

with that quadrature rule.  The interior CSR sparsity pattern is built
once per mesh, at its first matrix assembly, and kept on the mesh; every
matrix is then one ``np.bincount`` into that pattern.  Second derivatives
are measured by nodal second difference quotients, which are well-defined
on the tensor grid.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError, QuadratureFailure
from .operators import Box, _sq

#: Elements per chunk of the Jacobian kernel: its temporaries then scale with
#: the chunk, not the mesh, and stay out of the peak memory of a large solve.
JACOBIAN_CHUNK = 16384


@dataclass
class Mesh:
    dim: int
    box: Box
    shape: tuple                 # nodes per axis
    nodes: np.ndarray            # (N, dim)
    elements: np.ndarray         # (E, dim+1) vertex indices
    boundary_mask: np.ndarray    # (N,) bool
    h: np.ndarray                # spacing per axis
    # precomputed assembly data
    areas: np.ndarray = field(default=None, repr=False)
    grads: np.ndarray = field(default=None, repr=False)       # (E, dim+1, dim)
    centroids: np.ndarray = field(default=None, repr=False)
    quad_bary: np.ndarray = field(default=None, repr=False)   # (nq, dim+1)
    quad_frac: np.ndarray = field(default=None, repr=False)   # (nq,)
    quad_points: np.ndarray = field(default=None, repr=False)  # (E, nq, dim)
    interior: np.ndarray = field(default=None, repr=False)
    full_to_interior: np.ndarray = field(default=None, repr=False)
    pattern: tuple = field(default=None, repr=False)  # see _matrix_pattern

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def node_grid(self, values: np.ndarray) -> np.ndarray:
        """Reshape a nodal vector to the tensor grid layout."""
        return np.asarray(values).reshape(self.shape)

    def boundary_distance_nodes(self) -> np.ndarray:
        lo = np.asarray(self.box.lo)
        hi = np.asarray(self.box.hi)
        return np.minimum(self.nodes - lo, hi - self.nodes).min(axis=-1)

    def boundary_distance_centroids(self) -> np.ndarray:
        lo = np.asarray(self.box.lo)
        hi = np.asarray(self.box.hi)
        return np.minimum(self.centroids - lo,
                          hi - self.centroids).min(axis=-1)

    def to_dict(self, include_arrays: bool = False) -> dict:
        d = {"dim": self.dim, "box": self.box.to_dict(),
             "nodes_per_axis": list(self.shape)}
        if include_arrays:
            d["nodes"] = self.nodes.tolist()
            d["elements"] = self.elements.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Mesh":
        return build_mesh(d["dim"], Box.from_dict(d["box"]),
                          tuple(d["nodes_per_axis"]))


#: A row of the mesh table.  ``corners[c][s]`` holds the cell-corner offsets
#: of the vertices of simplex ``s``, in element vertex order, for a cell of
#: parity class ``c``: its index modulo 2 on each axis, numbered in C order.
#: ``quad_bary`` and ``quad_frac`` are the quadrature rule, exact for
#: quadratics: barycentric points and weights as fractions of the simplex
#: measure.  ``children`` are the 2**dim children of one red refinement, as
#: the barycentric coordinates of their vertices.
Simplices = namedtuple("Simplices", "corners quad_bary quad_frac children")
_GAUSS = 0.5 / np.sqrt(3.0)
_EVEN = [[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]]
_ODD = [[(0, 0), (1, 0), (0, 1)], [(1, 0), (1, 1), (0, 1)]]

#: The mesh table, one row per dimension: segments in 1D; in 2D two right
#: triangles per cell, with the diagonal 00-11 in cells of even i + j and
#: 10-01 in the others.
SIMPLICES = {
    1: Simplices(
        corners=np.array([[[[0], [1]]]] * 2),
        quad_bary=np.array([[0.5 + _GAUSS, 0.5 - _GAUSS],
                            [0.5 - _GAUSS, 0.5 + _GAUSS]]),  # 2-point Gauss
        quad_frac=np.array([0.5, 0.5]),
        children=np.array([[[1.0, 0.0], [0.5, 0.5]],
                           [[0.5, 0.5], [0.0, 1.0]]])),
    2: Simplices(
        corners=np.array([_EVEN, _ODD, _ODD, _EVEN]),
        quad_bary=np.array([[0.5, 0.5, 0.0],
                            [0.0, 0.5, 0.5],
                            [0.5, 0.0, 0.5]]),  # edge midpoints
        quad_frac=np.full(3, 1.0 / 3.0),
        children=np.array([[[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]],
                           [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]],
                           [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]],
                           [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]])),
}


def build_mesh(dim: int, box, nodes_per_axis) -> Mesh:
    """Uniform tensor-grid mesh, its cells split by the dimension's row of
    SIMPLICES."""
    if isinstance(box, dict):
        box = Box.from_dict(box)
    if box.dim != dim:
        raise MeshError(f"box dimension {box.dim} != mesh dimension {dim}")
    split = SIMPLICES.get(dim)
    if split is None:
        raise MeshError(f"no mesh for dim {dim}; dims {sorted(SIMPLICES)} "
                        "are supported")
    if np.isscalar(nodes_per_axis):
        shape = (int(nodes_per_axis),) * dim
    else:
        shape = tuple(int(v) for v in nodes_per_axis)
    if len(shape) != dim or any(s < 3 for s in shape):
        raise MeshError("need at least 3 nodes per axis")

    nodes = box.lattice(shape)
    grid = nodes.reshape(*shape, dim)
    h = grid[(1,) * dim] - grid[(0,) * dim]
    index = np.indices(shape).reshape(dim, -1)
    boundary = ((index == 0) | (index == np.array(shape)[:, None] - 1)).any(0)

    # cells in C order, each split into the simplices of its parity class
    cells = np.indices([s - 1 for s in shape]).reshape(dim, -1).T
    parity = np.ravel_multi_index(tuple((cells % 2).T), (2,) * dim)
    vertices = cells[:, None, None, :] + split.corners[parity]
    elements = np.ravel_multi_index(tuple(np.moveaxis(vertices, -1, 0)),
                                    shape).reshape(-1, dim + 1)

    # every element is a translate of one of the few class simplices, so
    # gradients and areas are computed once per class and gathered
    local = split.corners * h                    # (classes, S, dim+1, dim)
    edges = local[..., 1:, :] - local[..., :1, :]
    class_areas = np.abs(np.linalg.det(edges)) / math.factorial(dim)
    if np.any(class_areas <= 0):
        raise MeshError("element with nonpositive area")
    g = np.swapaxes(np.linalg.inv(edges), -1, -2)
    class_grads = np.concatenate([-g.sum(axis=-2, keepdims=True), g], axis=-2)
    areas = class_areas[parity].ravel()
    grads = class_grads[parity].reshape(-1, dim + 1, dim)

    coords = nodes[elements]                     # (E, dim+1, dim)
    centroids = coords.mean(axis=1)
    quad_points = np.einsum("qv,evd->eqd", split.quad_bary, coords)
    interior = np.flatnonzero(~boundary)
    full_to_interior = np.full(nodes.shape[0], -1, dtype=np.int64)
    full_to_interior[interior] = np.arange(interior.size)

    return Mesh(dim=dim, box=box, shape=shape, nodes=nodes,
                elements=elements, boundary_mask=boundary, h=h,
                areas=areas, grads=grads, centroids=centroids,
                quad_bary=split.quad_bary, quad_frac=split.quad_frac,
                quad_points=quad_points, interior=interior,
                full_to_interior=full_to_interior)


# ---------------------------------------------------------------------------
# fields

@dataclass
class DiscreteField:
    """Nodal coefficient vector on a mesh.

    Solver entry points require homogeneous Dirichlet values (use
    :func:`assert_dirichlet`); norm and measurement routines accept any
    nodal data, e.g. interpolants of non-vanishing exact solutions.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise MeshError(
                f"values shape {self.values.shape} does not match mesh "
                f"({self.mesh.n_nodes} nodes)")

    def copy(self) -> "DiscreteField":
        return DiscreteField(self.mesh, self.values.copy())


def zero_field(mesh: Mesh) -> DiscreteField:
    return DiscreteField(mesh, np.zeros(mesh.n_nodes))


def field_from_interior(mesh: Mesh, interior_values) -> DiscreteField:
    vals = np.zeros(mesh.n_nodes)
    vals[mesh.interior] = interior_values
    return DiscreteField(mesh, vals)


def interpolate(mesh: Mesh, f, zero_boundary: bool = False) -> DiscreteField:
    vals = np.asarray(f(mesh.nodes), float)
    if zero_boundary:
        vals = vals.copy()
        vals[mesh.boundary_mask] = 0.0
    return DiscreteField(mesh, vals)


def assert_dirichlet(U: DiscreteField) -> None:
    if np.any(U.values[U.mesh.boundary_mask] != 0.0):
        raise MeshError("field violates the homogeneous Dirichlet invariant")


def element_gradients(U: DiscreteField) -> np.ndarray:
    """Piecewise-constant gradient per element, shape (E, dim)."""
    m = U.mesh
    return np.einsum("evd,ev->ed", m.grads, U.values[m.elements])


def _b_at_quad(mesh: Mesh, b_field) -> np.ndarray:
    """Right-hand side at quadrature points (E, nq) from a callable b(x), a
    nodal array (through the P1 interpolant) or (E, nq) values as they are."""
    bq = np.asarray(b_field(mesh.quad_points) if callable(b_field)
                    else b_field, float)
    if bq.shape == (mesh.n_nodes,):
        bq = np.einsum("qv,ev->eq", mesh.quad_bary, bq[mesh.elements])
    elif bq.shape != mesh.quad_points.shape[:2]:
        raise MeshError("rhs table does not match the mesh")
    if not np.all(np.isfinite(bq)):
        raise QuadratureFailure("non-finite rhs at a quadrature point")
    return bq


def _matrix_pattern(mesh: Mesh) -> tuple:
    """(indptr, indices, slot) of the interior CSR pattern, built once and
    kept on the mesh.  The index arrays are scipy's own, read-only, and
    shared by every matrix; ``slot`` sends each (E, nv, nv) block entry to
    its nonzero, or to the extra slot nnz if it touches a boundary node."""
    # scipy is imported where a matrix is first built, not with the package:
    # pq check, estimates and report never build one and skip its load time
    import scipy.sparse as sp
    if mesh.pattern is None:
        row = mesh.full_to_interior[mesh.elements][:, :, None]
        col = row.transpose(0, 2, 1)
        ni = mesh.interior.size
        keep = ((row >= 0) & (col >= 0)).ravel()
        keys, kept_slot = np.unique((row * ni + col).ravel()[keep],
                                    return_inverse=True)
        slot = np.full(keep.size, keys.size)
        slot[keep] = kept_slot
        template = sp.csr_matrix(
            (np.zeros(keys.size), keys % ni,
             np.searchsorted(keys, np.arange(ni + 1) * ni)), shape=(ni, ni))
        for a in (template.indptr, template.indices, slot):
            a.flags.writeable = False
        mesh.pattern = (template.indptr, template.indices, slot)
    return mesh.pattern


def scatter_matrix(mesh: Mesh, block: np.ndarray) -> sp.csr_matrix:
    """Interior matrix summed from element blocks (E, nv, nv) into the
    mesh's fixed CSR pattern."""
    import scipy.sparse as sp
    indptr, indices, slot = _matrix_pattern(mesh)
    data = np.bincount(slot, weights=block.ravel(),
                       minlength=indices.size + 1)[:-1]
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)


def scatter_vector(mesh: Mesh, contrib: np.ndarray) -> np.ndarray:
    """Interior vector summed from element contributions (E, nv)."""
    total = np.bincount(mesh.elements.ravel(), weights=contrib.ravel(),
                        minlength=mesh.n_nodes)
    return total[mesh.interior]


def load_contributions(mesh: Mesh, bq: np.ndarray) -> np.ndarray:
    """area * int b phi_v per element (E, nv), from b at the quadrature
    points (E, nq)."""
    return mesh.areas[:, None] * np.einsum(
        "eq,qv->ev", bq, mesh.quad_frac[:, None] * mesh.quad_bary)


def assemble_residual(mesh: Mesh, op, b_field, U: DiscreteField) -> np.ndarray:
    """R_j = int a(x,u_h,Du_h).grad(phi_j) + int b phi_j, interior j only."""
    vals = U.values
    xi = np.einsum("evd,ev->ed", mesh.grads, vals[mesh.elements])
    uq = vals[mesh.elements] @ mesh.quad_bary.T
    aq = op.flux(mesh.quad_points, uq, xi[:, None, :])
    if not np.all(np.isfinite(aq)):
        raise QuadratureFailure("non-finite flux at a quadrature point")
    bq = _b_at_quad(mesh, b_field)
    # area * (sum_q frac_q a_q) . grad_v, as grad_v is constant per element
    a_mean = np.einsum("q,eqd->ed", mesh.quad_frac, aq)
    flux_part = np.einsum("e,evd,ed->ev", mesh.areas, mesh.grads, a_mean)
    return scatter_vector(mesh, flux_part + load_contributions(mesh, bq))


def assemble_jacobian(mesh: Mesh, op, U: DiscreteField) -> sp.csr_matrix:
    """J = dR/dU over interior nodes, from dflux_dxi and dflux_du, evaluated
    over JACOBIAN_CHUNK elements at a time."""
    vals = U.values
    phi = mesh.quad_frac[:, None] * mesh.quad_bary
    block = np.empty((mesh.n_elements, mesh.dim + 1, mesh.dim + 1))
    for lo in range(0, mesh.n_elements, JACOBIAN_CHUNK):
        e = slice(lo, lo + JACOBIAN_CHUNK)
        G, ve, x = mesh.grads[e], vals[mesh.elements[e]], mesh.quad_points[e]
        xi = np.einsum("evd,ev->ed", G, ve)[:, None, :]
        uq = ve @ mesh.quad_bary.T
        Jq = op.dflux_dxi(x, uq, xi)                          # (E,nq,d,d)
        au = op.dflux_du(x, uq, xi)                           # (E,nq,d)
        if not (np.all(np.isfinite(Jq)) and np.all(np.isfinite(au))):
            raise QuadratureFailure(
                "non-finite derivative at a quadrature point")
        # P1 gradients are constant per element, so the block is
        # area * G ((sum_q frac_q Jq) G^T + sum_q frac_q au_q (x) phi(q))
        J_mean = np.einsum("q,eqij->eij", mesh.quad_frac, Jq)
        # stacked matmul: einsum's optimized path copies au, raising peak memory
        au = np.broadcast_to(au, (*uq.shape, mesh.dim)).transpose(0, 2, 1)
        np.multiply(mesh.areas[e, None, None],
                    G @ (J_mean @ G.transpose(0, 2, 1) + au @ phi),
                    out=block[e])
    return scatter_matrix(mesh, block)


# ---------------------------------------------------------------------------
# masks

def interior_element_mask(mesh: Mesh, delta: float) -> np.ndarray:
    if not 0.0 < delta < 0.5 * float(np.min(mesh.box.widths)):
        raise MeshError("delta must lie in (0, half the box width)")
    mask = mesh.boundary_distance_centroids() >= delta
    if not mask.any():
        raise MeshError("delta leaves no interior elements")
    return mask


def ball_element_mask(mesh: Mesh, center, radius: float) -> np.ndarray:
    d = np.sqrt(_sq(mesh.centroids - np.asarray(center)))
    mask = d <= radius
    if not mask.any():
        raise MeshError("ball contains no element centroid")
    return mask


def ball_node_mask(mesh: Mesh, center, radius: float) -> np.ndarray:
    d = np.sqrt(_sq(mesh.nodes - np.asarray(center)))
    return d <= radius


# ---------------------------------------------------------------------------
# norms

def lp_gradient_norm(U: DiscreteField, p: float,
                     element_mask=None) -> float:
    """||Du_h||_{L^p}: exact elementwise integral of the P1 gradient."""
    m = U.mesh
    g = np.sqrt(_sq(element_gradients(U)))
    areas = m.areas
    if element_mask is not None:
        g = g[element_mask]
        areas = areas[element_mask]
    return float(np.sum(areas * g ** p) ** (1.0 / p))


def lp_norm(U: DiscreteField, p: float) -> float:
    """||u_h||_{L^p} by the element quadrature rule."""
    m = U.mesh
    uq = np.einsum("qv,ev->eq", m.quad_bary, U.values[m.elements])
    val = np.einsum("e,q,eq->", m.areas, m.quad_frac, np.abs(uq) ** p)
    return float(val ** (1.0 / p))


def linf_gradient_interior(U: DiscreteField, delta: float) -> float:
    """max |Du_h| over elements whose centroid is >= delta from the boundary."""
    mask = interior_element_mask(U.mesh, delta)
    g = np.sqrt(_sq(element_gradients(U)))
    return float(g[mask].max())


def linf_norm_interior(U: DiscreteField, delta: float) -> float:
    mask = U.mesh.boundary_distance_nodes() >= delta
    if not mask.any():
        raise MeshError("delta leaves no interior nodes")
    return float(np.abs(U.values[mask]).max())


def h2_seminorm(U: DiscreteField, node_mask=None) -> float:
    """Discrete W^{2,2} seminorm from nodal second difference quotients.

    |D^2 u|^2 at a node sums the squared pure quotients plus twice the
    squared mixed quotient of each pair of axes (Frobenius norm of the
    Hessian); each node
    contributes its cell measure prod(h).  Only index-interior nodes have
    the needed neighbors; ``node_mask`` further restricts the set.
    """
    m = U.mesh
    G = m.node_grid(U.values)
    cell = float(np.prod(m.h))

    def near(A, offset):
        """A on the index-interior nodes, moved by ``offset`` nodes."""
        return A[tuple(slice(1 + o, n - 1 + o) for o, n in zip(offset, A.shape))]

    e, h = np.eye(m.dim, dtype=int), m.h
    here = 0 * e[0]
    pure = [(near(G, e[i]) - 2.0 * near(G, here) + near(G, -e[i])) / h[i] ** 2
            for i in range(m.dim)]
    mixed = [(near(G, e[i] + e[j]) - near(G, e[i] - e[j])
              - near(G, e[j] - e[i]) + near(G, -e[i] - e[j])) / (4 * h[i] * h[j])
             for i in range(m.dim) for j in range(i + 1, m.dim)]
    dens = sum(d ** 2 for d in pure) + sum(2.0 * d ** 2 for d in mixed)
    mask = np.ones(dens.shape, bool)
    if node_mask is not None:
        mask &= near(m.node_grid(node_mask), here)
    if not mask.any():
        raise MeshError("no nodes available for the second difference quotients")
    return float(np.sqrt(cell * dens[mask].sum()))


def h2_seminorm_interior(U: DiscreteField, delta: float) -> float:
    mask = U.mesh.boundary_distance_nodes() >= delta
    return h2_seminorm(U, node_mask=mask)


def w12_norm(U: DiscreteField) -> float:
    return float(np.hypot(lp_norm(U, 2.0), lp_gradient_norm(U, 2.0)))


def w12_distance(U: DiscreteField, V: DiscreteField) -> float:
    return w12_norm(DiscreteField(U.mesh, U.values - V.values))


def gradient_weight_integral(U: DiscreteField, exponent: float,
                             element_mask=None) -> float:
    """int (1 + |Du_h|^2)^(exponent/2) dx over the (masked) elements."""
    m = U.mesh
    t = _sq(element_gradients(U))
    areas = m.areas
    if element_mask is not None:
        t = t[element_mask]
        areas = areas[element_mask]
    return float(np.sum(areas * (1.0 + t) ** (exponent / 2.0)))
