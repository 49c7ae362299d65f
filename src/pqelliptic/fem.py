"""Structured simplicial meshes, P1 assembly, multigrid transfers and
discrete norms.

Meshes are uniform tensor grids on an axis-aligned box.  One table,
SIMPLICES, holds a row per dimension: how a cell splits into simplices
(looked up by the parity of the cell's index on each axis), the quadrature
rule, exact for quadratics, and the red refinement of a simplex.  Mesh
build, assembly and the norms read that row and do not branch on the
dimension; the table has rows for 1D (a testing device) and 2D.

Every element is a translate of one of a few class simplices, one per
parity class of its cell and simplex within the cell.  The elements are
stored sorted by class, so a class is a slice of them with one gradient
matrix G (nv, dim) and one measure, kept once per class.  Element kernels
and evaluations at quadrature points (rhs, data bracket, MMS errors) run
over chunks of at most JACOBIAN_CHUNK elements of one class, one matrix
product per chunk, with no whole-mesh (E, nv) or (E, nq, ...) temporary.
Assembly integrates the weak form

    R_j = int a(x, u_h, Du_h) . grad(phi_j) dx + int b phi_j dx

with the quadrature rule; its Jacobian takes dflux_dxi and, unless the
operator declares its radial pair (dflux_du = 0, see operators), dflux_du.
Inner products of long vectors are :func:`_inner`, numpy's pairwise sum,
so results do not depend on the BLAS thread count.  The interior CSR
sparsity pattern is read from
the mesh table, without a sort: which neighbours a node couples to depends
only on its parity class.  It is built once per mesh, at its first matrix
assembly, and kept on the mesh; every matrix is then summed into it one
chunk of element blocks at a time (:func:`scatter_matrix`).

The meshes nest: every other node of a mesh with an odd node count on each
axis is the mesh of (n + 1) / 2 nodes per axis, and each of its simplices
is a union of fine ones, so P1 interpolation from it is exact.
:func:`prolongations` builds these interpolations once per mesh, down to a
small coarsest level, for the multigrid solver.  Second derivatives are
measured by nodal second difference quotients, which are well-defined on
the tensor grid.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError, QuadratureFailure
from .operators import Box, _sq

#: Elements per chunk of every element kernel: temporaries then scale with the
#: chunk, not the mesh, and stay out of the peak memory of a large solve.
JACOBIAN_CHUNK = 16384


#: The elements of one class, a slice of the mesh's elements, with the
#: gradients (dim+1, dim) of their barycentric coordinates and their measure.
ElementClass = namedtuple("ElementClass", "elements grads area")


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
    classes: list = field(default=None, repr=False)  # ElementClass per class
    centroids: np.ndarray = field(default=None, repr=False)
    quad_bary: np.ndarray = field(default=None, repr=False)   # (nq, dim+1)
    quad_frac: np.ndarray = field(default=None, repr=False)   # (nq,)
    quad_points: np.ndarray = field(default=None, repr=False)  # (E, nq, dim)
    interior: np.ndarray = field(default=None, repr=False)
    full_to_interior: np.ndarray = field(default=None, repr=False)
    pattern: tuple = field(default=None, repr=False)  # see _matrix_pattern
    transfers: list = field(default=None, repr=False)  # see prolongations
    # (where, kind, size) -> read-only mask, see region_mask
    region_masks: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def node_grid(self, values: np.ndarray) -> np.ndarray:
        """Reshape a nodal vector to the tensor grid layout."""
        return np.asarray(values).reshape(self.shape)

    def to_dict(self) -> dict:
        return {"dim": self.dim, "box": self.box.to_dict(),
                "nodes_per_axis": list(self.shape)}

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


def _interior_numbering(shape) -> np.ndarray:
    """Index of each node of a tensor grid among its interior nodes, in C
    order; -1 on the boundary."""
    index = np.indices(shape).reshape(len(shape), -1)
    boundary = ((index == 0) | (index == np.array(shape)[:, None] - 1)).any(0)
    numbering = np.full(boundary.size, -1, dtype=np.int64)
    numbering[~boundary] = np.arange(np.count_nonzero(~boundary))
    return numbering


def mesh_shape(dim: int, nodes_per_axis) -> tuple:
    """The nodes per axis of a mesh of ``dim``, one count for every axis or
    one per axis.  MeshError for a dimension without a row of SIMPLICES,
    fewer than 3 nodes on an axis, or 3**dim * nodes >= 2**31, past the
    int32 indices of the matrix pattern."""
    if dim not in SIMPLICES:
        raise MeshError(f"no mesh for dim {dim}; dims {sorted(SIMPLICES)} "
                        "are supported")
    if np.isscalar(nodes_per_axis):
        shape = (int(nodes_per_axis),) * dim
    else:
        shape = tuple(int(v) for v in nodes_per_axis)
    if len(shape) != dim or any(s < 3 for s in shape):
        raise MeshError("need at least 3 nodes per axis")
    if 3 ** dim * math.prod(shape) >= 2 ** 31:
        raise MeshError(f"{shape} nodes are too many: 3**dim * nodes >= 2**31")
    return shape


def build_mesh(dim: int, box, nodes_per_axis) -> Mesh:
    """Uniform tensor-grid mesh, its cells split by the dimension's row of
    SIMPLICES.  A shape that :func:`mesh_shape` refuses is refused before
    anything is allocated."""
    if box.dim != dim:
        raise MeshError(f"box dimension {box.dim} != mesh dimension {dim}")
    shape = mesh_shape(dim, nodes_per_axis)
    split = SIMPLICES[dim]

    nodes = box.lattice(shape)
    grid = nodes.reshape(*shape, dim)
    h = grid[(1,) * dim] - grid[(0,) * dim]
    full_to_interior = _interior_numbering(shape)

    # every element is a translate of one of the few class simplices, so
    # gradients and areas are computed once per class
    local = split.corners * h                    # (classes, S, dim+1, dim)
    edges = local[..., 1:, :] - local[..., :1, :]
    class_areas = np.abs(np.linalg.det(edges)) / math.factorial(dim)
    if np.any(class_areas <= 0):
        raise MeshError("element with nonpositive area")
    g = np.swapaxes(np.linalg.inv(edges), -1, -2)
    class_grads = np.concatenate([-g.sum(axis=-2, keepdims=True), g], axis=-2)

    # cells in C order; elements sorted stably by class: the parity class of
    # their cell, then the simplex within the cell
    cells = np.indices([s - 1 for s in shape]).reshape(dim, -1).T
    parity = np.ravel_multi_index(tuple((cells % 2).T), (2,) * dim)
    vertices, slices, stop = [], [], 0
    for c, corners in enumerate(split.corners):
        cell = cells[parity == c]
        for corner in corners:
            vertices.append(np.ravel_multi_index(
                tuple(np.moveaxis(cell[:, None, :] + corner, -1, 0)), shape))
            slices.append(slice(stop, stop + len(cell)))
            stop += len(cell)
    elements = np.concatenate(vertices)
    class_grads = class_grads.reshape(-1, dim + 1, dim)
    class_areas = class_areas.ravel()
    classes = [ElementClass(*k) for k in zip(slices, class_grads, class_areas)]

    # one axis at a time, with no (E, nv, dim) array of vertex coordinates
    quad_points = np.empty((len(elements), len(split.quad_bary), dim))
    centroids = np.empty((len(elements), dim))
    for d in range(dim):
        x = nodes[:, d][elements]                # (E, nv)
        quad_points[..., d] = x @ split.quad_bary.T
        centroids[:, d] = x.mean(axis=1)

    return Mesh(dim=dim, box=box, shape=shape, nodes=nodes,
                elements=elements, boundary_mask=full_to_interior < 0, h=h,
                areas=np.repeat(class_areas, [len(v) for v in vertices]),
                classes=classes, centroids=centroids,
                quad_bary=split.quad_bary, quad_frac=split.quad_frac,
                quad_points=quad_points,
                interior=np.flatnonzero(full_to_interior >= 0),
                full_to_interior=full_to_interior)


#: Coarsening stops at a level with at most this many nodes on every axis;
#: that level is factored.
COARSEST_NODES = 9

#: One step of a mesh's coarsening hierarchy: the P1 prolongation P from the
#: interior nodes of the coarser level (of ``shape`` nodes per axis) to those
#: of the finer one, and its transpose, both CSR.
Transfer = namedtuple("Transfer", "P PT shape")


def _prolongation(split: Simplices, fine: tuple, coarse: tuple):
    """P1 interpolation from the coarse grid to the fine grid of 2n - 1 nodes
    per axis, restricted to interior rows and columns.

    The fine node 2c + a, a in {0,1}^dim, is the midpoint of the edge of
    coarse cell c whose corner offsets sum to a: the coarse node c itself
    when a = 0.  Each fine node takes half of each end of that edge."""
    import scipy.sparse as sp
    dim = len(fine)
    ends = np.zeros((2 ** dim, 2 ** dim, 2, dim), dtype=np.int64)
    for parity, simplices in enumerate(split.corners):
        for simplex in simplices:
            for i, j in itertools.combinations(range(dim + 1), 2):
                a = simplex[i] + simplex[j]
                if a.max() <= 1:
                    ends[parity, np.ravel_multi_index(a, (2,) * dim)] = (
                        simplex[i], simplex[j])
    f = np.indices(fine).reshape(dim, -1)
    c, a = f // 2, f % 2
    key = tuple(np.ravel_multi_index(tuple(v), (2,) * dim) for v in (c % 2, a))
    ends = c.T[:, None, :] + ends[key]                       # (Nf, 2, dim)
    rows = np.repeat(_interior_numbering(fine), 2)
    cols = _interior_numbering(coarse)[np.ravel_multi_index(
        tuple(np.moveaxis(ends, -1, 0)), coarse).ravel()]
    keep = (rows >= 0) & (cols >= 0)
    P = sp.csr_matrix((np.full(np.count_nonzero(keep), 0.5),
                       (rows[keep], cols[keep])),
                      shape=(rows.max() + 1, cols.max() + 1))
    return P, P.T.tocsr()


def prolongations(mesh: Mesh) -> list:
    """The Transfers from the mesh down to its coarsest level, built once and
    kept on the mesh.  A level is coarsened while every axis has an odd node
    count of at least 5 and some axis more than COARSEST_NODES; a mesh that
    cannot be coarsened has none."""
    if mesh.transfers is None:
        transfers, shape = [], mesh.shape
        while (all(n % 2 and n >= 5 for n in shape)
               and max(shape) > COARSEST_NODES):
            coarse = tuple((n + 1) // 2 for n in shape)
            transfers.append(Transfer(
                *_prolongation(SIMPLICES[mesh.dim], shape, coarse), coarse))
            shape = coarse
        mesh.transfers = transfers
    return mesh.transfers


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


def assert_dirichlet(U: DiscreteField) -> None:
    if np.any(U.values[U.mesh.boundary_mask] != 0.0):
        raise MeshError("field violates the homogeneous Dirichlet invariant")


def _chunks(mesh: Mesh, points: int = 1):
    """(class, slice) over all elements in order, each of at most
    JACOBIAN_CHUNK / ``points`` elements, the points a kernel evaluates."""
    size = max(1, JACOBIAN_CHUNK // points)
    for k in mesh.classes:
        for lo in range(k.elements.start, k.elements.stop, size):
            yield k, slice(lo, min(lo + size, k.elements.stop))


def element_gradients(U: DiscreteField) -> np.ndarray:
    """Piecewise-constant gradient per element, shape (E, dim)."""
    m = U.mesh
    out = np.empty((m.n_elements, m.dim))
    for k, e in _chunks(m):
        np.matmul(U.values[m.elements[e]], k.grads, out=out[e])
    return out


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by numpy's pairwise sum: the same bits under any BLAS
    thread count, where np.dot, @ and np.linalg.norm of long vectors are
    BLAS calls whose sums differ in their last bits between thread counts."""
    return float(np.add.reduce(a * b))


def _b_at_quad(mesh: Mesh, b_field) -> np.ndarray:
    """Right-hand side at quadrature points (E, nq), chunk by chunk from a
    callable b(x) or a nodal array (its P1 interpolant), or (E, nq) as is."""
    bq = None if callable(b_field) else np.asarray(b_field, float)
    if bq is None or bq.shape == (mesh.n_nodes,):
        nodal, bq = bq, np.empty(mesh.quad_points.shape[:2])
        for _, e in _chunks(mesh):
            v = (b_field(mesh.quad_points[e]) if nodal is None
                 else nodal[mesh.elements[e]] @ mesh.quad_bary.T)
            try:
                bq[e] = v
            except ValueError:
                raise MeshError("rhs does not match the mesh") from None
    elif bq.shape != mesh.quad_points.shape[:2]:
        raise MeshError("rhs table does not match the mesh")
    if not np.all(np.isfinite(bq)):
        raise QuadratureFailure("non-finite rhs at a quadrature point")
    return bq


def _matrix_pattern(mesh: Mesh) -> tuple:
    """(indptr, indices, slot, transpose) of the interior CSR pattern, all
    int32, built once and kept on the mesh.  The index arrays are read-only
    and shared by every matrix; ``slot`` sends each (E, nv, nv) block entry
    to its nonzero, or to the extra slot nnz if it touches a boundary node.
    The pattern is structurally symmetric, so ``transpose`` sends nonzero k
    at (i, j) to the nonzero at (j, i): J.T has the data J.data[transpose]
    on the same pattern.

    Nothing is sorted: the pattern is read from the mesh table.  An interior
    node couples to the node at offset s in {-1, 0, 1}^dim when the two
    share a simplex, which depends only on the node's parity class.  Listed
    by ascending offset, in C order, a row's couplings are its columns in
    ascending order, and the offset -s is the reversed index of s."""
    if mesh.pattern is None:
        dim, nv = mesh.dim, mesh.dim + 1
        corners = SIMPLICES[dim].corners                   # (C, S, nv, dim)
        # class offsets from vertex v to vertex w, as an index into 3^dim
        step = corners[..., None, :, :] - corners[..., :, None, :] + 1
        offset = np.ravel_multi_index(np.moveaxis(step, -1, 0), (3,) * dim)
        # parity class of each vertex: its cell's parity plus its corner
        cell = np.indices((2,) * dim).reshape(dim, -1).T[:, None, None, :]
        parity = np.ravel_multi_index(
            np.moveaxis((cell + corners) % 2, -1, 0), (2,) * dim)
        couples = np.zeros((2 ** dim, 3 ** dim), bool)
        couples[np.broadcast_to(parity[..., None], offset.shape),
                offset] = True

        # (interior nodes x 3^dim), on the grid of interior nodes: the
        # neighbour's interior index, and whether the node couples to it
        inner = tuple(n - 2 for n in mesh.shape)
        ni, width = math.prod(inner), 3 ** dim
        grid = np.indices(inner, np.int32).reshape(dim, -1)
        shift = np.indices((3,) * dim, np.int32).reshape(dim, -1) - 1
        mask = couples[np.ravel_multi_index((grid + 1) % 2, (2,) * dim)]
        for g, s, n in zip(grid[:, :, None], shift, inner):
            mask &= (g + s >= 0) & (g + s < n)
        strides = np.cumprod((1,) + inner[:0:-1], dtype=np.int32)[::-1]
        col = np.arange(ni, dtype=np.int32)[:, None] + (strides @ shift)
        nnz = np.count_nonzero(mask)
        # the nonzero at each (row, offset), nnz where there is none; an
        # extra last row of nnz answers the row index -1 of a boundary node
        nonzero = np.full((ni + 1, width), nnz, np.int32)
        nonzero[:-1][mask] = np.arange(nnz, dtype=np.int32)
        indptr = np.zeros(ni + 1, np.int32)
        np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
        indices = col[mask]
        # (i, s) -> (i + s, -s); an offset without a nonzero reads row ni
        col[~mask] = ni
        transpose = nonzero[:, ::-1][col, np.arange(width)][mask]

        slot = np.empty(mesh.elements.shape + (nv,), np.int32)
        for k, off in zip(mesh.classes, offset.reshape(-1, nv, nv)):
            row = mesh.full_to_interior[mesh.elements[k.elements]]
            slot[k.elements] = nonzero[row[:, :, None], off]
        pattern = (indptr, indices, slot.ravel(), transpose)
        for a in pattern:
            a.flags.writeable = False
        mesh.pattern = pattern
    return mesh.pattern


def scatter_matrix(mesh: Mesh, blocks) -> sp.csr_matrix:
    """Interior matrix summed into the mesh's fixed CSR pattern from
    ``blocks``, pairs (slice of the elements, their blocks (n, nv * nv)) in
    element order: each nonzero adds its terms in the order of the mesh."""
    # scipy is imported where a matrix is first built, not with the package:
    # pq check, estimates and report never build one and skip its load time
    import scipy.sparse as sp
    indptr, indices, slot, _ = _matrix_pattern(mesh)
    slot = slot.reshape(mesh.n_elements, -1)
    data = np.zeros(indices.size + 1)
    for e, block in blocks:  # 1-D operands take np.add.at's fast path
        np.add.at(data, slot[e].ravel(), block.ravel())
    return sp.csr_matrix((data[:-1], indices, indptr),
                         shape=(indptr.size - 1,) * 2)


def scatter_vector(mesh: Mesh, contribs) -> np.ndarray:
    """Interior vector summed as in :func:`scatter_matrix` from ``contribs``,
    pairs (slice of the elements, their contributions (n, nv))."""
    total = np.zeros(mesh.n_nodes)
    for e, c in contribs:  # 1-D operands take np.add.at's fast path
        np.add.at(total, mesh.elements[e].ravel(), c.ravel())
    return total[mesh.interior]


# Element kernels run per chunk of one class: the class's gradients G (nv, dim)
# and measure are constants there, so each integral over its elements is one
# matrix product of the quadrature-point values with a small constant matrix.

def _at_quad(values: np.ndarray, n: int, nq: int) -> np.ndarray:
    """(n, nq, ...) values, broadcast along the quadrature axis if they do
    not vary on it, as rows of one matrix (n, nq * ...)."""
    return np.broadcast_to(values, (n, nq) + values.shape[2:]).reshape(n, -1)


def _loads(mesh: Mesh, b_field):
    """(class, slice, area * int b phi_v (n, nv)) per chunk of elements."""
    bq = _b_at_quad(mesh, b_field)
    for k, e in _chunks(mesh):
        # K[q, v] = area frac_q phi_v(q)
        yield k, e, bq[e] @ (k.area * mesh.quad_frac[:, None] * mesh.quad_bary)


def assemble_residual(mesh: Mesh, op, b_field, U: DiscreteField) -> np.ndarray:
    """R_j = int a(x,u_h,Du_h).grad(phi_j) + int b phi_j, interior j only."""
    nq, nv = mesh.quad_bary.shape

    def contribs():
        for k, e, c in _loads(mesh, b_field):
            ve = U.values[mesh.elements[e]]
            aq = op.flux(mesh.quad_points[e], ve @ mesh.quad_bary.T,
                         (ve @ k.grads)[:, None, :])
            if not np.all(np.isfinite(aq)):
                raise QuadratureFailure(
                    "non-finite flux at a quadrature point")
            # K[(q, i), v] = area frac_q G[v, i]: sum_q area frac_q a_q.grad_v
            K = k.area * mesh.quad_frac[:, None, None] * k.grads.T
            c += _at_quad(aq, len(ve), nq) @ K.reshape(-1, nv)
            yield e, c
    return scatter_vector(mesh, contribs())


def assemble_jacobian(mesh: Mesh, op, U: DiscreteField) -> sp.csr_matrix:
    """J = dR/dU over interior nodes, from dflux_dxi and dflux_du, evaluated
    and scattered one chunk of elements at a time.  An operator that declares
    its radial pair has dflux_du = 0, which is neither evaluated nor added."""
    nq, nv = mesh.quad_bary.shape

    def blocks():
        for k, e in _chunks(mesh):
            # K_J[(q, i, j), (v, w)] = area frac_q G[v, i] G[w, j] and
            # K_u[(q, i), (v, w)] = area frac_q G[v, i] phi_w(q)
            frac, GT = k.area * mesh.quad_frac, k.grads.T
            K_J = (frac[:, None, None, None, None] * GT[:, None, :, None]
                   * GT[None, :, None, :]).reshape(-1, nv * nv)
            ve, x = U.values[mesh.elements[e]], mesh.quad_points[e]
            xi = (ve @ k.grads)[:, None, :]
            uq = ve @ mesh.quad_bary.T
            Jq = op.dflux_dxi(x, uq, xi)                      # (n,nq,d,d)
            au = None if op.radial else op.dflux_du(x, uq, xi)  # (n,nq,d)
            if not (np.all(np.isfinite(Jq))
                    and (au is None or np.all(np.isfinite(au)))):
                raise QuadratureFailure(
                    "non-finite derivative at a quadrature point")
            block = _at_quad(Jq, len(ve), nq) @ K_J
            if au is not None:
                K_u = (frac[:, None, None, None] * GT[:, :, None]
                       * mesh.quad_bary[:, None, None, :]).reshape(-1, nv * nv)
                block += _at_quad(au, len(ve), nq) @ K_u
            yield e, block
    return scatter_matrix(mesh, blocks())


# ---------------------------------------------------------------------------
# masks

def region_mask(mesh: Mesh, where: str, kind: str, size: float) -> np.ndarray:
    """Read-only mask of the ``where`` ("elements", by centroid, or "nodes")
    in the region ``kind``: "interior", at least ``size`` from the boundary,
    or "ball", within ``size`` of the box centre.  Computed once per mesh
    and key: a continuation run reads its interior masks, and an estimate
    report its balls, at every eps step.  An empty interior, or a ball with
    no element centroid, is a MeshError; a ball of nodes may be empty."""
    key = (where, kind, size)
    if key not in mesh.region_masks:
        x = mesh.centroids if where == "elements" else mesh.nodes
        if kind == "interior":
            lo, hi = np.asarray(mesh.box.lo), np.asarray(mesh.box.hi)
            mask = np.minimum(x - lo, hi - x).min(axis=-1) >= size
            if not mask.any():
                raise MeshError(f"delta leaves no interior {where}")
        else:
            mask = np.sqrt(_sq(x - np.asarray(mesh.box.center))) <= size
            if where == "elements" and not mask.any():
                raise MeshError("ball contains no element centroid")
        mask.flags.writeable = False
        mesh.region_masks[key] = mask
    return mesh.region_masks[key]


def interior_element_mask(mesh: Mesh, delta: float) -> np.ndarray:
    if not 0.0 < delta < 0.5 * float(np.min(mesh.box.widths)):
        raise MeshError("delta must lie in (0, half the box width)")
    return region_mask(mesh, "elements", "interior", delta)


# ---------------------------------------------------------------------------
# norms

def lp_gradient_norm(U: DiscreteField, p: float) -> float:
    """||Du_h||_{L^p}: exact elementwise integral of the P1 gradient."""
    g = np.sqrt(_sq(element_gradients(U)))
    return float(np.sum(U.mesh.areas * g ** p) ** (1.0 / p))


def linf_gradient_interior(U: DiscreteField, delta: float) -> float:
    """max |Du_h| over elements whose centroid is >= delta from the boundary."""
    mask = interior_element_mask(U.mesh, delta)
    g = np.sqrt(_sq(element_gradients(U)))
    return float(g[mask].max())


def linf_norm_interior(U: DiscreteField, delta: float) -> float:
    mask = region_mask(U.mesh, "nodes", "interior", delta)
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
    return h2_seminorm(U, node_mask=region_mask(U.mesh, "nodes", "interior",
                                                delta))


def w12_distance(U: DiscreteField, V: DiscreteField) -> float:
    """||u_h - v_h||_{W^{1,2}}: the L^2 part by the element quadrature rule,
    filled chunk by chunk, the gradient part exactly."""
    D = DiscreteField(U.mesh, U.values - V.values)
    m, l2 = D.mesh, np.empty(D.mesh.n_elements)
    for _, e in _chunks(m):
        dq = D.values[m.elements[e]] @ m.quad_bary.T
        l2[e] = np.abs(dq) ** 2.0 @ m.quad_frac
    l2 = _inner(m.areas, l2) ** (1.0 / 2.0)
    return float(np.hypot(l2, lp_gradient_norm(D, 2.0)))

