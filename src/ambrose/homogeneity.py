"""Derivative towers, stabilizer chains, the Singer-type invariant, adapted
connections, and the local homogeneity / local symmetry criteria.

A section is a tuple of fields; a connection's is its torsion and
curvature (T, R). A torsion-free connection, the Levi-Civita one, has T = 0
at every order, so its section is R alone and its tower is its curvature
tower, the one Singer's condition reads. A tower holds the levels of
chart_calculus.frame_levels, from one Taylor jet per point of the section,
the connection and the bundle form: each level is the covariant derivative
of the one below, on jets one order lower, so no level is
finite-differenced; the triple criteria are level 1 of the same levels.
Tower entries are expressed in the Cholesky orthonormal frame at the base
point, so group actions on them are orthogonal and norms are
gauge-invariant. The adapted connection is built in the same frames from
the tower alone, as the Ambrose-Singer construction builds it: its shift
beta is the least-squares solution of the equations that make every entry
through the Singer stage parallel, and each residual is a frame-indexed
covariant derivative plus the action of beta.

The construction needs the stabilizer h of the tower and an ad(h)-invariant
complement of it. The inner product is ad-invariant, checked where
AdInvariantInner is built, so the orthogonal complement of h is invariant
as soon as h is closed under the bracket: <[X, Y], Z> = -<Y, [X, Z]> = 0
for X, Z in h and Y orthogonal to h (Tricerri and Vanhecke, LMS Lecture
Notes 83, 1983). So the stabilizer chain records each level's closure
residual beside its nesting angle, and the adapted connection checks the
closure at the Singer stage and needs no basis of the complement.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import jet
from .bundle_conn import LocalConnectionForm, curvature_form_field, form_difference
from .chart_calculus import (
    CHUNK,
    ConnectionCoeffs,
    MetricField,
    TensorFieldSpec,
    curvature_field,
    frame_levels,
    levi_civita,
    max_nabla_norms,
    nan_max,
    ortho_frame,
    torsion_field,
)
from .errors import (
    AxisMismatch,
    BadParameters,
    DepthMismatch,
    NotReductive,
    NumericalFailure,
    RepMismatch,
)
from .lie_core import (
    ANGLE_TOL,
    AdInvariantInner,
    TensorRep,
    _held,
    action_rows,
    kernel_spectra,
    skew_exp,
    skew_function,
    stacked_action_matrix,
    subalgebra_residuals,
)
from .tensor_core import (
    DOWN,
    LIE,
    DenseTensor,
    OrthoFrame,
    axis_action,
    point_norms,
    to_frames,
)

# a batch of towers, as frame_levels gives it: levels 0..kmax, each a list of
# (markers, data), one per field, data of shape (P, dims...)
Levels = list[list[tuple[tuple[str, ...], np.ndarray]]]

KMAX_START = 2
KMAX_CAP = 4
# orbit_match: accepted relative residual, random starts, Levenberg-Marquardt
# iterations per start, the damping's start and floor, and the relative
# decrease of the squared residual below which a start has stalled. A start
# also ends when a trial fails to lower a squared residual that is already
# below 0.01 * MATCH_TOL**2, the floor at which the search accepts a match:
# there only rounding moves it.
MATCH_TOL = 1e-6
MATCH_STARTS = 16
LM_ITERS = 100
LM_DAMPING = (1e-3, 1e-9)
STALL = 1e-3

# flags that fail a report whatever its residuals
BAD_FLAGS = ("ambiguous", "truncated", "dims-vary", "singer-varies", "hypotheses-failed",
             "numerical-failure")

# Every report's residual keys with their default tolerances, by scenario.
# total-space's nabla_R, nabla_T, nabla_F and alpha_parallel are the
# hypotheses of its criteria.
TOLERANCES = {
    "singer": {"nesting_angle": 1e-6, "subalgebra": 1e-7},
    "adapt": {"nabla_beta": 1e-5, "nabla_tower": 1e-5},
    "check-lh-triple": dict.fromkeys(("nabla_R", "nabla_T", "nabla_F", "nabla_alpha"), 1e-5),
    "check-ls-triple": dict.fromkeys(("nabla_Rg", "nabla_F0"), 1e-5),
    "total-space": {
        **dict.fromkeys(("nabla_R", "nabla_T", "nabla_F", "alpha_parallel"), 1e-6),
        **dict.fromkeys(("nabla_bar_T", "nabla_bar_R", "distribution"), 1e-5),
    },
    "identities": dict.fromkeys(
        ("nabla_g", "bianchi_first", "bianchi_second", "curvature_variation",
         "connection_variation", "leibniz"), 1e-6),
}


@dataclass(frozen=True)
class DerivativeTower:
    """Iterated covariant derivatives of a section, frame-expressed at x."""

    point: np.ndarray
    frame: OrthoFrame
    kmax: int
    entries: tuple[tuple[DenseTensor, ...], ...]

    def up_to(self, depth: int) -> list[DenseTensor]:
        if depth >= len(self.entries):
            raise DepthMismatch(f"tower has entries up to {len(self.entries) - 1}, need {depth}")
        return [t for entry in self.entries[: depth + 1] for t in entry]

    def levels(self) -> Levels:
        """The tower as a batch of one, in frame_levels' layout."""
        return [[(t.markers, t.data[None]) for t in entry] for entry in self.entries]


@dataclass(frozen=True)
class StabilizerChain:
    """Nested stabilizer subalgebras of the tower entries: bases[k] spans
    h(k), nesting[k] is the largest principal angle between h(k + 1) and
    h(k), 0.0 where either is empty, and subalgebra[k] is the largest part
    of a bracket of two basis vectors of h(k) that leaves h(k), 0.0 where
    h(k) is closed."""

    bases: tuple[np.ndarray, ...]
    dims: tuple[int, ...]
    nesting: tuple[float, ...]
    subalgebra: tuple[float, ...]
    singer_k: int | None
    flags: tuple[str, ...]


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    theta: np.ndarray | None
    residual: float
    reason: str = ""


@dataclass(frozen=True)
class VerificationReport:
    scenario: str
    fixture: str
    points: np.ndarray
    residuals: dict[str, float]
    tolerances: dict[str, float]
    passed: bool
    stabilizer_dims: tuple[int, ...] | None = None
    singer_k: int | None = None
    flags: tuple[str, ...] = ()


def verdict(residuals: dict[str, float], tolerances: dict[str, float],
            flags: tuple[str, ...] | list[str] = ()) -> bool:
    """Pass iff every residual is below its tolerance (NaN is not) and no
    flag is in BAD_FLAGS."""
    return (all(residuals[k] < tolerances[k] for k in tolerances)
            and not any(f in BAD_FLAGS for f in flags))


def make_report(scenario: str, fixture: str, points: np.ndarray,
                residuals: dict[str, float],
                flags: tuple[str, ...] | list[str] = (),
                stabilizer_dims: tuple[int, ...] | None = None,
                singer_k: int | None = None) -> VerificationReport:
    """The scenario's report: each residual gets its default tolerance from
    TOLERANCES, and ``passed`` is the verdict on them and the flags."""
    tolerances = {k: TOLERANCES[scenario][k] for k in residuals}
    return VerificationReport(
        scenario=scenario,
        fixture=fixture,
        points=points,
        residuals=residuals,
        tolerances=tolerances,
        passed=verdict(residuals, tolerances, flags),
        stabilizer_dims=stabilizer_dims,
        singer_k=singer_k,
        flags=tuple(flags),
    )


def build_tower(sigma: tuple[TensorFieldSpec, ...], b0: LocalConnectionForm | None,
                gamma0: ConnectionCoeffs, g: MetricField, x: np.ndarray,
                kmax: int, frame: OrthoFrame | None = None) -> DerivativeTower:
    """The derivative tower of the section sigma at the single point x:
    frame_levels 0..kmax on a batch of one, under Gamma0 and ad(b0) on LIE
    axes, in g's Cholesky orthonormal frame or in the frame given."""
    x = np.asarray(x, float)
    stacks = None if frame is None else (frame.coframe[None], frame.frame[None])
    levels = frame_levels(sigma, b0, gamma0, g, x[None], kmax, stacks)
    # the tuples from lists (see jet.einsum)
    return DerivativeTower(x, ortho_frame(g, x) if frame is None else frame, kmax, tuple(
        [tuple([DenseTensor(m, data[0]) for m, data in lv]) for lv in levels]))


def stabilizer_chain(tower: DerivativeTower, rep: TensorRep) -> StabilizerChain:
    """The tower's stabilizer chain: stabilizer_chains on a batch of one."""
    return stabilizer_chains(tower.levels(), rep)[0]


def stabilizer_chains(levels: Levels, rep: TensorRep) -> list[StabilizerChain]:
    """The stabilizer chain at each point of a batch of towers, the levels
    of frame_levels: h(k) is the kernel of the stacked action matrix over
    the entries of levels 0..k, which is not held. Each entry's action rows
    are built for as many points as keep them within jet.PRODUCT_BLOCK
    elements (sliced over leading tensor axes where one point's exceed it)
    and folded into the points' stacked R factors, at most m x m each, the
    R of QR([R_{k-1}; rows_k]). One stacked SVD of the R factors of every
    level and point of one shape gives their kernels (LAPACK takes the
    matrices one by one, so stacking changes no bit), the cutoff floored at each
    point's running sum of squared entry norms, so that levels which vanish
    in exact arithmetic do not present their rounding as full-rank columns.
    One subalgebra_residuals call gives every kernel's closure."""
    count, m = len(levels[0][0][1]), rep.algebra.dim
    r = np.zeros((count, 0, m))
    sq = np.zeros(count)
    factors, scales = [], []
    for level in levels:
        for markers, data in level:
            step = max(jet.PRODUCT_BLOCK // (m * math.prod(data.shape[1:])), 1)
            blocks = []
            for start in range(0, count, step):
                points = slice(start, start + step)
                block, factor = data[points], r[points]
                flat = block.reshape(len(block), -1)
                sq[points] += np.einsum("pi,pi->p", flat, flat)
                for rows in _row_blocks(markers, block, rep):
                    # stacked column by column, the layout the QR reads
                    cols = np.concatenate([factor.transpose(0, 2, 1), rows.transpose(0, 2, 1)],
                                          axis=2)
                    factor = np.linalg.qr(cols.transpose(0, 2, 1), mode="r")
                blocks.append(factor)
            r = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        factors.append(r)
        scales.append(np.sqrt(sq))
    # the kernels of every level and point, level-major, one SVD per R shape
    # (every point of a level has the same); a (level, point) is murky where
    # its kernel and range are not separated by a clear spectral gap at the
    # cutoff
    kernels, murky = [None] * len(levels), np.zeros((len(levels), count), bool)
    groups = {}
    for k, factor in enumerate(factors):
        groups.setdefault(factor.shape, []).append(k)
    for group in groups.values():
        found, sing, cutoff = kernel_spectra(np.concatenate([factors[k] for k in group]),
                                             np.concatenate([scales[k] for k in group]))
        kept = sing > cutoff[:, None]
        murky[group] = (np.where(kept, sing, np.inf).min(axis=1)
                        < 10.0 * np.where(kept, -np.inf, sing).max(axis=1)).reshape(-1, count)
        for k, start in zip(group, range(0, len(found), count)):
            kernels[k] = found[start:start + count]
    closure = subalgebra_residuals(rep.algebra, [b for level in kernels for b in level])
    closure = closure.reshape(len(levels), count).T.tolist()
    nesting = _nesting(kernels)
    ambiguous = murky.any(axis=0).tolist()
    return [_chain([level[p] for level in kernels], nesting[p], tuple(closure[p]), ambiguous[p])
            for p in range(count)]


def _row_blocks(markers: tuple[str, ...], data: np.ndarray, rep: TensorRep,
                ) -> Iterator[np.ndarray]:
    """One entry's action rows at a block of points, data shape (P, dims...),
    in blocks of at most jet.PRODUCT_BLOCK elements where it can be: all the
    rows, or else those of the fewest leading axes fixed that make one
    point's rows fit (all of them, one row, at the least)."""
    m = rep.algebra.dim
    if m * math.prod(data.shape[1:]) <= jet.PRODUCT_BLOCK:
        yield action_rows(markers, data, rep)
        return
    dims = data.shape[1:]
    lead = next((j for j in range(len(dims))
                 if m * math.prod(dims[j:]) <= jet.PRODUCT_BLOCK), len(dims))
    for prefix in np.ndindex(*dims[:lead]):
        yield action_rows(markers, data, rep, prefix)


def _nesting(levels: list[list[np.ndarray]]) -> list[tuple[float, ...]]:
    """Each point's nesting angles from the orthonormal kernel bases of each
    level at every point of a batch: the largest principal angle between a
    level's kernel and the next one's, theta with sin theta = |(I - B B^T)
    A|_2, A the kernel of the lower dimension and B the other (the next
    level's kernel is A where the dimensions are equal). The level pairs
    and points with the same kernel shapes take one stacked SVD; an empty
    kernel gives 0.0."""
    groups = {}
    for k, (lo, hi) in enumerate(zip(levels, levels[1:])):
        for p, pair in enumerate(zip(lo, hi)):
            # the key from a list (see jet.einsum)
            groups.setdefault(tuple([b.shape[1] for b in pair]), []).append((k, p))
    nesting = [[0.0] * (len(levels) - 1) for _ in levels[0]]
    for (dim_lo, dim_hi), keys in groups.items():
        if min(dim_lo, dim_hi) == 0:
            continue
        # the level offsets of A and B within the pair
        lower, other = (1, 0) if dim_hi <= dim_lo else (0, 1)
        # np.array stacks the bases as np.stack does, with less overhead
        a = np.array([levels[k + lower][p] for k, p in keys])
        b = np.array([levels[k + other][p] for k, p in keys])
        sin = np.linalg.norm(a - b @ (b.transpose(0, 2, 1) @ a), 2, axis=(1, 2))
        for (k, p), angle in zip(keys, np.arcsin(np.minimum(sin, 1.0)).tolist()):
            nesting[p][k] = angle
    return [tuple(angles) for angles in nesting]


def _chain(bases: list[np.ndarray], nesting: tuple[float, ...], subalgebra: tuple[float, ...],
           ambiguous: bool) -> StabilizerChain:
    """The chain of one point from the kernel basis of each level, its
    nesting angles and closure residuals, and whether some level's spectrum
    lacks a clear gap."""
    flags = []
    dims = tuple([b.shape[1] for b in bases])  # from a list (see jet.einsum)
    # the Singer stage: the first level that the next one keeps
    singer_k = next((k for k, angle in enumerate(nesting)
                     if dims[k + 1] == dims[k] and angle < ANGLE_TOL), None)
    if singer_k is None:
        flags.append("truncated")
    elif any(d != dims[singer_k] for d in dims[singer_k + 1 :]):
        # a later level shrank again: the stabilization was spurious
        ambiguous = True
    if ambiguous:
        flags.append("ambiguous")
    return StabilizerChain(bases=tuple(bases), dims=dims, nesting=nesting,
                           subalgebra=subalgebra, singer_k=singer_k, flags=tuple(flags))


def tower_and_chain(sigma: tuple[TensorFieldSpec, ...], b0: LocalConnectionForm | None,
                    gamma0: ConnectionCoeffs, g: MetricField, x: np.ndarray,
                    rep: TensorRep, kmax: int | None = None,
                    ) -> tuple[DerivativeTower, StabilizerChain]:
    """towers_and_chains at the single point x: its one build."""
    x = np.asarray(x, float)
    (_, levels, chains), = towers_and_chains(sigma, b0, gamma0, g, x[None], rep, kmax)
    return DerivativeTower(x, ortho_frame(g, x), len(levels) - 1, tuple(
        [tuple([DenseTensor(m, data[0]) for m, data in lv]) for lv in levels])), chains[0]


def towers_and_chains(sigma: tuple[TensorFieldSpec, ...], b0: LocalConnectionForm | None,
                      gamma0: ConnectionCoeffs, g: MetricField, points: np.ndarray,
                      rep: TensorRep, kmax: int | None = None,
                      ) -> Iterator[tuple[list[int], Levels, list[StabilizerChain]]]:
    """The towers and chains of the points in batches, each point yielded
    once, in a build of (its points' indices, their frame_levels, their
    chains). A batch is built from KMAX_START and its points are built
    again, one level deeper, until each is final: its chain has stabilized
    and its tower reaches two levels above the Singer stage, singer_k + 2,
    the depth the adapted connection reads, or it is at KMAX_CAP. At a
    given kmax every point is built once, at that depth. A build whose
    points are all final is yielded as frame_levels gives it; of a mixed
    one, the final points' slice. A batch has as many points as keep the
    largest level's jet at the deepest depth, its per-point elements times
    its jet coefficients, within jet.PRODUCT_BLOCK elements: at most CHUNK,
    one at the least."""
    points = np.atleast_2d(np.asarray(points, float))
    n, deepest = points.shape[1], KMAX_CAP if kmax is None else kmax
    lie = 1 if b0 is None else b0.algebra.dim
    entries = sum(math.prod([lie if m == LIE else n for m in f.markers]) for f in sigma)
    largest = max(entries * n**k * jet.size(n, deepest - k) for k in range(deepest + 1))
    step = min(max(jet.PRODUCT_BLOCK // largest, 1), CHUNK)
    for start in range(0, len(points), step):
        todo = list(range(start, min(start + step, len(points))))
        depth = KMAX_START if kmax is None else kmax
        while todo:
            levels = frame_levels(sigma, b0, gamma0, g, points[todo], depth)
            chains = stabilizer_chains(levels, rep)
            final = [p for p, chain in enumerate(chains) if depth == deepest
                     or chain.singer_k is not None and chain.singer_k + 2 <= depth]
            if len(final) == len(todo):
                yield todo, levels, chains
                break
            if final:
                yield ([todo[p] for p in final], [[(m, data[final]) for m, data in lv]
                                                  for lv in levels], [chains[p] for p in final])
            todo = [i for p, i in enumerate(todo) if p not in final]
            depth += 1


def group_action(theta: np.ndarray, rep: TensorRep,
                 tensors: list[DenseTensor]) -> list[DenseTensor]:
    """Action of exp(theta) on frame-expressed tensors, one exponential for
    all of them (one more for the lie part): to_frames with coframe g and
    frame g^T, g orthogonal as the generators are skew. A wrong axis dim,
    or a lie axis without a lie rep, raises RepMismatch."""
    theta = np.asarray(theta, float)
    g = skew_exp(rep.vector.matrix(theta))[None]
    g_lie = None if rep.lie is None else skew_exp(rep.lie.matrix(theta))[None]
    if g_lie is None and any([LIE in t.markers for t in tensors]):
        raise RepMismatch("tensor has lie axes but no lie representation")
    try:
        return [DenseTensor(t.markers, to_frames(t.markers, t.data[None], g,
                                                 g.transpose(0, 2, 1), g_lie)[0])
                for t in tensors]
    except AxisMismatch as exc:
        raise RepMismatch(str(exc)) from exc


def _even_rank_spectrum(t: DenseTensor) -> np.ndarray | None:
    """Sorted eigenvalues of the symmetrized square reshape, when invariant.

    Valid as a G-invariant only when the two axis-half patterns match kind by
    kind, so both halves transform by the same orthogonal factor."""
    r = len(t.markers)
    if r == 0 or r % 2 != 0:
        return None
    half = r // 2
    for i in range(half):
        if (t.markers[i] == LIE) != (t.markers[half + i] == LIE):
            return None
        if t.dims[i] != t.dims[half + i]:
            return None
    d = int(np.prod(t.dims[:half]))
    a = t.data.reshape(d, d)
    return np.sort(np.linalg.eigvalsh(0.5 * (a + a.T)))


def _exp_jacobian(ad: np.ndarray) -> np.ndarray:
    """phi(ad) = sum_k ad^k / (k+1)! = (exp(ad) - 1) / ad. For ad = ad(theta)
    this is the left Jacobian J_l of exp, exp(theta + d) = exp(J_l d)
    exp(theta) to first order; for ad = ad(-theta) it is the right one,
    exp(theta + d) = exp(theta) exp(J_r d). ad(theta) is skew on every
    algebra built here, so phi is taken in closed form on the eigenvalues
    -1j w of ad (skew_function): phi(-1j w) = exp(-1j w / 2) sin(w / 2) /
    (w / 2), with sinc so that it is exact at w = 0 and has no cancellation
    near it. A non-skew ad raises BadParameters."""
    return skew_function(ad, lambda w: np.exp(-0.5j * w) * np.sinc(w / (2 * np.pi)))


def orbit_match(t1: DerivativeTower, t2: DerivativeTower, rep: TensorRep,
                depth: int) -> MatchResult:
    """Search the identity component for a group element carrying t1's
    entries up to ``depth`` onto t2's.

    Only the entries 0..depth are compared, as Singer's condition reads
    them. There is no chain comparison: singer's dims-vary and singer-varies
    flags judge whether the chains agree across points. A non-finite entry
    among those compared raises BadParameters. After the norm and spectrum
    prescreens, each start (theta = 0, then up to MATCH_STARTS - 1 uniform
    draws in [-pi, pi]^m) runs Levenberg-Marquardt on the relative residual
    r(theta) = (exp(theta) a - b) / sqrt(scale) over the entries. The action
    is orthogonal, so pulling r back by exp(-theta) changes no norm:
    exp(-theta) r(theta + d) = a - exp(-theta) b + A(a) J_r(theta) d to first
    order, with A(a) the stacked action matrix at a, built once, and J_r the
    right Jacobian of exp, phi(ad(-theta)) in closed form (_exp_jacobian).
    Each trial theta takes one exponential for all entries. A start ends when a step decreases |r|^2 by less than a
    relative STALL, when the damped linear model predicts no more than that
    (the damping is exhausted), when a trial fails to lower an |r|^2 that
    is already below the acceptance floor 0.01 * MATCH_TOL**2 (only
    rounding moves it there, and the search stops after such a start), or
    when the residual or the solve is not finite; a NaN never matches. The
    damping also absorbs the stabilizer's rank deficiency, so theta is
    unique only modulo the stabilizer. Orientation-reversing elements are not searched: towers related only by
    one fail with reason "residual"."""
    e1 = t1.up_to(depth)
    e2 = t2.up_to(depth)
    if len(e1) != len(e2):
        raise DepthMismatch("towers have different component counts")
    if not all(np.isfinite(t.data).all() for t in e1 + e2):
        raise BadParameters("tower entries are not finite")

    scale = max(
        sum(t.norm() ** 2 for t in e1), sum(t.norm() ** 2 for t in e2)
    )
    if scale < 1e-300:
        return MatchResult(True, np.zeros(rep.algebra.dim), 0.0)
    ref = float(np.sqrt(scale))
    for a, b in zip(e1, e2):
        if a.markers != b.markers or a.dims != b.dims:
            raise DepthMismatch("tower entries have mismatched shapes")
        if abs(a.norm() - b.norm()) > 1e-5 * ref:
            return MatchResult(False, None, np.inf, "prescreen-norm")
        s1, s2 = _even_rank_spectrum(a), _even_rank_spectrum(b)
        if s1 is not None and np.abs(s1 - s2).max() > 1e-5 * ref:
            return MatchResult(False, None, np.inf, "prescreen-spectrum")

    m = rep.algebra.dim
    # |r|^2 at which a start is accepted and the search stops
    accept = 0.01 * MATCH_TOL**2
    weight = 1.0 / ref
    a_flat = weight * np.concatenate([a.components for a in e1])
    action = weight * stacked_action_matrix(e1, rep)

    def pulled_back(theta: np.ndarray) -> tuple[np.ndarray, float]:
        moved = [b.components for b in group_action(-theta, rep, e2)]
        r = a_flat - weight * np.concatenate(moved)
        return r, float(r @ r)

    def descend(theta: np.ndarray) -> tuple[np.ndarray, float]:
        r, val = pulled_back(theta)
        damping, floor = LM_DAMPING
        for _ in range(LM_ITERS):
            if not val > 0.0:
                break
            jac = action @ _exp_jacobian(rep.algebra.ad(-theta))
            grad, hess = jac.T @ r, jac.T @ jac
            # raise the damping until a step decreases the residual
            while True:
                # inv, not solve: every tower already calls inv, and the
                # first solve call maps about 0.2 MB more of LAPACK
                try:
                    step = -np.linalg.inv(hess + damping * np.eye(m)) @ grad
                except np.linalg.LinAlgError:
                    return theta, val
                # stalled when even the damped linear model gains little
                if not val - float(np.sum((r + jac @ step) ** 2)) >= STALL * val:
                    return theta, val
                trial = theta + step
                t_r, t_val = pulled_back(trial)
                if np.isnan(t_val):
                    return theta, val
                if t_val < val:
                    break
                # below the acceptance floor only rounding moves |r|^2
                if val < accept:
                    return theta, val
                damping *= 10.0
            decrease = (val - t_val) / val
            theta, r, val = trial, t_r, t_val
            damping = max(damping / 10.0, floor)
            if decrease < STALL:
                break
        return theta, val

    rng = np.random.default_rng(0)
    best_theta = np.zeros(m)
    best = np.inf
    for s in range(MATCH_STARTS):
        theta0 = np.zeros(m) if s == 0 else rng.uniform(-np.pi, np.pi, size=m)
        theta, val = descend(theta0)
        if val < best:
            best_theta, best = theta, val
        if best < accept:
            break
    residual = float(np.sqrt(best))
    if residual < MATCH_TOL:
        return MatchResult(True, best_theta, residual)
    return MatchResult(False, best_theta, residual, "residual")


@_held
def with_adjoint_rep(rep: TensorRep) -> TensorRep:
    """Same frame action, with lie axes carrying the full adjoint action;
    built once per rep."""
    return TensorRep(rep.algebra, rep.vector, rep.algebra.adjoint_rep())


def gauge_residual(b: np.ndarray, rep: TensorRep, t: DenseTensor, nabla_t: np.ndarray) -> float:
    """|nabla t + b . t| at a point in frame indices, nabla_t[a] the covariant
    derivative of t along e_a and b[a] the shift there (axis_action)."""
    lie = None if rep.lie is None else np.einsum("mi,iab->mab", b, rep.lie.matrices)
    act = axis_action(t.markers, t.data, np.einsum("mi,iab->mab", b, rep.vector.matrices), lie)
    return float(np.linalg.norm(nabla_t + act))


def _adapted_shifts(levels: Levels, chains: list[StabilizerChain], rep: TensorRep,
                    inner: AdInvariantInner) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(beta_k, nabla beta_k, nabla_tower) at each point of a batch in frame
    indices, shapes (P, n, m), (P, n, n, m) and (P,); see adapted_residuals.
    The points whose chains share the Singer stage k and its kernel
    dimension are solved together: one stacked SVD, stacked products."""
    groups = {}
    for p, chain in enumerate(chains):
        k = chain.singer_k
        if k is None:
            raise NumericalFailure("stabilizer chain did not stabilize")
        # inner is ad-invariant, so the complement of a subalgebra is ad(h)-invariant
        if not chain.subalgebra[k] <= 1e-9:
            raise NotReductive(f"stabilizer at stage {k} is not a subalgebra: "
                               f"closure residual {chain.subalgebra[k]:.3g}")
        if k + 2 >= len(levels):
            raise DepthMismatch(f"tower has entries up to {len(levels) - 1}, need {k + 2}")
        groups.setdefault((k, chain.bases[k].shape[1]), []).append(p)
    m, n, per_level = rep.algebra.dim, rep.vector.matrices.shape[-1], len(levels[0])
    out = np.empty((len(chains), n, m)), np.empty((len(chains), n, n, m)), np.empty(len(chains))
    for (k, dim_h), idx in groups.items():
        count, h = len(idx), np.array([chains[p].bases[k] for p in idx])
        # the entries T of levels 0..k, Tnext one level up, T2 two
        tensors = [(mk, data[idx]) for lv in levels[:k + 1] for mk, data in lv]
        nexts = [data[idx] for lv in levels[1:k + 2] for _, data in lv]
        v = np.concatenate([nxt.reshape(count, n, -1) for nxt in nexts], axis=2)
        w = np.concatenate([t2[idx].reshape(count, n, n, -1) for lv in levels[2:k + 3]
                            for _, t2 in lv], axis=3)
        # D_b = M(Tnext[b]), the points and directions b as one batch
        d = np.concatenate([action_rows(mk, nxt.reshape((count * n,) + nxt.shape[2:]), rep)
                            .reshape(count, n, -1, m) for (mk, _), nxt in zip(tensors, nexts)],
                           axis=2)
        mat = np.concatenate([action_rows(mk, t, rep) for mk, t in tensors], axis=1)
        u, sing, vt = np.linalg.svd(mat, full_matrices=False)
        pinv = ((vt[:, :m - dim_h].transpose(0, 2, 1) / sing[:, None, :m - dim_h])
                @ u[:, :, :m - dim_h].transpose(0, 2, 1))
        pinv_t = pinv.transpose(0, 2, 1)
        beta = -v @ pinv_t
        resid = v + beta @ mat.transpose(0, 2, 1)
        nabla_beta = -(w + (d @ beta.transpose(0, 2, 1)[:, None]).transpose(0, 1, 3, 2)
                       + resid[:, None] @ d @ pinv[:, None]) @ pinv_t[:, None]
        nabla_h = -pinv[:, None] @ d @ h[:, None]
        coeff = np.linalg.solve(h.transpose(0, 2, 1) @ inner.matrix @ h,
                                h.transpose(0, 2, 1) @ inner.matrix)
        proj = h @ coeff
        # P is m-self-adjoint and m is parallel: nabla P is its part off h
        # plus that part's m-adjoint
        off = (np.eye(m) - proj)[:, None] @ nabla_h @ coeff[:, None]
        nabla_proj = off + np.linalg.solve(inner.matrix, off.transpose(0, 1, 3, 2) @ inner.matrix)
        beta_k = beta - beta @ proj.transpose(0, 2, 1)
        # each entry's adapted derivative: V + M beta_k on levels 0..k; on
        # level k + 1, whose rows are those of level k, B_b = sum_j
        # beta_k[b, j] X_j also acts on Tnext's leading axis
        offsets = np.cumsum([0] + [t[0].size for _, t in tensors])
        top = offsets[-1 - per_level]
        lead = (beta_k @ rep.vector.matrices.reshape(m, -1)).reshape(count, n, n, n)
        upper = (w[..., top:] + (d[:, :, top:] @ beta_k.transpose(0, 2, 1)[:, None])
                 .transpose(0, 3, 1, 2) - lead.transpose(0, 1, 3, 2) @ v[:, None, :, top:])
        # each entry's squared norm, summed over its components
        sq = [np.add.reduceat((x * x).reshape(count, -1, x.shape[-1]).sum(axis=1), cuts, axis=1)
              for x, cuts in ((v + beta_k @ mat.transpose(0, 2, 1), offsets[:-1]),
                              (upper, offsets[-1 - per_level:-1] - top))]
        out[0][idx], out[1][idx], out[2][idx] = (
            beta_k, nabla_beta - nabla_beta @ proj.transpose(0, 2, 1)[:, None]
            - beta[:, None] @ nabla_proj.transpose(0, 1, 3, 2),
            np.sqrt(np.concatenate(sq, axis=1).max(axis=1)))
    return out


def adapted_residuals(levels: Levels, chains: list[StabilizerChain], rep: TensorRep,
                      inner: AdInvariantInner) -> dict[str, float]:
    """The largest nabla_beta and nabla_tower over a batch of towers, the
    levels of frame_levels, and their chains, for the adapted connection
    nabla + beta_k in the towers' frames: the norms of the adapted
    derivatives of beta_k (acting on itself, under the adjoint rep on its
    LIE axis) and of each entry of levels 0..singer_k + 1. An entry T has
    covariant derivative Tnext[b] along e_b, Tnext the entry one level up,
    and T2[b, a] two levels up. With M the stacked action matrix of the
    entries of levels 0..singer_k, V_a and W_ba the stacked Tnext[a] and
    T2[b, a], and D_b = M(Tnext[b]) its covariant derivative:
    beta_a = -M^+ V_a solves nabla_a T + beta_a . T = 0 by least squares,
    with residual r_a = V_a + M beta_a, so nabla_tower includes r; and
    nabla_b beta_a = -M^+ (W_ba + D_b beta_a + M^+T D_b^T r_a), the
    derivative of the pseudo-inverse (Golub and Pereyra, SIAM J. Numer.
    Anal. 10, 1973) without its term in ker M = h. M^+ is cut to rank
    m - dim h, h = bases[singer_k], so as not to invert rounding, and
    nabla_b h = -M^+ D_b h. beta_k is beta's part in the inner-orthogonal
    complement of h. The same system gives nabla_tower: V_a + M beta_k,a on
    the entries of levels 0..singer_k, and W_ba + D_a beta_k,b
    - sum_c B_b[c, a] V_c on the entries of level singer_k + 1, the last
    term beta_k acting on Tnext's leading axis, which D leaves out. A chain
    that did not stabilize raises NumericalFailure, and one whose closure
    residual at the Singer stage is not at most 1e-9 NotReductive, at the
    first such point: the complement of h is invariant only if h is a
    subalgebra."""
    beta_k, nabla_beta_k, nabla_tower = _adapted_shifts(levels, chains, rep, inner)
    # rows[p, r, j]: component r of basis element j acting on beta_k[p]
    rows = action_rows((DOWN, LIE), beta_k, with_adjoint_rep(rep))
    gauge = (rows @ beta_k.transpose(0, 2, 1)).transpose(0, 2, 1).reshape(nabla_beta_k.shape)
    return {"nabla_beta": nan_max(point_norms(jet.points_last(nabla_beta_k + gauge))),
            "nabla_tower": nan_max(nabla_tower)}


def opozda_section_spec(gamma: ConnectionCoeffs) -> tuple[TensorFieldSpec, ...]:
    """Torsion and curvature of a reference connection as a section pair;
    a torsion-free connection (symmetric_flag, the Levi-Civita one) has the
    curvature alone, its torsion being zero at every order, so its tower is
    its curvature tower, as Singer's condition reads it."""
    fields = (curvature_field(gamma),)
    if not gamma.symmetric_flag:
        fields = (torsion_field(gamma),) + fields
    return fields


def check_lh_triple(g: MetricField, a0: LocalConnectionForm, gamma: ConnectionCoeffs,
                    a: LocalConnectionForm, points: np.ndarray,
                    fixture: str = "") -> VerificationReport:
    """Locally homogeneous triple criterion for the metric g and the
    reference form a0: del R, del T, (del x del^A)F, (del x del^A)(A - A0)
    all parallel, level 1 of the tower of lh_fields under ad of A."""
    points = np.atleast_2d(np.asarray(points, float))
    residuals = max_nabla_norms(gamma, lh_fields(gamma, a, a0), a, g, points)
    return make_report("check-lh-triple", fixture, points, residuals)


def lh_fields(gamma: ConnectionCoeffs, a: LocalConnectionForm, a0: LocalConnectionForm,
              ) -> dict[str, TensorFieldSpec]:
    """The fields of the locally homogeneous triple criterion, R, T, F and
    A - A0, by residual name: a section whose tower is taken under ad of
    A on its LIE axes."""
    return {
        "nabla_R": curvature_field(gamma),
        "nabla_T": torsion_field(gamma),
        "nabla_F": curvature_form_field(a),
        "nabla_alpha": form_difference(a, a0),
    }


def check_ls_triple(g: MetricField, a0: LocalConnectionForm, points: np.ndarray,
                    fixture: str = "") -> VerificationReport:
    """Locally symmetric triple criterion under the Levi-Civita connection."""
    points = np.atleast_2d(np.asarray(points, float))
    gamma = levi_civita(g)
    residuals = max_nabla_norms(gamma, {"nabla_Rg": curvature_field(gamma),
                                        "nabla_F0": curvature_form_field(a0)}, a0, g, points)
    return make_report("check-ls-triple", fixture, points, residuals)
