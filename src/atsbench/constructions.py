"""Parametric constructions: standard realizations of graded division
algebras, involutions on them, exchange doubles, 3-graded matrix
algebras over them, and the block-matrix involutions.

The standard realization of a finite group T with a nondegenerate
alternating bicharacter beta is a twisted group algebra, built from its
structure constants.  Over the hyperbolic pairs (a_i, b_i, l_i) of
(T, beta), write t = sum c_i(t) a_i + d_i(t) b_i with 0 <= c_i, d_i < l_i;
then

    X_s X_t = omega(s, t) X_(s+t),
    omega(s, t) = prod_i beta(a_i, b_i)^(c_i(s) d_i(t)).

These are the products of the clock and shift matrices
X_t = (x)_i S^(d_i) C^(c_i), since C S = beta(a_i, b_i) S C.  omega is
bilinear, so the product is associative, and omega(s, t) / omega(t, s)
= beta(s, t).  The basis is indexed by the support sorted by
coordinates, so bases are bit-exact reproducible.  All higher
constructions are assembled from these exact structure constants and
verified on the spot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .groups import (AbelianGroup, Bicharacter, GroupElement, GroupError,
                     QuadraticForm, Subgroup, extend_bicharacter, flip_z,
                     prepend_z, symplectic_decomposition, zg_element)
from .omega import (INVOLUTION, PRODUCT, Grading, OmegaAlgebra,
                    VerificationError, VerificationReport, check_grading,
                    check_involution, check_t4_flip)
from .scalars import CycloField, Scalar


class ConstraintError(ValueError):
    """A construction parameter violates one of its defining constraints;
    the message names the violated condition."""


# ---------------------------------------------------------------------------
# graded division algebras
# ---------------------------------------------------------------------------

@dataclass
class GradedDivision:
    """A graded division algebra with one-dimensional homogeneous
    components, basis indexed by its support subgroup."""
    field: CycloField
    group: AbelianGroup
    support: Subgroup
    algebra: OmegaAlgebra
    grading: Grading
    elements: tuple                  # basis index -> support element
    bicharacter: Bicharacter         # commutation bicharacter on the support
    sign_form: QuadraticForm = None  # phi0(Z_s) = sign_form(s) Z_s, if involution
    t: GroupElement = None           # doubling element (exchange flavor)
    inner: "GradedDivision" = None   # the doubled algebra (exchange flavor)

    def __post_init__(self):
        self.index = {e: i for i, e in enumerate(self.elements)}

    @property
    def flavor(self) -> str:
        """The kind of division algebra: "exchange" for an exchange
        double, else "simple"."""
        return "simple" if self.inner is None else "exchange"

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def mu(self, i: int, j: int):
        """Structure constant: Z_i Z_j = mu * Z_k; returns (mu, k)."""
        row = self.algebra.row(PRODUCT, (i, j))
        if len(row) != 1:
            raise VerificationError(f"product Z{i} Z{j} must be monomial")
        ((k, c),) = row.items()
        return c, k

    def sandwich(self, a: int, b: int, c: int):
        """(s, k) with Z_a Z_b Z_c = s * Z_k."""
        c1, k1 = self.mu(a, b)
        c2, k2 = self.mu(k1, c)
        return c1 * c2, k2

    def basis_inverse(self, i: int):
        """(c, j) with Z_i^{-1} = c * Z_j."""
        j = self.index[-self.elements[i]]
        c, k = self.mu(i, j)
        if not self.elements[k].is_identity():
            raise VerificationError(f"inverse: Z{i} Z{j} is not in degree 0")
        return c.inverse(), j

    def commutation(self, i: int, j: int) -> Scalar | None:
        """c with Z_i Z_j = c Z_j Z_i, read off the product tensor; None
        when the two products lie in different components."""
        ci, ki = self.mu(i, j)
        cj, kj = self.mu(j, i)
        return ci / cj if ki == kj else None

    def has_involution(self) -> bool:
        return INVOLUTION in self.algebra.operators


def check_commutation(D: GradedDivision) -> VerificationReport:
    """Z_i Z_j = beta(s_i, s_j) Z_j Z_i with equal targets, on every basis
    pair: one check per pair, one violation per pair that fails."""
    beta, elements, field = D.bicharacter, D.elements, D.field
    report = VerificationReport("commutation-relation", checked=D.dim ** 2)
    report.violations.extend(
        f"Z{i} Z{j} != beta * Z{j} Z{i}"
        for i, j in itertools.product(range(D.dim), repeat=2)
        if D.commutation(i, j) != beta.eval(elements[i], elements[j], field))
    return report


def standard_realization(T: Subgroup, beta: Bicharacter,
                         field: CycloField) -> GradedDivision:
    """The graded division algebra D(T, beta) with basis {X_t} and the
    cocycle omega of the module docstring as its structure constants,
    checked against beta on every basis pair."""
    if not beta.is_nondegenerate_alternating():
        raise ConstraintError(
            "bicharacter must be nondegenerate alternating on T")
    pairs = symplectic_decomposition(T, beta)
    # exponent coordinates (c1, d1, c2, d2, ...) of each t over (a1, b1, ...)
    coords = {T.group.identity: ()}
    for (a, b, l) in pairs:
        for g in (a, b):
            coords = {e + g.scaled(k): c + (k,)
                      for e, c in coords.items() for k in range(l)}
    if len(coords) != len(T):
        raise ConstraintError("T is not of symmetric-square shape")
    # beta(a_i, b_i) = zeta_M^(eps_i)
    eps = [beta.exponent_of(a, b) for (a, b, _) in pairs]
    alg = OmegaAlgebra(field, len(T), {PRODUCT: 2},
                       [f"X{s}" for s in T.elements])
    D = GradedDivision(field, T.group, T, alg,
                       Grading(alg, T.group, T.elements), T.elements, beta)
    for (i, s), (j, u) in itertools.product(enumerate(T.elements), repeat=2):
        power = sum(k * c * d for k, c, d in
                    zip(eps, coords[s][0::2], coords[u][1::2]))
        alg.set_entry(PRODUCT, (i, j),
                      {D.index[s + u]: field.zeta(beta.exponent, power)})
    if not check_commutation(D).passed:
        raise VerificationError(
            "realization: commutation factor must follow beta")
    return D


def transpose_form(D: GradedDivision) -> QuadraticForm:
    """The distinguished quadratic form tau with X_t^T = tau(t) X_t for
    the clock-and-shift matrices.  Only elementary 2-supports admit one:
    there every X_t is a signed permutation matrix, so X_t^T = X_t^-1,
    and tau(t) is the coefficient of X_t X_t."""
    if not D.support.is_elementary_2():
        raise GroupError("transposition is diagonal only on elementary 2-supports")
    return QuadraticForm(D.support, {t: int(D.mu(i, i)[0].rational_value())
                                     for i, t in enumerate(D.elements)})


def _with_involution(D: GradedDivision, tau: QuadraticForm) -> GradedDivision:
    """Give D the involution X_t -> tau(t) X_t, verified.  The polar-form
    comparison is the one check that tau is quadratic (beta is bilinear)."""
    if tau.polar_form() != D.bicharacter:
        raise ConstraintError("polar form of tau must equal beta")
    D.algebra.add_operator(INVOLUTION, 1)
    for i, t in enumerate(D.elements):
        D.algebra.set_entry(INVOLUTION, (i,), {i: D.field.scalar(tau(t))})
    rep = check_involution(D.algebra)
    if not rep.passed:
        raise VerificationError(f"tau gives no involution: {rep.violations[:3]}")
    D.sign_form = tau
    return D


def d_inv(T: Subgroup, beta: Bicharacter, tau: QuadraticForm,
          field: CycloField) -> GradedDivision:
    """D(T, beta) with the involution X_t -> tau(t) X_t."""
    if not T.is_elementary_2():
        raise ConstraintError(
            "a graded division algebra admits an involution only when "
            "its support is an elementary 2-group")
    return _with_involution(standard_realization(T, beta, field), tau)


def exchange_double_division(D: GradedDivision, t: GroupElement) -> GradedDivision:
    """The exchange double D^[t] = (D + D^op, ex) of D with its involution
    phi0, on the basis Y_u = (X_u, phi0(X_u)), Y_(u+t) = (X_u, -phi0(X_u))
    for u in the support T, sorted by support element of T<t>:

        Y_(u+kt) Y_(v+lt) = mu(u, v) Y_(u+v+(k+l)t),
        ex(Y_s) = tau^[t](s) Y_s,

    with mu the structure constants of D and tau its sign form.  Verifies
    the two claimed identities: ex is an involution of this product, and
    the commutation bicharacter is beta^[t].
    """
    if not D.has_involution():
        raise ConstraintError("exchange double needs an involution on D")
    if t.order() != 2:
        raise ConstraintError("doubling element must have order 2")
    if t in D.support:
        raise ConstraintError("doubling element must avoid the support")
    field, Tt = D.field, D.support.extended_by(t)
    elements = Tt.elements
    alg = OmegaAlgebra(field, len(Tt), {PRODUCT: 2, INVOLUTION: 1},
                       [f"Y{s}" for s in elements])
    grading = Grading(alg, D.group, elements,
                      graded_ops=D.grading.graded_ops | {INVOLUTION})
    out = GradedDivision(field, D.group, Tt, alg, grading, elements,
                         extend_bicharacter(D.bicharacter, t),
                         sign_form=D.sign_form.extend(t), t=t, inner=D)
    inner = [D.index[s if s in D.index else s + t] for s in elements]
    for (i, s), (j, u) in itertools.product(enumerate(elements), repeat=2):
        alg.set_entry(PRODUCT, (i, j),
                      {out.index[s + u]: D.mu(inner[i], inner[j])[0]})
    for i, s in enumerate(elements):
        alg.set_entry(INVOLUTION, (i,), {i: field.scalar(out.sign_form(s))})
    if not check_involution(alg).passed:
        raise VerificationError(
            "involution signs must follow the extended quadratic form")
    if not check_commutation(out).passed:
        raise VerificationError(
            "commutation factor must follow the extended bicharacter")
    return out


def division_part(T: Subgroup, beta: Bicharacter, t: GroupElement,
                  field: CycloField, divisions: dict = None) -> GradedDivision:
    """D(T, beta) with transposition as its involution, doubled at t if
    given.  `divisions` holds the parts one run has built, keyed by (T, beta,
    t, conductor): a built part is never changed, so labels share it."""
    divisions = {} if divisions is None else divisions
    key = (T, beta.exponent, beta, t, field.conductor)
    if key not in divisions:
        D = standard_realization(T, beta, field)
        D = _with_involution(D, transpose_form(D))
        divisions[key] = D if t is None else exchange_double_division(D, t)
    return divisions[key]


# ---------------------------------------------------------------------------
# matrix algebras over a graded division algebra
# ---------------------------------------------------------------------------

def kappa_expand(kappa, gamma):
    """Repeat gamma[j] kappa[j] times (the part checks of the label
    parameters have run)."""
    out = []
    for k, g in zip(kappa, gamma):
        out.extend([g] * k)
    return tuple(out)


@dataclass
class MatrixOverDivision:
    """M_N(D) with the Z x G grading deg(d E_ij) = (delta_i - delta_j,
    gamma_i + deg d - gamma_j); basis index = (i*N + j)*dim_D + b."""
    D: GradedDivision
    gamma: tuple            # expanded degree tuple, length N
    k0: int                 # split point: delta_i = 0 for i < k0
    algebra: OmegaAlgebra
    grading: Grading

    @property
    def N(self) -> int:
        return len(self.gamma)

    def bidx(self, b: int, i: int, j: int) -> int:
        return (i * self.N + j) * self.D.dim + b


def matrix_grading(D: GradedDivision, gamma0, gamma1) -> MatrixOverDivision:
    """Assemble M_N(D) with the 3-graded Z x G degree map; gamma0/gamma1
    are the already-expanded degree tuples of the two module parts."""
    gamma = tuple(gamma0) + tuple(gamma1)
    k0 = len(gamma0)
    N = len(gamma)
    if N < 1:
        raise ConstraintError("at least one module basis vector required")
    field = D.field
    dD = D.dim
    dim = N * N * dD
    labels = [f"{D.algebra.basis_labels[b]}E{i + 1},{j + 1}"
              for i in range(N) for j in range(N) for b in range(dD)]
    alg = OmegaAlgebra(field, dim, {PRODUCT: 2}, labels)
    ZG = prepend_z(D.group)
    deltas = [0 if i < k0 else 1 for i in range(N)]
    degmap = []
    for i in range(N):
        for j in range(N):
            for b in range(dD):
                degmap.append(zg_element(
                    ZG, deltas[i] - deltas[j],
                    gamma[i] + D.elements[b] - gamma[j]))
    mk = MatrixOverDivision(D, gamma, k0, alg, None)
    for i in range(N):
        for j in range(N):
            for l in range(N):
                for b in range(dD):
                    for bp in range(dD):
                        c, k = D.mu(b, bp)
                        alg.set_entry(PRODUCT,
                                      (mk.bidx(b, i, j), mk.bidx(bp, j, l)),
                                      {mk.bidx(k, i, l): c})
    mk.grading = Grading(alg, ZG, tuple(degmap), graded_ops=frozenset({PRODUCT}))
    return mk


# ---------------------------------------------------------------------------
# label parameters and the part layout
# ---------------------------------------------------------------------------

@dataclass
class _ModuleParams:
    """The parameters both label types share: the division part D(T, beta)
    and, per module part, multiplicities kappa with one degree per entry.
    The part checks run against `full_support`, the support of the
    division part."""
    group: AbelianGroup
    T: Subgroup
    beta: Bicharacter
    kappa0: tuple
    gamma0: tuple
    kappa1: tuple
    gamma1: tuple

    def __post_init__(self):
        self.kappa0, self.gamma0 = tuple(self.kappa0), tuple(self.gamma0)
        self.kappa1, self.gamma1 = tuple(self.kappa1), tuple(self.gamma1)
        for which, kappa, gamma in ((0, self.kappa0, self.gamma0),
                                    (1, self.kappa1, self.gamma1)):
            if len(kappa) == 0:
                raise ConstraintError(
                    f"kappa{which} must be nonempty (supp pi1 = -1,0,1)")
            if len(kappa) != len(gamma):
                raise ConstraintError(f"kappa{which}/gamma{which} length mismatch")
            if any(k <= 0 for k in kappa):
                raise ConstraintError(f"kappa{which} entries must be positive")
            reps = [self.full_support.coset_rep(g) for g in gamma]
            if len(set(reps)) != len(reps):
                raise ConstraintError(
                    f"gamma{which} entries must be distinct modulo the support")

    @property
    def full_support(self) -> Subgroup:
        return self.T


class ExchangePairParams(_ModuleParams):
    """Parameters of M(G, D, kappa0, kappa1, gamma0, gamma1)^ex."""


def _layout_error(kappa, m, which: int = 0):
    """The shape rule of a part layout (kappa, m) that it breaks, as the
    message to raise, or None.  The layout: m self-dual blocks, odd
    multiplicities before even ones, then dual pairs that repeat their
    multiplicity."""
    if not 0 <= m <= len(kappa) or (len(kappa) - m) % 2:
        return (f"kappa{which}: entries beyond the first m{which}={m} "
                f"must pair up")
    if any(a % 2 < b % 2 for a, b in zip(kappa[:m], kappa[1:m])):
        return (f"kappa{which}: odd multiplicities must form a prefix "
                f"of the self-dual blocks (odd, even, paired layout)")
    if any(kappa[r] != kappa[r + 1] for r in range(m, len(kappa), 2)):
        return f"kappa{which}: paired blocks must repeat the multiplicity"
    return None


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def part_layouts(n: int):
    """Every layout (kappa, m) of a module part of dimension n that the
    shape rules accept: kappa over the compositions of n, and for each
    kappa the larger m first."""
    for kappa in _compositions(n):
        for m in range(len(kappa), -1, -1):
            if _layout_error(kappa, m) is None:
                yield kappa, m


# ---------------------------------------------------------------------------
# the Phi-matrix involutions
# ---------------------------------------------------------------------------

@dataclass
class InvolutionParams(_ModuleParams):
    """Parameters of a 3-graded matrix algebra with involution.

    The exchange-double case is selected by a non-None t.  Per part
    (kappa, gamma, m): the first m entries describe self-dual isotypic
    components (odd multiplicities first, then even ones carrying an
    S-block sign), the remaining entries come in consecutive dual pairs
    (q, q) with degrees (g', g'').
    """
    delta: int
    g: GroupElement
    t: GroupElement = None
    m0: int = None            # defaults to len(kappa0): all self-dual
    m1: int = None
    S_signs0: tuple = None    # signs of the even self-dual blocks, per part
    S_signs1: tuple = None
    # always None, and no parameter: t_i = -(2 gamma_i + g) is derived.
    # They stay fields only because bench/workloads.py's label digest
    # lists every field of the parameters.
    t_values0: tuple = dc_field(default=None, init=False)
    t_values1: tuple = dc_field(default=None, init=False)

    def __post_init__(self):
        # t first: the part checks run against the support T<t>
        if self.delta not in (1, -1):
            raise ConstraintError("delta must be +1 or -1")
        if self.t is not None:
            if self.t.order() != 2:
                raise ConstraintError("t must have order 2")
            if self.t in self.T:
                raise ConstraintError("t must lie outside T")
            if self.delta != 1:
                raise ConstraintError(
                    "exchange-double case forces delta = +1 (sgn(B)=1)")
        if not self.T.is_elementary_2():
            raise ConstraintError("the support T must be an elementary 2-group")
        super().__post_init__()
        if self.m0 is None:
            self.m0 = len(self.kappa0)
        if self.m1 is None:
            self.m1 = len(self.kappa1)

    @cached_property
    def full_support(self) -> Subgroup:
        return self.T.extended_by(self.t) if self.t is not None else self.T

    @cached_property
    def full_beta(self) -> Bicharacter:
        """beta on the full support: beta^[t] in the exchange-double case."""
        return self.beta if self.t is None else extend_bicharacter(self.beta, self.t)


def _resolve_part(params: InvolutionParams, which: int, sigma: QuadraticForm):
    """Check one part's layout and constraints; returns the block list
    [(kind, q, t_value or None, sign or None), ...] in layout order."""
    kappa, gamma, m, s_signs = (getattr(params, f"{key}{which}")
                                for key in ("kappa", "gamma", "m", "S_signs"))
    signname = ("sign constraint delta = beta^[t](t_i)" if params.t is not None
                else "sign constraint delta = beta(t_i)")
    error = _layout_error(kappa, m, which)
    if error is not None:
        raise ConstraintError(error)
    T_full = params.full_support
    l = sum(k % 2 for k in kappa[:m])     # the odd blocks lead
    signs = tuple(s_signs) if s_signs is not None else None
    if signs is not None and len(signs) != m - l:
        raise ConstraintError(
            f"S_signs{which} must list one sign per even self-dual block")

    blocks = []
    for i in range(m):
        t_i = -(gamma[i].scaled(2) + params.g)
        if t_i not in T_full:
            raise ConstraintError(
                f"degree constraint (g_i)^2 t_i = g^-1 fails at "
                f"gamma{which}[{i}]: no solution t_i in the support")
        sig = sigma(t_i)
        if kappa[i] % 2 == 1:
            if sig != params.delta:
                raise ConstraintError(
                    f"{signname} fails at odd block "
                    f"{which}.{i} (beta(t)={sig})")
            blocks.append(("odd", kappa[i], t_i, None))
        else:
            want = params.delta * sig
            got = signs[i - l] if signs is not None else want
            if got * sig != params.delta:
                raise ConstraintError(
                    f"{signname} fails at even block {which}.{i}: "
                    f"sgn(S) beta(t) != delta")
            blocks.append(("even", kappa[i] // 2, t_i, got))
    for r in range(m, len(kappa), 2):
        if not (gamma[r] + gamma[r + 1] + params.g).is_identity():
            raise ConstraintError(
                f"degree constraint fails at paired block {which}.{r}: "
                "g' g'' must equal g^-1")
        blocks.append(("paired", kappa[r], None, None))
    return blocks


@dataclass
class ConstructedAlgebra:
    """A fully assembled algebra with involution and Z x G grading,
    together with the construction data classify needs."""
    field: CycloField
    D: GradedDivision
    matrix: MatrixOverDivision
    algebra: OmegaAlgebra
    grading: Grading
    phi: dict = None             # (i, j) -> (b, Scalar); None for exchange pairs

    def verify(self):
        reports = [check_grading(self.grading),
                   check_involution(self.algebra),
                   check_t4_flip(self.grading)]
        return reports


def phi_matrix(params: InvolutionParams, D: GradedDivision,
               sigma: QuadraticForm):
    """The block-diagonal involution matrix over D, as a sparse monomial
    matrix {(i, j): (basis index, scalar)}."""
    field = D.field
    phi = {}
    offset = 0
    for which in (0, 1):
        for kind, q, t_i, sign in _resolve_part(params, which, sigma):
            if kind == "odd":
                b = D.index[t_i]
                for p in range(q):
                    phi[(offset + p, offset + p)] = (b, field.one)
                offset += q
            elif kind == "even":
                b = D.index[t_i]
                if sign == 1:
                    for p in range(2 * q):
                        phi[(offset + p, offset + p)] = (b, field.one)
                else:
                    for p in range(q):
                        phi[(offset + p, offset + q + p)] = (b, field.one)
                        phi[(offset + q + p, offset + p)] = (b, -field.one)
                offset += 2 * q
            else:
                b = D.index[D.group.identity]
                dlt = field.scalar(params.delta)
                for p in range(q):
                    phi[(offset + p, offset + q + p)] = (b, field.one)
                    phi[(offset + q + p, offset + p)] = (b, dlt)
                offset += 2 * q
    return phi


def build_M_inv(params: InvolutionParams, field: CycloField,
                divisions: dict = None) -> ConstructedAlgebra:
    """M(G, T, beta, kappa0, kappa1, gamma0, gamma1, delta, g) or its
    exchange-double variant: the 3-graded matrix algebra over the
    division part with the involution X -> Phi^{-1} X^* Phi, where *
    is the entrywise-phi0 transpose.  `divisions` is the division-part
    table of division_part."""
    D = division_part(params.T, params.beta, params.t, field, divisions)
    phi = phi_matrix(params, D, D.sign_form)

    g0 = kappa_expand(params.kappa0, params.gamma0)
    g1 = kappa_expand(params.kappa1, params.gamma1)
    mk = matrix_grading(D, g0, g1)
    alg, N = mk.algebra, mk.N

    # phi(b E_ij) = Phi^{-1} (sigma(b) b E_ji) Phi: conjugation by the
    # monomial Phi, row r of Phi = (col, Z_b, c) on the right and its
    # inverse (col, Z_b^{-1} c^{-1}) on the left
    left, right = [None] * N, [None] * N
    for (i, j), (b, c) in phi.items():
        if right[i] is not None:
            raise VerificationError(f"Phi must be monomial: row {i} has two entries")
        ci, bi = D.basis_inverse(b)
        left[i] = (j, bi, ci * c.inverse())
        right[i] = (j, b, c)
    signs = [field.scalar(D.sign_form(e)) for e in D.elements]
    alg.add_operator(INVOLUTION, 1)
    for idx, col in enumerate(_conjugation_columns(mk, mk, left, right, signs,
                                                   transpose=True)):
        alg.set_entry(INVOLUTION, (idx,), col)
    return _verified(ConstructedAlgebra(field, D, mk, alg, mk.grading, phi))


def _conjugation_columns(mk: MatrixOverDivision, target: MatrixOverDivision,
                         left, right, twist, transpose: bool = False):
    """Columns of the monomial map over D

        b E_ij -> x_u y_v twist[b] Z_a Z_b Z_c E_(p, q),

    with left[u] = (p, a, x), right[v] = (q, c, y) and (u, v) = (i, j),
    or (j, i) when `transpose` is set.  Every graded isomorphism between
    matrix algebras over D has this form: conjugation by a monomial
    matrix over D composed with an automorphism of D (the twist, given
    per D basis index); with `transpose` it is an anti-isomorphism, such
    as the Phi-involution X -> Phi^{-1} X^* Phi."""
    D = mk.D
    cols = [None] * mk.algebra.dim
    for i in range(mk.N):
        for j in range(mk.N):
            u, v = (j, i) if transpose else (i, j)
            p, a, x = left[u]
            q, c, y = right[v]
            xy = x * y
            for b in range(D.dim):
                s, k = D.sandwich(a, b, c)
                cols[mk.bidx(b, i, j)] = {target.bidx(k, p, q):
                                          xy * twist[b] * s}
    return cols


def _verified(ca: ConstructedAlgebra) -> ConstructedAlgebra:
    for rep in ca.verify():
        if not rep.passed:
            raise VerificationError(f"{rep.name} failed: {rep.violations[:3]}")
    return ca


# ---------------------------------------------------------------------------
# opposites and exchange pairs
# ---------------------------------------------------------------------------

def opposite(alg: OmegaAlgebra,
             grading: Grading) -> tuple[OmegaAlgebra, Grading]:
    """Reversed product, with the Z slot of every Z x G degree negated."""
    out = OmegaAlgebra(alg.field, alg.dim, {PRODUCT: 2},
                       [f"{lbl}^op" for lbl in alg.basis_labels])
    for (i, j), row in alg.tensors[PRODUCT].items():
        out.set_entry(PRODUCT, (j, i), dict(row))
    return out, Grading(out, grading.group,
                        tuple(flip_z(d) for d in grading.degmap),
                        graded_ops=frozenset({PRODUCT}))


def exchange_of_graded(alg: OmegaAlgebra,
                       grading: Grading) -> tuple[OmegaAlgebra, Grading]:
    """(A + A^op, ex) with the exchange grading: the (i, g) component
    pairs x in A_(i,g) with y in A_(-i,g).  Basis: A block then A^op block."""
    field = alg.field
    d = alg.dim
    out = OmegaAlgebra(field, 2 * d, {PRODUCT: 2, INVOLUTION: 1},
                       alg.basis_labels + [f"{lbl}'" for lbl in alg.basis_labels])
    for (i, j), row in alg.tensors[PRODUCT].items():
        out.set_entry(PRODUCT, (i, j), dict(row))
        out.set_entry(PRODUCT, (j + d, i + d), {k + d: c for k, c in row.items()})
    for i in range(d):
        out.set_entry(INVOLUTION, (i,), {i + d: field.one})
        out.set_entry(INVOLUTION, (i + d,), {i: field.one})
    degmap = tuple(grading.degmap) + tuple(flip_z(d) for d in grading.degmap)
    new_grading = Grading(out, grading.group, degmap,
                          graded_ops=frozenset({PRODUCT}))
    return out, new_grading


def build_exchange_pair(params: ExchangePairParams,
                        field: CycloField) -> ConstructedAlgebra:
    """M(G, D(T, beta), kappa0, kappa1, gamma0, gamma1)^ex."""
    D = standard_realization(params.T, params.beta, field)
    g0 = kappa_expand(params.kappa0, params.gamma0)
    g1 = kappa_expand(params.kappa1, params.gamma1)
    mk = matrix_grading(D, g0, g1)
    alg, grading = exchange_of_graded(mk.algebra, mk.grading)
    return _verified(ConstructedAlgebra(field, D, mk, alg, grading))


# ---------------------------------------------------------------------------
# diagonal isomorphisms of graded division algebras
# ---------------------------------------------------------------------------

def diagonal_solutions(Da: GradedDivision, mu_b, roots):
    """The diagonal maps Z_s -> c_s Z_s, as dicts s -> c_s, with
    c_s c_t mu_b(s, t) = c_(s+t) mu_a(s, t) for all s, t in the support
    (mu_a the structure constants of Da): the graded isomorphisms from Da
    to the algebra with structure constants mu_b on the same support.

    Values from `roots` on a basis of the support propagate to everything;
    each choice is verified against the full table and repeats are
    skipped.  Every choice is tried, so a search over these maps that
    finds nothing has seen the whole family.  Onto D^op (mu_b(s, t) =
    mu_a(t, s)) a diagonal map exists only when beta = beta^-1, and then
    there are exactly |T| of them."""
    T = Da.support
    basis = T.basis()
    found = []
    for choice in itertools.product(roots, repeat=len(basis)):
        c = {T.group.identity: Da.field.one}
        for gen, c_gen in zip(basis, choice):
            new_c = dict(c)
            for u in c:
                prev = u
                for _ in range(1, gen.order()):
                    ma, _ = Da.mu(Da.index[prev], Da.index[gen])
                    # forced by c_s c_t / c_(s+t) = mu_a / mu_b
                    new_c[prev + gen] = new_c[prev] * c_gen * mu_b(prev, gen) / ma
                    prev = prev + gen
            c = new_c
        if all(c[s1] * c[s2] * mu_b(s1, s2)
               == c[s1 + s2] * Da.mu(Da.index[s1], Da.index[s2])[0]
               for s1 in T.elements for s2 in T.elements) and c not in found:
            found.append(c)
            yield c

