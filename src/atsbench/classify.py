"""Isomorphism invariants and decision procedures for the classified
families of 3-graded algebras with involution.

A class label names one parametric construction (exchange pair, simple
algebra with Phi-involution, or exchange-division case).  decide_iso
evaluates the classification conditions on two labels; every YES must
then be backed by an explicit verified isomorphism of the built
algebras (witness_isomorphism) and every NO by an intrinsic-invariant
mismatch or an exhausted bounded search over structured candidate maps
(refute_isomorphism).  Nothing is ever concluded from the labels alone.

A census (run_census) pays this per isomorphism class, named by a normal
form of the labels (ClassLabel.key): each label is decided and witnessed
once, against its class representative, and a YES pair is certified by
the composition of two such verified maps.  Each pair of classes is
decided and refuted once, on its representatives; a NO pair is certified
by that refutation when it is intrinsic, otherwise by its own.  The
result (CensusResult) is this class table and nothing per pair: the
pairwise decisions and the counts are read off it.

Classification sessions work over a doubled cyclotomic conductor: the
witness maps need square roots of bicharacter values, which exist in
Q(zeta_2M) whenever the values lie in Q(zeta_M).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field as dc_field
from math import gcd, lcm

from .constructions import (ConstraintError, ConstructedAlgebra,
                            ExchangePairParams, InvolutionParams, _compositions,
                            _conjugation_columns, build_exchange_pair,
                            build_M_inv, diagonal_solutions, division_part,
                            kappa_expand, opposite, part_layouts)
from .groups import AbelianGroup, GroupElement, Subgroup, _cyclic
from .omega import (PRODUCT, Grading, LinearMap, OmegaAlgebra,
                    VerificationError, center_basis, check_morphism,
                    graded_is_simple, is_simple)
from .scalars import CycloField

SEARCH_CAP = 10 ** 6

EXCHANGE_PAIR = "exchange_pair"
SIMPLE_ALGEBRA = "simple_algebra"
EXCHANGE_DIVISION = "exchange_division"


# ---------------------------------------------------------------------------
# Xi multisets
# ---------------------------------------------------------------------------

@dataclass
class XiMultiset:
    """Multiset of cosets gT with multiplicities; representatives are
    canonical (lexicographically smallest coordinate tuple)."""
    T: Subgroup
    counts: dict

    def shifted(self, g: GroupElement) -> "XiMultiset":
        return XiMultiset(self.T, {self.T.coset_rep(g + rep): m
                                   for rep, m in self.counts.items()})

    def __eq__(self, other):
        return isinstance(other, XiMultiset) and self.counts == other.counts


def halvings(G: AbelianGroup, r: GroupElement) -> list[GroupElement]:
    """All x in G with 2x = r, coordinate by coordinate."""
    per_coord = []
    for k, c in enumerate(r.coords):
        if k < G.free_rank:
            if c % 2:
                return []
            per_coord.append([c // 2])
        else:
            m = G.torsion[k - G.free_rank]
            sols = [x for x in range(m) if (2 * x - c) % m == 0]
            if not sols:
                return []
            per_coord.append(sols)
    return [G.element(combo) for combo in itertools.product(*per_coord)]


def xi_multiset(kappa, gamma, T: Subgroup) -> XiMultiset:
    counts = {}
    for g in kappa_expand(kappa, gamma):
        rep = T.coset_rep(g)
        counts[rep] = counts.get(rep, 0) + 1
    return XiMultiset(T, counts)


def xi_shift_candidates(a: XiMultiset, b: XiMultiset):
    """Shifts g that could witness a = g.b, derived from first elements
    (b is never empty: kappa is nonempty)."""
    r2 = min(b.counts, key=lambda e: e.coords)
    seen, out = set(), []
    for r1 in sorted(a.counts, key=lambda e: e.coords):
        g = r1 - r2
        key = a.T.coset_rep(g)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# class labels
# ---------------------------------------------------------------------------

def classify_conductor(*labels) -> int:
    """Conductor 2 * lcm(2, exponents of the supports): large enough for
    all structure constants and for the square roots the witnesses need."""
    return 2 * lcm(2, *(n for lab in labels for n in (
        lab.params.full_support.exponent, lab.params.beta.exponent)))


def _cache():
    return dc_field(default_factory=dict, compare=False, repr=False)


@dataclass
class ClassLabel:
    """One isomorphism-class candidate: the parameters of one construction.
    Its case is set from them: exchange pair, or Phi-involution without
    (simple algebra) or with (exchange division) the doubling element t.

    The fields after `case` are caches: `_built` and `_intrinsics` keyed
    by conductor, `_keys` by key()'s `direct` flag; `_divisions` is the
    division-part table shared by the labels of one enumeration
    (see division_part)."""
    params: object                 # ExchangePairParams | InvolutionParams
    name: str = ""
    case: str = dc_field(init=False)
    _built: dict = _cache()
    _intrinsics: dict = _cache()
    _keys: dict = _cache()
    _divisions: dict = _cache()

    def __post_init__(self):
        p = self.params
        self.case = (EXCHANGE_PAIR if isinstance(p, ExchangePairParams)
                     else SIMPLE_ALGEBRA if p.t is None else EXCHANGE_DIVISION)
        if not self.name:
            self.name = self._default_name()

    def _default_name(self):
        p = self.params
        bits = [self.case,
                "T=" + "|".join(str(g) for g in p.T.generators),
                f"k0={p.kappa0}", f"g0=({','.join(str(x) for x in p.gamma0)})",
                f"k1={p.kappa1}", f"g1=({','.join(str(x) for x in p.gamma1)})"]
        if isinstance(p, InvolutionParams):
            bits.append(f"delta={p.delta}")
            bits.append(f"g={p.g}")
            if p.t is not None:
                bits.append(f"t={p.t}")
        return " ".join(bits)

    @property
    def full_support(self) -> Subgroup:
        return self.params.full_support

    def xi(self, which: int, inverted: bool = False) -> XiMultiset:
        """Xi(kappa_which, gamma_which), gamma inverted on request."""
        p = self.params
        kappa, gamma = (p.kappa0, p.gamma0) if which == 0 else (p.kappa1, p.gamma1)
        if inverted:
            gamma = tuple(-g for g in gamma)
        return xi_multiset(kappa, gamma, self.full_support)

    def key(self, direct: bool = False):
        """A normal form of the label: two keys are equal exactly when
        decide_iso says YES, two direct keys exactly when it says YES by
        its direct branch.  The shifts h in G act on the parameters as in
        decide_iso; the least image under them names the orbit.  The first
        call takes each orbit once and keeps both keys: a Phi-involution
        label's two are equal, and an exchange pair's direct key holds the
        first of the two ends in its key."""
        if not self._keys:
            p = self.params
            if self.case != EXCHANGE_PAIR:
                key = (self.case, p.delta, p.t, p.full_beta,
                       self._orbit(False, p.g))
                self._keys.update({False: key, True: key})
            else:
                end = (p.beta, self._orbit(False))
                opposite = (p.beta.swapped(), self._orbit(True))
                self._keys.update({
                    False: (self.case, frozenset((end, opposite))),
                    True: (self.case, end)})
        return self._keys[direct]

    def _orbit(self, inverted: bool, g=None) -> tuple:
        """The least image, over the shifts h in G, of g - 2h (with g) and
        of the two xi multisets (gamma inverted on request) shifted by h,
        in element codes, which G orders as its coordinate tuples."""
        coset_rep = self.full_support.coset_rep
        xis = [self.xi(w, inverted).counts.items() for w in (0, 1)]
        return min(((g - (h + h)).code if g is not None else (),) + tuple(
            tuple(sorted((coset_rep(h + r).code, m) for r, m in xi))
            for xi in xis) for h in self.params.group.elements())

    def build(self, field: CycloField) -> ConstructedAlgebra:
        key = field.conductor
        if key not in self._built:
            if self.case == EXCHANGE_PAIR:
                self._built[key] = build_exchange_pair(self.params, field)
            else:
                self._built[key] = build_M_inv(self.params, field,
                                               self._divisions)
        return self._built[key]

    def intrinsics(self, field: CycloField) -> "IntrinsicInvariants":
        key = field.conductor
        if key not in self._intrinsics:
            ca = self.build(field)
            self._intrinsics[key] = intrinsic_invariants(ca.algebra, ca.grading)
        return self._intrinsics[key]


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

@dataclass
class Decision:
    verdict: str                 # "YES" | "NO"
    certificate: dict

    @property
    def is_yes(self) -> bool:
        return self.verdict == "YES"


def decide_iso(l1: ClassLabel, l2: ClassLabel,
               field: CycloField = None) -> Decision:
    """Evaluate the classification conditions; the certificate carries the
    witness data for YES and the violated condition for NO."""
    if l1.case != l2.case:
        field = field or CycloField(classify_conductor(l1, l2))
        return Decision("NO", _cross_case_certificate(l1, l2, field))

    p1, p2 = l1.params, l2.params
    if l1.case == EXCHANGE_PAIR:
        # a bicharacter's == compares its domain T as well
        if p1.beta == p2.beta:
            g = _common_shift(l1, l2, inverted=False)
            if g is not None:
                return Decision("YES", {"branch": "direct", "shift": g})
        if p1.beta == p2.beta.swapped():
            g = _common_shift(l1, l2, inverted=True)
            if g is not None:
                return Decision("YES", {"branch": "op", "shift": g})
        return Decision("NO", {"violated": "no shift matches the coset "
                                           "multisets (directly or opposite)"})

    if l1.case == SIMPLE_ALGEBRA:
        if p1.T != p2.T:
            return Decision("NO", {"violated": "T != T'"})
        if p1.beta != p2.beta:
            return Decision("NO", {"violated": "beta != beta'"})
        if p1.delta != p2.delta:
            return Decision("NO", {"violated": "delta != delta'"})
    else:
        if p1.t != p2.t:
            return Decision("NO", {"violated": "t != t'"})
        if l1.full_support != l2.full_support:
            return Decision("NO", {"violated": "T<t> != T'<t'>"})
        if p1.full_beta != p2.full_beta:
            return Decision("NO", {"violated": "beta^[t] != beta'^[t']"})
    # shifting the module grading by g'' multiplies the gamma classes by
    # g'' and the form degree by g''^{-2}, so g = g' g''^{-2}: candidate
    # shifts are the solutions of 2 g'' = g' - g
    for g2 in halvings(p1.group, p2.g - p1.g):
        if all(l1.xi(w) == l2.xi(w).shifted(g2) for w in (0, 1)):
            return Decision("YES", {"branch": "direct", "shift": g2})
    return Decision("NO", {
        "violated": "no g'' with 2g'' = g' - g matches both coset "
                    "multisets Xi(kappa_i, gamma_i)"})


def _common_shift(l1: ClassLabel, l2: ClassLabel, inverted: bool):
    """A single g with Xi_i(l1) = g Xi_i(l2[, gamma inverted]) for both i."""
    a0, a1 = l1.xi(0), l1.xi(1)
    b0, b1 = l2.xi(0, inverted), l2.xi(1, inverted)
    for g in xi_shift_candidates(a0, b0):
        if a0 == b0.shifted(g) and a1 == b1.shifted(g):
            return g
    return None


def _cross_case_certificate(l1, l2, field):
    """Different cases are separated intrinsically: graded-simplicity and
    simplicity of the built algebras, never the labels."""
    facts = {}
    for tag, lab in (("left", l1), ("right", l2)):
        inv = lab.intrinsics(field)
        facts[tag] = {
            "case": lab.case,
            "simple_algebra": inv.simple,
            "graded_simple": inv.graded_simple,
        }
    if (facts["left"]["simple_algebra"], facts["left"]["graded_simple"]) == \
            (facts["right"]["simple_algebra"], facts["right"]["graded_simple"]):
        raise VerificationError("cross-case labels must differ in an "
                                "intrinsic simplicity invariant")
    return {"violated": "different classification case",
            "intrinsic": facts}


# ---------------------------------------------------------------------------
# intrinsic invariants
# ---------------------------------------------------------------------------

@dataclass
class IntrinsicInvariants:
    dims: dict                    # degree coords -> component dimension
    center_support: tuple
    simple: bool
    graded_simple: bool


# the invariants a refutation compares, in order; equal inside a class
INTRINSIC_ATTRS = ("dims", "center_support", "simple", "graded_simple")


def _intrinsic_mismatch(inv1: IntrinsicInvariants,
                        inv2: IntrinsicInvariants):
    """The first of INTRINSIC_ATTRS on which the two differ, or None."""
    return next((attr for attr in INTRINSIC_ATTRS
                 if getattr(inv1, attr) != getattr(inv2, attr)), None)


def graded_center_support(alg: OmegaAlgebra, grading: Grading, center: list):
    """Degrees g with a nonzero central element in A_g.  The center of an
    algebra graded by its product is graded, the sum of its intersections
    with the A_g, so these are the degrees met by the supports of any basis
    of it, such as `center` = center_basis(alg)."""
    met = {grading.degmap[i] for v in center for i in v}
    return tuple(g for g in grading.support() if g in met)


def intrinsic_invariants(alg: OmegaAlgebra,
                         grading: Grading) -> IntrinsicInvariants:
    """Invariants computable from the structure tensors alone, with one
    center kernel: the simplicity test, the graded test and the center
    support all read Z = center_basis(alg).

    `grading` must grade the product: ClassLabel.intrinsics passes the
    grading that ConstructedAlgebra.verify checks with check_grading.
    The center support relies on it, and so does the graded test, which
    is handed Z and so skips is_simple's own check of the grading."""
    center = center_basis(alg)
    simple = is_simple(alg, ops={PRODUCT}, center=center)
    # a graded ideal is an ideal: a simple algebra is graded-simple
    graded_simple = simple or graded_is_simple(alg, grading, center)
    counts = {}
    for d in grading.degmap:
        counts[d.coords] = counts.get(d.coords, 0) + 1
    return IntrinsicInvariants(
        # in support order, so that equal dimension functions print alike
        dims={g: counts[g] for g in sorted(counts)},
        center_support=tuple(e.coords for e in
                             graded_center_support(alg, grading, center)),
        simple=simple,
        graded_simple=graded_simple,
    )


# ---------------------------------------------------------------------------
# structured morphism search (witnesses and refutations)
# ---------------------------------------------------------------------------

def _matchings(mk1, mk2, shift, op: bool = False):
    """Bijections pi of the module bases with pi(i) in the part of i and
    s_i = gamma_i - shift - gamma'_(pi(i)) in T, or with `op` (a matching
    onto the opposite, whose module degrees are inverted) s_i = gamma_i -
    shift + gamma'_(pi(i)).  Yields the (pi, s) pairs lazily, in the
    lexicographic order of pi: the caller bounds the search by its
    attempt count."""
    n, k0, T = mk1.N, mk1.k0, mk2.D.support
    if (n, k0) != (mk2.N, mk2.k0):     # no map respects the parts
        return
    gamma2 = [-g for g in mk2.gamma] if op else mk2.gamma
    allowed = [[(j, s) for j, g2 in enumerate(gamma2)
                if (i < k0) == (j < k0) and (s := g1 - shift - g2) in T]
               for i, g1 in enumerate(mk1.gamma)]

    def extend(pi, s_list):
        if len(pi) == n:
            yield pi, s_list
            return
        for j, s in allowed[len(pi)]:
            if j not in pi:
                yield from extend(pi + [j], s_list + [s])
    yield from extend([], [])


def _division_characters(ca: ConstructedAlgebra):
    """Graded automorphisms of the division part modulo inner ones, as
    scalars per D basis index: trivial for simple D (nondegeneracy makes
    every character inner); for exchange doubles also the sign character
    detecting the doubling element, which is not inner because t
    radicalizes beta^[t]."""
    D, field = ca.D, ca.field
    chars = [[field.one] * D.dim]
    if D.flavor == "exchange":
        inner_support = set(D.inner.support.elements)
        chars.append([field.scalar(1 if e in inner_support else -1)
                      for e in D.elements])
    return chars


def _solve_scalars(ca1, ca2, pi, s_list, chi, roots):
    """A scalar vector c making the Phi identity Q^* Phi_2 Q = c Phi_1 hold,
    or None when the patterns are incompatible.

    Phi is monomial, so each row i pairs with one column p(i); the
    identity decouples into one multiplicative equation per pair, with a
    global scalar and one free scalar per dual pair."""
    D = ca1.D
    field = ca1.field
    phi1, phi2 = ca1.phi, ca2.phi
    p1 = {i: j for (i, j) in phi1}
    p2 = {i: j for (i, j) in phi2}
    n = len(pi)
    sigma = D.sign_form
    # pattern compatibility: pi must transport the Phi_2 pairing to Phi_1
    for i in range(n):
        if p2.get(pi[i]) != pi[p1[i]]:
            return None
    # k_i: Q^*Phi2Q at (i, p1(i)) equals k_i * (c_i c_{p1(i)}) * Z-part;
    # require the same division-basis element as Phi1[i, p1(i)] and
    # collect the scalar ratio.
    ratios = {}
    for i in range(n):
        j = p1[i]
        b2, c2v = phi2[(pi[i], pi[j])]
        m, k = D.sandwich(D.index[s_list[i]], b2, D.index[s_list[j]])
        b1, c1v = phi1[(i, j)]
        if k != b1:
            return None
        star_sign = field.scalar(sigma(s_list[i]))
        # condition: (Q^* Phi2 Q)_{ij} = c * chi(Phi1)_{ij}, and
        # (Q^* Phi2 Q)_{ij} = c_i c_j sigma(s_i) m c2v Z_{b1}
        ratios[(i, j)] = (star_sign * m * c2v) / (chi[b1] * c1v)
    # solve c_i c_j * ratios = global scalar across all pairs
    for global_c in roots:
        c = [None] * n
        ok = True
        for i in range(n):
            j = p1[i]
            if i == j:
                want = global_c / ratios[(i, i)]       # c_i^2 = want
                sol = next((r for r in roots if r * r == want), None)
                if sol is None:
                    ok = False
                    break
                c[i] = sol
            elif c[i] is None:
                # phi_matrix pairs i with one j: first met at min(i, j),
                # with both scalars unset
                c[i] = field.one
                c[j] = global_c / ratios[(i, j)]
        if not ok:
            continue
        # consistency across both orders of each dual pair
        if all(c[i] * c[p1[i]] * ratios[(i, p1[i])] == global_c for i in range(n)):
            return c
    return None


def _search(mk1, mk2, target, twists, shifts, scalars, op: bool = False):
    """The structured search behind witnesses and refutations: block
    permutations x monomial division scalars x twists of D x shift
    relabelings.  For each shift, module matching (pi, s) and twist it
    counts one attempt, asks `scalars(pi, s, twist)` for the module
    scalars c (None: no candidate), and checks the map

        b E_ij -> c_i/c_j twist(b) Z_(s_i) b Z_(s_j)^{-1} E_(pi(i), pi(j)),

    or with `op` the anti-map b E_ij -> twist(b) Z_(-s_j) b Z_(-s_i)^{-1}
    E_(pi(j), pi(i)) onto the opposite, as a graded isomorphism from mk1
    onto the algebra of the grading `target`, with products in mk2's D.
    Returns (map, meta) or (None, attempts); gives up after SEARCH_CAP
    attempts."""
    D = mk2.D
    gradings = (mk1.grading, target)
    attempts = 0
    for shift in shifts:
        for pi, s_list in _matchings(mk1, mk2, shift, op):
            for twist in twists:
                attempts += 1
                if attempts > SEARCH_CAP:
                    return None, attempts
                c = scalars(pi, s_list, twist)
                if c is None:
                    continue
                s_idx = [D.index[-s if op else s] for s in s_list]
                inverses = [D.basis_inverse(k) for k in s_idx]
                left = [(pi[i], s_idx[i], c[i]) for i in range(len(pi))]
                right = [(pi[i], k, x / c[i])
                         for i, (x, k) in enumerate(inverses)]
                f = LinearMap(mk1.algebra, target.algebra,
                              _conjugation_columns(mk1, mk2, left, right,
                                                   twist, transpose=op))
                if (check_morphism(f, gradings=gradings).passed
                        and f.is_bijective()):
                    return f, {"shift": shift, "pi": pi, "attempts": attempts}
    return None, attempts


def find_structured_iso(ca1: ConstructedAlgebra, ca2: ConstructedAlgebra,
                        shifts):
    """A verified graded isomorphism between the matrix components of two
    labels in the structured family (see _search).  For a Phi-involution
    label the component is the algebra with its involution, and the module
    scalars are solved from the Phi identity; an exchange pair's component
    has no involution, and the map is the one witness_isomorphism lifts.
    Returns (map, meta) or (None, attempts)."""
    m1, m2 = ca1.matrix, ca2.matrix
    field = ca1.field
    if (m1.algebra.dim != m2.algebra.dim
            or ca1.D.elements != ca2.D.elements):
        return None, 0
    roots = field.roots_of_unity()

    def scalars(pi, s_list, chi):
        if ca1.phi is None:
            return [field.one] * len(pi)
        return _solve_scalars(ca1, ca2, pi, s_list, chi, roots)
    return _search(m1, m2, m2.grading, _division_characters(ca1), shifts,
                   scalars)


def _antimap_candidates(D1, D2, roots):
    """Diagonal maps nu(Z_b) = n_b W_b (W_b the basis of D2) from D1 to
    D2^op, whose structure constants are mu_2(t, s): exactly the entrywise
    pieces of a graded isomorphism D1 -> D2^op."""
    return list(diagonal_solutions(
        D1, lambda s, t: D2.mu(D2.index[t], D2.index[s])[0], roots))


def find_component_anti_iso(ca1: ConstructedAlgebra, ca2: ConstructedAlgebra,
                            shifts):
    """A verified graded isomorphism from the matrix component of the first
    exchange pair onto the opposite of the second's, within the monomial
    family (see _search, with the nu of _antimap_candidates as twists);
    returns (map onto the opposite, meta) or (None, attempts)."""
    m1, m2 = ca1.matrix, ca2.matrix
    D = m1.D
    if D.elements != m2.D.elements:
        return None, 0
    nus = [[nu[e] for e in D.elements] for nu in
           _antimap_candidates(D, m2.D, D.field.roots_of_unity())]
    if not nus:     # no candidate map: the family is empty
        return None, 0
    _, op_grading = opposite(m2.algebra, m2.grading)
    ones = [D.field.one] * m1.N
    return _search(m1, m2, op_grading, nus, shifts, lambda *_: ones, op=True)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def _assemble_pair_map(ca1, ca2, f_cols, branch) -> LinearMap:
    """Lift a component map to the doubles: (x, y) -> (f x, f y) for the
    direct branch, (x, y) -> (f y, f x) for the opposite branch."""
    d2 = ca2.matrix.algebra.dim
    offsets = (d2, 0) if branch == "op" else (0, d2)
    cols = [{k + off: c for k, c in col.items()}
            for off in offsets for col in f_cols]
    return LinearMap(ca1.algebra, ca2.algebra, cols)


class WitnessError(VerificationError):
    """A YES decision could not be backed by a verified isomorphism;
    this falsifies the implementation and halts the run."""


def witness_isomorphism(l1: ClassLabel, l2: ClassLabel, certificate: dict,
                        field: CycloField = None) -> LinearMap:
    """Build and fully verify an isomorphism realizing a YES decision.

    The map is found inside the structured family seeded by the
    certificate's shift, by the search of its branch; check_morphism runs
    with involution and grading included.  An exchange pair's component
    map is lifted to the pair and verified there.  Failure raises
    WitnessError."""
    field = field or CycloField(classify_conductor(l1, l2))
    ca1, ca2 = l1.build(field), l2.build(field)
    shift = certificate.get("shift", l1.params.group.identity)
    branch = certificate.get("branch")
    search = find_component_anti_iso if branch == "op" else find_structured_iso
    f, _ = search(ca1, ca2, [shift])
    if f is None:
        raise WitnessError(f"no structured witness for {l1.name} ~ {l2.name} "
                           f"(branch {branch})")
    if l1.case != EXCHANGE_PAIR:
        return f
    F = _assemble_pair_map(ca1, ca2, f.columns, branch)
    rep = check_morphism(F, gradings=(ca1.grading, ca2.grading))
    if not rep.passed or not F.is_bijective():
        raise WitnessError(f"pair witness fails verification: "
                           f"{rep.violations[:3]}")
    return F


# ---------------------------------------------------------------------------
# refutations
# ---------------------------------------------------------------------------

@dataclass
class Refutation:
    refuted: bool
    method: str            # "intrinsic" | "exhausted-search" | "INCONCLUSIVE"
    details: dict


def refute_isomorphism(l1: ClassLabel, l2: ClassLabel,
                       field: CycloField = None) -> Refutation:
    """Independent evidence for a NO decision: (a) an intrinsic invariant
    mismatch, or (b) exhaustion of the structured candidate family, every
    shift that could align the module degrees at all (first-element
    differences of the coset multisets).  Reports INCONCLUSIVE rather
    than silently passing when neither applies within SEARCH_CAP."""
    field = field or CycloField(classify_conductor(l1, l2))
    ca1, ca2 = l1.build(field), l2.build(field)
    inv1 = l1.intrinsics(field)
    inv2 = l2.intrinsics(field)
    attr = _intrinsic_mismatch(inv1, inv2)
    if attr is not None:
        return Refutation(True, "intrinsic",
                          {"invariant": attr, "left": str(getattr(inv1, attr)),
                           "right": str(getattr(inv2, attr))})
    if l1.case != l2.case:
        return Refutation(False, "INCONCLUSIVE",
                          {"reason": "cross-case pair with identical "
                                     "intrinsic invariants"})
    attempts = 0
    for op in (False, True) if l1.case == EXCHANGE_PAIR else (False,):
        search = find_component_anti_iso if op else find_structured_iso
        f, n = search(ca1, ca2, xi_shift_candidates(l1.xi(0), l2.xi(0, op)))
        if f is not None:
            raise WitnessError(
                f"refutation search found an isomorphism between labels "
                f"decided NO: {l1.name} ~ {l2.name}")
        attempts += n
    if attempts > SEARCH_CAP:
        return Refutation(False, "INCONCLUSIVE",
                          {"reason": "search budget exhausted",
                           "attempts": attempts})
    return Refutation(True, "exhausted-search", {"attempts": attempts})


# ---------------------------------------------------------------------------
# label enumeration and census
# ---------------------------------------------------------------------------

def all_subgroups(G: AbelianGroup):
    """All subgroups of a small finite group, each with the first set of
    generators, by size and then lexicographically, that spans it.  A set
    grows one element at a time, up to G.ncoords elements (a subgroup of
    a finite abelian group needs no more generators than the group), and
    its span grows by the multiples of the new element.  An element
    already in the span is skipped, and so is every extension of that
    set: dropping the element gives a smaller set with the same span."""
    elements = G.elements()
    multiples = [_cyclic(e) for e in elements]
    trivial = frozenset(multiples[0])
    seen = {trivial: Subgroup(G, ())}
    layer = [((), trivial)]         # (indices of the generators, span)
    for _ in range(G.ncoords):
        grown = []
        for gens, span in layer:
            for n in range(gens[-1] + 1 if gens else 0, len(elements)):
                if elements[n] in span:
                    continue
                wider = frozenset(s + k for s in span for k in multiples[n])
                if wider not in seen:
                    seen[wider] = Subgroup(G, [elements[i] for i in gens + (n,)])
                grown.append((gens + (n,), wider))
        layer = grown
    return sorted(seen.values(), key=lambda s: (len(s), tuple(
        e.coords for e in s.elements)))


def nondegenerate_alternating_bicharacters(T: Subgroup):
    """All nondegenerate alternating bicharacters on T (empty unless T is
    of symmetric-square shape)."""
    from .groups import Bicharacter
    basis = T.basis()
    if not basis:
        return [Bicharacter.from_generator_matrix(T, (), [])]
    orders = [g.order() for g in basis]
    size = 1
    for o in orders:
        size *= o
    if size != len(T):
        return []
    r = len(basis)
    pair_ranges = []
    for i in range(r):
        for j in range(i + 1, r):
            pair_ranges.append(gcd(orders[i], orders[j]))
    out = []
    for combo in itertools.product(*[range(m) for m in pair_ranges]):
        matrix = [[0] * r for _ in range(r)]
        idx = 0
        for i in range(r):
            for j in range(i + 1, r):
                o = pair_ranges[idx]
                matrix[i][j] = combo[idx]
                matrix[j][i] = (-combo[idx]) % o if o else 0
                idx += 1
        bc = Bicharacter.from_generator_matrix(T, basis, matrix)
        if bc.is_nondegenerate_alternating():
            out.append(bc)
    return out


def enumerate_labels(G: AbelianGroup, max_dim: int,
                     cases=(EXCHANGE_PAIR, SIMPLE_ALGEBRA, EXCHANGE_DIVISION),
                     max_support: int = None) -> list[ClassLabel]:
    """All valid class labels over G within the dimension bound; each
    module part of an exchange pair has dimension at most two.

    Deliberately exhaustive: distinct labels of the same class are
    exactly what the census wants to decide about.  No name recurs over
    one beta, but a name omits beta: when T carries several nondegenerate
    alternating bicharacters, two labels can share a name, and the
    enumeration raises a ConstraintError naming T and the label rather
    than drop one.

    Every candidate satisfies its constraints by construction, so each
    one kept is built once (the census reuses the build) and none is
    built to be rejected.  An exchange pair's only constraint is that a
    part's degrees are distinct modulo T: they run over exactly those
    tuples (_degree_tuples).  The Phi-involution constraints are solved
    by _enumerate_phi."""
    elements = G.elements()
    free = [((x,), None) for x in elements]
    labels = {}
    divisions = {}

    def add(params, field):
        lab = ClassLabel(params, _divisions=divisions)
        if lab.name in labels:
            raise ConstraintError(
                f"label {lab.name} recurs over T = {params.T}: label names "
                f"omit beta, so a second bicharacter on T repeats them")
        lab.build(field)
        labels[lab.name] = lab

    for T in all_subgroups(G):
        if max_support is not None and len(T) > max_support:
            continue
        for beta in nondegenerate_alternating_bicharacters(T):
            # classify_conductor of every label over (T, beta): a doubling
            # element has order 2, which the lcm holds already
            field = CycloField(2 * lcm(2, T.exponent, beta.exponent))
            tdim = len(T)
            # exchange pairs: dim = 2 n^2 |T|
            if EXCHANGE_PAIR in cases:
                n = 2
                while 2 * n * n * tdim <= max_dim:
                    for k0 in range(1, min(n, 3)):
                        k1 = n - k0
                        if not 1 <= k1 <= 2:
                            continue
                        for kappa0, kappa1 in itertools.product(
                                _compositions(k0), _compositions(k1)):
                            gammas1 = [gam for gam, _ in _degree_tuples(
                                [free] * len(kappa1), T.coset_rep)]
                            for g0, _ in _degree_tuples([free] * len(kappa0),
                                                        T.coset_rep):
                                for g1 in gammas1:
                                    add(ExchangePairParams(
                                        group=G, T=T, beta=beta,
                                        kappa0=kappa0, gamma0=g0,
                                        kappa1=kappa1, gamma1=g1), field)
                    n += 1
            if not T.is_elementary_2():
                continue
            # simple algebras (Phi involution): dim = n^2 |T|
            if SIMPLE_ALGEBRA in cases:
                _enumerate_phi(elements, T, beta, None, max_dim, add, field,
                               divisions)
            if EXCHANGE_DIVISION in cases:
                for t in elements:
                    if t.order() == 2 and t not in T:
                        _enumerate_phi(elements, T, beta, t, max_dim, add,
                                       field, divisions)
    return sorted(labels.values(), key=lambda lab: lab.name)


def _enumerate_phi(elements, T, beta, t, max_dim, add, field, divisions):
    """The Phi-involution labels over (T, beta, t) within the dimension
    bound, each solving the constraints _resolve_part checks.  With
    T_full the support (T<t> in the exchange-division case) and sigma
    the sign form of the division part, taken from the shared table
    `divisions`:

    * a self-dual degree x needs t_x = -(2x + g) in T_full, so it runs
      over a per-g table of those x;
    * an odd self-dual block needs sigma(t_x) = delta: the first one
      fixes delta (t fixes it to +1 from the start), and a layout with no
      odd block takes both deltas;
    * a dual pair's second degree is -g - x, given its first x;
    * the degrees of a part stay distinct modulo T_full as they are
      chosen.

    The free degrees run in the order of the product over the elements
    (g first, delta last), so the candidates are the valid ones of that
    product in its order.  The degrees fix m: the head x of a dual pair
    has -g - x distinct from x modulo T_full, so t_x is not in T_full and
    x is no self-dual degree.  Two layouts of one kappa therefore never
    give one name."""
    tdim = len(T) * (2 if t is not None else 1)
    if 4 * tdim > max_dim:
        return
    T_full = T if t is None else T.extended_by(t)
    sigma = division_part(T, beta, t, field, divisions).sign_form
    odd, even, paired = {}, {}, {}
    for g in elements:
        degrees = [(x, -(x + x + g)) for x in elements]
        selfdual = [(x, t_x) for x, t_x in degrees if t_x in T_full]
        odd[g] = [((x,), sigma(t_x)) for x, t_x in selfdual]
        even[g] = [((x,), None) for x, _ in selfdual]
        paired[g] = [((x, -(g + x)), None) for x in elements]

    def slots(kappa, m, g):
        return ([odd[g] if k % 2 else even[g] for k in kappa[:m]]
                + [paired[g]] * ((len(kappa) - m) // 2))

    n = 2
    while n * n * tdim <= max_dim:
        for n0 in range(1, n):
            for (kappa0, m0), (kappa1, m1) in itertools.product(
                    part_layouts(n0), part_layouts(n - n0)):
                for g in elements:
                    for gam0, d0 in _degree_tuples(
                            slots(kappa0, m0, g), T_full.coset_rep,
                            None if t is None else 1):
                        for gam1, d1 in _degree_tuples(
                                slots(kappa1, m1, g), T_full.coset_rep, d0):
                            for delta in (1, -1) if d1 is None else (d1,):
                                add(InvolutionParams(
                                    group=T.group, T=T, beta=beta,
                                    kappa0=kappa0, gamma0=gam0,
                                    kappa1=kappa1, gamma1=gam1, delta=delta,
                                    g=g, t=t, m0=m0, m1=m1), field)
        n += 1


def _degree_tuples(slots, coset_rep, delta=None):
    """The degree tuples of one module part, as (degrees, delta), in the
    lexicographic order of the slots.  Each slot lists its choices
    (degrees, sign); a tuple takes one choice per slot.  Its degrees are
    distinct modulo the support (coset_rep names their cosets), and each
    sign that is not None equals delta; the first such sign fixes a
    delta of None."""
    def extend(i, gamma, used, delta):
        if i == len(slots):
            yield gamma, delta
            return
        for degrees, sign in slots[i]:
            reps = {coset_rep(x) for x in degrees}
            if len(reps) < len(degrees) or not used.isdisjoint(reps):
                continue
            if sign is None:
                yield from extend(i + 1, gamma + degrees, used | reps, delta)
            elif delta in (None, sign):
                yield from extend(i + 1, gamma + degrees, used | reps, sign)
    return extend(0, (), frozenset(), delta)


@dataclass
class NoPair:
    """A NO decision's violated condition and its refutation, and the
    detail of the report records they certify."""
    violated: str
    refutation: Refutation

    def __post_init__(self):
        ref = self.refutation
        self.detail = (f"{self.violated} "
                       f"[{ref.method if ref.refuted else 'INCONCLUSIVE'}]")


@dataclass
class CensusResult:
    """A census as its class table: per label its class and its direct key
    (the branch of its YES pairs), per class the label index of its
    representative and the number of its members whose witness map was
    returned, per pair of classes (a, b) the NoPair of their
    representatives, and per member pair (i, j) of a class pair whose
    refutation is not intrinsic its own NoPair.  The per-pair decisions
    and the counts are read off the table; none of it but the labels is
    part of the report."""
    group: AbelianGroup
    max_dim: int
    labels: list
    classes: list = dc_field(default_factory=list)
    direct: list = dc_field(default_factory=list)
    representatives: list = dc_field(default_factory=list)
    witnessed: list = dc_field(default_factory=list)
    class_pairs: dict = dc_field(default_factory=dict)
    member_pairs: dict = dc_field(default_factory=dict)

    def decisions(self):
        """(i, j, verdict, detail) for every label pair i <= j, in order."""
        classes, direct, members = self.classes, self.direct, self.member_pairs
        # detail[a][b]: the NO detail of classes a != b, None for a YES
        detail = [[None if a == b else self.class_pairs[min(a, b), max(a, b)]
                   .detail for b in range(len(self.representatives))]
                  for a in range(len(self.representatives))]
        for i, c in enumerate(classes):
            row, d = detail[c], direct[i]
            for j in range(i, len(classes)):
                no = row[classes[j]]
                if no is None:
                    yield i, j, "YES", "direct" if direct[j] == d else "op"
                elif members and (i, j) in members:
                    yield i, j, "NO", members[i, j].detail
                else:
                    yield i, j, "NO", no

    @property
    def yes_count(self) -> int:
        return sum(n * (n + 1) // 2 for n in Counter(self.classes).values())

    @property
    def verified_witnesses(self) -> int:
        # a YES pair is certified by the composition of its members'
        # witnesses (the representative's is the identity)
        return sum((k + 1) * (k + 2) // 2 for k in self.witnessed)

    @property
    def no_count(self) -> int:
        return len(self.labels) * (len(self.labels) + 1) // 2 - self.yes_count

    @property
    def inconclusive(self) -> int:
        # an intrinsic refutation never fails, and any other certifies
        # only its own pair
        return sum(not p.refutation.refuted for p in itertools.chain(
            self.class_pairs.values(), self.member_pairs.values()))

    @property
    def refutations(self) -> int:
        return self.no_count - self.inconclusive

    def to_dict(self):
        return {
            "group": str(self.group),
            "max_dim": self.max_dim,
            "labels": [lab.name for lab in self.labels],
            "decisions": [
                {"left": i, "right": j, "verdict": v, "detail": d}
                for (i, j, v, d) in self.decisions()],
            "yes": self.yes_count,
            "no": self.no_count,
            "inconclusive": self.inconclusive,
            "verified_witnesses": self.verified_witnesses,
            "refutations": self.refutations,
        }


def run_census(G: AbelianGroup, max_dim: int,
               cases=(EXCHANGE_PAIR, SIMPLE_ALGEBRA, EXCHANGE_DIVISION),
               max_support: int = None) -> CensusResult:
    """Enumerate labels, sort them into isomorphism classes by their keys,
    and certify every YES and every NO through the classes, filling the
    class table.

    A label with a new key is a class representative (psi the identity);
    any other is decided against its representative, witness_isomorphism
    verifies psi_i: A_rep -> A_i, and the two must share their intrinsic
    invariants.  A YES pair (i, j) is certified by psi_j o psi_i^{-1}
    (the maps are not kept), its branch read off the direct keys.  Each
    pair of classes is decided and refuted once, on its representatives,
    into one NoPair; its member pairs are certified by that refutation
    when it is intrinsic (intrinsic invariants are isomorphism
    invariants), otherwise each by its own, since a composed map can
    leave the searched family.  A decision against the keys (NO inside a
    class, YES across two) raises WitnessError."""
    labels = enumerate_labels(G, max_dim, cases=cases, max_support=max_support)
    result = CensusResult(G, max_dim, labels)
    if not labels:
        return result
    field = CycloField(classify_conductor(*labels))
    classes, reps = result.classes, result.representatives

    def decide(l1, l2, c1, c2):
        decision = decide_iso(l1, l2, field)
        if decision.is_yes != (c1 == c2):
            raise WitnessError(
                f"decided {decision.verdict} against the classes: "
                f"{l1.name} (class {c1}) ~ {l2.name} (class {c2})")
        return decision

    class_of = {}              # key -> class
    for j, lab in enumerate(labels):
        c = class_of.setdefault(lab.key(), len(reps))
        classes.append(c)
        if c == len(reps):
            reps.append(j)
            result.witnessed.append(0)
            continue
        rep = labels[reps[c]]
        if witness_isomorphism(rep, lab, decide(rep, lab, c, c).certificate,
                               field) is not None:
            result.witnessed[c] += 1
        attr = _intrinsic_mismatch(rep.intrinsics(field), lab.intrinsics(field))
        if attr is not None:
            raise VerificationError(
                f"{lab.name} is isomorphic to {rep.name} "
                f"but differs in the intrinsic invariant {attr}")
    result.direct = [lab.key(direct=True) for lab in labels]

    for (a, r), (b, s) in itertools.combinations(enumerate(reps), 2):
        violated = decide(labels[r], labels[s], a, b).certificate["violated"]
        pair = result.class_pairs[a, b] = NoPair(
            violated, refute_isomorphism(labels[r], labels[s], field))
        if pair.refutation.method == "intrinsic":
            continue
        members = [[k for k, c in enumerate(classes) if c == e] for e in (a, b)]
        for i, j in itertools.product(*members):
            i, j = min(i, j), max(i, j)
            if (i, j) != (r, s):
                result.member_pairs[i, j] = NoPair(
                    violated, refute_isomorphism(labels[i], labels[j], field))
    return result
