"""Finitely generated abelian groups and the forms that live on them.

Groups are Z^r x Z_m1 x ... x Z_ms with additive coordinate tuples
(free coordinates first, torsion coordinates reduced into [0, m_i)).
Degrees of every grading in the workbench are elements of such a group;
the distinguished grading group Z x G is formed by prepending one free
coordinate (helpers at the bottom).

There is one group object per (free rank, torsion), kept in a registry
for the life of the process, so equal groups are the same object.  It
numbers its elements by integer codes and makes one element per code,
so equal elements are the same object too and compare by identity.  The
torsion coordinates are read in mixed radix, so codes order a finite
group as its coordinate tuples; free coordinates are folded into a
multiple of the torsion order.  An element keeps its hash, string and
order, and its negative and sums once computed, so that group
arithmetic is mostly dict lookups: a finite group holds at most |G|
elements and |G|^2 sums.

Bicharacters are stored as full exponent tables over the (finite)
domain subgroup: beta(t1, t2) = zeta_M^table[t1, t2] where M is the
exponent of the domain.  That makes equality of two bicharacters a
plain table comparison regardless of which generators either side was
built from.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod

from .scalars import CycloField, Scalar


class GroupError(ValueError):
    pass


def _fold(free) -> int:
    """An injective map Z^r -> N, 0 at 0: each coordinate in zigzag order,
    the results paired by Cantor's pairing."""
    k = 0
    for z in free:
        z = 2 * z if z >= 0 else -2 * z - 1
        k = (k + z) * (k + z + 1) // 2 + z
    return k


class AbelianGroup:
    __slots__ = ("free_rank", "torsion", "_hash", "_size", "_codes")
    _groups = {}                      # (free_rank, torsion) -> its one group

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        key = (free_rank, tuple(torsion))
        group = cls._groups.get(key)
        if group is None:
            if free_rank < 0 or any(m < 2 for m in key[1]):
                raise GroupError("free rank must be >= 0 and torsion orders >= 2")
            group = cls._groups[key] = object.__new__(cls)
            group.free_rank, group.torsion = key
            group._hash = hash(key)
            group._size = prod(key[1])    # number of torsion codes
            group._codes = {}             # code -> its one element
        return group

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"AbelianGroup(free_rank={self.free_rank!r}, torsion={self.torsion!r})"

    @property
    def ncoords(self) -> int:
        return self.free_rank + len(self.torsion)

    def element(self, coords) -> "GroupElement":
        coords = tuple(map(int, coords))
        if len(coords) != self.ncoords:
            raise GroupError(f"expected {self.ncoords} coordinates, got {len(coords)}")
        r, code = self.free_rank, 0
        for c, m in zip(coords[r:], self.torsion):
            code = code * m + c % m
        if r:
            code += self._size * _fold(coords[:r])
        return self._codes.get(code) or self._intern(code, coords)

    def _intern(self, code: int, coords: tuple) -> "GroupElement":
        r = self.free_rank
        self._codes[code] = GroupElement(self, coords[:r] + tuple(
            c % m for c, m in zip(coords[r:], self.torsion)), code)
        return self._codes[code]

    @property
    def identity(self) -> "GroupElement":
        return self._codes.get(0) or self._intern(0, (0,) * self.ncoords)

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def elements(self) -> list["GroupElement"]:
        """All elements, in code order, which is coordinate order."""
        if not self.is_finite():
            raise GroupError("cannot enumerate an infinite group")
        return [self._codes.get(code) or self._intern(code, coords)
                for code, coords in enumerate(
                    itertools.product(*map(range, self.torsion)))]

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{m}" for m in self.torsion]
        return " x ".join(parts) if parts else "1"


class GroupElement:
    """An element of `group`: its reduced coordinates and its code there.
    Only the group makes elements (AbelianGroup.element), one per code."""
    __slots__ = ("group", "coords", "code", "_hash", "_str", "_order", "_neg",
                 "_sums")

    def __init__(self, group: AbelianGroup, coords: tuple, code: int):
        self.group, self.coords, self.code = group, coords, code
        self._hash = hash((group, coords))
        self._str = "(" + ",".join(map(str, coords)) + ")"
        r = group.free_rank
        self._order = None if any(coords[:r]) else lcm(*(
            m // gcd(m, c) for c, m in zip(coords[r:], group.torsion)))
        self._neg = None
        self._sums = {}               # other.code -> self + other

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GroupElement(group={self.group!r}, coords={self.coords!r})"

    def __add__(self, other: "GroupElement") -> "GroupElement":
        """A sum is kept under the other operand's code; the first time, it
        is reduced by the group."""
        group = self.group
        if other.group is not group:
            raise GroupError("elements of different groups")
        total = self._sums.get(other.code)
        if total is None:
            total = self._sums[other.code] = group.element(
                [a + b for a, b in zip(self.coords, other.coords)])
        return total

    def __neg__(self) -> "GroupElement":
        if self._neg is None:
            self._neg = self.group.element([-a for a in self.coords])
        return self._neg

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scaled(self, n: int) -> "GroupElement":
        return self.group.element([n * a for a in self.coords])

    def is_identity(self) -> bool:
        return self.code == 0

    def order(self):
        """Multiplicative order; None if infinite (nonzero free part)."""
        return self._order

    def __str__(self):
        return self._str


class Subgroup:
    """A finite subgroup given by generators, eagerly enumerated.

    Enumeration is rejected above 2**16 elements; every construction in
    the workbench needs tiny finite supports anyway.  Its elements have
    no free part, so their codes are ordered as their coordinates; the
    membership index and the coset-representative table are keyed by
    code.
    """

    MAX_SIZE = 1 << 16

    def __init__(self, group: AbelianGroup, generators):
        self.group = group
        self.generators = tuple(generators)
        for g in self.generators:
            if g.group is not group:
                raise GroupError("generator outside parent group")
            if g.order() is None:
                raise GroupError("subgroup must be finite")
        identity = group.identity
        elems = {0: identity}         # code -> element
        frontier = [identity]
        while frontier:
            cur = frontier.pop()
            for g in self.generators:
                nxt = cur + g
                if nxt.code not in elems:
                    if len(elems) >= self.MAX_SIZE:
                        raise GroupError("subgroup enumeration exceeds 2^16 elements")
                    elems[nxt.code] = nxt
                    frontier.append(nxt)
        self._index = {code: i for i, code in enumerate(sorted(elems))}
        self.elements = tuple(elems[code] for code in self._index)
        self._hash = hash((group, self.elements))
        self._coset_reps = {}   # code -> coset_rep, filled a coset at a time

    def __contains__(self, e: GroupElement) -> bool:
        return e.code in self._index and e.group is self.group

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        # elements are sorted by coordinates and carry their group
        return self is other or (isinstance(other, Subgroup)
                                 and other.elements == self.elements)

    def __hash__(self):
        return self._hash

    def is_elementary_2(self) -> bool:
        return all(e.order() in (1, 2) for e in self.elements)

    @property
    def exponent(self) -> int:
        """The lcm of the element orders."""
        return lcm(*(e.order() for e in self.elements))

    def coset_rep(self, g: GroupElement) -> GroupElement:
        """Lexicographically smallest representative of g + T: the
        element of least code, as the coset's elements share g's free
        part."""
        if g.group is not self.group:
            raise GroupError("elements of different groups")
        rep = self._coset_reps.get(g.code)
        if rep is None:
            coset = [g + t for t in self.elements]
            rep = min(coset, key=lambda e: e.code)
            self._coset_reps.update(dict.fromkeys([e.code for e in coset], rep))
        return rep

    def basis(self) -> list[GroupElement]:
        """A minimal generating set (greedy, deterministic)."""
        chosen: list[GroupElement] = []
        span = {self.group.identity}
        for e in sorted(self.elements, key=lambda x: (-(x.order() or 0), x.coords)):
            if e in span:
                continue
            chosen.append(e)
            span = {a + b for a in span for b in _cyclic(e)}
            if len(span) == len(self.elements):
                break
        return chosen

    def extended_by(self, t: GroupElement) -> "Subgroup":
        return Subgroup(self.group, self.generators + (t,))

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.generators) + ">"


def _cyclic(e: GroupElement) -> list[GroupElement]:
    out, cur = [e.group.identity], e
    while not cur.is_identity():
        out.append(cur)
        cur = cur + e
    return out


def trivial_subgroup(group: AbelianGroup) -> Subgroup:
    return Subgroup(group, ())


# ---------------------------------------------------------------------------
# bicharacters and quadratic forms
# ---------------------------------------------------------------------------

class Bicharacter:
    """A map T x T -> roots of unity, multiplicative in each slot.

    Stored as the full exponent table over the enumerated domain:
    beta(t1, t2) = zeta_M^k with M the exponent of T.  Construction
    from a generator matrix checks that the generators form a basis,
    which forces multiplicativity of the extension.
    """

    def __init__(self, domain: Subgroup, exponent: int, table: dict):
        self.domain = domain
        self.exponent = exponent       # M: all values are powers of zeta_M
        self.table = table             # (t1, t2) -> int mod M
        self._hash = None

    @staticmethod
    def from_generator_matrix(domain: Subgroup, gens, matrix) -> "Bicharacter":
        """matrix[i][j] = k_ij with beta(gen_i, gen_j) = zeta_(o_ij)^(k_ij),
        o_ij = gcd(ord gen_i, ord gen_j)."""
        gens = tuple(gens)
        orders = [g.order() for g in gens]
        if prod(orders) != len(domain):
            raise GroupError("bicharacter generators must form a basis of the domain")
        M = lcm(*orders)
        # exponent coordinates of every element over the generator basis
        coords = {sum((g.scaled(k) for k, g in zip(vec, gens)),
                      domain.group.identity): vec
                  for vec in itertools.product(*map(range, orders))}
        if len(coords) != len(domain):
            raise GroupError("generator exponents do not enumerate the domain")
        kmat = [[(matrix[i][j] * (M // gcd(orders[i], orders[j]))) % M
                 for j in range(len(gens))] for i in range(len(gens))]
        table = {}
        for t1 in domain.elements:
            v1 = coords[t1]
            for t2 in domain.elements:
                v2 = coords[t2]
                k = 0
                for i, a in enumerate(v1):
                    if a:
                        for j, b in enumerate(v2):
                            if b:
                                k += a * b * kmat[i][j]
                table[(t1, t2)] = k % M
        return Bicharacter(domain, M, table)

    def exponent_of(self, t1: GroupElement, t2: GroupElement) -> int:
        key = (t1, t2)
        if key not in self.table:
            raise GroupError(f"element {t1} or {t2} outside the bicharacter domain")
        return self.table[key]

    def eval(self, t1: GroupElement, t2: GroupElement, field: CycloField) -> Scalar:
        return field.zeta(self.exponent, self.exponent_of(t1, t2))

    def is_alternating(self) -> bool:
        return all(self.table[(t, t)] % self.exponent == 0 for t in self.domain.elements)

    def radical(self) -> list[GroupElement]:
        return [t for t in self.domain.elements
                if all(self.table[(t, s)] % self.exponent == 0 for s in self.domain.elements)]

    def is_nondegenerate_alternating(self) -> bool:
        return self.is_alternating() and len(self.radical()) == 1

    def restrict(self, sub: Subgroup) -> "Bicharacter":
        table = {(a, b): self.table[(a, b)] for a in sub.elements for b in sub.elements}
        return Bicharacter(sub, self.exponent, table)

    def swapped(self) -> "Bicharacter":
        """beta o ex, i.e. (t1, t2) -> beta(t2, t1)."""
        return Bicharacter(self.domain, self.exponent,
                           {(a, b): self.table[(b, a)] for (a, b) in self.table})

    def __eq__(self, other):
        if not isinstance(other, Bicharacter):
            return NotImplemented
        if self.domain != other.domain:
            return False
        # compare values, not raw exponents (exponents may use different M)
        lcm = self.exponent * other.exponent // gcd(self.exponent, other.exponent)
        for key, k in self.table.items():
            if (k * (lcm // self.exponent)) % lcm != (other.table[key] * (lcm // other.exponent)) % lcm:
                return False
        return True

    def __hash__(self):
        # exponents over the least common order, as __eq__ compares values
        if self._hash is None:
            d = gcd(self.exponent, *self.table.values())
            self._hash = hash(frozenset(
                ((a.coords, b.coords), k % self.exponent // d)
                for (a, b), k in self.table.items()))
        return self._hash


class QuadraticForm:
    """A sign-valued form tau on an elementary 2-group with tau(e) = 1.
    Only the values are checked here: constructions._with_involution checks
    that tau is quadratic, by comparing its polar form with beta."""

    def __init__(self, domain: Subgroup, values: dict):
        self.domain = domain
        self.values = {t: int(values[t]) for t in domain.elements}
        self._hash = None
        if not domain.is_elementary_2():
            raise GroupError("quadratic form domain must be an elementary 2-group")
        if self.values[domain.group.identity] != 1:
            raise GroupError("quadratic form must send the identity to +1")
        if any(v not in (1, -1) for v in self.values.values()):
            raise GroupError("quadratic form values must be +-1")

    def __call__(self, t: GroupElement) -> int:
        if t not in self.values:
            raise GroupError(f"element {t} outside the quadratic form domain")
        return self.values[t]

    def polar_form(self) -> Bicharacter:
        """tau(t1+t2)tau(t1)tau(t2); a bicharacter iff tau is quadratic."""
        v, els = self.values, self.domain.elements
        return Bicharacter(self.domain, 2, {
            (t1, t2): (1 - v[t1 + t2] * v[t1] * v[t2]) // 2
            for t1 in els for t2 in els})

    def extend(self, t: GroupElement) -> "QuadraticForm":
        """tau^[t] on T<t>: u + k*t  ->  tau(u) * (-1)^k."""
        if t in self.domain:
            raise GroupError("extension element already lies in the domain")
        if t.order() != 2:
            raise GroupError("extension element must have order 2")
        big = self.domain.extended_by(t)
        values = {}
        for u in self.domain.elements:
            values[u] = self(u)
            values[u + t] = -self(u)
        return QuadraticForm(big, values)

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return (set(self.domain.elements) == set(other.domain.elements)
                and all(self.values[t] == other.values[t] for t in self.values))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset((t.coords, v) for t, v in self.values.items()))
        return self._hash


def extend_bicharacter(beta: Bicharacter, t: GroupElement) -> Bicharacter:
    """beta^[t] on T<t>: (u + k1*t, v + k2*t) -> beta(u, v); t lands in the radical."""
    if t in beta.domain:
        raise GroupError("extension element already lies in the domain")
    if t.order() != 2:
        raise GroupError("extension element must have order 2")
    big = beta.domain.extended_by(t)
    table = {}
    for u in beta.domain.elements:
        for v in beta.domain.elements:
            k = beta.table[(u, v)]
            table[(u, v)] = k
            table[(u + t, v)] = k
            table[(u, v + t)] = k
            table[(u + t, v + t)] = k
    return Bicharacter(big, beta.exponent, table)


def symplectic_decomposition(T: Subgroup, beta: Bicharacter):
    """Split (T, beta) into hyperbolic pairs.

    Greedy: pick a of maximal order l, find b with beta(a, b) a primitive
    l-th root, split off <a, b> and recurse on its orthogonal complement.
    Returns a list of (a, b, l) triples; empty for the trivial group.
    """
    if not beta.is_nondegenerate_alternating():
        raise GroupError("bicharacter must be nondegenerate alternating")
    pairs = []
    current = T
    current_beta = beta
    while len(current) > 1:
        a = max(current.elements, key=lambda e: (e.order(), tuple(-c for c in e.coords)))
        l = a.order()
        M = current_beta.exponent
        b = None
        for cand in current.elements:
            k = current_beta.table[(a, cand)]
            if k and (M // gcd(M, k)) == l:
                b = cand
                break
        if b is None:
            raise GroupError("nondegeneracy violated: no hyperbolic partner found")
        pairs.append((a, b, l))
        span_ab = Subgroup(current.group, (a, b))
        if len(span_ab) != l * l:
            raise GroupError("hyperbolic pair does not span Z_l x Z_l")
        complement = [t for t in current.elements
                      if current_beta.table[(t, a)] % M == 0
                      and current_beta.table[(t, b)] % M == 0]
        sub = Subgroup(current.group, tuple(complement))
        if len(sub) * l * l != len(current):
            raise GroupError("orthogonal complement has the wrong size")
        current_beta = current_beta.restrict(sub)
        current = sub
    return pairs


# ---------------------------------------------------------------------------
# the grading group Z x G
# ---------------------------------------------------------------------------

def prepend_z(G: AbelianGroup) -> AbelianGroup:
    """The group Z x G; coordinate 0 is the distinguished Z slot."""
    return AbelianGroup(G.free_rank + 1, G.torsion)


def zg_element(ZG: AbelianGroup, z: int, g: GroupElement) -> GroupElement:
    return ZG.element((z,) + g.coords)


def z_part(e: GroupElement) -> int:
    return e.coords[0]


def g_part(G: AbelianGroup, e: GroupElement) -> GroupElement:
    return G.element(e.coords[1:])


def flip_z(e: GroupElement) -> GroupElement:
    """(z, g) -> (-z, g) on Z x G."""
    return e.group.element((-e.coords[0],) + e.coords[1:])
