"""Construction of g(A) from a Cartan matrix by the radical recursion.

Start from the presentation [h_i,h_j] = 0, [h_i,e_j] = A_ij e_j,
[h_i,f_j] = -A_ij f_j, [e_i,f_j] = delta_ij h_i.  Each positive degree d
is spanned by [e_i, b] over the degree-(d-1) basis b (plus, for p = 2
and d even, formal squares s(z) of odd degree-(d/2) basis z); a
combination is radical iff all its lowerings by f_j vanish in the
already-reduced degree-(d-1) space, so the quotient basis falls out of
one deterministic elimination per root, `radical_step`.  When A is
singular over the ground field, grading elements are adjoined to h so
that weights separate.

One class, `RadicalRecursion`, runs the recursion for g(A)'s positive
side (X = e, Y = f, seeded with the generators) and for the
highest-weight modules of `modules` (X = f, Y = e, seeded with v).  The
two differ only in the scalar of [Y_i, X_i] on a node, and in the squares:
at p = 2, s(z) is a new element of g(A), so a candidate, while on a
module it acts as the word rho(z)^2, whose images the f-words already
span.  A generator lowers into h, [f_k, e_k] = cross_k h_k; h_k is the
table node H(k) = -1 - k, which e_i raises to [e_i, h_k] = -w_k(e_i) e_i,
so the generators' h-terms are ordinary table entries.

Only the positive side is built; two facts give the rest exactly.

1. The negative side is the same build.  Its recursion (e and f
   exchanged, weights negated, [e_i, f_i] = h_i) gives every lowering
   vector [f_j, y_m] as the positive side's [e_j, x_m] times (-1)^{p(j)}:
   for the weight term and the generator h-term this is the ratio of
   -w to kappa_i w with kappa_i = -(-1)^{p(i)}, and induction through the
   raisings carries it up.  Scaling a column block of `radical_step`'s
   input by +-1 changes neither which candidates are new nor their
   combinations, so the nodes, raisings and squares agree and
   [y_a, y_b] has the constants of [x_a, x_b].
2. The mixed brackets come from the lowering table.  The super Chevalley
   automorphism theta(e_i) = f_i, theta(f_i) = (-1)^{p(i)} e_i,
   theta(h) = -h (grading elements included) keeps the defining
   relations and maps x_m to y_m, so
       [e_i, y_m] = (-1)^{p(i)} theta([f_i, x_m]) = (-1)^{p(i)} theta(down[m][i]).
   g(A)'s tables give y_m the node Y(m) = -1 - n - m and store this as
   up[i][Y(m)]; then `bracket_flat` brackets x_a with y_b by the word
   recursion it uses for two positive nodes.  Grading elements never
   occur in a bracket of two root vectors, so they need no node.
   theta also maps y_m to (-1)^{p(m)} x_m, so the mixed brackets come in
   mirrored pairs, [x_a, y_b] = -(-1)^{p(a) + p(a)p(b)} theta([x_b, y_a]).
   The fill takes this mirror only as a shortcut: for a pair (x_ta, y_tb)
   with tb < ta it maps the [x_tb, y_ta] it has stored.  The recursion
   gives the same constants, but it costs: without the shortcut the 33
   catalog builds took 381-405 ms against 299-315 ms with it (min of 5
   builds per process, 3 processes, one 2-vCPU Xeon), and an e(8,8)
   build's tracemalloc peak rose from 6.72 to 8.25 MB.

A third fact limits the fill of the structure constants to the pairs
that can be nonzero.

3. g(A) is graded by its roots: the free presentation is, and so is its
   radical, since each weight space is reduced on its own.  Every basis
   vector has a weight (0 for h and the grading elements), [b_a, b_b]
   lies in weight w_a + w_b and s(b_a) in 2 w_a.  A pair whose weights do
   not sum to a weight of the basis therefore has bracket 0, and the fill
   skips it.  The test is one integer add and one set lookup: weight w is
   keyed as sum_j w_j B^j with B = 4R + 1, R the largest |coordinate| of
   a weight.  The key is additive, and it is injective on the vectors
   with coordinates in [-2R, 2R], which hold every weight and every sum of
   two: two of them differ by some d with |d_j| <= 4R < B, and if
   sum_j d_j B^j = 0 with d != 0, B divides d_j at the lowest j with
   d_j != 0, which is impossible.  So a pair's key sum is a weight's key
   exactly when its weight sum is that weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cartan import CartanSpec
from .fields import Field
from .linalg import Echelon
from .superalgebra import Element, Superalgebra, el_sum


class BuildError(RuntimeError):
    pass


@dataclass
class _Node:
    word: tuple  # ('g', i) | ('hw',) (a module's v) | ('br', i, parent_flat) | ('sq', parent_flat)
    root: Tuple[int, ...]
    parity: int
    degree: int


def radical_step(fld: Field, n: int, vecs: List[List[Element]]) -> List[Optional[Element]]:
    """The elimination of one weight space of the radical recursion.

    Candidate ci is given by its n lowering (or raising) vectors vecs[ci][j]
    over the reduced basis of the previous degree.  A candidate whose vectors
    are independent of those of the earlier new candidates is a new basis
    vector (None); otherwise it equals, modulo the radical, the combination
    {earlier new candidate: coeff} returned for it.
    """
    cols = sorted({(j, b) for v in vecs for j in range(n) for b in v[j]})
    colpos = {c: t for t, c in enumerate(cols)}
    ech = Echelon(fld, len(cols), track=True)
    out: List[Optional[Element]] = []
    for ci, v in enumerate(vecs):
        u = {colpos[(j, b)]: c for j in range(n) for b, c in v[j].items()}
        res, combo = ech.reduce(u)  # most candidates are dependent: one reduction
        if res:
            ech.add(u, vid=ci)
        out.append(None if res else combo)
    return out


def _h_node(k: int) -> int:
    """The node H(k) of h_k in g(A)'s tables; nodes of the recursion are >= 0."""
    return -1 - k


def _y_node(n: int, m: int) -> int:
    """The node Y(m) of y_m in g(A)'s tables, below the n nodes H(k)."""
    return -1 - n - m


class RadicalRecursion:
    """Kac's radical recursion, degree by degree from its seeds.

    Node m raises to the candidates [X_i, m] one degree up (and, when
    squares are candidates, an odd m to s(m) at twice its degree).  The
    tables hold up[i][b] = [X_i, b] and down[m][j] = [Y_j, m], and a
    candidate's lowerings are read off them:

        [Y_j, [X_i, m]] = delta_ij scalar(i, root m) m + (-1)^{p(i)p(j)} [X_i, [Y_j, m]].

    `radical_step` keeps the candidates whose lowerings are independent;
    a new node stores its lowerings as its down row, and every candidate
    its expansion as up[i][m] (or sq[m]).  g(A) seeds the generators X_k
    and a module its highest-weight vector (see the module docstring).
    """

    def __init__(self, fld: Field, parities: List[int], scalar, squares: bool,
                 cap: int, dim_cap: Optional[int], seeds: List[Tuple[_Node, List[Element]]]):
        self.f = fld
        self.n = len(parities)
        self.parities = parities
        self.scalar = scalar  # (i, root) -> the scalar of [Y_i, X_i] on a node of that root
        self.squares = squares
        self.minus_one = fld.neg(fld.one)  # one at p = 2, where every super sign is +1
        self.cap = cap
        self.dim_cap = dim_cap
        self.nodes: List[_Node] = [node for node, _down in seeds]
        self.up: List[Dict[int, Element]] = [{} for _ in parities]  # [i][node] -> element
        self.down: Dict[int, List[Element]] = {m: down for m, (_node, down) in enumerate(seeds)}
        self.sq: Dict[int, Element] = {}  # node -> s(node), an element at doubled degree
        self._br_memo: Dict[Tuple[int, int], Element] = {}
        self.deg_basis: Dict[int, List[int]] = {self.nodes[0].degree: list(range(len(seeds)))}
        self.profile: List[int] = [len(seeds)]

    def bracket_flat(self, a: int, b: int) -> Element:
        """[node_a, node_b] of g(A)'s side for a node a >= 0; b may also be
        the node H(j) of h_j or, once g(A)'s side is built, the node Y(m)
        of y_m (fact 2 of the module docstring), so this is every bracket
        of a positive root vector with a root vector or with h."""
        key = (a, b)
        if key in self._br_memo:
            return self._br_memo[key]
        f = self.f
        na = self.nodes[a]
        if na.word[0] == "g":
            out = self.up[na.word[1]].get(b, {})
        elif na.word[0] == "sq":
            # [s(z), w] = [z, [z, w]] (p = 2)
            z = na.word[1]
            out = el_sum(f, [(c, self.bracket_flat(z, d))
                             for d, c in self.bracket_flat(z, b).items()])
        else:
            # [[X_i, a'], w] = [X_i, [a', w]] - (-1)^{p(i)p(a')} [a', [X_i, w]]
            i, aprime = na.word[1], na.word[2]
            up = self.up[i]
            c2 = f.one if self.parities[i] and self.nodes[aprime].parity else self.minus_one
            terms = [(c, up.get(d, {})) for d, c in self.bracket_flat(aprime, b).items()]
            terms += [(f.mul(c2, c), self.bracket_flat(aprime, d))
                      for d, c in up.get(b, {}).items()]
            out = el_sum(f, terms)
        self._br_memo[key] = out
        return out

    def _lowerings(self, i: Optional[int], m: int) -> List[Element]:
        """[Y_j, [X_i, node_m]] for j = 0..n-1; for i = None, the square
        candidate's [Y_j, s(node_m)] = [node_m, [Y_j, node_m]] (p = 2)."""
        f = self.f
        down = self.down[m]
        if i is None:
            return [el_sum(f, [(c, self.bracket_flat(m, b)) for b, c in low.items()])
                    for low in down]
        out: List[Element] = []
        up = self.up[i]
        pi = self.parities[i]
        for j in range(self.n):
            low = down[j]
            if not (low or j == i):
                out.append({})
                continue
            sgn = self.minus_one if (pi and self.parities[j]) else f.one
            terms = [(self.scalar(i, self.nodes[m].root), {m: f.one})] if j == i else []
            terms += [(f.mul(sgn, c), up.get(b, {})) for b, c in low.items()]
            out.append(el_sum(f, terms))
        return out

    def build(self):
        f = self.f
        d = self.nodes[0].degree + 1
        while True:
            max_deg = max(dd for dd, lst in self.deg_basis.items() if lst)
            max_odd = max((dd for dd, lst in self.deg_basis.items()
                           if any(self.nodes[m].parity for m in lst)),
                          default=0) if self.squares else 0
            limit = max(max_deg + 1, 2 * max_odd)
            if d > limit:
                break
            # the cap bounds the degree; with squares, those of degree-h nodes
            # still have to be scanned (and are then empty) up to degree 2h
            if d > self.cap and self.deg_basis.get(d - 1):
                raise BuildError(
                    f"degree cap {self.cap} exceeded; growth profile {self.profile}")
            cands: List[Tuple[Optional[int], int, Tuple[int, ...], int]] = []
            for m in self.deg_basis.get(d - 1, []):
                node = self.nodes[m]
                for i in range(self.n):
                    root = node.root[:i] + (node.root[i] + 1,) + node.root[i + 1:]
                    cands.append((i, m, root, (node.parity + self.parities[i]) % 2))
            if self.squares and d % 2 == 0:
                for m in self.deg_basis.get(d // 2, []):
                    if self.nodes[m].parity == 1:
                        cands.append((None, m, tuple(2 * a for a in self.nodes[m].root), 0))
            by_root: Dict[Tuple[int, ...], list] = {}
            for c in cands:
                by_root.setdefault(c[2], []).append(c)
            new_idxs: List[int] = []
            for root in sorted(by_root.keys(), reverse=True):
                group = by_root[root]
                lows = [self._lowerings(i, m) for (i, m, _r, _p) in group]
                flat_of: Dict[int, int] = {}  # candidate id -> node index
                for ci, combo in enumerate(radical_step(f, self.n, lows)):
                    i, m, _r, par = group[ci]
                    if combo is None:
                        flat = flat_of[ci] = len(self.nodes)
                        word = ("sq", m) if i is None else ("br", i, m)
                        self.nodes.append(_Node(word, root, par, d))
                        new_idxs.append(flat)
                        self.down[flat] = lows[ci]
                        expansion: Element = {flat: f.one}
                    else:
                        expansion = {flat_of[vid]: c for vid, c in combo.items()}
                    if i is None:
                        self.sq[m] = expansion
                    else:
                        self.up[i][m] = expansion
            if new_idxs and d > self.cap:
                raise BuildError(
                    f"degree cap {self.cap} exceeded at degree {d}; "
                    f"growth profile {self.profile}")
            self.deg_basis[d] = new_idxs
            self.profile.append(len(new_idxs))
            if self.dim_cap is not None and len(self.nodes) > self.dim_cap:
                raise BuildError(
                    f"dimension cap {self.dim_cap} exceeded; growth profile {self.profile}")
            d += 1


def _positive_side(fld: Field, parities: List[int], weight_of, cross: list,
                   cap: int, dim_cap: Optional[int]) -> RadicalRecursion:
    """g(A)'s positive side: seed X_k has root the k-th unit vector and the
    one lowering [Y_k, X_k] = cross_k h_k, onto the node H(k) of h_k, which
    X_i raises to [X_i, h_k] = -w_k(e_i) X_i.  Once built, X_i raises the
    node Y(m) of y_m to [X_i, y_m] = (-1)^{p(i)} theta([Y_i, X_m]) (fact 2
    of the module docstring), read off the lowering table."""
    n = len(parities)
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    seeds = [(_Node(("g", k), unit[k], parities[k], 1),
              [{_h_node(k): cross[k]} if j == k else {} for j in range(n)]) for k in range(n)]
    side = RadicalRecursion(fld, parities, lambda i, root: fld.mul(cross[i], weight_of(i, root)),
                            fld.p == 2, cap, dim_cap, seeds)
    for i in range(n):
        for k in range(n):
            c = fld.neg(weight_of(k, unit[i]))
            if not fld.is_zero(c):
                side.up[i][_h_node(k)] = {i: c}
    side.build()
    minus_one = fld.neg(fld.one)
    for m, lows in side.down.items():
        for i, low in enumerate(lows):
            if low:  # theta(X_c) = Y(c), theta(h_k) = -h_k
                keep, flip = (minus_one, fld.one) if parities[i] else (fld.one, minus_one)
                side.up[i][_y_node(n, m)] = {
                    (_y_node(n, c) if c >= 0 else c): fld.mul(keep if c >= 0 else flip, x)
                    for c, x in low.items()}
    return side


@dataclass
class BuildResult:
    spec: CartanSpec
    field: Field
    algebra: Superalgebra
    n: int
    n_grading: int
    pos_roots: List[Tuple[Tuple[int, ...], int]]  # (root, parity) per positive basis elt
    chevalley: Dict[str, List[int]]               # 'e','f','h' -> basis indices
    profile: List[int]
    # word data for module actions, in build order; y_m has the word of x_m
    # with f for e (fact 1), so both sides read the one table
    pos_nodes: List[_Node]
    pos_order: List[int]     # basis position -> node index

    @property
    def sdim(self) -> Tuple[int, int]:
        return self.algebra.sdim

    def x_element(self, expr: str) -> Element:
        """Superalgebra.element on the built algebra; perfbench calls this name."""
        return self.algebra.element(expr)


def parse_sdim(s: str) -> Tuple[Tuple[int, int], Optional[Tuple[int, int]]]:
    """'12/10|14' -> ((12,14), (10,14)); '10|12' -> ((10,12), None)."""
    left, odd = s.split("|")
    odd = int(odd)
    if "/" in left:
        full, sub = left.split("/")
        return (int(full), odd), (int(sub), odd)
    return (int(left), odd), None


def grading_rows(spec: CartanSpec, fld: Field) -> List[int]:
    """Unit rows completing the row space of A over the field; grading
    element d_t acts on a root by its coordinate at the t-th of them."""
    ech = Echelon(fld, spec.n)
    for i in range(spec.n):
        ech.add({j: spec.entry_scalar(fld, i, j) for j in range(spec.n)})
    return ech.complete_with_units()


def build_g_of_A(spec: CartanSpec, degree_cap: int = 40) -> BuildResult:
    fld = spec.field()
    n = spec.n
    want = parse_sdim(spec.expected_sdim)[0] if spec.expected_sdim else None
    dim_cap = None if want is None else sum(want) // 2 + n + 8  # bound on one side's node count
    A = [[spec.entry_scalar(fld, i, j) for j in range(n)] for i in range(n)]
    d_rows = grading_rows(spec, fld)
    k = len(d_rows)

    h_weights: Dict[Tuple[int, Tuple[int, ...]], object] = {}  # (i, root) -> h_i's scalar, once

    def weight_of(i: int, root: Tuple[int, ...]):
        key = (i, root)
        if key not in h_weights:
            acc = fld.zero
            row = A[i]
            for j, c in enumerate(root):
                if c and not fld.is_zero(row[j]):
                    acc = fld.add(acc, fld.mul(fld.from_int(c), row[j]))
            h_weights[key] = acc
        return h_weights[key]

    p2 = fld.p == 2
    minus_one = fld.neg(fld.one)
    # [f_i, e_i] = -(-1)^{p_i} h_i: the h-part of lowering the generator e_i
    cross_pos = [fld.one if (p2 or spec.parities[i]) else minus_one for i in range(n)]
    pos = _positive_side(fld, spec.parities, weight_of, cross_pos, degree_cap, dim_cap)
    # fact 1 of the module docstring: these nodes are also the negative side's, y_m for x_m
    nodes = pos.nodes
    order = sorted(range(len(nodes)),
                   key=lambda m: (nodes[m].degree, tuple(-c for c in nodes[m].root), m))

    nh = n + k
    npos = len(order)
    dim = nh + 2 * npos
    pos_global = {m: nh + t for t, m in enumerate(order)}
    neg_global = {m: nh + npos + t for t, m in enumerate(order)}

    labels = [f"h{i+1}" for i in range(n)] + [f"d{t+1}" for t in range(k)]
    labels += ["x%d" % (t + 1) for t in range(npos)] + ["y%d" % (t + 1) for t in range(npos)]
    parities = [0] * nh + [nodes[m].parity for m in order] * 2
    weights: List[Tuple[int, ...]] = [tuple(0 for _ in range(n))] * nh
    weights += [nodes[m].root for m in order]
    weights += [tuple(-c for c in nodes[m].root) for m in order]

    def h_weight(a: int, b: int):
        """The scalar of [h_a, b_b] for a root vector b_b (h_a is d_t for a >= n)."""
        if a >= n:
            return fld.from_int(weights[b][d_rows[a - n]])
        if b < nh + npos:
            return weight_of(a, weights[b])
        return fld.neg(weight_of(a, weights[b - npos]))  # y_m has the root of x_m negated

    def lift(glob: Dict[int, int], el: Element) -> Element:
        """An element over the table nodes, over global indices."""
        return {glob[m]: c for m, c in el.items()}

    # a mixed bracket [x_m, Y(m')] lies over the nodes, the H(k) and the Y(m'')
    mixed_global = dict(pos_global)
    mixed_global.update((_h_node(j), j) for j in range(n))
    mixed_global.update((_y_node(n, m), g) for m, g in neg_global.items())

    def mirrored(ma: int, mb: int, w: Element) -> Element:
        """[x_ma, y_mb] from w = [x_mb, y_ma] by fact 2 of the module docstring."""
        pa = nodes[ma].parity
        s = (1 + pa + pa * nodes[mb].parity) % 2  # 1 when -(-1)^{p(a)+p(a)p(b)} is -1
        out: Element = {}
        for g, c in w.items():
            if g < nh:
                flip, g2 = 1 - s, g
            elif g < nh + npos:
                flip, g2 = s, g + npos
            else:
                flip, g2 = s ^ parities[g], g - npos
            out[g2] = fld.neg(c) if flip else c
        return out

    def glob_bracket(a: int, b: int) -> Element:
        """[basis_a, basis_b] on global indices, a <= b."""
        if a == b and (p2 or parities[a] == 0) and a >= nh:
            return {}
        if a < nh:
            if b < nh:
                return {}
            c = h_weight(a, b)
            return {} if fld.is_zero(c) else {b: c}
        # both are root vectors now
        if b < nh + npos:
            return lift(pos_global, pos.bracket_flat(order[a - nh], order[b - nh]))
        if a >= nh + npos:
            return lift(neg_global, pos.bracket_flat(order[a - nh - npos],
                                                     order[b - nh - npos]))
        # x_ta and y_tb; for tb < ta the fill has already met [x_tb, y_ta]
        ta, tb = a - nh, b - nh - npos
        if tb < ta:
            w = brackets.get((nh + tb, nh + npos + ta))
            return mirrored(order[ta], order[tb], w) if w else {}
        return lift(mixed_global, pos.bracket_flat(order[ta], _y_node(n, order[tb])))

    # fact 3 of the module docstring: only pairs whose weights sum to a weight
    base = 4 * max((abs(c) for w in weights for c in w), default=0) + 1
    wkey = [sum(c * base ** j for j, c in enumerate(w)) for w in weights]
    wkeys = set(wkey)
    brackets: Dict[Tuple[int, int], Element] = {}
    squares: Dict[int, Element] = {}
    for a in range(dim):
        ka = wkey[a]
        lo = a if (not p2 and parities[a] == 1) else a + 1
        for b in range(lo, dim):
            if ka + wkey[b] in wkeys:
                w = glob_bracket(a, b)
                if w:
                    brackets[(a, b)] = w
    if p2:
        for glob in (pos_global, neg_global):
            for m in order:
                s = pos.sq.get(m) if nodes[m].parity else None
                if s:
                    squares[glob[m]] = lift(glob, s)

    chevalley = {
        "e": [pos_global[i] for i in range(n)],
        "f": [neg_global[i] for i in range(n)],
        "h": list(range(n)),
    }
    alg = Superalgebra(fld, labels, parities, brackets, squares or None, weights,
                       chevalley={k2: [{i: fld.one} for i in v]
                                  for k2, v in chevalley.items()})
    pos_roots = [(nodes[m].root, nodes[m].parity) for m in order]
    res = BuildResult(spec=spec, field=fld, algebra=alg, n=n, n_grading=k,
                      pos_roots=pos_roots, chevalley=chevalley, profile=pos.profile,
                      pos_nodes=nodes, pos_order=order)

    if want is not None and res.sdim != want:
        raise BuildError(
            f"{spec.key}: built sdim {res.sdim[0]}|{res.sdim[1]} but catalog "
            f"expects {spec.expected_sdim}")
    return res
