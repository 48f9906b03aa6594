"""Construction of g(A) from a Cartan matrix by the radical recursion.

Start from the presentation [h_i,h_j] = 0, [h_i,e_j] = A_ij e_j,
[h_i,f_j] = -A_ij f_j, [e_i,f_j] = delta_ij h_i.  Each positive degree d
is spanned by [e_i, b] over the degree-(d-1) basis b (plus, for p = 2
and d even, formal squares s(z) of odd degree-(d/2) basis z); a
combination is radical iff all its lowerings by f_j vanish in the
already-reduced degree-(d-1) space, so the quotient basis falls out of
one deterministic elimination per root, `radical_step`.  `modules` runs
it on highest-weight modules with raisings in place of lowerings.  When A
is singular over the ground field, grading elements are adjoined to h so
that weights separate.

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
2. The mixed brackets come in mirrored pairs.  The super Chevalley
   automorphism theta(e_i) = f_i, theta(f_i) = (-1)^{p(i)} e_i,
   theta(h) = -h (grading elements included) keeps the defining
   relations, maps x_m to y_m and y_m to (-1)^{p(m)} x_m, so
   [x_a, y_b] = -(-1)^{p(a) + p(a)p(b)} theta([x_b, y_a]).

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
from .superalgebra import Element, Superalgebra, el_scale, el_sum


class BuildError(RuntimeError):
    pass


@dataclass
class _Node:
    word: tuple  # ('g', i) | ('br', i, parent_flat) | ('sq', parent_flat)
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


class _Side:
    """One triangular half of g(A), built degree by degree.  Node i is the
    generator X_i; its root is the i-th unit vector."""

    def __init__(self, fld: Field, n: int, parities: List[int], weight_of,
                 cross_coeff: list, cap: int, dim_cap: Optional[int] = None):
        self.f = fld
        self.n = n
        self.parities = parities
        self.weight_of = weight_of      # (i, root) -> scalar action of h_i
        self.cross_coeff = cross_coeff  # [i] -> coefficient of h_i in [Y_i, X_i]
        self.gen_root = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        self.p2 = fld.p == 2
        self.minus_one = fld.neg(fld.one)
        self.cap = cap
        self.dim_cap = dim_cap
        self.nodes: List[_Node] = [_Node(("g", i), self.gen_root[i], parities[i], 1)
                                   for i in range(n)]
        self.deg_basis: Dict[int, List[int]] = {1: list(range(n))}
        self.lower: Dict[int, List[Element]] = {}   # flat -> per-j element over flats (deg-1)
        self.raise_tab: Dict[Tuple[int, int], Element] = {}  # (i, flat) -> element (deg+1)
        self.sq_tab: Dict[int, Element] = {}        # flat -> element at doubled degree
        self._br_memo: Dict[Tuple[int, int], Element] = {}
        self.profile: List[int] = [n]

    # -- brackets of already-built elements -----------------------------------

    def bracket_flat(self, a: int, b: int) -> Element:
        """[node_a, node_b], both on this side, as an element over flats."""
        key = (a, b)
        if key in self._br_memo:
            return self._br_memo[key]
        f = self.f
        na = self.nodes[a]
        if na.degree == 1:
            out = self.raise_tab.get((na.word[1], b), {})
        else:
            if na.word[0] == "sq":
                # [s(z), w] = [z, [z, w]] (p = 2)
                z = na.word[1]
                out = el_sum(f, [(c, self.bracket_flat(z, d))
                                 for d, c in self.bracket_flat(z, b).items()])
            else:
                # [[X_i, a'], w] = [X_i, [a', w]] - (-1)^{p(i)p(a')} [a', [X_i, w]]
                i, aprime = na.word[1], na.word[2]
                odd = not self.p2 and self.parities[i] and self.nodes[aprime].parity
                c2 = f.one if odd else self.minus_one
                terms = [(c, self.raise_tab.get((i, d), {}))
                         for d, c in self.bracket_flat(aprime, b).items()]
                terms += [(f.mul(c2, c), self.bracket_flat(aprime, d))
                          for d, c in self.raise_tab.get((i, b), {}).items()]
                out = el_sum(f, terms)
        self._br_memo[key] = out
        return out

    # -- lowering data for candidates ----------------------------------------

    def _lower_of_basis(self, m: int, j: int) -> Tuple[Element, Element]:
        """[Y_j, node_m] split as (part over flats of deg-1, coefficient of h_j).

        For degree >= 2 the h-part is empty; for a generator X_k it is
        delta_jk * cross_coeff[k] * h_k.
        """
        node = self.nodes[m]
        if node.degree == 1:
            k = node.word[1]
            if j == k:
                return {}, {k: self.cross_coeff[k]}
            return {}, {}
        return self.lower[m][j], {}

    def _cand_lowering(self, kind: str, i: int, m: int) -> List[Element]:
        """Lowering vectors [Y_j, candidate] for j = 0..n-1, over deg-(d-1) flats."""
        f = self.f
        node = self.nodes[m]
        out: List[Element] = []
        if kind == "br":
            pi = self.parities[i] and not self.p2
            for j in range(self.n):
                flats, hpart = self._lower_of_basis(m, j)
                if not (flats or hpart or j == i):
                    out.append({})
                    continue
                sgn = self.minus_one if (pi and self.parities[j]) else f.one
                terms = []
                if j == i:
                    c = f.mul(self.cross_coeff[i], self.weight_of(i, node.root))
                    terms.append((c, {m: f.one}))
                terms += [(f.mul(sgn, c), self.raise_tab.get((i, b), {}))
                          for b, c in flats.items()]
                for k, c in hpart.items():
                    # [X_i, h_k] = -w_k(eps_i) X_i  (same side)
                    coef = f.mul(c, f.neg(self.weight_of(k, self.gen_root[i])))
                    terms.append((f.mul(sgn, coef), {i: f.one}))
                out.append(el_sum(f, terms))
        else:  # square candidate s(node_m); p = 2, signs trivial
            for j in range(self.n):
                flats, hpart = self._lower_of_basis(m, j)
                if not (flats or hpart):
                    out.append({})
                    continue
                terms = [(c, self.bracket_flat(m, b)) for b, c in flats.items()]
                terms += [(f.mul(c, f.neg(self.weight_of(k, node.root))), {m: f.one})
                          for k, c in hpart.items()]
                out.append(el_sum(f, terms))
        return out

    # -- main loop ------------------------------------------------------------

    def build(self):
        f = self.f
        d = 2
        while True:
            max_deg = max((dd for dd, lst in self.deg_basis.items() if lst), default=0)
            max_odd = max((dd for dd, lst in self.deg_basis.items()
                           if any(self.nodes[m].parity for m in lst)), default=0)
            limit = max(max_deg + 1, 2 * max_odd if self.p2 else 0)
            if d > limit:
                break
            # the cap bounds root height; at p = 2 squares of degree-h elements
            # still have to be scanned (and are then empty) up to degree 2h
            if d > self.cap and self.deg_basis.get(d - 1):
                raise BuildError(
                    f"degree cap {self.cap} exceeded; growth profile {self.profile}")
            cands: List[Tuple[str, int, int, Tuple[int, ...], int]] = []
            for m in self.deg_basis.get(d - 1, []):
                for i in range(self.n):
                    root = tuple(a + b for a, b in zip(self.nodes[m].root, self.gen_root[i]))
                    par = (self.nodes[m].parity + self.parities[i]) % 2
                    cands.append(("br", i, m, root, par))
            if self.p2 and d % 2 == 0:
                for m in self.deg_basis.get(d // 2, []):
                    if self.nodes[m].parity == 1:
                        root = tuple(2 * a for a in self.nodes[m].root)
                        cands.append(("sq", -1, m, root, 0))
            by_root: Dict[Tuple[int, ...], list] = {}
            for c in cands:
                by_root.setdefault(c[3], []).append(c)
            new_idxs: List[int] = []
            for root in sorted(by_root.keys(), reverse=True):
                group = by_root[root]
                lows = [self._cand_lowering(k, i, m) for (k, i, m, _r, _p) in group]
                flat_of: Dict[int, int] = {}  # candidate id -> flat index
                for ci, combo in enumerate(radical_step(f, self.n, lows)):
                    kind, i, m, _r, par = group[ci]
                    if combo is None:
                        flat = flat_of[ci] = len(self.nodes)
                        word = ("br", i, m) if kind == "br" else ("sq", m)
                        self.nodes.append(_Node(word, root, par, d))
                        new_idxs.append(flat)
                        self.lower[flat] = lows[ci]
                        expansion: Element = {flat: f.one}
                    else:
                        expansion = {flat_of[vid]: c for vid, c in combo.items()}
                    if kind == "br":
                        self.raise_tab[(i, m)] = expansion
                    else:
                        self.sq_tab[m] = expansion
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
    pos = _Side(fld, n, spec.parities, weight_of, cross_pos, degree_cap, dim_cap)
    pos.build()
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
        """An element over the nodes, over global indices on one side."""
        return {glob[m]: c for m, c in el.items()}

    memo_mixed: Dict[Tuple[int, int], Element] = {}

    def glob_bracket(a: int, b: int) -> Element:
        """[basis_a, basis_b] on global indices, any order."""
        pa, pb = parities[a], parities[b]
        if a == b and (p2 or pa == 0) and a >= nh:
            return {}
        if b < a:
            w = glob_bracket(b, a)
            if not w:
                return {}
            if p2:
                return w
            sgn = fld.one if (pa and pb) else minus_one
            return el_scale(fld, sgn, w)
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
        # a positive, b negative
        return mixed(order[a - nh], order[b - nh - npos])

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

    def mixed(mp: int, mn: int) -> Element:
        """[x_mp, y_mn] as a global element."""
        key = (mp, mn)
        if key in memo_mixed:
            return memo_mixed[key]
        np_, nn = nodes[mp], nodes[mn]
        if (mn, mp) in memo_mixed:
            out = mirrored(mp, mn, memo_mixed[(mn, mp)])
        elif np_.degree == 1:
            i = np_.word[1]
            if nn.degree == 1:
                j = nn.word[1]
                out = {i: fld.one} if i == j else {}
            elif nn.word[0] == "sq":
                # y_mn = s(y_z), and at p = 2 [e_i, s(y)] = [y, [y, e_i]]
                z = nn.word[1]
                out = el_sum(fld, [(c, glob_bracket(neg_global[z], b))
                                   for b, c in mixed(mp, z).items()])
            else:
                # nn = [f_j, b']; [e_i,[f_j,b']] = delta_ij [h_i, b'] + (-1)^{p_i p_j}[f_j, [e_i, b']]
                j, bprime = nn.word[1], nn.word[2]
                terms = []
                if i == j:
                    c = fld.neg(weight_of(i, nodes[bprime].root))
                    terms.append((c, {neg_global[bprime]: fld.one}))
                sgn = minus_one if (not p2 and spec.parities[i] and spec.parities[j]) else fld.one
                terms += [(fld.mul(sgn, c), glob_bracket(neg_global[j], b))
                          for b, c in mixed(mp, bprime).items()]
                out = el_sum(fld, terms)
        elif np_.word[0] == "sq":
            z = np_.word[1]
            out = el_sum(fld, [(c, glob_bracket(pos_global[z], b))
                               for b, c in mixed(z, mn).items()])
        else:
            # [[e_i, a'], y] = [e_i, [a', y]] - (-1)^{p(i)p(a')} [a', [e_i, y]]
            i, aprime = np_.word[1], np_.word[2]
            c2 = fld.one if (not p2 and spec.parities[i] and nodes[aprime].parity) else minus_one
            terms = [(c, glob_bracket(pos_global[i], b)) for b, c in mixed(aprime, mn).items()]
            terms += [(fld.mul(c2, c), glob_bracket(pos_global[aprime], b))
                      for b, c in mixed(i, mn).items()]
            out = el_sum(fld, terms)
        memo_mixed[key] = out
        return out

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
                s = pos.sq_tab.get(m) if nodes[m].parity else None
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
