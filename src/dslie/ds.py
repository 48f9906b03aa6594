"""Homological elements, the homology g_x = Ker ad_x / Im ad_x, module
homology, defect data, and fingerprint-based identification."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .build import BuildResult
from .cartan import SymmetrizedForm, analyze_diagram, root_ip
from .linalg import Matrix, kernel_mod_image, mat_rank
from .superalgebra import Element, Fingerprint, Superalgebra, el_sum

MAX_ORTHOGONAL_SETS = 5000  # isotropic_orthogonal_sets gives up beyond this many


@dataclass
class HomologicalElement:
    element: Element
    kind: str  # single-root / orthogonal-root-sum / random-odd / inhomogeneous-ad / explicit
    constituents: Optional[Tuple[Tuple[int, ...], ...]] = None
    description: str = ""


@dataclass
class DSResult:
    x: HomologicalElement
    rank_ad: int
    homology: Superalgebra
    fingerprint: Fingerprint

    @property
    def sdim_gx(self) -> Tuple[int, int]:
        return self.homology.sdim


@dataclass
class DefectReport:
    key: str
    g_max: int
    df: int
    max_orthogonal_sets: List[Tuple[Tuple[int, ...], ...]]
    ndf: int
    classes: List[DSResult]
    sweep_size: int
    seed: int
    samples: int


def is_homological(g: Superalgebra, x: Element) -> str:
    """'odd' (odd element, x^2 = 0), 'ad' ((ad_x)^2 = 0, p = 2 only), or 'no'."""
    f = g.field
    x = {k: c for k, c in x.items() if not f.is_zero(c)}
    if not x:
        return "no"
    par = g.parity_of(x)
    if par == 1:
        if f.p == 2:
            sq = g.square(x)
            if not sq:
                return "odd"
            # (ad_x)^2 = ad_{s(x)}: ad-homological iff s(x) is central
            if all(not g.bracket(sq, {k: f.one}) for k in range(g.dim)):
                return "ad"
            return "no"
        if not g.bracket(x, x):
            return "odd"
        return "no"
    if f.p == 2:
        # mixed or even parity: test (ad_x)^2 = 0 column by column, sparsely
        for j in range(g.dim):
            w = g.bracket(x, g.bracket(x, {j: f.one}))
            if w:
                return "no"
        return "ad"
    return "no"


class DSError(RuntimeError):
    pass


def ds_homology(g: Superalgebra, x) -> DSResult:
    """Ker ad_x / Im ad_x with the induced bracket (and squaring at p = 2)."""
    f = g.field
    if isinstance(x, HomologicalElement):
        hx, el = x, x.element
    else:
        el = {k: c for k, c in x.items() if not f.is_zero(c)}
        hx = HomologicalElement(element=el, kind="explicit")
    if not el:
        raise DSError("element is not homological: x = 0")
    kind = is_homological(g, el)
    if kind == "no":
        if g.parity_of(el) == 1:
            sq = g.square(el) if f.p == 2 else g.bracket(el, el)
            raise DSError(f"element is not homological: square = {sq}")
        raise DSError("element is not homological (even or mixed parity, (ad)^2 != 0)")
    if hx.kind == "explicit":
        hx.kind = "inhomogeneous-ad" if (kind == "ad" and g.parity_of(el) is None) \
            else hx.kind

    n = g.dim
    im_ech, ker, comp_rows = kernel_mod_image(f, g.ad_matrix(el))
    rank = len(im_ech)
    for row in im_ech.rows:
        if g.bracket(el, row):
            raise DSError("(ad_x)^2 != 0: image not contained in kernel")
    if len(ker) != n - rank:
        raise AssertionError("rank-nullity violated")
    if len(comp_rows) != n - 2 * rank:
        raise AssertionError("dim g_x != dim g - 2 rank ad_x")
    # weight bookkeeping survives only when ad_x is weight-homogeneous
    x_weight_homog = (g.weights is not None and
                      len({g.weights[k] for k in el}) == 1)
    try:
        hom = g.subquotient(comp_rows, im_ech,
                            labels=[f"z{t+1}" for t in range(len(comp_rows))],
                            weights=x_weight_homog)
    except ValueError as exc:
        # a non-graded complement (inhomogeneous x), or an induced bracket
        # leaving Ker ad_x (an internal error: ad_x is a derivation)
        raise DSError(f"Ker ad_x / Im ad_x: {exc}") from exc
    bad = hom.check_axioms()
    if bad:
        raise DSError(f"homology fails axioms: {bad[:3]}")
    if g.parity_of(el) == 1:
        # superdimension preservation holds for parity-homogeneous odd x
        gs = g.sdim
        hs = hom.sdim
        if (gs[0] - gs[1]) != (hs[0] - hs[1]):
            raise DSError("superdimension not preserved by DS homology")
    return DSResult(x=hx, rank_ad=rank, homology=hom, fingerprint=hom.fingerprint())


def adjoint_rank(g: Superalgebra, el: Element) -> int:
    return mat_rank(Matrix(g.field, g.ad_matrix(el), g.dim))


# ---------------------------------------------------------------------------
# candidates and defect
# ---------------------------------------------------------------------------


def single_root_candidates(b: BuildResult) -> List[HomologicalElement]:
    g = b.algebra
    f = g.field
    out = []
    nh = b.n + b.n_grading
    for t, (root, par) in enumerate(b.pos_roots):
        if par != 1:
            continue
        el = {nh + t: f.one}
        if is_homological(g, el) == "odd":
            out.append(HomologicalElement(el, "single-root", (root,), f"x{t+1}"))
    return out


def isotropic_odd_roots(b: BuildResult) -> List[Tuple[Tuple[int, ...], int]]:
    """Positive odd roots whose root vectors square to zero (ground-field
    isotropy; this is the underline rule of the tables)."""
    return sorted({h.constituents[0] for h in single_root_candidates(b)}, reverse=True)


def _residual(span: Tuple[Tuple[int, List[int]], ...], v: List[int]) -> List[int]:
    """The integer vector v reduced fraction-free by span, an echelon of
    (pivot, primitive integer row) pairs in which each row is 0 at the
    pivots of the rows before it: at each pivot, v becomes a v - c row with
    a the row's pivot entry and c v's entry there.  It is 0 exactly when v
    is in the QQ span of the rows, and otherwise it is divided by the gcd
    of its entries."""
    for piv, row in span:
        c = v[piv]
        if c:
            a = row[piv]
            v = [a * x - c * y for x, y in zip(v, row)]
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def isotropic_orthogonal_sets(b: BuildResult, form: SymmetrizedForm) -> dict:
    """Maximal sets of QQ-linearly-independent, pairwise QQ-orthogonal
    isotropic roots; orthogonality uses integer lifts, never mod p.  More
    than MAX_ORTHOGONAL_SETS sets found is a DSError, not a partial answer.

    Independence is decided on the integer roots themselves by fraction-free
    elimination (_residual), which is exact over QQ without a Fraction:
    a candidate is independent of a set when its residual by the set's
    integer echelon is nonzero, and that residual is the row it adds."""
    roots = isotropic_odd_roots(b)
    K0 = form.field
    nr = len(roots)
    orth = [[False] * nr for _ in range(nr)]
    for i in range(nr):
        for j in range(i + 1, nr):
            orth[i][j] = orth[j][i] = K0.is_zero(root_ip(form, roots[i], roots[j]))

    maximal: List[Tuple[Tuple[int, ...], frozenset]] = []  # each set also as a frozenset

    def extend(cur: Tuple[int, ...], span: tuple, cand: List[int]):
        """Grow cur, whose integer echelon is span, by the candidates
        orthogonal to it and independent of it.  The candidates are already
        orthogonal to all of cur but its newest member."""
        if len(maximal) > MAX_ORTHOGONAL_SETS:
            raise DSError(f"{b.spec.key}: more than MAX_ORTHOGONAL_SETS = "
                          f"{MAX_ORTHOGONAL_SETS} maximal orthogonal isotropic sets")
        ext = []
        for c in cand:
            if not cur or orth[c][cur[-1]]:
                res = _residual(span, list(roots[c]))
                if any(res):
                    ext.append((c, res))
        if not ext:
            found = frozenset(cur)
            if cur and not any(found < mx for _, mx in maximal):
                maximal.append((cur, found))
            return
        for t, (c, res) in enumerate(ext):
            piv = next(k for k, x in enumerate(res) if x)
            extend(cur + (c,), span + ((piv, res),), [d for d, _ in ext[t + 1:]])

    extend(tuple(), (), list(range(nr)))
    # deduplicate non-maximal leftovers
    maximal = [m for m, ms in maximal if not any(ms < m2 for _, m2 in maximal)]
    df = max((len(m) for m in maximal), default=0)
    sets = sorted({tuple(roots[i] for i in m) for m in maximal})
    return {"isotropic_roots": roots, "max_sets": sets, "df": df}


def homological_candidates(b: BuildResult, max_sets: Sequence = (), seed: int = 0,
                           samples: int = 200) -> List[HomologicalElement]:
    """Deterministic candidate sweep: single isotropic roots, sums over the
    orthogonal isotropic sets max_sets (the "max_sets" of
    isotropic_orthogonal_sets) and seeded random odd elements."""
    g = b.algebra
    f = g.field
    out: List[HomologicalElement] = []
    seen = set()

    def push(h: HomologicalElement):
        key = tuple(sorted((k, str(c)) for k, c in h.element.items()))
        if key not in seen:
            seen.add(key)
            out.append(h)

    singles = single_root_candidates(b)
    for h in singles:
        push(h)
    by_root = {}
    for h in singles:
        by_root.setdefault(h.constituents[0], h)
    for mset in max_sets:
        for size in range(2, len(mset) + 1):
            for sub in itertools.combinations(mset, size):
                if not all(r in by_root for r in sub):
                    continue
                el = el_sum(f, [(f.one, by_root[r].element) for r in sub])
                if is_homological(g, el) == "odd":
                    desc = "+".join(by_root[r].description for r in sub)
                    push(HomologicalElement(el, "orthogonal-root-sum", sub, desc))
    # seeded random odd elements over the prime subfield
    rng = random.Random(seed)
    odd_idx = [i for i in range(g.dim) if g.parities[i] == 1]
    pool = list(range(g.field.p)) if g.field.p else list(range(-3, 4))
    for t in range(samples):
        el = {}
        for i in odd_idx:
            c = rng.choice(pool)
            if c:
                el[i] = f.from_int(c)
        if el and is_homological(g, el) == "odd":
            push(HomologicalElement(dict(el), "random-odd", None, f"rand{t}"))
    return out


def defect_report(b: BuildResult, form: SymmetrizedForm, seed: int = 0,
                  samples: int = 200) -> DefectReport:
    """g_max from the diagram, df from the orthogonal isotropic sets, ndf as
    the number of fingerprint classes over the candidate sweep.  On algebras
    of dim > 80 only the first 3 candidates of each adjoint rank are
    fingerprinted."""
    g = b.algebra
    diagram = analyze_diagram(b.spec)
    iso = isotropic_orthogonal_sets(b, form)
    cands = homological_candidates(b, iso["max_sets"], seed=seed, samples=samples)
    per_rank = 3 if g.dim > 80 else None
    by_rank: Dict[int, List[HomologicalElement]] = {}
    order: List[int] = []
    for c in cands:
        r = adjoint_rank(g, c.element)
        if r not in by_rank:
            order.append(r)
        by_rank.setdefault(r, []).append(c)
    classes: List[DSResult] = []
    for r in order:
        reps = by_rank[r][:per_rank]
        fps = []
        for c in reps:
            res = ds_homology(g, c)
            if res.rank_ad != r:
                raise DSError(f"adjoint rank {r} but ds_homology found {res.rank_ad}")
            if res.fingerprint not in [x.fingerprint for x in fps]:
                fps.append(res)
        classes.extend(fps)
    classes.sort(key=lambda rres: rres.rank_ad)
    return DefectReport(key=b.spec.key, g_max=diagram.g_max, df=iso["df"],
                        max_orthogonal_sets=iso["max_sets"], ndf=len(classes),
                        classes=classes, sweep_size=len(cands), seed=seed,
                        samples=samples)


def rank_equivalence_check(results: Sequence[DSResult]) -> dict:
    """Within one sweep: equal adjoint rank <=> equal fingerprint."""
    violations = []
    by_rank: Dict[int, List[DSResult]] = {}
    for r in results:
        by_rank.setdefault(r.rank_ad, []).append(r)
    fp_to_rank: Dict[Fingerprint, int] = {}
    for rank, rs in by_rank.items():
        fps = {r.fingerprint for r in rs}
        if len(fps) > 1:
            violations.append(f"rank {rank} splits into {len(fps)} fingerprint classes")
        for fp in fps:
            if fp in fp_to_rank and fp_to_rank[fp] != rank:
                violations.append(
                    f"fingerprint shared between ranks {fp_to_rank[fp]} and {rank}")
            fp_to_rank[fp] = rank
    return {"ok": not violations, "violations": violations}


def identify(result: DSResult, references: Sequence[Tuple[str, Fingerprint]]) -> str:
    """Reference name on exact fingerprint match; K^{a|b} for abelian;
    otherwise a canonical structure descriptor."""
    fp = result.fingerprint
    names = [name for name, rfp in references if rfp == fp]
    if names:
        return " / ".join(sorted(set(names)))
    if fp.abelian:
        return f"K^{{{fp.sdim[0]}|{fp.sdim[1]}}}"
    return describe_fingerprint(fp)


def describe_fingerprint(fp: Fingerprint) -> str:
    parts = []
    if fp.solvable:
        parts.append("solvable")
    parts.append(f"dim c = {fp.center_sdim[0]}|{fp.center_sdim[1]}")
    ds = ", ".join(f"{a}|{b}" for a, b in fp.derived_sdims)
    parts.append(f"derived sdims [{ds}]")
    return "; ".join(parts)
