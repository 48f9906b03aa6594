"""Irreducible highest-weight modules by the radical recursion.

The module is spanned by f-words applied to a highest-weight vector v
(e_i v = 0, h_i v = lambda_i v); a degree-d combination u is radical iff
all raisings e_j u vanish in the already-reduced degree-(d-1) space.
That is g(A)'s recursion with e and f exchanged: `build.RadicalRecursion`
runs it from the seed v, with the scalar [e_i, f_i] = h_i on a vector of
multidegree t (lambda_i - sum_j t_j A_ij) and no squares, and f_act and
e_act are its two tables.
The construction only uses the Chevalley triple actions, so it serves
both g(A) and its first-derived subquotient (the latter requires the
weight to kill the central combinations of the h_i, which is checked).

A matrix of the action is held as sparse rows (a list of Elements, row t
holding the coefficients of basis_t in the images of the basis vectors).
The root vectors act through their words: each row of a product, and of
rho_x = sum_k c_k rho(b_k), is one el_sum of scaled rows, and a
commutator combines rows with el_addmul.  module_homology checks
rho_x^2 = 0 on the sparse rows and hands them to linalg.kernel_mod_image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .build import BuildError, BuildResult, RadicalRecursion, _Node, grading_rows
from .linalg import Matrix, kernel_mod_image, mat_nullspace
from .superalgebra import Element, el_addmul, el_sum


@dataclass
class ModuleRep:
    build: BuildResult
    lam: List[object]
    labels: List[str]
    parities: List[int]
    degrees: List[Tuple[int, ...]]  # lowering multidegree of each basis vector
    f_act: List[List[Element]]      # f_act[i][m] = f_i . basis_m
    e_act: List[List[Element]]      # e_act[j][m] = e_j . basis_m
    name: str = "M"

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def sdim(self) -> Tuple[int, int]:
        ev = sum(1 for p in self.parities if p == 0)
        return ev, len(self.parities) - ev

    def action_matrix(self, global_idx: int) -> List[Element]:
        """Sparse rows of the matrix of the algebra basis element on the
        module."""
        b = self.build
        fld = b.field
        nh = b.n + b.n_grading
        if global_idx < b.n:
            return _diag([_h_value(b, self.lam, global_idx, t) for t in self.degrees], fld)
        if global_idx < nh:
            # grading element d_t with lambda(d_t) = 0
            drow = grading_rows(b.spec, fld)[global_idx - b.n]
            return _diag([fld.neg(fld.from_int(t[drow])) for t in self.degrees], fld)
        k, npos = global_idx - nh, len(b.pos_roots)
        positive = k < npos  # each y reads its x's node with f for e (build.py, fact 1)
        flat = b.pos_order[k if positive else k - npos]
        return self._word_matrix(b.pos_nodes[flat].word, positive)

    def _gen_matrix(self, i: int, positive: bool) -> List[Element]:
        acts = self.e_act[i] if positive else self.f_act[i]
        rows: List[Element] = [{} for _ in range(self.dim)]
        for m, col in enumerate(acts):
            for t, c in col.items():
                rows[t][m] = c
        return rows

    def _word_matrix(self, word, positive: bool) -> List[Element]:
        fld = self.build.field
        nodes = self.build.pos_nodes
        if word[0] == "g":
            return self._gen_matrix(word[1], positive)
        if word[0] == "sq":
            z = self._word_matrix(nodes[word[1]].word, positive)
            return _sparse_mul(fld, z, z)
        _, i, parent = word
        a = self._gen_matrix(i, positive)
        bmat = self._word_matrix(nodes[parent].word, positive)
        pi = self.build.spec.parities[i]
        pb = nodes[parent].parity
        minus_sgn = fld.one if (fld.p != 2 and pi and pb) else fld.neg(fld.one)
        return [el_addmul(fld, r1, minus_sgn, r2)
                for r1, r2 in zip(_sparse_mul(fld, a, bmat), _sparse_mul(fld, bmat, a))]

    def element_matrix(self, el: Element) -> List[Element]:
        """Sparse rows of rho_x = sum_k c_k rho(b_k) for x = {k: c_k}."""
        mats = [(c, self.action_matrix(k)) for k, c in el.items()]
        return [el_sum(self.build.field, [(c, rows[t]) for c, rows in mats])
                for t in range(self.dim)]


def _h_value(b: BuildResult, lam: Sequence, a: int, t: Tuple[int, ...]):
    """Eigenvalue lambda(h_a) - sum_j t_j A_aj of h_a on a vector of lowering
    multidegree t."""
    fld = b.field
    acc = lam[a]
    for j, tj in enumerate(t):
        if tj:
            acc = fld.sub(acc, fld.mul(fld.from_int(tj), b.spec.entry_scalar(fld, a, j)))
    return acc


def _diag(vals, fld) -> List[Element]:
    return [{i: v} if not fld.is_zero(v) else {} for i, v in enumerate(vals)]


def _sparse_mul(fld, a: List[Element], b: List[Element]) -> List[Element]:
    """The product of two matrices held as sparse rows: row i of a.b is the
    sum of a[i][k] * b[k]."""
    return [el_sum(fld, [(c, b[k]) for k, c in row.items()]) for row in a]


def central_h_combinations(b: BuildResult) -> List[Element]:
    """Coefficient vectors u with sum u_i A_ij = 0 for all j (central h-combos)."""
    fld = b.field
    n = b.n
    return mat_nullspace(Matrix(fld, [{j: b.spec.entry_scalar(fld, j, i) for j in range(n)}
                                      for i in range(n)], ncols=n))


def build_irreducible(b: BuildResult, lam: Sequence, degree_cap: int = 60,
                      dim_cap: int = 5000, hw_parity: int = 0,
                      require_center_zero: bool = False, name: str = "M") -> ModuleRep:
    """Irreducible highest-weight module over the Chevalley subalgebra of b."""
    fld = b.field
    n = b.n
    lam = [x if not isinstance(x, int) else fld.from_int(x) for x in lam]
    if len(lam) != n:
        raise ValueError("highest weight length mismatch")
    if require_center_zero:
        for combo in central_h_combinations(b):
            acc = fld.zero
            for i, u in combo.items():
                acc = fld.add(acc, fld.mul(u, lam[i]))
            if not fld.is_zero(acc):
                raise BuildError(
                    f"weight does not vanish on the central combination {combo}")
    seed = _Node(("hw",), tuple(0 for _ in range(n)), hw_parity % 2, 0)
    rec = RadicalRecursion(fld, b.spec.parities, lambda i, t: _h_value(b, lam, i, t), False,
                           degree_cap, dim_cap, [(seed, [{} for _ in range(n)])])
    rec.build()
    dm = len(rec.nodes)
    return ModuleRep(build=b, lam=lam, labels=[f"m{t+1}" for t in range(dm)],
                     parities=[nd.parity for nd in rec.nodes],
                     degrees=[nd.root for nd in rec.nodes],
                     f_act=[[up[m] for m in range(dm)] for up in rec.up],
                     e_act=[[rec.down[m][j] for m in range(dm)] for j in range(n)], name=name)


@dataclass
class ModuleHomology:
    rank: int
    sdim_mx: Tuple[int, int]
    basis_rows: List[Element]


def module_homology(rep: ModuleRep, el: Element) -> ModuleHomology:
    """Ker rho_x / Im rho_x for a homological x (rho_x^2 = 0 is verified)."""
    fld = rep.build.field
    R = rep.element_matrix(el)
    if any(_sparse_mul(fld, R, R)):
        raise ValueError("rho_x squared is nonzero on the module")
    im, _ker, comp_rows = kernel_mod_image(fld, R)
    ev = od = 0
    for r in comp_rows:
        ps = {rep.parities[k] for k in r}
        if ps == {0}:
            ev += 1
        elif ps == {1}:
            od += 1
        else:
            raise ValueError("module homology not parity-graded")
    return ModuleHomology(rank=len(im), sdim_mx=(ev, od), basis_rows=comp_rows)
