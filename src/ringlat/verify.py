"""Theorem-check corpus: every structural identity the library exposes,
wired to named checks so the CLI and the acceptance suite run one source of
truth.

A check is a function of no arguments that returns (passed, detail).  The
decorator @_check(suite, name) declares it once: it registers the check in
SUITES[suite] in definition order, reports it as CheckResult(name, ...), and
turns a RinglatError the check raises into a failed CheckResult whose detail
names the error.  Any other exception propagates."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable

from . import closures as cl
from . import combinatorics as cb
from . import crt as cr
from . import ideals as il
from . import lattice as lt
from . import modules as md
from . import rings as rg
from .errors import PreconditionError, RinglatError

SEED = 96321


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


SUITES: dict[str, list[Callable[[], CheckResult]]] = {}


def _check(suite: str, name: str):
    """Register the decorated check under SUITES[suite] with JSON name `name`."""
    def register(fn: Callable[[], tuple[bool, str]]) -> Callable[[], CheckResult]:
        @wraps(fn)
        def check() -> CheckResult:
            try:
                passed, detail = fn()
            except RinglatError as e:
                return CheckResult(name, False, f"{type(e).__name__}: {e}")
            return CheckResult(name, bool(passed), detail)

        SUITES.setdefault(suite, []).append(check)
        return check

    return register


# ---------------------------------------------------------------------------
# shared corpus

@lru_cache(maxsize=None)
def _named_rings() -> dict[str, rg.FiniteRing]:
    f2 = rg.make_gf(2)
    f3 = rg.make_gf(3)
    f4 = rg.make_gf(2, 2)
    out = {
        "F2": f2,
        "F3": f3,
        "F4": f4,
        "Z/4": rg.make_zmod(4),
        "Z/6": rg.make_zmod(6),
        "Z/8": rg.make_zmod(8),
        "Z/9": rg.make_zmod(9),
        "Z/12": rg.make_zmod(12),
        "Z/27": rg.make_zmod(27),
        "F2[t]/(t^2)": rg.poly_quotient(f2, [0, 0, 1], var="t").ring,
        "F2[t]/(t^3)": rg.poly_quotient(f2, [0, 0, 0, 1], var="t").ring,
    }
    return out


@lru_cache(maxsize=None)
def _named_extensions() -> list[tuple[str, lt.Extension]]:
    """The minimal-extension showcase: one of each kind plus a CRT case."""
    rings = _named_rings()
    f2 = rings["F2"]
    out = []
    out.append(("F2 in F4", lt.Extension(rg.prime_hom(f2, rings["F4"]))))
    out.append(("F2 in F2^2", lt.power_extension(f2, 2)))
    eps = rg.poly_quotient(f2, [0, 0, 1], var="t")
    out.append(("F2 in F2[t]/(t^2)", lt.Extension(eps.to_quotient)))
    crt12 = cr.make_crt(rings["Z/12"], [[4], [3], [3]])
    out.append(("Z/12 in Z/4xZ/3xZ/3", crt12.extension))
    return out


@lru_cache(maxsize=None)
def _special_ramified() -> tuple[lt.LatticeReport, lt.LatticeReport]:
    """The lattices of K[t]/(t^2) inside its order-8 ramified cover, and of
    the perturbed variant that drops the xt relation."""
    f2 = _named_rings()["F2"]
    base = rg.poly_quotient(f2, [0, 0, 1], var="t").ring
    t = next(i for i in range(base.order)
             if i not in (base.zero, base.one) and base.mul[i, i] == base.zero
             and base.add[i, i] == base.zero)
    good = rg.poly_quotient(base, [int(base.neg[t]), 0, 1], relations=[[0, t]], var="x")
    bad = rg.poly_quotient(base, [int(base.neg[t]), 0, 1], var="x")
    return (lt.intermediate_algebras(lt.Extension(good.to_quotient)),
            lt.intermediate_algebras(lt.Extension(bad.to_quotient)))


@lru_cache(maxsize=None)
def _bell_lattices() -> list[tuple[str, int, lt.LatticeReport]]:
    out = []
    for label in ("F2", "F3", "F4"):
        k = _named_rings()[label]
        for n in (2, 3, 4):
            out.append((label, n, lt.intermediate_algebras(lt.power_extension(k, n))))
    return out


_SPIR_SQUARES = ("Z/4", "Z/8", "Z/9", "Z/27", "F2[t]/(t^3)")


@lru_cache(maxsize=None)
def _spir_lattices() -> list[tuple[str, lt.LatticeReport, int]]:
    out = []
    for label in _SPIR_SQUARES:
        ring = _named_rings()[label]
        wit = rg.is_spir(ring)
        assert wit is not None
        rep = lt.intermediate_algebras(lt.power_extension(ring, 2), max_order=1024)
        out.append((label, rep, wit.index))
    return out


@lru_cache(maxsize=None)
def _idealization_pairs() -> list[tuple[str, md.FiniteModule]]:
    rings = _named_rings()
    f2, f3, f4 = rings["F2"], rings["F3"], rings["F4"]
    z4, z6, z8, z9 = rings["Z/4"], rings["Z/6"], rings["Z/8"], rings["Z/9"]
    t2 = rings["F2[t]/(t^2)"]
    return [
        ("F2, F2", md.module_from_cyclics(f2, [[0]])),
        ("F2, F2^2", md.module_from_cyclics(f2, [[0], [0]])),
        ("F2, F2^3", md.module_from_cyclics(f2, [[0], [0], [0]])),
        ("F3, F3", md.module_from_cyclics(f3, [[0]])),
        ("F3, F3^2", md.module_from_cyclics(f3, [[0], [0]])),
        ("F4, F4", md.module_from_ring(f4)),
        ("Z/4, Z/4", md.module_from_ring(z4)),
        ("Z/4, Z/2", md.module_from_cyclics(z4, [[2]])),
        ("Z/4, Z/4+Z/2", md.module_from_cyclics(z4, [[0], [2]])),
        ("Z/4, Z/2+Z/2", md.module_from_cyclics(z4, [[2], [2]])),
        ("Z/6, Z/6", md.module_from_ring(z6)),
        ("Z/6, Z/3", md.module_from_cyclics(z6, [[3]])),
        ("Z/8, Z/8", md.module_from_ring(z8)),
        ("Z/8, Z/4", md.module_from_cyclics(z8, [[4]])),
        ("Z/9, Z/9", md.module_from_ring(z9)),
        ("Z/9, Z/3", md.module_from_cyclics(z9, [[3]])),
        ("F2[t]/(t^2), itself", md.module_from_ring(t2)),
    ]


@lru_cache(maxsize=None)
def _random_families() -> list[tuple[str, cr.CrtExtension]]:
    """Deterministic pseudo-random separating families, conductor-checkable;
    at least 20, mixing Z/n bases and finite-field products.  The first draw
    per base is kept small enough for lattice cross-checks."""
    rng = random.Random(SEED)
    bases: list[tuple[str, rg.FiniteRing]] = []
    for n in (8, 12, 16, 18, 24, 27, 30, 32, 36, 48, 60, 64):
        bases.append((f"Z/{n}", rg.make_zmod(n)))
    f2, f3, f4 = _named_rings()["F2"], _named_rings()["F3"], _named_rings()["F4"]
    bases.append(("F2xF4", rg.product([f2, f4]).ring))
    bases.append(("F3xF3", rg.product([f3, f3]).ring))
    bases.append(("F2xF2xF3", rg.product([f2, f2, f3]).ring))
    out = []
    for label, ring in bases:
        ideals = [i for i in il.all_ideals(ring) if not i.is_whole]
        made = 0
        attempts = 0
        while made < 2 and attempts < 500:
            attempts += 1
            k = rng.choice([2, 3, 3, 4])
            fam_ids = [rng.choice(ideals) for _ in range(k)]
            top_order = 1
            for idl in fam_ids:
                top_order *= ring.order // idl.order
            if top_order > (256 if made == 0 else 2048):
                continue
            crt = cr.make_crt(ring, fam_ids)
            out.append((f"{label}:{'|'.join(str(i.order) for i in fam_ids)}", crt))
            made += 1
    return out


# ---------------------------------------------------------------------------
# acceptance criteria

@_check("s2", "bell_counts_for_field_powers")
def criterion_01_bell_counts() -> tuple[bool, str]:
    bad = []
    for label, n, rep in _bell_lattices():
        want = cb.bell(n)
        if rep.count != want or want != cb.bell_by_recurrence(n):
            bad.append(f"{label}^{n}: {rep.count} vs {want}")
    frozen = {2: 2, 3: 5, 4: 15}
    for n, value in frozen.items():
        if cb.bell(n) != value:
            bad.append(f"B_{n} != {value}")
    return not bad, "; ".join(bad) or "9 lattices match B_n in {2,5,15}"


@_check("s3", "spir_square_counts_and_nodes")
def criterion_02_spir_counts() -> tuple[bool, str]:
    bad = []
    for label, rep, idx in _spir_lattices():
        if rep.count != idx + 1:
            bad.append(f"{label}: count {rep.count} != {idx + 1}")
            continue
        ext = rep.extension
        ring = ext.base
        top = ext.top
        m = rg.is_local(ring)
        assert m is not None
        m_top = il.ideal_generated(top, [int(ext.embed.map[x]) for x in m.elements])
        want_nodes = set()
        power = il.unit_ideal(top)
        for i in range(idx + 1):
            node = rg.subgroup_sum_mask(top, ext.image_mask, power.mask)
            want_nodes.add(rg.mask_elements(node))
            power = il.ideal_product(power, m_top)
        got = {node.elements for node in rep.nodes}
        if got != want_nodes:
            bad.append(f"{label}: node sets differ")
    return not bad, "; ".join(bad) or "counts n(R)+1 and node sets {R + M^i R^2} for 5 rings"


@_check("s4", "exal_counts_vs_stirling")
def criterion_03_stirling_exal() -> tuple[bool, str]:
    rings = _named_rings()
    bad = []
    for label in ("Z/4", "F3", "F2[t]/(t^2)"):
        ring = rings[label]
        for p, n in ((2, 3), (2, 4), (3, 4)):
            got = cb.enumerate_exal(ring, p, n).count
            want = cb.stirling2(n, p)
            if got != want or want != cb.stirling2_by_recurrence(n, p):
                bad.append(f"{label} ({p},{n}): {got} vs {want}")
    for (n, p), value in {(3, 2): 3, (4, 2): 7, (4, 3): 6}.items():
        if cb.stirling2(n, p) != value:
            bad.append(f"S({n},{p}) != {value}")
    ff = rg.product([rings["F2"], rings["F2"]]).ring
    ff_exact = []
    for p, n in ((2, 3), (2, 4), (3, 4)):
        rep = cb.enumerate_exal(ff, p, n)
        s = cb.stirling2(n, p)
        if not (s <= rep.count <= s * s):
            bad.append(f"F2xF2 ({p},{n}): {rep.count} outside [{s},{s * s}]")
        ff_exact.append(f"({p},{n})={rep.count}")
        cb.exal_bound_check(ff, p, n)
    if not ff_exact[0].endswith("=9"):
        bad.append(f"F2xF2 (2,3) brute-force value changed: {ff_exact[0]}")
    return not bad, ("; ".join(bad) or
                     f"9 connected cases = S(n,p); F2xF2 in sandwich, exact {' '.join(ff_exact)}")


@lru_cache(maxsize=None)
def _trichotomy_corpus() -> list[tuple[str, lt.LatticeReport]]:
    seen: list[tuple[str, lt.LatticeReport]] = []
    for label, n, rep in _bell_lattices():
        seen.append((f"{label}^{n}", rep))
    for label, rep, _ in _spir_lattices():
        seen.append((f"{label}^2", rep))
    for label, ext in _named_extensions():
        seen.append((label, lt.intermediate_algebras(ext)))
    for label, crt in _random_families():
        if crt.extension.top.order <= 256:
            seen.append((f"crt {label}", lt.intermediate_algebras(crt.extension)))
    for label, mod in _idealization_pairs():
        ext, _ = md.idealization_extension(mod)
        if ext.top.order <= 256:
            seen.append((f"idealize {label}", lt.intermediate_algebras(ext)))
    seen.append(("special ramified", _special_ramified()[0]))
    return seen


@_check("s2", "minimal_extension_trichotomy")
def criterion_04_trichotomy() -> tuple[bool, str]:
    total = 0
    kinds = {"inert": 0, "decomposed": 0, "ramified": 0}
    bad = []
    for label, rep in _trichotomy_corpus():
        if rep.count != 2:
            continue
        total += 1
        try:
            res = lt.classify_minimal(rep)
        except RinglatError as e:
            bad.append(f"{label}: {e}")
            continue
        if res.kind not in kinds:
            bad.append(f"{label}: kind {res.kind}")
            continue
        kinds[res.kind] += 1
        m = res.crucial
        if m is None or not rg.is_field(rg.quotient(rep.extension.base, m).ring):
            bad.append(f"{label}: crucial ideal not maximal")
    enough = total >= 3 and all(v > 0 for v in kinds.values())
    if not enough:
        bad.append(f"corpus too thin: {total} minimal, kinds {kinds}")
    return not bad, "; ".join(bad) or f"{total} minimal extensions, kinds {kinds}, zero failures"


@_check("s3", "conductor_formula_random_families")
def criterion_05_conductor_formula() -> tuple[bool, str]:
    fams = _random_families()
    for label, crt in fams:
        cr.conductor_by_formula(crt)  # raises on any mismatch
    ok = len(fams) >= 20
    return ok, f"{len(fams)} families, sum(J_j) = meet(I_j+J_j) = direct on all"


@_check("s3", "crt_minimality_criterion")
def criterion_06_crt_minimality() -> tuple[bool, str]:
    bad = []
    compared = 0
    for label, crt in _random_families():
        if crt.family.n <= 2:
            continue
        verdict = cr.is_minimal_crt(crt)
        if crt.extension.top.order <= 256:
            compared += 1
            count = lt.intermediate_algebras(crt.extension).count
            if verdict.minimal != (count == 2):
                bad.append(f"{label}: criterion {verdict.minimal} vs lattice {count}")
    z12 = _named_rings()["Z/12"]
    v1 = cr.is_minimal_crt(cr.make_crt(z12, [[4], [3], [3]]))
    if not (v1.minimal and v1.witness == (1, 2)):
        bad.append(f"Z/12 (4),(3),(3): {v1}")
    v2 = cr.is_minimal_crt(cr.make_crt(z12, [[4], [3], [6]]))
    if v2.minimal:
        bad.append("Z/12 (4),(3),(6) flagged minimal")
    if compared == 0:
        bad.append("no family compared against the lattice")
    return not bad, ("; ".join(bad) or
                     f"criterion = lattice on {compared} families; fixed cases agree")


@_check("s5", "idealization_lattice_bijection")
def criterion_07_idealization() -> tuple[bool, str]:
    bad = []
    frozen = {"F2, F2^2": 5, "Z/4, Z/4": 3, "Z/8, Z/8": 4}
    for label, mod in _idealization_pairs():
        lat = md.submodules(mod)
        bij = md.idealization_lattice_bijection(lat)
        if not bij.ok:
            bad.append(f"{label}: bijection fails")
            continue
        if label in frozen and bij.nu != frozen[label]:
            bad.append(f"{label}: nu {bij.nu} != {frozen[label]}")
        for node in lat.nodes:
            iv = md.interval_length(mod, node)
            if not iv.ok:
                bad.append(f"{label}: interval over |N|={len(node)} mismatches")
                break
    n_pairs = len(_idealization_pairs())
    if n_pairs < 15:
        bad.append(f"only {n_pairs} pairs")
    return not bad, "; ".join(bad) or f"{n_pairs} pairs: nu = node count, intervals = L(M/N)"


@_check("s2", "closure_fixpoints_vs_lattice_extrema")
def criterion_08_closure_oracles() -> tuple[bool, str]:
    bad = []
    checked = 0
    for label, rep in _trichotomy_corpus():
        checked += 1
        plus = cl.seminormalization(rep.extension)
        tcl = cl.t_closure(rep.extension)
        sub_nodes = [node for node in rep.nodes
                     if lt.is_subintegral(lt.lower_extension(node))]
        infra_nodes = [node for node in rep.nodes
                       if lt.is_infra_integral(lt.lower_extension(node))]
        best_sub = max(sub_nodes, key=lambda s: s.order)
        best_infra = max(infra_nodes, key=lambda s: s.order)
        if plus.elements != best_sub.elements:
            bad.append(f"{label}: seminormalization is not the largest subintegral node")
        if tcl.elements != best_infra.elements:
            bad.append(f"{label}: t-closure is not the largest infra-integral node")
    rings = _named_rings()
    for label in ("Z/4", "Z/8", "F2[t]/(t^2)"):
        ring = rings[label]
        eps = rg.poly_quotient(ring, [0, 0, 1], var="u")
        fac = lt.Extension(eps.to_quotient)
        if not cl.verify_diagonal_formulas([fac, fac]).passed:
            bad.append(f"{label}: diagonal formula fails")
    for label, gens in (("Z/4", [[0], [0]]), ("Z/8", [[0], [0]]), ("Z/9", [[0], [0], [0]])):
        crt = cr.make_crt(rings[label], gens)
        cr.seminormalization_of_crt(crt)  # raises if R+M*prod or (R:T)=(0:M) fails
    return not bad, ("; ".join(bad) or
                     f"{checked} extensions: fixpoints = extrema; diagonal and crt formulas hold")


@_check("s2", "special_minimal_ramified_example")
def criterion_09_special_ramified() -> tuple[bool, str]:
    good, bad_rep = _special_ramified()
    ok1 = lt.is_special_minimal_ramified(good)
    ok2 = not lt.is_special_minimal_ramified(bad_rep)
    detail = f"constructed passes: {ok1}; perturbed (no xt relation) passes: {not ok2}"
    return ok1 and ok2, detail


@_check("s5", "pointwise_minimality_cases")
def criterion_10_pointwise_minimal() -> tuple[bool, str]:
    f4 = _named_rings()["F4"]
    f2 = _named_rings()["F2"]
    r1 = lt.intermediate_algebras(lt.power_extension(f4, 2))
    r2 = lt.intermediate_algebras(lt.power_extension(f2, 3))
    ok = (lt.is_pointwise_minimal(r1) and r1.count == 2
          and lt.is_pointwise_minimal(r2) and r2.count != 2)
    return ok, (f"F4 in F4^2: pointwise and minimal (count {r1.count}); "
                f"F2 in F2^3: pointwise, not minimal (count {r2.count})")


@_check("s5", "componentwise_module_census")
def criterion_11_census() -> tuple[bool, str]:
    bad = []
    for label in ("F2", "F3"):
        k = _named_rings()[label]
        for n in (2, 3):
            res = md.componentwise_census(k, n)
            if res.nu != 2 ** n:
                bad.append(f"{label}^{n}: nu {res.nu} != {2 ** n}")
            if not res.ok:
                bad.append(f"{label}^{n}: lattice cross-check failed")
    return not bad, "; ".join(bad) or "nu = 2^n for k in {F2,F3}, n in {2,3}"


@_check("s6", "property_suites")
def criterion_12_property_suites() -> tuple[bool, str]:
    bad = []
    axioms = 0
    for label, ring in _named_rings().items():
        if ring.order <= 200:
            rg.check_ring_axioms(ring)
            axioms += 1
    for extra in (rg.product([_named_rings()["Z/4"], _named_rings()["F3"]]).ring,
                  rg.quotient(_named_rings()["Z/12"], il.ideal_generated(_named_rings()["Z/12"], [4])).ring,
                  md.idealize(md.module_from_ring(_named_rings()["Z/4"])).ring):
        rg.check_ring_axioms(extra)
        axioms += 1

    delta_checked = 0
    for label, rep in _trichotomy_corpus():
        ext = rep.extension
        if ext.top.order > 64:
            continue
        delta_checked += 1
        lhs = lt.is_delta0(ext)
        rhs = lt.is_quadratic(ext) and lt.is_delta(rep)
        if lhs != rhs:
            bad.append(f"{label}: delta0 {lhs} vs quadratic&delta {rhs}")

    recompose = 0
    for label, rep in _trichotomy_corpus():
        for i in range(rep.count):
            lt.irreducible_decomposition(rep, i)  # raises if recomposition fails
            recompose += 1

    jh = 0
    for label, mod in _idealization_pairs():
        lat = md.submodules(mod)
        jh += 1
        if not md.jordan_holder_check(lat):
            bad.append(f"{label}: unequal maximal chain lengths")
        if lat.length != md.module_length(mod):
            bad.append(f"{label}: lattice length != composition length")
    return not bad, ("; ".join(bad) or
                     f"axioms on {axioms} rings; delta0 iff quadratic+delta on {delta_checked}; "
                     f"{recompose} nodes recompose; JH on {jh} module lattices")


# ---------------------------------------------------------------------------
# extra structural checks grouped into suites

@_check("s2", "product_extension_length_additivity")
def check_product_length_additivity() -> tuple[bool, str]:
    f2 = _named_rings()["F2"]
    z4 = _named_rings()["Z/4"]
    eps = rg.poly_quotient(z4, [0, 0, 1], var="u")
    parts = [lt.power_extension(f2, 2), lt.Extension(eps.to_quotient)]
    lens = [lt.intermediate_algebras(e).length for e in parts]
    prod_ext = lt.product_extension(parts)
    total = lt.intermediate_algebras(prod_ext).length
    ok = total == sum(lens)
    return ok, f"lengths {lens} sum to {sum(lens)}, product gives {total}"


def _degree_multiset(rep: lt.LatticeReport) -> list[tuple[int, int]]:
    return sorted((len(up), len(down)) for up, down in zip(rep.upper_covers, rep.lower_covers))


@_check("s3", "crt_reduction_preserves_lattice")
def check_crt_reduction_poset() -> tuple[bool, str]:
    bad = []
    done = 0
    for label, crt in _random_families() + [
        ("Z/12:(4)(3)(3)", cr.make_crt(_named_rings()["Z/12"], [[4], [3], [3]]))
    ]:
        if crt.extension.top.order > 256:
            continue
        red = cr.reduce_to_zero_conductor(crt)
        orig = lt.intermediate_algebras(crt.extension)
        if red.crt_isomorphism:
            if orig.count != 1:
                bad.append(f"{label}: flagged isomorphism but {orig.count} nodes")
            continue
        if red.crt.extension.top.order > 256:
            continue
        done += 1
        new = lt.intermediate_algebras(red.crt.extension)
        if (orig.count, orig.length) != (new.count, new.length):
            bad.append(f"{label}: ({orig.count},{orig.length}) vs ({new.count},{new.length})")
            continue
        if _degree_multiset(orig) != _degree_multiset(new):
            bad.append(f"{label}: Hasse degree profiles differ")
    return not bad, "; ".join(bad) or f"{done} reductions keep count, length, degree profile"


@_check("s3", "crt_extensions_infra_integral")
def check_crt_infra_integral() -> tuple[bool, str]:
    bad = [label for label, crt in _random_families()
           if crt.extension.top.order <= 256 and not lt.is_infra_integral(crt.extension)]
    return not bad, "; ".join(bad) or "all sampled families infra-integral"


@_check("s3", "two_ideal_count_prediction")
def check_crt2_count_prediction() -> tuple[bool, str]:
    bad = []
    for label, crt in _random_families():
        fam = crt.family
        if fam.n != 2 or crt.extension.top.order > 256:
            continue
        pred = cr.is_minimal_crt2(crt)
        rep = lt.intermediate_algebras(crt.extension)
        if pred.predicted_count != rep.count:
            bad.append(f"{label}: predicted {pred.predicted_count}, lattice {rep.count}")
        if not lt.is_delta0(crt.extension):
            bad.append(f"{label}: not delta0")
    return not bad, "; ".join(bad) or "ideal count of R/(I+J) matches; all delta0"


@_check("s2", "partition_subalgebra_bijection")
def check_partition_bijection() -> tuple[bool, str]:
    bad = []
    for label, n, rep in _bell_lattices():
        keys = set()
        for part in cb.partitions(n):
            keys.add(cb.partition_to_subalgebra(rep.extension, part).elements)
        if keys != {node.elements for node in rep.nodes}:
            bad.append(f"{label}^{n}")
    return not bad, "; ".join(bad) or "partitions match lattice nodes on 9 powers"


@_check("s2", "canonical_decomposition_chain")
def check_canonical_chain() -> tuple[bool, str]:
    count = 0
    for label, rep in _trichotomy_corpus():
        cl.canonical_decomposition(rep.extension)  # raises if any chain invariant fails
        count += 1
    return True, f"chain invariants hold on {count} extensions"


@_check("s3", "single_generator_ideal_correspondence")
def check_gilbert_correspondence() -> tuple[bool, str]:
    bad = []
    done = 0
    for label, rep, _ in _spir_lattices():
        gb = lt.gilbert_bijection(rep)
        done += 1
        if len(gb.pairs) != rep.count:
            bad.append(label)
    f3 = _named_rings()["F3"]
    gb = lt.gilbert_bijection(lt.intermediate_algebras(lt.power_extension(f3, 2)))
    if len(gb.pairs) != 2:
        bad.append("F3^2")
    return not bad, "; ".join(bad) or f"R + Jt spans match on {done + 1} cases"


@_check("s5", "cyclic_module_chain_structure")
def check_uniserial_structure() -> tuple[bool, str]:
    bad = []
    rings = _named_rings()
    cases = [
        ("Z/8", md.module_from_ring(rings["Z/8"])),
        ("Z/9", md.module_from_ring(rings["Z/9"])),
        ("Z/4:Z/2", md.module_from_cyclics(rings["Z/4"], [[2]])),
        ("F2", md.module_from_ring(rings["F2"])),
        ("F2[t]/(t^3)", md.module_from_ring(rings["F2[t]/(t^3)"])),
    ]
    for label, mod in cases:
        rep = md.uniserial_structure_check(mod)
        if not rep.passed:
            bad.append(label)
    return not bad, "; ".join(bad) or f"{len(cases)} cyclic chains {{P^j e}} verified"


SUITE_CHOICES = ("all", *SUITES)


def run_suite(suite: str = "all") -> list[CheckResult]:
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise PreconditionError(f"unknown suite {suite!r}; pick {', '.join(SUITE_CHOICES[:-1])} "
                                f"or {SUITE_CHOICES[-1]}")
    out = []
    for name in names:
        for fn in SUITES[name]:
            out.append(fn())
    return out
