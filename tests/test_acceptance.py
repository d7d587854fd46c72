"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (Fraction equality, zero tolerance). Time budgets are
asserted with ``time.perf_counter`` around the work. Run with ``-s`` to see
the per-criterion lines as they pass.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

from _util import THEOREM_SUITE, binet_route, falling_binom, literal_nested_sum
from horadam_sums.cli import bench_rows
from horadam_sums.combinatorics import binom, binom_column_sum, nested_ones
from horadam_sums.identities import (FAMILIES, IdentityId, IdentityInstance,
                                     InvalidInstanceError, default_grid,
                                     evaluate_rhs, lhs_spec, summarize, sweep)
from horadam_sums.nestedcore import (ONES, NestedSumSpec, SumTerm, geometric_term,
                                     master_E, oracle_nested, oracle_nested_naive)
from horadam_sums.sequences import (FIBONACCI, LUCAS, gibonacci, horadam,
                                    lemma3_residual, lemma4_residual, term)


def _conclude(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_classic_fibonacci_sums():
    start = time.perf_counter()
    failures = []
    for m in range(1, 11):
        double = oracle_nested(NestedSumSpec(2, m, 1, SumTerm(seq=FIBONACCI)))
        if double != term(FIBONACCI, m + 4) - term(FIBONACCI, 4) - m:
            failures.append(("double", m))
    for n in range(1, 11):
        triple = oracle_nested(NestedSumSpec(3, n, 1, SumTerm(seq=FIBONACCI)))
        expected = (term(FIBONACCI, n + 6) - term(FIBONACCI, 6)
                    - n * term(FIBONACCI, 4) - Fraction(n * (n + 1), 2))
        if triple != expected:
            failures.append(("triple", n))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(("time", elapsed))
    _conclude("1 classic-fibonacci-sums", not failures,
              f"20 rows exact, {elapsed:.3f}s" if not failures else str(failures))


def master_grid():
    """The points (x, n, a_n, c) of criterion 2's master-identity grid."""
    for x in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2), Fraction(5, 3)):
        for n, c in product(range(1, 6), (-2, 0, 1, 3)):
            for a_n in range(c, c + 11):
                yield x, n, a_n, c


def test_criterion_2_master_identity_grid():
    start = time.perf_counter()
    points = 0
    failures = []
    for x, n, a_n, c in master_grid():
        spec = NestedSumSpec(n, a_n, c, geometric_term(x))
        if master_E(x, n, a_n, c) != ((x - 1) / x) ** n * oracle_nested(spec):
            failures.append((x, n, a_n, c))
        points += 1
    elapsed = time.perf_counter() - start
    if points != 1100:
        failures.append(("points", points))
    if elapsed >= 5.0:
        failures.append(("time", elapsed))
    _conclude("2 master-identity", not failures,
              f"{points} points exact, {elapsed:.2f}s" if not failures else str(failures))


def _distinct_x(count: int) -> list:
    """``count`` distinct rationals, none 0 or 1: x = i + 2 at even i and
    x = -(i + 1)/3 at odd i, so 2, -2/3, 4, -4/3, 6, -2, ..."""
    return [Fraction(i + 2) if i % 2 == 0 else Fraction(-(i + 1), 3) for i in range(count)]


def test_master_identity_holds_for_every_x():
    """Criterion 2's master identity at each (n, a_n, c) of its grid, proved
    for every complex x not 0 or 1 from finitely many rational x.

    Let D(x) = master_E(x, n, a_n, c) - ((x-1)/x)**n * S(x), where S(x) is
    the depth-n nested sum of x**k with lower limit c and upper limit
    a_n >= c. Every power of x in D lies between c - n and a_n:
    - master_E is x**a_n less x**(c-1) * ((x-1)/x)**j * C(a_n+j-c, j) for
      j < n, whose powers run from c-1-j >= c-n up to c-1;
    - S's powers run from c to a_n, and ((x-1)/x)**n moves them down by at
      most n and up by none.
    So P(x) = x**(n-c) * D(x) is a polynomial in x of degree at most
    a_n - c + n. A nonzero polynomial has no more roots than its degree, so
    P vanishing at a_n - c + n + 1 distinct x makes P the zero polynomial,
    and D(x) = 0 wherever x**(n-c) is nonzero: at every x != 0, hence at
    every x outside master_E's poles 0 and 1."""
    triples = sorted({(n, a_n, c) for _, n, a_n, c in master_grid()})
    assert len(triples) == 220
    used = {}
    for n, a_n, c in triples:
        xs = _distinct_x(a_n - c + n + 1)
        for x in xs:
            spec = NestedSumSpec(n, a_n, c, geometric_term(x))
            scaled = ((x - 1) / x) ** n * oracle_nested(spec)
            assert master_E(x, n, a_n, c) == scaled, (x, n, a_n, c)
        used[n, a_n, c] = len(set(xs) - {0, 1})
    assert all(used[n, a_n, c] == a_n - c + n + 1 for n, a_n, c in triples)
    assert sum(used.values()) == 1980


def test_criterion_3_theorem_suite():
    start = time.perf_counter()
    needs_negative_d = {IdentityId.F3, IdentityId.F4, IdentityId.F5, IdentityId.F7}
    failures = []
    detail = []
    for ident in THEOREM_SUITE:
        grid = default_grid(ident)
        reports = sweep(ident, grid)
        summary = summarize(reports)
        if summary.verified < 500:
            failures.append((ident.value, "verified", summary.verified))
        if summary.mismatched or summary.errors:
            failures.append((ident.value, "mismatch/errors",
                             summary.mismatched, summary.errors))
        if grid.families and len(grid.families) < 3:
            failures.append((ident.value, "families", len(grid.families)))
        if ident in needs_negative_d:
            negative_used = any(r.classification == "verified"
                                and r.params.discriminant < 0 for r in reports)
            if not negative_used:
                failures.append((ident.value, "no negative-discriminant family"))
        detail.append(f"{ident.value}:{summary.verified}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(("time", elapsed))
    _conclude("3 theorem-suite", not failures,
              f"verified {' '.join(detail)}, {elapsed:.1f}s" if not failures else str(failures))


def test_criterion_4_degenerations():
    start = time.perf_counter()
    failures = []

    # F5 at d = r reduces to F3; both closed forms run the same master form,
    # so F5's is compared with the oracle's value of F3's left side
    reduction_points = 0
    families = (FIBONACCI, FAMILIES["gibonacci31"], FAMILIES["integer_root"],
                FAMILIES["negative_d"], FAMILIES["generic"])
    for params, r, s, n in product(families, (-2, -1, 1, 2), (-2, 0, 3), (1, 2)):
        for a_n in range(0, 5):
            try:
                five = IdentityInstance(IdentityId.F5, params, n, a_n, 1, r, s, r)
                three = IdentityInstance(IdentityId.F3, params, n, a_n, 1, r, s, 0)
            except InvalidInstanceError:
                continue
            if evaluate_rhs(five) != oracle_nested(lhs_spec(three)):
                failures.append(("F5->F3", params, n, a_n, r, s))
            reduction_points += 1
    if reduction_points < 200:
        failures.append(("F5->F3 points", reduction_points))

    # each specialization's closed form equals the oracle's value of its
    # parent's left side on the overlap grid (a_n >= c throughout); most
    # specializations run their parent's evaluator, so comparing the two
    # evaluators would compare one with itself
    gib = ("fibonacci", "lucas", "gibonacci31", "gibonacci_neg")
    res = ("generic", "negative_d", "gibonacci31", "fibonacci")
    pairs = [
        (IdentityId.F3_W, IdentityId.F3, res),
        (IdentityId.F3_G, IdentityId.F3, gib),
        (IdentityId.F4_G, IdentityId.F4, gib),
        (IdentityId.F5_G, IdentityId.F5, gib),
        (IdentityId.F6_G_EVEN, IdentityId.F6A, gib),
        (IdentityId.F6_G_ODD, IdentityId.F6B, gib),
        (IdentityId.F6_F_EVEN, IdentityId.F6A, ("fibonacci",)),
        (IdentityId.F6_F_ODD, IdentityId.F6B, ("fibonacci",)),
        (IdentityId.F6_L_EVEN, IdentityId.F6A, ("lucas",)),
        (IdentityId.F6_L_ODD, IdentityId.F6B, ("lucas",)),
        (IdentityId.F7_W, IdentityId.F7, res),
        (IdentityId.F7_G, IdentityId.F7, gib),
        (IdentityId.F7_R1D0_W, IdentityId.F7_W, res),
        (IdentityId.F7_R1D0_G, IdentityId.F7_G, gib),
    ]
    r1d0 = (IdentityId.F7_R1D0_W, IdentityId.F7_R1D0_G)
    overlap_counts = {}
    for special, parent, fam_names in pairs:
        count = 0
        for name in fam_names:
            params = FAMILIES[name]
            for n, c, r, s, d in product((1, 2, 3, 4), (0, 1), (-1, 1, 2),
                                         (-2, 0, 2, 3), (-1, 0, 1)):
                if special in r1d0:
                    if (r, d) != (1, 0):
                        continue
                for a_n in range(c, c + 5):
                    try:
                        sp = IdentityInstance(special, params, n, a_n, c, r, s, d)
                        pa = IdentityInstance(parent, params, n, a_n, c, r, s, d)
                    except InvalidInstanceError:
                        continue
                    if evaluate_rhs(sp) != oracle_nested(lhs_spec(pa)):
                        failures.append((special.value, parent.value, name, n, a_n, c, r, s, d))
                    count += 1
        overlap_counts[special.value] = count
        if count < 100:
            failures.append((special.value, "overlap points", count))

    # the classic form is pinned at (r, s, c) = (1, 0, 1); overlap it on a_n
    # alone, again against the oracle, since H runs F3's evaluator
    h_count = 0
    for n in (1, 2, 3, 4):
        for a_n in range(1, 31):
            h = IdentityInstance(IdentityId.H, None, n, a_n)
            g = IdentityInstance(IdentityId.F3_G, FIBONACCI, n, a_n, 1, 1, 0, 0)
            if evaluate_rhs(h) != oracle_nested(lhs_spec(g)):
                failures.append(("H", n, a_n))
            h_count += 1
    overlap_counts["H"] = h_count
    if h_count < 100:
        failures.append(("H", "overlap points", h_count))
    elapsed = time.perf_counter() - start
    detail = f"F5->F3 {reduction_points} pts; overlaps " + " ".join(
        f"{k}:{v}" for k, v in overlap_counts.items())
    _conclude("4 degenerations", not failures,
              f"{detail}, {elapsed:.1f}s" if not failures else str(failures[:4]))


def test_criterion_5_lemma_suites():
    start = time.perf_counter()
    failures = []
    checks = 0

    # binomial column sums (shifted) against direct summation
    for k in range(0, 15):
        for c in (-3, -1, 0, 1, 2, 3, 5, 9):
            direct = 0
            for m in range(c - 4, c + 31):
                if m >= c:
                    direct += binom(m - c + k, k)
                if binom_column_sum(k, m, c) != direct:
                    failures.append(("column", k, m, c))
                checks += 1

    # Pascal rule on the generalized binomial
    for top in range(-30, 31):
        for k in range(0, 51):
            if binom(top, k + 1) + binom(top, k) != binom(top + 1, k + 1):
                failures.append(("pascal", top, k))
            checks += 1

    # generalized binomial against the falling-factorial definition
    for top in range(-45, 46):
        for k in range(0, 28):
            if binom(top, k) != falling_binom(top, k):
                failures.append(("falling", top, k))
            checks += 1

    # nested unit counts (shifted) against literal summation
    for depth in range(1, 7):
        for c in (-3, 0, 1, 5):
            for upper in range(c - 1, c + 13):
                literal = literal_nested_sum(depth, upper, c, lambda _: 1)
                if nested_ones(depth, upper, c) != literal:
                    failures.append(("ones", depth, upper, c))
                checks += 1
    lemma1_checks = checks
    if checks < 10_000:
        failures.append(("lemma1 volume", checks))

    # root-shift residuals in Q[delta]/(delta**2 - D) over (p, q, r, d)
    # points; the last two have D = 0
    pq_families = [(Fraction(1), Fraction(-1)), (Fraction(3), Fraction(2)),
                   (Fraction(1), Fraction(1)), (Fraction(1), Fraction(3)),
                   (Fraction(2), Fraction(3)), (Fraction(-2), Fraction(5, 3)),
                   (Fraction(5, 2), Fraction(-7, 3)), (Fraction(2), Fraction(1)),
                   (Fraction(2, 3), Fraction(1, 9))]
    residual_points = 0
    for (p, q), r, d in product(pq_families, range(-4, 5), range(-4, 5)):
        for which in ("L1", "L2", "L3", "L4"):
            if lemma3_residual(p, q, r, d, which) != 0:
                failures.append(("L", p, q, r, d, which))
        residual_points += 1
    for params in (FIBONACCI, LUCAS, gibonacci(3, 1), horadam(2, 5, 1, 3),
                   horadam(1, 4, 1, 1), horadam(3, -2, 1, Fraction(1, 4))):
        for j in range(-8, 9):
            if lemma4_residual(params, j) != 0:
                failures.append(("L4-odd", params, j))
            residual_points += 1
    if residual_points < 300:
        failures.append(("residual volume", residual_points))

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(("time", elapsed))
    _conclude("5 lemma-suites", not failures,
              f"{lemma1_checks} unit-count checks, {residual_points} residual points, "
              f"{elapsed:.2f}s" if not failures else str(failures[:4]))


def test_criterion_6_f6_rationality():
    # the root-power route sums F6's left side in Q[delta]/(delta**2 - D) and
    # reads it off by a linear map, sharing no code with the closed form
    start = time.perf_counter()
    failures = []
    points = 0
    for ident in (IdentityId.F6A, IdentityId.F6B):
        grid = default_grid(ident)
        for params, n, c, r, s, d in product(grid.families, grid.n_values,
                                             grid.c_values, grid.r_values,
                                             grid.s_values, grid.d_values):
            for off in grid.a_offsets:
                try:
                    one = IdentityInstance(ident, params, n, c + off, c, r, s, d)
                except InvalidInstanceError:
                    continue
                if binet_route(lhs_spec(one)) != evaluate_rhs(one):
                    failures.append((ident.value, params, n, c + off, c, r, s, d))
                points += 1
    elapsed = time.perf_counter() - start
    _conclude("6 f6-rationality", not failures,
              f"root-power route equal at {points} points, {elapsed:.1f}s"
              if not failures else str(failures[:4]))


def test_criterion_7_oracle_self_consistency():
    start = time.perf_counter()
    failures = []
    instances = 0
    terms = [ONES,
             SumTerm(seq=FIBONACCI),
             SumTerm(seq=FAMILIES["generic"], index_mul=2, index_add=-1),
             SumTerm(seq=FAMILIES["negative_d"], index_mul=-1, index_add=2),
             geometric_term(Fraction(2)),
             geometric_term(Fraction(-1, 2)),
             SumTerm(seq=FIBONACCI, weight_base=Fraction(-3, 2))]
    for summand in terms:
        for depth in range(1, 6):
            for c in (-2, 0, 1, 3):
                for upper in range(c - 1, c + 6):
                    spec = NestedSumSpec(depth, upper, c, summand)
                    if oracle_nested(spec) != oracle_nested_naive(spec):
                        failures.append((summand, depth, upper, c))
                    instances += 1
    for limits in [(0, 2), (2, 1), (1, 0, 1), (-1, 1, 2), (3, 1, 2, 0)]:
        for summand in (ONES, SumTerm(seq=FIBONACCI)):
            for upper in range(max(limits) - 1, max(limits) + 5):
                spec = NestedSumSpec(len(limits), upper, limits, summand)
                if oracle_nested(spec) != oracle_nested_naive(spec):
                    failures.append((limits, upper))
                instances += 1
    if instances < 1000:
        failures.append(("instances", instances))

    ones_checks = 0
    for depth in range(1, 7):
        for c in (-2, 0, 1, 3):
            for upper in range(c - 1, c + 11):
                if oracle_nested(NestedSumSpec(depth, upper, c, ONES)) != \
                        nested_ones(depth, upper, c):
                    failures.append(("ones-closed", depth, upper, c))
                ones_checks += 1
    elapsed = time.perf_counter() - start
    _conclude("7 oracle-self-consistency", not failures,
              f"{instances} dp==naive instances, {ones_checks} unit-count closures, "
              f"{elapsed:.1f}s" if not failures else str(failures[:4]))


def test_criterion_8_performance_counts():
    start = time.perf_counter()
    failures = []
    c = 1
    n_values = (1, 2, 3, 4, 5)
    a_values = (c + 4, c + 8, c + 16, c + 24)
    rows = bench_rows("ones", {}, n_values, a_values, c)
    rows_again = bench_rows("ones", {}, n_values, a_values, c)

    counts = [(row[0], row[1], row[2], row[3], row[4]) for row in rows]
    counts_again = [(row[0], row[1], row[2], row[3], row[4]) for row in rows_again]
    if counts != counts_again:
        failures.append("counts not deterministic across runs")

    seen_naive = 0
    for instance_id, method, n, span, evals, _wall in rows:
        a_n = span + c - 1
        if method == "naive":
            if evals != binom(a_n + n - c, n):
                failures.append((instance_id, "naive", evals))
            seen_naive += 1
        elif method == "dp":
            if evals > n * (a_n - c + 2):
                failures.append((instance_id, "dp", evals))
        elif method == "closed":
            if evals > 2 * n + 2:
                failures.append((instance_id, "closed", evals))
    if seen_naive < len(n_values) * len(a_values) - 2:
        failures.append(("naive rows under cap", seen_naive))
    elapsed = time.perf_counter() - start
    _conclude("8 performance-counts", not failures,
              f"{len(rows)} bench rows, naive==C(a+n-c,n) at {seen_naive} points, "
              f"{elapsed:.1f}s" if not failures else str(failures[:4]))
