"""The three workloads: seeded inputs, the timed items, and their verdicts.

Every workload is a list of items.  An item's `run` is the timed call into
circleforge; its output is checked afterwards, outside the timed region,
against a reference that does not share the code path being timed.  Items
carry a `part` of "small" or "mid" for the two size classes the benchmark
reports separately (None: counted only in the whole pass).

The seed picks inputs inside windows where the amount of work does not
depend on the pick, so run-to-run spread comes from the machine, not from
the seed: in `exact` every n of a window has the same kmax and the same
number of quadrature panels; in `laws` the seed picks h (which only
rotates phases) while k and |q| are fixed; in `identities` the sum sizes
depend on k only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import mpmath

# exact: kmax = 18 on the small window and 21 on the mid window
SMALL_N = (50, 60)
MID_N = (101, 112)

# identities: k <= 64 is the Fraction-exact range of the Kloosterman sums
# (kloosterman.EXACT_MODE_MAX_K), k in 65..72 the numeric range
EXACT_RANGE_K = 64
IDENTITY_KMAX = 72
MULTIPLIER_KMAX = 50
P_RADEMACHER_N = (500, 1500)
G1_ORDER = (1500, 1530)
ENUMERATION_CEILING = 60

# laws: one point of standard_grid(12) per k at the working precision of
# `circleforge check-transform`
LAW_KMAX = 12
LAW_SMALL_KMAX = 6
LAW_PREC = 160
LAW_TOL = 1e-10
CONTOUR_N = 12
CONTOUR_PREC = 90
CONTOUR_TOL = "1e-11"
CONTOUR_REL_BOUND = 1e-8


@dataclass
class Item:
    label: str
    part: str | None
    run: Callable[[], object]


@dataclass
class Workload:
    items: list
    # verify(outputs) -> one verdict (True = correct) per item
    verify: Callable[[list], list]
    # exact only: the largest distance of a value to its rounded integer
    max_dist: Callable[[list], float] = lambda outputs: 0.0


def build(name, seed, cf):
    """The workload `name` for `seed`; `cf` is the imported circleforge package."""
    rng = random.Random(f"{name}:{seed}")
    return {"exact": _exact, "identities": _identities, "laws": _laws}[name](rng, cf)


# ---------------------------------------------------------------------------
# exact: the user path, `circleforge exact --n N`

def _cli_exact(cli, n):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["exact", "--n", str(n)])
    row = json.loads(buf.getvalue().splitlines()[-1])
    return {"rc": rc, "n": row["n"], "rounded": row["rounded"], "dist": row["dist"]}


def _exact(rng, cf):
    ns = [("small", rng.randint(*SMALL_N)), ("mid", rng.randint(*MID_N))]
    items = [Item(f"exact --n {n}", part, partial(_cli_exact, cf.cli, n)) for part, n in ns]

    def verify(outputs):
        oracle = cf.qseries.named_series.__wrapped__("G1", max(n for _, n in ns))
        verdicts = []
        for (part, n), out in zip(ns, outputs):
            ok = out["rc"] == 0 and out["n"] == n and out["rounded"] == oracle.coefficient(n)
            if n <= ENUMERATION_CEILING:
                ok = ok and out["rounded"] == cf.qseries.enumerate_p1bar(n)
            verdicts.append(ok)
        return verdicts

    return Workload(items, verify, lambda outputs: max(float(o["dist"]) for o in outputs))


# ---------------------------------------------------------------------------
# identities: the exact-arithmetic layers (kloosterman, modular, qseries)

def _dual_path(K, spec):
    return K.modified_K(spec).equals(K.rewritten_classical_form(spec))


def _identities(rng, cf):
    K = cf.kloosterman
    n, m = rng.randrange(1000), rng.randrange(1000)
    items = []
    for k in range(1, IDENTITY_KMAX + 1):
        d = math.gcd(4, k)
        part = "small" if k <= EXACT_RANGE_K else "mid"
        for j in (1, 2, 3):
            for nu in (range(1, k + 1) if j == 2 else (None,)):
                spec = K.KloostermanSpec("modified", k, n, m, d=d, j=j, nu=nu)
                items.append(Item(f"dual k={k} j={j} nu={nu}", part, partial(_dual_path, K, spec)))
    for k in sorted(rng.sample(range(5, 41), 6)):
        j = rng.choice((1, 2, 3))
        N = k + rng.randrange(k)
        spec = K.KloostermanSpec("modified_incomplete", k, n, m, d=math.gcd(4, k), j=j,
                                 nu=rng.randint(1, k) if j == 2 else None,
                                 ell=N + rng.randint(1, k + 1), N=N)
        items.append(Item(f"incomplete {spec}", "small", partial(_dual_path, K, spec)))
    for k in range(2, MULTIPLIER_KMAX + 1, 4):  # gcd(4, k) = 2
        for h in range(k):
            if math.gcd(h, k) == 1:
                items.append(Item(f"multiplier h={h} k={k}", "small",
                                  partial(lambda h, k: cf.modular.multiplier_identity_check(h, k)[0], h, k)))
    checks = len(items)
    p_ns = [rng.randint(*P_RADEMACHER_N) for _ in range(3)]
    for pn in p_ns:
        items.append(Item(f"p_rademacher {pn}", None,
                          partial(lambda pn: cf.rademacher.p_rademacher(pn).rounded, pn)))
    order = rng.randint(*G1_ORDER)
    g1_ns = [4] + rng.sample(range(ENUMERATION_CEILING + 1), 3)

    def g1():
        series = cf.qseries.named_series("G1", order)
        return {"order": series.order, "coeffs": [series.coefficient(x) for x in g1_ns],
                "top": str(series.coefficient(order))}

    items.append(Item(f"named_series G1 {order}", None, g1))

    def verify(outputs):
        verdicts = [out is True for out in outputs[:checks]]
        p = cf.qseries.named_series.__wrapped__("P", max(p_ns))
        verdicts += [out == p.coefficient(pn) for pn, out in zip(p_ns, outputs[checks:])]
        g = outputs[-1]
        verdicts.append(g["order"] == order and g["coeffs"] == [
            cf.qseries.enumerate_p1bar(x) for x in g1_ns])
        return verdicts

    return Workload(items, verify)


# ---------------------------------------------------------------------------
# laws: transformation laws, the residue contour and the truncation gap

def _law(cf, law, h, k, z, r):
    chk = cf.transform.check_law(law, h, k, z, tol=LAW_TOL, prec=LAW_PREC, r=r)
    return {"passed": chk.passed, "ratio": mpmath.nstr(chk.ratio, 12)}


def _laws(rng, cf):
    T = cf.transform
    grid = T.standard_grid(LAW_KMAX)
    zs = [z for _, kk, z in grid if kk == 1]
    items = []
    for k in range(1, LAW_KMAX + 1):
        h = rng.choice([hh for hh, kk, _ in grid if kk == k])
        # z is fixed per k: it sets |q| and hence the series length
        z = zs[k % len(zs)]
        r = rng.choice((2, 3, 4, 6))
        part = "small" if k <= LAW_SMALL_KMAX else "mid"
        for law in T.LAW_TAGS:
            if T.law_applicable(law, h, k):
                items.append(Item(f"{law} h={h} k={k} z={z}", part,
                                  partial(_law, cf, law, h, k, z, r)))
    checks = len(items)
    mpf = mpmath.mpf
    contours = [(k, rng.randint(1, 10), mpf(5) / 24 * (1 - mpf(rng.randint(0, 1)) / 4))
                for k in (2, 3)]
    for k, n, y in contours:
        items.append(Item(f"L_contour k={k} n={n} y={y}", None,
                          partial(lambda k, n, y: cf.integrals.L_contour(
                              k, n, y, CONTOUR_N, mpf(CONTOUR_TOL), prec=CONTOUR_PREC), k, n, y)))
    zs_gap = [mpf(10) ** -j for j in range(1, 4)]
    k_gap, nu_gap = rng.choice(((1, 1), (2, 1), (5, 2)))
    gaps = [Fraction(5, 12), Fraction(-1, 12)]
    for b in gaps:
        items.append(Item(f"lemma35_gap b={b} k={k_gap} nu={nu_gap}", None,
                          partial(lambda b: [r["gap"] for r in cf.integrals.lemma35_gap(
                              b, k_gap, nu_gap, zs_gap)], b)))

    def verify(outputs):
        verdicts = [out["passed"] for out in outputs[:checks]]
        for (k, n, y), value in zip(contours, outputs[checks:checks + len(contours)]):
            closed = cf.integrals.L_closed(k, n, y, CONTOUR_PREC)
            verdicts.append(bool(abs(value - closed) / closed < CONTOUR_REL_BOUND))
        # acceptance criterion 11: the truncation gap stays bounded as z -> 0
        for b, rows in zip(gaps, outputs[checks + len(contours):]):
            ok = max(rows) < 100
            if b > 0:
                ok = ok and rows[-1] < 100 * (rows[0] + mpf("1e-30"))
            else:
                ok = ok and all(x >= y - mpf("1e-30") for x, y in zip(rows, rows[1:]))
            verdicts.append(bool(ok))
        return verdicts

    return Workload(items, verify)


def digest_form(output):
    """A JSON-able, deterministic form of an item output for comparisons."""
    if isinstance(output, (bool, int, str)) or output is None:
        return output
    if isinstance(output, dict):
        return {k: digest_form(v) for k, v in output.items()}
    if isinstance(output, (list, tuple)):
        return [digest_form(v) for v in output]
    return str(output)
