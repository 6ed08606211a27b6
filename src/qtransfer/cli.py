"""Command-line harness: every computation and verification suite, with
machine-readable JSON output (schema "1") and an optional table mode.
``SUITES`` holds the case set of every acceptance criterion.

Exit codes: 0 all checks passed, 1 a mathematical identity evaluated and
differed, 2 usage, precondition or budget error, 3 internal fault (any other
exception; the JSON error names its type).  A reader that closes the output
pipe early does not change the code: the rest of the output is dropped.
Each ``cmd_*`` returns (params, status, payload); ``main`` wraps them in the
one report envelope, with the command name and the elapsed time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Sequence

from .algebra.partitions import (
    as_composition,
    as_partition_of,
    compositions,
    conjugate,
    parse_partition,
    partitions,
    render_partition,
    subsets,
    z_order,
)
from .algebra.qcount import (
    gl_order,
    is_prime,
    parabolic_order,
    parahoric_index,
    qint_balanced,
)
from .algebra.scalars import ZERO, V
from .algebra.sympoly import SymPoly, elementary, monomial_sym, powersum, schur
from .epfun import (
    DParahoricType,
    ParahoricCombo,
    ep_function,
    f_J,
    fj_shadow_report,
    product_ep,
    shadow,
    to_one_basis,
)
from .finitegl import (
    cached_group,
    comb_prop_check,
    dl_character,
    ind_conjugate_identity_exhaustive,
    parabolic_trivial_ind,
)
from .finitegl import BudgetError
from .finitegl.fqmat import char_poly
from .transfer import (
    TransferParams,
    image_e,
    image_p,
    image_schur,
    rank_of_rows,
    substitution_image,
    surjectivity_witness,
    transfer_sym,
)
from .weylcomb import (
    EnumerationBudgetError,
    f_g_table,
    min_double_coset_reps,
    proper_levi_vanishing,
    restriction_support,
    support_by_enumeration,
    young_subgroup,
)

SCHEMA = "1"

PASS, FAIL, ERROR = "pass", "fail", "error"


def _sympoly_json(f: SymPoly) -> dict:
    return {
        "nvars": f.nvars,
        "terms": [{"exponents": list(k), "coeff": str(c)}
                  for k, c in f.sorted_terms()],
    }


def _class_table_json(group) -> list:
    return [
        {
            "rep_matrix": [list(c.rep[i * group.d:(i + 1) * group.d])
                           for i in range(group.d)],
            "size": c.size,
            "char_poly": list(c.char_poly),
        }
        for c in group.classes
    ]


def _classfun_json(name: str, cf) -> dict:
    group = cf.group
    return {
        "d": group.d,
        "q": group.q,
        "classes": _class_table_json(group),
        "functions": {name: [str(v) for v in cf.values]},
    }


def _write(render: Callable[[], None]) -> None:
    """Run render, which prints to stdout, and flush.  When the reader has
    closed the pipe, stdout is pointed at os.devnull, so that the flush at
    exit does not raise again, and the caller's exit code stands."""
    try:
        render()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(report: dict, table: bool) -> int:
    if table:
        _write(lambda: _print_table(report))
    else:
        _write(lambda: print(json.dumps(report, indent=2, sort_keys=True)))
    return {PASS: 0, FAIL: 1, ERROR: 2}[report["status"]]


def _print_table(report: dict) -> None:
    print(f"command : {report['command']}")
    for key, val in report["params"].items():
        print(f"  {key:10s}: {val}")
    print(f"status  : {report['status']}  ({report['elapsed_ms']} ms)")
    payload = report["payload"]
    if isinstance(payload, dict):
        for key, val in payload.items():
            text = json.dumps(val) if isinstance(val, (dict, list)) else str(val)
            if len(text) > 160:
                text = text[:157] + "..."
            print(f"  {key:22s} {text}")
    else:
        print(f"  {payload}")


# -- transfer ----------------------------------------------------------------


def cmd_transfer(args) -> tuple[dict, str, dict]:
    p = TransferParams(r=args.r, d=args.d)
    params = {"basis": args.basis, "r": args.r, "d": args.d}
    if args.basis in ("e", "p"):
        if args.k is None:
            raise UsageError("--k is required for basis e or p")
        params["k"] = args.k
        index_or_partition: object = args.k
        image = image_e(p, args.k) if args.basis == "e" else image_p(p, args.k)
    elif args.basis == "schur":
        if args.mu is None:
            raise UsageError("--mu is required for basis schur")
        mu = parse_partition(args.mu)
        params["mu"] = render_partition(mu)
        index_or_partition = render_partition(mu)
        image = image_schur(p, mu)
    else:  # monomial
        if args.w is None:
            raise UsageError("--w is required for basis monomial")
        w = tuple(int(x) for x in args.w.split(","))
        params["w"] = ",".join(map(str, w))
        index_or_partition = params["w"]
        image = transfer_sym(p, monomial_sym(p.n, w))
    payload = {
        "input_basis": args.basis,
        "index_or_partition": index_or_partition,
        "params": {"r": args.r, "d": args.d},
        "image": _sympoly_json(image),
    }
    return params, PASS, payload


# -- verification suites -----------------------------------------------------


def _pmap(fn: Callable, cases: Sequence, workers: int) -> list:
    if workers <= 1 or len(cases) <= 1:
        return [fn(case) for case in cases]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cases))


@dataclass(frozen=True)
class Suite:
    """A verification suite: the case set its budgets select, and the exact
    check of one case, which returns a JSON-ready dict with an "ok" verdict.
    This is the one definition of each case set; every acceptance test runs
    the cases of a suite and checks nothing besides."""

    cases: Callable[[argparse.Namespace], list]
    check: Callable[[object], dict]


def _transfer_case(case: tuple[int, int, int]) -> dict:
    r, d, degmax = case
    p = TransferParams(r=r, d=d)
    failures = []
    for name, basis, image, kmax in (("e", elementary, image_e, min(p.n, degmax)),
                                     ("p", powersum, image_p, degmax)):
        for k in range(1, kmax + 1):
            f = basis(p.n, k)
            if not transfer_sym(p, f) == image(p, k) == substitution_image(p, f):
                failures.append(f"{name}_{k}")
    for size in range(1, degmax + 1):
        for mu in partitions(size):
            if transfer_sym(p, schur(p.n, mu)) != image_schur(p, mu):
                failures.append(f"s_{render_partition(mu)}")
    return {"r": r, "d": d, "ok": not failures, "failures": failures}


def _comb_prop_case(d: int) -> dict:
    table = f_g_table(d)
    values = [{"rho": render_partition(rho), "value": str(val)}
              for rho, val in sorted(table.values.items(), reverse=True)]
    ok = all(table(rho) == (1 if rho == (d,) else 0)
             for rho in table.values)
    return {"d": d, "ok": ok, "values": values}


def _weyl_vanishing_case(case: tuple[int, tuple[int, ...]]) -> dict:
    # vanishing needs a proper Levi; the support equality of the closed form
    # against the enumeration oracle is checked for M = {1, .., d-1} too
    d, simple = case
    M = frozenset(simple)
    sums = proper_levi_vanishing(d, M) if len(M) < d - 1 else {}
    bad = {str(sorted(J)): str(v) for J, v in sums.items() if v != 0}
    listed: dict[frozenset, frozenset] = {}  # each W_J listed once per case

    def young(J: frozenset) -> frozenset:
        if J not in listed:
            listed[J] = frozenset(young_subgroup(J, d).elements())
        return listed[J]

    supports_ok = all(
        support_by_enumeration(M, I, w) == young(restriction_support(M, I, w))
        for I in subsets(d - 1) for w in min_double_coset_reps(M, I, d))
    return {"d": d, "M": list(simple), "ok": supports_ok and not bad,
            "nonzero_sums": bad}


def _flag_characters_transitive(group) -> bool:
    """<Ind_{P_lam}(1), 1> = 1 for every partition lam of d: G acts
    transitively on the flags of each type.  R_rho inverts these values, so
    this is what the comb_prop rows and ep-shadow see of them."""
    return all(parabolic_trivial_ind(group, lam).inner_with_trivial() == 1
               for lam in partitions(group.d))


def _dl_characters_on_regular_semisimple(group) -> bool:
    """R_rho = z_rho if rho = tau and 0 otherwise on every regular
    semisimple class (every primary part (1)), tau the sorted degrees of its
    irreducible factors: the Deligne-Lusztig character formula with theta =
    1, a fact of the class data that does not pass through the inversion
    defining R_rho."""
    chars = [(rho, dl_character(group, rho).values) for rho in partitions(group.d)]
    for idx, cls in enumerate(group.classes):
        if any(lam != (1,) for _, lam in cls.label):
            continue
        tau = tuple(sorted((len(f) - 1 for f, _ in cls.label), reverse=True))
        if any(values[idx] != (z_order(rho) if rho == tau else 0) for rho, values in chars):
            return False
    return True


def _class_reps_have_their_char_polys(group) -> bool:
    """char_poly(c.rep) == c.char_poly for every class: each representative
    has the characteristic polynomial of its label.  The induction identity
    checks the class sizes through the P-class sizes, and the pair (class
    size, char poly) tells apart every class of every group this suite
    reaches, so a representative swapped with that of a class of equal size
    fails here, in every row of the suite.  The pair is not a complete
    invariant: GL_4(F_3) has two classes of size 84240 with char poly
    (x^2 + 1)^2."""
    return all(char_poly(c.rep, group.d, group.q) == c.char_poly for c in group.classes)


_GL_IDENTITIES = {
    "comb_prop": lambda group: (comb_prop_check(group)["equal"]
                                and _flag_characters_transitive(group)
                                and _dl_characters_on_regular_semisimple(group)),
    "ind_identity": lambda group: ind_conjugate_identity_exhaustive(group)["ok"],
}


def _finite_gl_case(case: tuple[str, int, int]) -> dict:
    identity, d, q = case
    group = cached_group(d, q)
    ok = _GL_IDENTITIES[identity](group) and _class_reps_have_their_char_polys(group)
    out = {"d": d, "q": q, "ok": ok, "comb_prop": None, "ind_identity": None}
    out[identity] = ok
    return out


def _ep_shadow_case(case: tuple[int, tuple[int, ...], int]) -> dict:
    # f_J of GL_1(D) is d * f^EP_{GL_d}, and f_J of the Iwahori of GL_r(F)
    # is the unit e_(1^r); with the shadow identity these give
    # shadow(d * f^EP_{GL_d}, q) = R_(d)
    d, parts, q = case
    t = DParahoricType(d, parts)
    # <Ind_{P_lam}(1), 1> = 1 depends on GL_n(F_q) only, so it runs in the
    # one case per (n, q) with parts == (1,)
    ok = fj_shadow_report(t, q)["equal"]
    if parts == (1,):
        ok = (ok and _flag_characters_transitive(cached_group(t.n, q))
              and f_J(t) == ep_function(d).scale(d))
    if d == 1 and parts == (1,) * t.r:
        ok = ok and f_J(t) == ParahoricCombo(t.r, "e", {parts: 1})
    return {"d": d, "parts": list(parts), "q": q, "ok": ok}


def _product_ep_extremes(d: int, r: int) -> bool:
    combo = product_ep(d, r)
    return ([combo.coefficient((1,) * (d * r)), combo.coefficient((d,) * r)]
            == [(-1) ** (r * (d - 1)), d ** r])


def _surjectivity(r: int, d: int, maxdeg: int) -> bool:
    # full rank in every degree, and one rank check and one leading
    # coefficient for each degree 1..maxdeg
    report = surjectivity_witness(TransferParams(r=r, d=d), maxdeg)
    degrees = list(range(1, maxdeg + 1))
    return (report["ok"] and [row["degree"] for row in report["degree_checks"]] == degrees
            and list(report["leading_coefficients"]) == degrees)


def _hook_content(d: int, mu: tuple[int, ...]) -> bool:
    # at r = 1 the image of s_mu is s_mu(Y_d) t^|mu| with Y_d = v^(1-d) + .. +
    # v^(d-1), the q-hook-content product of Macdonald I.3 Ex. 1; mu has at
    # most d rows, so every factor [d + c(u)] is a balanced q-integer
    cells = [(i, j) for i, row in enumerate(mu) for j in range(row)]
    cols = conjugate(mu)
    value = prod(qint_balanced(d + j - i) for i, j in cells) / prod(
        qint_balanced(mu[i] - j + cols[j] - i - 1) for i, j in cells)
    return image_schur(TransferParams(r=1, d=d), mu) == SymPoly(1, {(sum(mu),): value})


def _rank_one_short(r: int, d: int, degree: int) -> bool:
    # the degree's power-sum product rows, full rank for r >= degree, with the
    # first row replaced by (1 + v) times the last, the image of p_1^degree,
    # which has no zero entry: the rank drops by one, and only an elimination
    # that clears every other row sees it
    p = TransferParams(r=r, d=d)
    targets = [lam + (0,) * (r - len(lam)) for lam in partitions(degree, max_length=r)]
    rows = [[prod(image_p(p, k) for k in lam).terms.get(key, ZERO) for key in targets]
            for lam in partitions(degree)]
    rows[0] = [(1 + V) * x for x in rows[-1]]
    return rank_of_rows(rows) == len(targets) - 1


# the checks of the closed-forms cases, each an (identity, params) pair
_CLOSED_FORMS = {
    # at q = 1 the image of p_k under r = 2 is d * p_k
    "q1_degeneration": lambda d, k: dict.fromkeys(powersum(2, k).terms, d) == {
        key: c.specialize_q(1) for key, c in image_p(TransferParams(r=2, d=d), k).terms.items()},
    "product_ep": _product_ep_extremes,
    "qint_nonzero": lambda d, k: not qint_balanced(d, k).is_zero(),
    "surjectivity": _surjectivity,
    "hook_content": _hook_content,
    # at d = 1 the transfer is the identity map, shapes longer than r included
    "d1_identity": lambda rmax, maxsize: all(
        image_schur(TransferParams(r=r, d=1), mu) == schur(r, mu)
        for r in range(1, rmax + 1)
        for size in range(maxsize + 1) for mu in partitions(size)),
    "rank_one_short": _rank_one_short,
    "index_formula": lambda composition, q: all(
        parahoric_index(composition).specialize_q(c)
        == Fraction(gl_order(sum(composition), c), parabolic_order(composition, c))
        for c in q),
}


def _closed_form_case(case: tuple[str, dict]) -> dict:
    identity, params = case
    return {"identity": identity, **params, "ok": _CLOSED_FORMS[identity](**params)}


SUITES = {
    # with --degmax < 1 a case would check nothing, so none is selected
    "transfer-consistency": Suite(
        lambda args: [(n // d, d, args.degmax) for n in range(1, args.nmax + 1)
                      for d in range(1, n + 1) if n % d == 0 and args.degmax >= 1],
        _transfer_case),
    "comb-prop": Suite(lambda args: list(range(1, args.dmax + 1)),
                       _comb_prop_case),
    "weyl-vanishing": Suite(
        lambda args: [(d, M) for d in range(2, args.dmax + 1)
                      for k in range(d)
                      for M in itertools.combinations(range(1, d), k)],
        _weyl_vanishing_case),
    # the induction identity walks the classes of each proper parabolic
    # (G only in GL_1, where it is the Borel subgroup); the suite keeps its
    # case set at d <= 3.  comb_prop, like ep-shadow, holds for any
    # Ind_{P_lam}(1) values (see comb_prop_check), so its rows also check
    # <Ind_{P_lam}(1), 1> = 1 and R_rho on the regular semisimple classes.
    # Every row checks the characteristic polynomial of each class
    # representative of its group
    "finite-gl": Suite(
        lambda args: [("comb_prop", d, q)
                      for d, q in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
                      if d <= args.dmax]
        + [("ind_identity", d, q)
           for d in range(1, min(args.dmax, 3) + 1) for q in (2, 3)],
        _finite_gl_case),
    "ep-shadow": Suite(
        lambda args: [(d, parts, q) for q in args.q
                      for n in range(1, args.n + 1)
                      for d in range(1, n + 1) if n % d == 0
                      for parts in partitions(n // d)],
        _ep_shadow_case),
    # the q = 1 degeneration, the product-EP coefficients, the surjectivity
    # witness and the parahoric index: one fixed case per parameter tuple,
    # which no budget selects
    "closed-forms": Suite(
        lambda args: [("q1_degeneration", {"d": d, "k": k})
                      for d in range(1, 9) for k in range(1, 7)]
        + [("product_ep", {"d": d, "r": r}) for d in range(1, 6) for r in range(1, 6)]
        + [("qint_nonzero", {"d": d, "k": k}) for d in range(1, 7) for k in range(1, 7)]
        + [("surjectivity", {"r": r, "d": d, "maxdeg": 3})
           for r in range(1, 5) for d in range(1, 4)]
        + [("index_formula", {"composition": comp, "q": (2, 3, 5)})
           for n in range(1, 6) for comp in compositions(n)]
        + [("hook_content", {"d": d, "mu": mu}) for d in range(1, 7)
           for size in range(1, 7) for mu in partitions(size, max_length=d)]
        + [("d1_identity", {"rmax": 4, "maxsize": 5}),
           ("rank_one_short", {"r": 3, "d": 2, "degree": 3})],
        _closed_form_case),
}


def cmd_verify(args) -> tuple[dict, str, dict]:
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, not {args.workers}")
    for q in args.q:
        if not is_prime(q):
            raise UsageError(f"--q {q} is not a prime")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    # a suite that checks nothing must not pass: refuse before any suite runs
    selected = {name: SUITES[name].cases(args) for name in names}
    for name, cases in selected.items():
        if not cases:
            raise UsageError(f"suite {name} selects no cases at these budgets")
    payload = {}
    for name, cases in selected.items():
        details = _pmap(SUITES[name].check, cases, args.workers)
        payload[name] = {"ok": all(c["ok"] for c in details), "cases": details}
    ok = all(suite["ok"] for suite in payload.values())
    params = {"suite": args.suite, "nmax": args.nmax, "degmax": args.degmax,
              "dmax": args.dmax, "n": args.n, "q": args.q,
              "workers": args.workers}
    return params, PASS if ok else FAIL, payload


# -- finite GL ----------------------------------------------------------------


def cmd_finite_gl(args) -> tuple[dict, str, dict]:
    group = cached_group(args.d, args.q)
    params = {"d": args.d, "q": args.q, "what": args.what}
    if args.what == "classes":
        payload = {
            "d": group.d,
            "q": group.q,
            "order": group.order,
            "class_count": len(group.classes),
            "classes": _class_table_json(group),
        }
        return params, PASS, payload
    if args.what == "ind":
        comp = (as_composition(int(p) for p in args.c.split(","))
                if args.c else (args.d,))
        params["c"] = render_partition(comp)
        cf = parabolic_trivial_ind(group, comp)
        return params, PASS, _classfun_json(f"ind[{params['c']}]", cf)
    if args.what == "dl":
        rho = parse_partition(args.rho) if args.rho else (args.d,)
        params["rho"] = render_partition(rho)
        cf = dl_character(group, rho)
        return params, PASS, _classfun_json(f"dl[{params['rho']}]", cf)
    # comb-prop
    rep = comb_prop_check(group)
    return params, PASS if rep["equal"] else FAIL, rep


# -- EP functions --------------------------------------------------------------


def cmd_ep(args) -> tuple[dict, str, dict]:
    if args.action == "build":
        if args.n is None:
            raise UsageError("ep build requires --n")
        combo = ep_function(args.n)
        payload = {"e_basis": combo.to_json(),
                   "one_basis": to_one_basis(combo).to_json()}
        return {"action": "build", "n": args.n}, PASS, payload
    if args.d is None or args.r is None:
        raise UsageError(f"ep {args.action} requires --d and --r")
    parts = parse_partition(args.type) if args.type else (1,) * args.r
    t = DParahoricType(args.d, as_partition_of(parts, args.r))
    params = {"action": args.action, "d": args.d, "r": args.r,
              "type": render_partition(parts)}
    if args.action == "fj":
        combo = f_J(t)
        payload: dict = {"f_J": combo.to_json()}
        status = PASS
        if args.shadow_q is not None:
            rep = fj_shadow_report(t, args.shadow_q)
            params["shadow_q"] = args.shadow_q
            payload["shadow_check"] = rep
            status = PASS if rep["equal"] else FAIL
        return params, status, payload
    # shadow
    if args.shadow_q is None:
        raise UsageError("ep shadow requires --shadow-q")
    params["shadow_q"] = args.shadow_q
    cf = shadow(f_J(t), args.shadow_q)
    return params, PASS, _classfun_json(f"shadow[d={args.d};{params['type']}]", cf)


# -- argument parsing -----------------------------------------------------------


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtransfer",
        description="Exact q-arithmetic: transfer images, symmetric-group "
                    "Euler-Poincare combinatorics, finite GL identities.",
    )
    parser.add_argument("--table", action="store_true",
                        help="human-readable output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transfer", help="apply the normalized transfer map")
    p_tr.add_argument("--basis", choices=("e", "p", "schur", "monomial"),
                      required=True)
    p_tr.add_argument("--k", type=int, help="index for e/p basis")
    p_tr.add_argument("--mu", help="partition for schur basis, e.g. 2,1")
    p_tr.add_argument("--w", help="dominant vector for monomial basis, e.g. 2,0")
    p_tr.add_argument("--r", type=int, required=True)
    p_tr.add_argument("--d", type=int, required=True)
    p_tr.set_defaults(func=cmd_transfer)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=tuple(SUITES) + ("all",),
                       required=True)
    p_ver.add_argument("--nmax", type=int, default=6,
                       help="max n for transfer consistency")
    p_ver.add_argument("--degmax", type=int, default=4,
                       help="max degree for transfer consistency")
    p_ver.add_argument("--dmax", type=int, default=5,
                       help="max d for comb-prop / weyl-vanishing / finite-gl")
    p_ver.add_argument("--n", type=int, default=4, help="max n for ep-shadow")
    p_ver.add_argument("--q", type=int, nargs="+", default=[2, 3],
                       help="primes for ep-shadow")
    p_ver.add_argument("--workers", type=int, default=1,
                       help="parallel workers inside suites")
    p_ver.set_defaults(func=cmd_verify)

    p_gl = sub.add_parser("finite-gl", help="class data in GL_d(F_q)")
    p_gl.add_argument("--d", type=int, required=True)
    p_gl.add_argument("--q", type=int, required=True)
    p_gl.add_argument("--what", choices=("classes", "ind", "dl", "comb-prop"),
                      required=True)
    p_gl.add_argument("--c", help="composition for ind, e.g. 2,1")
    p_gl.add_argument("--rho", help="partition for dl, e.g. 2")
    p_gl.set_defaults(func=cmd_finite_gl)

    p_ep = sub.add_parser("ep", help="Euler-Poincare combinations")
    p_ep.add_argument("action", choices=("build", "fj", "shadow"))
    p_ep.add_argument("--n", type=int, help="n for ep build")
    p_ep.add_argument("--d", type=int, help="division-algebra index")
    p_ep.add_argument("--r", type=int, help="rank over D")
    p_ep.add_argument("--type", help="partition of r, e.g. 1,1")
    p_ep.add_argument("--shadow-q", type=int, dest="shadow_q",
                      help="prime for the finite shadow comparison")
    p_ep.set_defaults(func=cmd_ep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        params, status, payload = args.func(args)
    except UsageError as exc:
        return _error(str(exc), 2)
    except (ValueError, BudgetError, EnumerationBudgetError) as exc:
        return _error(f"{type(exc).__name__}: {exc}", 2)
    except Exception as exc:  # an internal fault, not a verdict or a misuse
        return _error(f"{type(exc).__name__}: {exc}", 3)
    report = {"schema": SCHEMA, "command": args.command, "params": params,
              "status": status, "payload": payload,
              "elapsed_ms": int(1000 * (time.monotonic() - started))}
    return _emit(report, args.table)


def _error(message: str, code: int) -> int:
    _write(lambda: print(json.dumps({"schema": SCHEMA, "status": ERROR, "error": message})))
    return code


if __name__ == "__main__":
    sys.exit(main())
