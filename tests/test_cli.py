import dataclasses
import functools
import inspect
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import qtransfer
from qtransfer import cli, epfun, transfer, weylcomb
from qtransfer.algebra import SymPoly, sympoly
from qtransfer.cli import main
from qtransfer.finitegl import ClassFunction, GLGroup, ParabolicSubgroup, classfun


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_transfer_p_basis(capsys):
    code, report = run_json(capsys, "transfer", "--basis", "p", "--k", "1",
                            "--r", "1", "--d", "2")
    assert code == 0
    assert report["schema"] == "1"
    assert report["status"] == "pass"
    terms = report["payload"]["image"]["terms"]
    assert terms == [{"exponents": [1], "coeff": "v + v^-1"}]


def test_transfer_e_basis(capsys):
    code, report = run_json(capsys, "transfer", "--basis", "e", "--k", "2",
                            "--r", "1", "--d", "2")
    assert code == 0
    assert report["payload"]["image"]["terms"] == [
        {"exponents": [2], "coeff": "1"}]


def test_transfer_d1_identity(capsys):
    code, report = run_json(capsys, "transfer", "--basis", "p", "--k", "1",
                            "--r", "1", "--d", "1")
    assert code == 0
    assert report["payload"]["image"]["terms"] == [
        {"exponents": [1], "coeff": "1"}]


def test_transfer_schur_and_monomial(capsys):
    code, report = run_json(capsys, "transfer", "--basis", "schur",
                            "--mu", "1,1", "--r", "1", "--d", "2")
    assert code == 0
    assert report["payload"]["image"]["terms"] == [
        {"exponents": [2], "coeff": "1"}]
    code, report = run_json(capsys, "transfer", "--basis", "monomial",
                            "--w", "1,1", "--r", "1", "--d", "2")
    assert code == 0
    assert report["payload"]["image"]["terms"] == [
        {"exponents": [2], "coeff": "1"}]


def test_usage_error_exit_2(capsys):
    code, report = run_json(capsys, "transfer", "--basis", "p",
                            "--r", "1", "--d", "2")
    assert code == 2
    assert report["status"] == "error"


def test_bad_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transfer", "--basis", "zzz", "--r", "1", "--d", "1"])
    assert exc.value.code == 2


def test_verify_comb_prop_beyond_s8(capsys):
    # f_g_table is a closed form: d = 12 sums one term per (partition,
    # cycle type) pair, no subset walk and no S_d scan
    code, report = run_json(capsys, "verify", "--suite", "comb-prop",
                            "--dmax", "12")
    assert code == 0
    assert len(report["payload"]["comb-prop"]["cases"]) == 12


def test_verify_weyl_vanishing(capsys):
    code, report = run_json(capsys, "verify", "--suite", "weyl-vanishing",
                            "--dmax", "4")
    assert code == 0
    cases = report["payload"]["weyl-vanishing"]["cases"]
    # the support equality also runs for M = the full simple set
    assert {"d": 4, "M": [1, 2, 3], "ok": True, "nonzero_sums": {}} in cases


def test_verify_weyl_vanishing_support_mismatch_exit_1(capsys, monkeypatch):
    monkeypatch.setattr("qtransfer.cli.restriction_support",
                        lambda M, I, w: frozenset())
    code, report = run_json(capsys, "verify", "--suite", "weyl-vanishing",
                            "--dmax", "3")
    assert code == 1
    cases = report["payload"]["weyl-vanishing"]["cases"]
    # M = {} has only trivial supports; every other M has a nontrivial one
    assert [c["ok"] for c in cases] == [not c["M"] for c in cases]
    assert all(set(c) == {"d", "M", "ok", "nonzero_sums"} for c in cases)


def test_verify_transfer_checks_e_against_substitution(capsys, monkeypatch):
    monkeypatch.setattr("qtransfer.cli.substitution_image",
                        lambda p, f: SymPoly.zero(p.r))
    code, report = run_json(capsys, "verify", "--suite",
                            "transfer-consistency", "--nmax", "2",
                            "--degmax", "1")
    assert code == 1
    cases = report["payload"]["transfer-consistency"]["cases"]
    assert all("e_1" in c["failures"] for c in cases)


def _negate_one_ep_weight(monkeypatch):
    ep_weights = weylcomb.ep_weights

    def faulty(d):
        weights = dict(ep_weights(d))
        lam = min(weights)  # (1^d)
        weights[lam] = -weights[lam]
        return weights

    monkeypatch.setattr(weylcomb, "ep_weights", faulty)


def _raise_one_class_count(monkeypatch):
    counts = weylcomb.composition_class_counts

    def faulty(comp):
        row = dict(counts(comp))
        row[next(iter(row))] += 1
        return row

    monkeypatch.setattr(weylcomb, "composition_class_counts", faulty)


def _scale_image_e_at_2(monkeypatch):
    # cli's name only: the cached Jacobi-Trudi entries read transfer.image_e
    image_e = cli.image_e
    monkeypatch.setattr(cli, "image_e",
                        lambda p, k: image_e(p, k).scale(2) if k == 2 else image_e(p, k))


def _raise_kostka_at_21(monkeypatch):
    # sympoly's name only: partitions.kostka is memoised and recursive
    kostka = sympoly.kostka
    monkeypatch.setattr(sympoly, "kostka",
                        lambda mu, lam: kostka(mu, lam) + (mu == (2, 1)))


def _nonzero_levi_sum(monkeypatch):
    monkeypatch.setattr(cli, "proper_levi_vanishing",
                        lambda d, M: {frozenset(): Fraction(1)})


def _drop_the_M_test_from_restriction_support(monkeypatch):
    # J = {w(i) : i in I, w(i+1) = w(i) + 1}, not cut down to M's simple set;
    # the vanishing sums read the build's supports, so only the support
    # check against the enumeration oracle sees it
    monkeypatch.setattr(cli, "restriction_support", lambda M, I, w: frozenset(
        w[i - 1] for i in I if w[i] == w[i - 1] + 1))


def _drop_one_conjugate(monkeypatch):
    coset_conjugator = ParabolicSubgroup.coset_conjugator

    def faulty(self):
        conjugates = coset_conjugator(self)
        if len(self.composition) == 1:
            return conjugates
        return lambda x: conjugates(x)[1:]

    monkeypatch.setattr(ParabolicSubgroup, "coset_conjugator", faulty)


def _swap_two_reps_of_equal_size(monkeypatch):
    # in each group the representatives of the first two classes of equal
    # size trade places, labels, sizes and char polys kept, on fresh groups
    # that the undo drops.  The P-classes stay the right size, so only the
    # char poly of each representative, checked in every row, sees it;
    # GL_2(F_2) has no two classes of equal size
    def swapped(d, q):
        group = GLGroup(d, q)
        classes = list(group.classes)
        first_of_size = {}
        for i, cls in enumerate(classes):
            j = first_of_size.setdefault(cls.size, i)
            if j != i:
                classes[i] = dataclasses.replace(cls, rep=classes[j].rep)
                classes[j] = dataclasses.replace(classes[j], rep=cls.rep)
                break
        group._classes = tuple(classes)
        return group

    monkeypatch.setattr(cli, "cached_group", functools.lru_cache(maxsize=None)(swapped))


def _drop_the_boundary_transvections(monkeypatch):
    # without I + E_{s-1,s} at each block boundary s the generators give
    # only the Levi, so the orbits of a proper P fall short of |P|: the
    # class builder's own size check stops the suite, an internal fault
    init = ParabolicSubgroup.__init__

    def faulty(self, group, comp):
        init(self, group, comp)
        boundaries = set(itertools.accumulate(self.composition[:-1]))
        self.elementary = tuple((i, j, c) for i, j, c in self.elementary
                                if not (j == i + 1 and j in boundaries))

    monkeypatch.setattr(ParabolicSubgroup, "__init__", faulty)
    return "AssertionError: P-classes of P_"


def _raise_two_part_flag_counts(monkeypatch):
    # one more flag on each 2-part composition of a module type with more
    # than one primary part; _flag_count, _trivial_ind and _dl_characters
    # memoise, so each runs on a fresh cache that the undo drops
    fresh = {name: functools.lru_cache(maxsize=None)(getattr(classfun, name).__wrapped__)
             for name in ("_flag_count", "_trivial_ind", "_dl_characters")}
    flag_count = fresh["_flag_count"]
    fresh["_flag_count"] = lambda mtype, comp, q: (
        flag_count(mtype, comp, q) + (len(comp) == 2 and len(mtype) > 1))
    for name, fn in fresh.items():
        monkeypatch.setattr(classfun, name, fn)


def _raise_two_part_flag_counts_keeping_transitivity(monkeypatch):
    # the same fault with <Ind_{P_lam}(1), 1> = 1 taken as passed, so only
    # the values of R_rho on the regular semisimple classes can see it
    _raise_two_part_flag_counts(monkeypatch)
    monkeypatch.setattr(cli, "_flag_characters_transitive", lambda group: True)


def _shift_one_monomial_hit(monkeypatch):
    # one hit of the monomial map on the orbit of (1, 0, ..) under r = 1
    # moved up by v^2; the image stays S_1-invariant, so it is a wrong value
    # and not a refusal.  _monomial_image memoises, so it runs on a fresh
    # cache that the undo drops
    counts = transfer._v_exponent_counts

    def faulty(p, dom):
        out = counts(p, dom)
        if p.r == 1 and p.d > 1 and dom == (1,) + (0,) * (p.n - 1):
            hits = dict(out[(1,)])
            top = max(hits)
            hits[top + 2] = hits.pop(top)
            out[(1,)] = hits
        return out

    monkeypatch.setattr(transfer, "_v_exponent_counts", faulty)
    monkeypatch.setattr(transfer, "_monomial_image",
                        functools.lru_cache(maxsize=None)(transfer._monomial_image.__wrapped__))


def _drop_one_rank_of_many_rows(monkeypatch):
    # the rank of the power-sum products read one short whenever there is
    # more than one row; only the surjectivity cases of closed-forms reach it
    rank_of_rows = transfer.rank_of_rows
    monkeypatch.setattr(transfer, "rank_of_rows",
                        lambda rows: rank_of_rows(rows) - (len(rows) > 1))


def _plant_mutant(monkeypatch, name, old, new):
    # transfer.<name> with the one operator old replaced by new, compiled in
    # a copy of the module's namespace and set in transfer and in cli, which
    # imports it by name
    source = inspect.getsource(getattr(transfer, name))
    assert source.count(old) == 1
    namespace = dict(vars(transfer))
    exec(compile(source.replace(old, new), transfer.__file__, "exec"), namespace)
    for module in (transfer, cli):
        monkeypatch.setattr(module, name, namespace[name])


def _flip_the_laplace_sign_at_3(monkeypatch):
    # the minors at pos = 2 of image_schur's Laplace expansion enter with a
    # minus sign, which only 3 x 3 determinants see; the r = 1 hook-content
    # cases of closed-forms do
    _plant_mutant(monkeypatch, "image_schur", "pos % 2", "pos % 3")


def _eliminate_only_the_pivot_row(monkeypatch):
    # rank_of_rows clears the pivot row in place of every other row; every
    # rank still reads full on a full-rank matrix, so only the rank-deficient
    # closed-forms case sees it
    _plant_mutant(monkeypatch, "rank_of_rows", "i != rank", "i == rank")


def _drop_the_top_degree_row(monkeypatch):
    # the witness report one degree short, as a loop bound of maxdeg would
    # leave it, with every row it keeps at full rank
    witness = cli.surjectivity_witness

    def faulty(p, maxdeg):
        report = witness(p, maxdeg)
        return {**report, "degree_checks": report["degree_checks"][:-1]}

    monkeypatch.setattr(cli, "surjectivity_witness", faulty)


def _repeat_each_torus_d_times(monkeypatch):
    # d copies of each torus type rho of W_L in place of the parts d*m of rho
    # (at r = 1 the split torus, not the Coxeter one); both sides of the
    # shadow identity read _torus_weights, so only the r = 1 check sees it
    torus_weights = epfun._torus_weights
    monkeypatch.setattr(epfun, "_torus_weights", lambda t: [
        (tuple(sorted((part // t.d for part in torus for _ in range(t.d)), reverse=True)),
         weight)
        for torus, weight in torus_weights(t)])


@pytest.mark.parametrize("plant,argv", [
    (_negate_one_ep_weight, ["--suite", "comb-prop", "--dmax", "4"]),
    (_raise_one_class_count, ["--suite", "comb-prop", "--dmax", "4"]),
    (_scale_image_e_at_2, ["--suite", "transfer-consistency", "--nmax", "4",
                           "--degmax", "3"]),
    (_raise_kostka_at_21, ["--suite", "transfer-consistency", "--nmax", "4",
                           "--degmax", "3"]),
    (_shift_one_monomial_hit, ["--suite", "transfer-consistency", "--nmax", "4",
                               "--degmax", "3"]),
    (_nonzero_levi_sum, ["--suite", "weyl-vanishing", "--dmax", "3"]),
    (_drop_the_M_test_from_restriction_support, ["--suite", "weyl-vanishing", "--dmax", "4"]),
    (_drop_one_conjugate, ["--suite", "finite-gl", "--dmax", "2"]),
    (_drop_the_boundary_transvections, ["--suite", "finite-gl"]),
    (_swap_two_reps_of_equal_size, ["--suite", "finite-gl"]),
    (_raise_two_part_flag_counts, ["--suite", "finite-gl"]),
    (_raise_two_part_flag_counts_keeping_transitivity, ["--suite", "finite-gl"]),
    (_raise_two_part_flag_counts, ["--suite", "ep-shadow", "--n", "4", "--q", "2", "3"]),
    (_repeat_each_torus_d_times, ["--suite", "ep-shadow", "--n", "4", "--q", "2", "3"]),
    (_drop_one_rank_of_many_rows, ["--suite", "closed-forms"]),
    (_eliminate_only_the_pivot_row, ["--suite", "closed-forms"]),
    (_flip_the_laplace_sign_at_3, ["--suite", "closed-forms"]),
    (_drop_the_top_degree_row, ["--suite", "closed-forms"]),
], ids=lambda v: v.__name__.strip("_") if callable(v) else v[1])
def test_verify_fails_on_a_planted_fault(capsys, monkeypatch, plant, argv):
    # one fault per row, planted where no memoised result can keep it for
    # a later test; the suite must evaluate and fail, not pass or raise,
    # unless the plant returns the error of the self-check it breaks
    error = plant(monkeypatch)
    code, report = run_json(capsys, "verify", *argv)
    if error:
        assert code == 3
        assert report["error"].startswith(error)
        return
    assert code == 1
    assert report["status"] == "fail"
    assert not report["payload"][argv[1]]["ok"]


def test_verify_workers_flag(capsys):
    # the closed-forms case tuples pickle, and no budget selects them
    _, serial = run_json(capsys, "verify", "--suite", "closed-forms")
    assert len(serial["payload"]["closed-forms"]["cases"]) == 280
    for argv in (["--workers", "2"], ["--nmax", "0", "--degmax", "0", "--dmax", "0", "--n", "0"]):
        code, report = run_json(capsys, "verify", "--suite", "closed-forms", *argv)
        assert code == 0
        assert report["payload"] == serial["payload"]


def test_finite_gl_dl(capsys):
    code, report = run_json(capsys, "finite-gl", "--d", "2", "--q", "2",
                            "--what", "dl", "--rho", "2")
    assert code == 0
    # triv - Steinberg: degree 1 - q = -1 at the identity class
    values = report["payload"]["functions"]["dl[2]"]
    assert "-1" in values and "1" in values
    assert report["payload"]["classes"][0]["size"] >= 1


def test_finite_gl_classes(capsys):
    code, report = run_json(capsys, "finite-gl", "--d", "2", "--q", "3",
                            "--what", "classes")
    assert code == 0
    assert report["payload"]["class_count"] == 8
    assert report["payload"]["order"] == 48


def test_finite_gl_ind(capsys):
    code, report = run_json(capsys, "finite-gl", "--d", "3", "--q", "2",
                            "--what", "ind", "--c", "2,1")
    assert code == 0
    values = report["payload"]["functions"]["ind[2,1]"]
    # degree = q^2 + q + 1 = 7 at the identity class
    assert "7" in values


def test_finite_gl_ind_takes_any_composition(capsys):
    # associate parabolics have the same permutation character
    code, report = run_json(capsys, "finite-gl", "--d", "3", "--q", "2",
                            "--what", "ind", "--c", "1,2")
    assert code == 0
    assert report["params"]["c"] == "1,2"
    _, swapped = run_json(capsys, "finite-gl", "--d", "3", "--q", "2",
                          "--what", "ind", "--c", "2,1")
    assert report["payload"]["functions"]["ind[1,2]"] == \
        swapped["payload"]["functions"]["ind[2,1]"]


def test_finite_gl_comb_prop(capsys):
    code, report = run_json(capsys, "finite-gl", "--d", "3", "--q", "2",
                            "--what", "comb-prop")
    assert code == 0
    assert report["payload"]["equal"]


def test_ep_build(capsys):
    code, report = run_json(capsys, "ep", "build", "--n", "3")
    assert code == 0
    terms = {t["type"]: t["coeff"] for t in report["payload"]["e_basis"]["terms"]}
    assert terms == {"3": "1", "2,1": "-1", "1,1,1": "1/3"}


def test_ep_fj_with_shadow(capsys):
    code, report = run_json(capsys, "ep", "fj", "--d", "2", "--r", "2",
                            "--type", "1,1", "--shadow-q", "2")
    assert code == 0
    assert report["payload"]["shadow_check"]["equal"]


def test_ep_shadow_classfunction(capsys):
    code, report = run_json(capsys, "ep", "shadow", "--d", "2", "--r", "1",
                            "--type", "1", "--shadow-q", "3")
    assert code == 0
    (values,) = report["payload"]["functions"].values()
    assert len(values) == 8


def test_ep_shadow_checks_each_group_once(capsys, monkeypatch):
    # <Ind_{P_lam}(1), 1> = 1 runs once per GL_n(F_2), over the p(n)
    # partitions of n: 1 + 2 + 3 + 5 + 7 = 18 at n <= 5, not once per
    # parahoric type of each n (115)
    calls = 0
    inner_with_trivial = ClassFunction.inner_with_trivial

    def counted(self):
        nonlocal calls
        calls += 1
        return inner_with_trivial(self)

    monkeypatch.setattr(ClassFunction, "inner_with_trivial", counted)
    code, _ = run_json(capsys, "verify", "--suite", "ep-shadow", "--n", "5", "--q", "2")
    assert (code, calls) == (0, 18)


@pytest.mark.parametrize("action", ["fj", "shadow"])
def test_ep_shadow_q_zero_is_refused(capsys, action):
    # q = 0 is a value, not a missing flag: it must not skip the shadow check
    code, report = run_json(capsys, "ep", action, "--d", "1", "--r", "2",
                            "--shadow-q", "0")
    assert code == 2
    assert report["error"] == "ValueError: q = 0 must be prime"


@pytest.mark.parametrize("argv,suite", [
    (["--suite", "all", "--nmax", "0", "--dmax", "0", "--n", "0"],
     "transfer-consistency"),
    (["--suite", "comb-prop", "--dmax", "0"], "comb-prop"),
    (["--suite", "weyl-vanishing", "--dmax", "1"], "weyl-vanishing"),
    (["--suite", "finite-gl", "--dmax", "0"], "finite-gl"),
    (["--suite", "ep-shadow", "--n", "0"], "ep-shadow"),
    (["--suite", "transfer-consistency", "--degmax", "0"],
     "transfer-consistency"),
])
def test_verify_refuses_a_suite_that_checks_nothing(capsys, argv, suite):
    code, report = run_json(capsys, "verify", *argv)
    assert code == 2
    assert report["status"] == "error"
    assert f"suite {suite} " in report["error"]


def test_verify_refuses_a_non_prime_q_before_any_suite(capsys, monkeypatch):
    def refuse(case):
        raise AssertionError(f"a suite ran case {case}")

    for name, suite in cli.SUITES.items():
        monkeypatch.setitem(cli.SUITES, name, dataclasses.replace(suite, check=refuse))
    code, report = run_json(capsys, "verify", "--suite", "all", "--q", "4")
    assert code == 2
    assert report == {"schema": "1", "status": "error", "error": "--q 4 is not a prime"}


def test_transfer_payload_schema(capsys):
    code, report = run_json(capsys, "transfer", "--basis", "schur",
                            "--mu", "2,1", "--r", "2", "--d", "2")
    assert code == 0
    payload = report["payload"]
    assert payload["input_basis"] == "schur"
    assert payload["index_or_partition"] == "2,1"
    assert payload["params"] == {"r": 2, "d": 2}


def test_budget_error_exit_2(capsys):
    code, report = run_json(capsys, "finite-gl", "--d", "6", "--q", "5",
                            "--what", "classes")
    assert code == 2
    assert report["status"] == "error"
    assert report["error"] == ("BudgetError: GL_6(F_5) has 15600 conjugacy classes, "
                               "beyond the class limit 5000")


def test_enumeration_budget_error_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("qtransfer.weylcomb.ENUM_LIMIT", 2)
    code, report = run_json(capsys, "verify", "--suite", "comb-prop",
                            "--dmax", "3")
    assert code == 2
    assert report["status"] == "error"
    assert report["error"] == (
        "EnumerationBudgetError: enumerating the terms of f_g_table(2) "
        "summed so far (3 elements) exceeds the enumeration limit 2")


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_verify_workers_below_one_exit_2(capsys, workers):
    code, report = run_json(capsys, "verify", "--suite", "comb-prop",
                            "--dmax", "2", "--workers", workers)
    assert code == 2
    assert report["status"] == "error" and "params" not in report
    assert report["error"] == f"--workers must be at least 1, not {workers}"


def test_empty_parahoric_type_exit_2(capsys):
    code, report = run_json(capsys, "ep", "fj", "--d", "1", "--r", "0")
    assert code == 2
    assert report["error"].startswith("ValueError")


def test_internal_fault_exit_3(capsys, monkeypatch):
    def broken(d):
        raise AssertionError("broken invariant")
    monkeypatch.setattr("qtransfer.cli.f_g_table", broken)
    code, report = run_json(capsys, "verify", "--suite", "comb-prop",
                            "--dmax", "2")
    assert code == 3
    assert report["status"] == "error"
    assert report["error"] == "AssertionError: broken invariant"


def test_table_mode(capsys):
    code, out = run(capsys, "--table", "ep", "build", "--n", "2")
    assert code == 0
    assert "status  : pass" in out


@pytest.mark.parametrize("argv", [
    ["transfer", "--basis", "e", "--k", "1", "--r", "1", "--d", "2"],
    ["verify", "--suite", "comb-prop", "--dmax", "2"],
    ["finite-gl", "--d", "2", "--q", "2", "--what", "classes"],
    ["ep", "build", "--n", "2"],
])
def test_every_command_reports_in_one_envelope(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert set(report) == {"schema", "command", "params", "status", "payload",
                           "elapsed_ms"}
    assert report["command"] == argv[0]
    assert isinstance(report["elapsed_ms"], int) and report["elapsed_ms"] >= 0


def test_exit_code_mapping_for_failed_identity(capsys):
    from qtransfer.cli import FAIL, _emit
    report = {"schema": "1", "command": "verify", "params": {},
              "status": FAIL, "payload": {}, "elapsed_ms": 0}
    assert _emit(report, False) == 1
    capsys.readouterr()


def test_deterministic_output(capsys):
    _, first = run(capsys, "ep", "build", "--n", "4")
    _, second = run(capsys, "ep", "build", "--n", "4")
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


@pytest.mark.parametrize("argv,code", [
    (["ep", "build", "--n", "7"], 0),
    (["--table", "ep", "build", "--n", "3"], 0),
    (["finite-gl", "--d", "6", "--q", "5", "--what", "classes"], 2),
])
def test_closed_output_pipe_keeps_the_exit_code(argv, code):
    # the read end is closed before the process starts, so every write to
    # stdout fails; that is neither a failed identity nor a traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(qtransfer.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "qtransfer", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr == b""
