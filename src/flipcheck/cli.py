"""Command-line surface.

Every number the package is built to reproduce is available as a named,
exit-code-bearing check: ``flipcheck verify-all`` runs the whole golden
suite.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage, parse or
validation error.  Output is deterministic (sorted keys, no timestamps, no
color), so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from . import dsl, fano, hodge, motive, sod, varieties
from .fano import Family
from .motive import MotiveExpr
from .sod import RewriteRule, SodLedger


# provenance is "paper", "derived" or "trivial"
CheckReport = namedtuple(
    "CheckReport", "name inputs expected computed passed provenance")


def make_report(name: str, inputs: dict, expected, computed,
                provenance: str) -> CheckReport:
    return CheckReport(name, inputs, expected, computed,
                       expected == computed, provenance)


def _err(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# Python turns no int of over 4300 digits (by default) into text, so script
# results are formatted in full before any line is printed.
_TOO_LONG = "result holds an integer too long to print"


# -- diamond loading ----------------------------------------------------------


def _load_diamond(args) -> hodge.HodgeDiamond:
    if args.builtin:
        try:
            return varieties.builtin(args.builtin)
        except KeyError:
            raise ValueError(
                f"unknown builtin {args.builtin!r}; known: "
                + ", ".join(varieties.builtin_names())
            )
    with open(args.diamond, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return hodge.HodgeDiamond.from_json_dict(data).validate()


# -- hodge subcommand ----------------------------------------------------------


def _print_diamond(d: hodge.HodgeDiamond, args) -> None:
    if args.json:
        print(json.dumps(d.to_json_dict(), sort_keys=True, indent=2))
    elif getattr(args, "column", False):
        print(" ".join(str(v) for v in hodge.diagonal(d)))
    else:
        print(hodge.format_diamond(d))


def cmd_hodge(args) -> int:
    try:
        d = _load_diamond(args)
        if args.hodge_op == "hilb2":
            _print_diamond(hodge.hilbert_square(d), args)
        elif args.hodge_op == "sym2":
            _print_diamond(hodge.sym2(d), args)
        else:  # hh0
            value = hodge.hh0(d)
            print(json.dumps({"hh0": value}) if args.json else value)
        return 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _err(str(exc))


# -- fano subcommand -----------------------------------------------------------

GRID_K_MAX = 6
GRID_N_MAX = 30
_GR25_CODIM_DOMAIN = [(n, 0) for n in range(2, 7)] + [(n, 1) for n in (4, 5, 6)]


def _codim_grid(family: Family) -> tuple[int, int, list]:
    """(passed cells, total cells, failures) over the verification grid."""
    if family is Family.GR25_SECTION:
        domain = _GR25_CODIM_DOMAIN
    else:
        domain = [(n, k) for k in range(GRID_K_MAX + 1)
                  for n in range(k, GRID_N_MAX + 1)]
    failures = []
    for n, k in domain:
        if not fano.verify_codim_identity(family, n, k).passed:
            failures.append([family.value, n, k])
    return len(domain) - len(failures), len(domain), failures


def _symbolic_failures(family: Family) -> list:
    if family is Family.GR25_SECTION:  # table-driven, no polynomial in n
        return []
    return [k for k in range(GRID_K_MAX + 1)
            if not fano.verify_codim_identity_symbolic(family, k)]


def cmd_fano(args) -> int:
    try:
        if args.fano_op == "dims":
            return _fano_dims(args)
        if args.fano_op == "codim":
            return _fano_codim(args)
        if args.fano_op == "splittings":
            types = fano.enumerate_line_splittings(args.n)
            if args.json:
                print(json.dumps({"n": args.n,
                                  "types": [list(t) for t in types]}))
            else:
                plural = "s" if len(types) != 1 else ""
                print(f"n={args.n}: {len(types)} splitting type{plural}")
                for t in types:
                    print(f"  {fano.format_splitting(t)}")
            return 0
        # sodcounts
        family = _family(args)
        counts = fano.sod_counts(family, args.n, _plane_dim(args))
        if args.json:
            payload = {"flip_form": counts.flip_form.to_json_dict()}
            if counts.expanded_form is not None:
                payload["expanded_form"] = counts.expanded_form.to_json_dict()
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print(f"flip form:     {dsl.print_canonical(counts.flip_form)}")
            if counts.expanded_form is not None:
                print(f"expanded form: {dsl.print_canonical(counts.expanded_form)}")
        return 0
    except ValueError as exc:
        return _err(str(exc))


def _family(args) -> Family:
    if not args.family:
        raise ValueError("--family is required here")
    return fano.parse_family(args.family)


def _plane_dim(args) -> int:
    if args.k is None:
        raise ValueError("--k (the plane dimension) is required for this family")
    return args.k


def _fano_dims(args) -> int:
    family = _family(args)
    if family is Family.GR25_SECTION:
        row = fano.gr25_dim_row(args.n)
        if args.json:
            print(json.dumps(row._asdict(), sort_keys=True))
        else:
            cells = [("dim F_1(X)", row.f1), ("dim F_2^sigma(X)", row.f2_sigma),
                     ("dim F_2^tau(X)", row.f2_tau), ("dim F_3(X)", row.f3)]
            for label, value in cells:
                shown = "empty" if value is None else value
                print(f"{label:<17}= {shown}")
        return 0
    # rejects n < 1, k < 0, k > n
    fano.FanoParams(family, args.n, _plane_dim(args))
    dim = fano.expected_dim_fano(family, args.n, args.k)
    if args.json:
        print(json.dumps({"family": family.value, "n": args.n,
                          "k_planes": args.k, "expected_dim": dim,
                          "empty": dim < 0}, sort_keys=True))
    else:
        note = "  (negative: empty)" if dim < 0 else ""
        print(f"expected dim F_{args.k}(X) = {dim}{note}")
    return 0


def _fano_codim(args) -> int:
    if args.grid:
        families = ([fano.parse_family(args.family)] if args.family
                    else list(Family))
        all_ok = True
        payload = []
        for family in families:
            passed, total, failures = _codim_grid(family)
            symbolic = _symbolic_failures(family)
            ok = not failures and not symbolic
            all_ok = all_ok and ok
            payload.append({"family": family.value, "passed": passed,
                            "total": total, "failures": failures,
                            "symbolic_failures": symbolic})
            if not args.json:
                print(f"{family.value}: {passed}/{total} identity cells pass")
                if family is not Family.GR25_SECTION:
                    word = ("pass" if not symbolic
                            else f"FAIL at k={symbolic}")
                    print(f"{family.value}: symbolic identity in n: {word}")
        if args.json:
            print(json.dumps(payload, sort_keys=True, indent=2))
        return 0 if all_ok else 1
    family = _family(args)
    if args.k is None:
        raise ValueError("--k is required without --grid")
    if family is not Family.GR25_SECTION:  # the gr25 table checks its cells
        fano.FanoParams(family, args.n, args.k)
    report = fano.verify_codim_identity(family, args.n, args.k)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    else:
        for check in report.checks:
            word = "PASS" if check.passed else "FAIL"
            print(f"{word} {check.name}: lhs={check.lhs} rhs={check.rhs}")
    return 0 if report.passed else 1


# -- sod subcommand --------------------------------------------------------------


def cmd_sod(args) -> int:
    if args.sod_op == "check":
        return _sod_check(args)
    if args.sod_op == "conjecture-consistency":
        return _sod_consistency(args)
    return _sod_obstruction(args)


def _read_script(path: str) -> list | None:
    """The statements of the script at ``path``; None, after an ``error:``
    line, when the file cannot be read, decoded or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return dsl.parse_script(fh.read())
    except (OSError, ValueError) as exc:  # ParseError, UnicodeDecodeError
        _err(str(exc))
        return None


def _sod_check(args) -> int:
    statements = _read_script(args.file)
    if statements is None:
        return 2
    table = sod.default_rules()
    ledgers: list[SodLedger] = []
    for node in statements:
        try:
            value = dsl.evaluate(node)
        except (dsl.EvalError, ValueError) as exc:
            return _err(str(exc))
        if isinstance(value, RewriteRule):
            table.add(value)
        elif isinstance(value, SodLedger):
            ledgers.append(value)
        else:
            return _err("sod scripts may only contain rules and ledgers")
    if len(ledgers) != 2:
        return _err(
            f"expected exactly two ledgers (ambient then candidate), "
            f"found {len(ledgers)}"
        )
    try:
        ambient = table.normalize(ledgers[0])
        candidate = table.normalize(ledgers[1])
        ambient_hh0 = sod.additive_invariant(ambient, {"Dpt": 1})
        candidate_hh0 = sod.additive_invariant(candidate, {"Dpt": 1})
    except (sod.UnassignedAtomError, sod.RewriteLoopError) as exc:
        return _err(str(exc))
    verdict = sod.embedding_obstruction(candidate_hh0, ambient_hh0)
    try:
        out = (json.dumps({"ambient_hh0": ambient_hh0,
                           "candidate_hh0": candidate_hh0,
                           "verdict": str(verdict)}, sort_keys=True)
               if args.json else
               f"ambient hh0 = {ambient_hh0}\ncandidate hh0 = {candidate_hh0}\n"
               f"{ambient_hh0} vs {candidate_hh0} {verdict}")
    except ValueError:
        return _err(_TOO_LONG)
    print(out)
    return 0


def _sod_consistency(args) -> int:
    n_max = args.n_odd_max
    if n_max < 3:
        return _err(f"--n-odd-max must be at least 3, got {n_max}")
    results = [sod.conjecture_consistency(n) for n in range(3, n_max + 1, 2)]
    failed = [r.n for r in results if r.in_stated_range and not r.holds]
    if args.json:
        payload = [{"n": r.n, "holds": r.holds,
                    "in_stated_range": r.in_stated_range} for r in results]
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            if not r.in_stated_range:
                print(f"SKIP n={r.n} (outside stated range; counts clamped)")
            else:
                word = "PASS" if r.holds else "FAIL"
                print(f"{word} n={r.n}: {dsl.print_canonical(r.hilb2)}")
    return 1 if failed else 0


# the paper's embedding-obstruction verdicts, keyed by the builtin whose
# Hilbert square is the ambient: golden check name, candidate hh0 source,
# the verdict the numbers are known to give
_OBSTRUCTION_SCENARIOS = {
    "quartic-double-solid": (
        "sod/obstruction-quartic-double-solid",
        lambda: hodge.hh0(varieties.builtin("f1-quartic-double-solid")),
        sod.Verdict.OBSTRUCTED),
    # 56 lines on a degree-2 del Pezzo surface vs the 65 exceptional
    # objects of the Hilbert square
    "degree2-del-pezzo-surface": (
        "sod/degree2-surface-obstruction", lambda: 56,
        sod.Verdict.INCONCLUSIVE),
}


def _check_obstruction(ambient_name: str) -> CheckReport:
    name, candidate_source, expected = _OBSTRUCTION_SCENARIOS[ambient_name]
    candidate = candidate_source()
    ambient = hodge.hh0(hodge.hilbert_square(varieties.builtin(ambient_name)))
    verdict = sod.embedding_obstruction(candidate, ambient)
    return make_report(name, {"candidate_hh0": candidate,
                              "ambient_hh0": ambient},
                       str(expected), str(verdict), "paper")


def _sod_obstruction(args) -> int:
    if args.builtin not in _OBSTRUCTION_SCENARIOS:
        return _err(f"unknown obstruction scenario {args.builtin!r}; known: "
                    + ", ".join(sorted(_OBSTRUCTION_SCENARIOS)))
    report = _check_obstruction(args.builtin)
    if args.json:
        print(json.dumps({**report.inputs, "verdict": report.computed},
                         sort_keys=True))
    else:
        relation = ">" if report.computed == "OBSTRUCTED" else "<="
        print(f"{report.computed} ({report.inputs['candidate_hh0']} "
              f"{relation} {report.inputs['ambient_hh0']})")
    return 0 if report.passed else 1


# -- motive subcommand -----------------------------------------------------------


def cmd_motive(args) -> int:
    statements = _read_script(args.file)
    if statements is None:
        return 2
    try:
        values = [dsl.evaluate(node) for node in statements]
    except ValueError as exc:  # EvalError and the value layers' errors
        return _err(str(exc))
    if not all(isinstance(v, MotiveExpr) for v in values):
        return _err("motive scripts may only contain expressions")
    try:
        if args.motive_op == "eval":
            lines = [dsl.print_canonical(value) for value in values]
        else:  # check: every statement must vanish
            lines = [f"PASS statement {i}: 0" if value.is_zero() else
                     f"FAIL statement {i}: {dsl.print_canonical(value)}"
                     for i, value in enumerate(values, start=1)]
    except ValueError:
        return _err(_TOO_LONG)
    for line in lines:
        print(line)
    return 0 if args.motive_op == "eval" or all(
        value.is_zero() for value in values) else 1


# -- the golden suite ------------------------------------------------------------


def _check_qds_column() -> CheckReport:
    d = hodge.hilbert_square(varieties.builtin("quartic-double-solid"))
    return make_report(
        "hodge/hilb2-quartic-double-solid-column",
        {"builtin": "quartic-double-solid"},
        [1, 2, 4, 104, 4, 2, 1], hodge.diagonal(d), "paper")


def _check_qds_hh0() -> CheckReport:
    d = hodge.hilbert_square(varieties.builtin("quartic-double-solid"))
    return make_report("hodge/hilb2-quartic-double-solid-hh0",
                       {"builtin": "quartic-double-solid"},
                       118, hodge.hh0(d), "paper")


def _check_f1_hh0() -> CheckReport:
    d = varieties.builtin("f1-quartic-double-solid")
    return make_report("hodge/f1-surface-hh0",
                       {"builtin": "f1-quartic-double-solid"},
                       222, hodge.hh0(d), "paper")


def _check_degree2_hilb2_hh0() -> CheckReport:
    d = hodge.hilbert_square(varieties.builtin("degree2-del-pezzo-surface"))
    return make_report("hodge/degree2-surface-hilb2-hh0",
                       {"builtin": "degree2-del-pezzo-surface"},
                       65, hodge.hh0(d), "paper")


def _check_euler_identity() -> CheckReport:
    lhs, rhs = [], []
    names = ["quartic-double-solid", "degree2-del-pezzo-surface",
             "curve-g0", "curve-g2", "p3"]
    for name in names:
        d = varieties.builtin(name)
        e = hodge.euler(d)
        lhs.append(hodge.euler(hodge.hilbert_square(d)))
        rhs.append(e * (e + 1) // 2 + (d.dim - 1) * e)
    return make_report("hodge/euler-identity-hilbert-square",
                       {"builtins": names}, lhs, rhs, "derived")


def _check_degree2_count() -> CheckReport:
    total = sod.sym2_ledger(["Dpt"] * 10).total()
    return make_report("sod/degree2-surface-sym2-count",
                       {"components": "10 exceptional objects"},
                       65, total, "paper")


def _check_hilb2_ledger_n5() -> CheckReport:
    led = sod.hilb2_two_quadrics_ledger(5)
    return make_report("sod/hilb2-ledger-n5", {"n": 5},
                       {"DC": 8, "DSym2C": 1, "Dpt": 26},
                       dict(sorted(led.multiplicities.items())), "paper")


def _check_consistency() -> CheckReport:
    computed = [[n, sod.conjecture_consistency(n).holds]
                for n in range(5, 16, 2)]
    expected = [[n, True] for n in range(5, 16, 2)]
    return make_report("sod/conjecture-consistency-odd-5-15",
                       {"n": "odd in [5, 15]"}, expected, computed, "derived")


def _check_clifford_reduction() -> CheckReport:
    failures = []
    for n in range(5, 16, 2):
        led = sod.clifford_conjecture_ledger(n)
        led = sod.substitute(led, "DCl0", SodLedger({"DC": 1}))
        led = sod.substitute(led, "DS", SodLedger({"Dpt": 2}))
        if led != sod.ogr_pencil_conjecture_ledger(n):
            failures.append(n)
    return make_report("sod/clifford-reduces-to-pencil",
                       {"n": "odd in [5, 15]"}, [], failures, "derived")


def _check_cross_module_hh0() -> CheckReport:
    n = 5
    g = (n + 1) // 2
    assignment = {
        "Dpt": 1,
        "DC": hodge.hh0(varieties.curve(g)),
        "DSym2C": hodge.hh0(hodge.sym2(varieties.curve(g))),
    }
    via_ledger = sod.additive_invariant(sod.hilb2_two_quadrics_ledger(n),
                                        assignment)
    via_hodge = hodge.hh0(hodge.hilbert_square(
        varieties.intersection_of_two_quadrics(n)))
    return make_report("sod/hh0-cross-module-n5", {"n": n, "genus": g},
                       [54, 54], [via_ledger, via_hodge], "derived")


def _check_codim_grid(family: Family) -> CheckReport:
    _, total, failures = _codim_grid(family)
    symbolic = _symbolic_failures(family)
    provenance = "paper" if family is Family.GR25_SECTION else "derived"
    return make_report(f"fano/codim-grid-{family.value}",
                       {"cells": total}, [[], []], [failures, symbolic],
                       provenance)


def _check_gr25_table() -> CheckReport:
    expected = [[2, 0, None, None, None], [3, 2, None, None, None],
                [4, 4, 1, 0, None], [5, 6, 4, 3, 0], [6, 8, 7, 6, 4]]
    computed = []
    for n in range(2, 7):
        row = fano.gr25_dim_row(n)
        computed.append([row.n, row.f1, row.f2_sigma, row.f2_tau, row.f3])
    return make_report("fano/gr25-dimension-table", {"n": "[2, 6]"},
                       expected, computed, "paper")


def _check_line_splittings() -> CheckReport:
    failures = []
    for n in range(2, 31):
        types = fano.enumerate_line_splittings(n)
        want = ([tuple(sorted((-1,) + (1,) * (n - 2)))] if n == 2 else
                sorted([tuple(sorted((0, 0) + (1,) * (n - 3))),
                        tuple(sorted((-1,) + (1,) * (n - 2)))]))
        if types != want:
            failures.append(["types", n])
        if any(len(t) != n - 1 or sum(t) != n - 3 for t in types):
            failures.append(["shape", n])
    for n in range(2, 10):
        if fano.enumerate_line_splittings(n) != fano.brute_force_line_splittings(n):
            failures.append(["oracle", n])
    return make_report("fano/line-splittings",
                       {"n": "[2, 30]", "oracle_n": "[2, 9]"},
                       [], failures, "paper")


def _check_hilb2_normal() -> CheckReport:
    failures = []
    for n in range(2, 31):
        try:
            fano.hilb2_normal_restriction(n)
        except ArithmeticError:
            failures.append(n)
    return make_report("fano/hilb2-normal-restriction", {"n": "[2, 30]"},
                       [], failures, "paper")


def _check_taut_splitting() -> CheckReport:
    failures = []
    for d in (-1, 0, 1):
        report = fano.verify_taut_splitting(d, range(-5, 6))
        failures.extend([d, row.twist] for row in report.rows if not row.passed)
    return make_report("fano/taut-splitting",
                       {"d": [-1, 0, 1], "twists": "[-5, 5]"},
                       [], failures, "paper")


def _check_sod_counts_cubic() -> CheckReport:
    failures = []
    for k in range(0, 4):
        for n in range(k if k > 0 else 1, 11):
            counts = fano.sod_counts(Family.CUBIC, n, k)
            traded = sod.substitute(counts.flip_form, "D_PQ",
                                    SodLedger({f"D_F{k}": n - k + 2}))
            if traded != counts.expanded_form:
                failures.append([n, k, "substitution"])
            diff = counts.expanded_form.total() - counts.flip_form.total()
            if diff != (n - k + 2) - 1:
                failures.append([n, k, "total"])
    return make_report("fano/sod-counts-cubic-two-forms",
                       {"k": "[0, 3]", "n": "[k, 10]"}, [], failures, "paper")


def _check_flip_shapes() -> CheckReport:
    failures = []
    for family in (Family.CUBIC, Family.TWO_QUADRICS):
        for k in range(0, GRID_K_MAX + 1):
            for n in range(max(k, 1), GRID_N_MAX + 1):
                for shape in fano.flip_shapes(family, n, k):
                    if not shape.is_degenerate() and shape.r < shape.s:
                        failures.append([family.value, n, k])
    for n, k in _GR25_CODIM_DOMAIN:
        for shape in fano.flip_shapes(Family.GR25_SECTION, n, k):
            if not shape.is_degenerate() and shape.r < shape.s:
                failures.append(["gr25", n, k])
    return make_report("fano/flip-shape-r-ge-s", {}, [], failures, "derived")


def _check_degree_table() -> CheckReport:
    expected = ["cubic hypersurface in P^{n+1}",
                "linear section of Gr(2,5) in P^9 via the Pluecker embedding, "
                "with 2 <= dim X <= 6",
                "P^2"]
    computed = [fano.degree_classification(d).description for d in (3, 5, 9)]
    return make_report("fano/degree-classification", {"d": [3, 5, 9]},
                       expected, computed, "paper")


def _blowup_expansion(x, z, c):
    """[Bl_Z X] for codim c >= 1; a codim-1 center leaves the class alone."""
    return x if c == 1 else motive.blowup_class(x, z, c)


def _check_flip_derivation() -> CheckReport:
    X, Xp, F = (motive.atom(a) for a in ("X", "Xp", "F"))
    failures = []
    for r in range(6):
        for s in range(6):
            left = _blowup_expansion(X, F * motive.class_of_pn(r), s + 1)
            right = _blowup_expansion(Xp, F * motive.class_of_pn(s), r + 1)
            if left - right != (X - Xp) - motive.flip_difference(F, r, s):
                failures.append([r, s])
    return make_report("motive/flip-derivation", {"r,s": "[0, 5]^2"},
                       [], failures, "derived")


def _check_flop_zero() -> CheckReport:
    F = motive.atom("F")
    computed = [motive.flip_difference(F, r, r).is_zero() for r in range(6)]
    return make_report("motive/flop-difference-zero", {"r": "[0, 5]"},
                       [True] * 6, computed, "trivial")


def _check_hilb2_class() -> CheckReport:
    p1 = motive.class_of_pn(1)
    p2 = motive.class_of_pn(2)
    got_p1 = motive.hilbert_square_class(p1, 1) == p2
    coeffs = motive.hilbert_square_class(p2, 2).l_coefficients()
    return make_report("motive/hilbert-square-classes",
                       {"inputs": ["[P^1]", "[P^2]"]},
                       [True, [1, 2, 3, 2, 1]], [got_p1, coeffs], "derived")


def _check_euler_specialization() -> CheckReport:
    qds = varieties.builtin("quartic-double-solid")
    e = hodge.euler(qds)
    cls = motive.hilbert_square_class(motive.atom("X"), 3)
    via_motive = cls.specialize({"X": e, "Sym2_X": e * (e + 1) // 2})
    via_hodge = hodge.euler(hodge.hilbert_square(qds))
    return make_report("motive/euler-specialization-quartic-double-solid",
                       {"e(X)": e}, [88, 88], [via_motive, via_hodge],
                       "derived")


def _check_round_trip() -> CheckReport:
    import random  # only this check needs it; keeps it out of start-up

    rng = random.Random(20240815)
    failures = []
    for i in range(200):
        value = random_value(rng)
        text = dsl.print_canonical(value)
        back = dsl.evaluate(dsl.parse(text))
        if back != value:
            failures.append(i)
    return make_report("dsl/round-trip-sample", {"count": 200},
                       [], failures, "derived")


ALL_CHECKS = [
    _check_qds_column,
    _check_qds_hh0,
    _check_f1_hh0,
    _check_degree2_hilb2_hh0,
    _check_euler_identity,
    lambda: _check_obstruction("quartic-double-solid"),
    _check_degree2_count,
    lambda: _check_obstruction("degree2-del-pezzo-surface"),
    _check_hilb2_ledger_n5,
    _check_consistency,
    _check_clifford_reduction,
    _check_cross_module_hh0,
    lambda: _check_codim_grid(Family.CUBIC),
    lambda: _check_codim_grid(Family.TWO_QUADRICS),
    lambda: _check_codim_grid(Family.GR25_SECTION),
    _check_gr25_table,
    _check_line_splittings,
    _check_hilb2_normal,
    _check_taut_splitting,
    _check_sod_counts_cubic,
    _check_flip_shapes,
    _check_degree_table,
    _check_flip_derivation,
    _check_flop_zero,
    _check_hilb2_class,
    _check_euler_specialization,
    _check_round_trip,
]


def run_all_checks() -> list[CheckReport]:
    return [check() for check in ALL_CHECKS]


def cmd_verify_all(args) -> int:
    reports = run_all_checks()
    if args.json:
        print(json.dumps([r._asdict() for r in reports], sort_keys=True,
                         indent=2))
    else:
        for r in reports:
            if r.passed:
                print(f"PASS {r.name}")
            else:
                print(f"FAIL {r.name} expected={r.expected!r} "
                      f"computed={r.computed!r}")
        passed = sum(r.passed for r in reports)
        print(f"{passed}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 1


# -- random value generator (round-trip checks) ---------------------------------

_ATOM_POOL = ["C", "F", "X", "Y2", "Sym2_C", "a_1"]
_LEDGER_POOL = ["DC", "DSym2C", "Dpt", "DCl0", "DS", "D_F1"]


def random_motive(rng: random.Random) -> MotiveExpr:
    expr = MotiveExpr()
    for _ in range(rng.randint(0, 6)):
        coeff = rng.choice([c for c in range(-9, 10) if c])
        lp = rng.randint(0, 5)
        mono = tuple(rng.choice(_ATOM_POOL)
                     for _ in range(rng.randint(0, 3)))
        term = MotiveExpr.const(coeff) * MotiveExpr.lefschetz(lp)
        for name in mono:
            term = term * MotiveExpr.atom(name)
        expr = expr + term
    return expr


def random_ledger(rng: random.Random) -> SodLedger:
    names = rng.sample(_LEDGER_POOL, rng.randint(0, len(_LEDGER_POOL)))
    return SodLedger({name: rng.randint(1, 99) for name in names})


def random_rule(rng: random.Random) -> RewriteRule:
    kind = rng.choice(["atom", "sym2", "tensor"])
    if kind == "tensor":
        args = (rng.choice(_LEDGER_POOL), rng.choice(_LEDGER_POOL))
    else:
        args = (rng.choice(_LEDGER_POOL),)
    rhs = random_ledger(rng)
    return RewriteRule(kind, args, rhs)


def random_value(rng: random.Random):
    pick = rng.random()
    if pick < 0.4:
        return random_motive(rng)
    if pick < 0.8:
        return random_ledger(rng)
    return random_rule(rng)


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipcheck",
        description="Exact checks for Hilbert-square flip arithmetic: Hodge "
                    "diamonds, Grothendieck-ring classes and "
                    "semiorthogonal-decomposition ledgers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hodge_p = sub.add_parser("hodge", help="Hodge diamond computations")
    hodge_p.add_argument("hodge_op", choices=["hilb2", "sym2", "hh0"])
    source = hodge_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", help="name of a built-in diamond")
    source.add_argument("--diamond", help="path to a diamond JSON file")
    hodge_p.add_argument("--column", action="store_true",
                         help="print the diagonal h^{p,p} column")
    hodge_p.add_argument("--json", action="store_true")
    hodge_p.set_defaults(func=cmd_hodge)

    fano_p = sub.add_parser("fano", help="del Pezzo family bookkeeping")
    fano_p.add_argument("fano_op",
                        choices=["dims", "codim", "splittings", "sodcounts"])
    fano_p.add_argument("--family",
                        choices=[f.value for f in Family])
    fano_p.add_argument("--n", type=int, default=3, help="dim X")
    fano_p.add_argument("--k", type=int, default=None,
                        help="quadric or plane dimension")
    fano_p.add_argument("--grid", action="store_true",
                        help="verify the whole (n, k) grid")
    fano_p.add_argument("--json", action="store_true")
    fano_p.set_defaults(func=cmd_fano)

    sod_p = sub.add_parser("sod", help="decomposition ledger checks")
    sod_sub = sod_p.add_subparsers(dest="sod_op", required=True)
    check_p = sod_sub.add_parser("check", help="run a .sod script")
    check_p.add_argument("file")
    check_p.add_argument("--json", action="store_true")
    cons_p = sod_sub.add_parser("conjecture-consistency")
    cons_p.add_argument("--n-odd-max", type=int, default=15)
    cons_p.add_argument("--json", action="store_true")
    obs_p = sod_sub.add_parser("obstruction")
    obs_p.add_argument("--builtin", required=True)
    obs_p.add_argument("--json", action="store_true")
    sod_p.set_defaults(func=cmd_sod)

    motive_p = sub.add_parser("motive", help="motive expression scripts")
    motive_p.add_argument("motive_op", choices=["eval", "check"])
    motive_p.add_argument("file")
    motive_p.set_defaults(func=cmd_motive)

    verify_p = sub.add_parser("verify-all", help="run the golden check suite")
    verify_p.add_argument("--json", action="store_true")
    verify_p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
