"""Command-line surface.

Every number the package is built to reproduce is available as a named,
exit-code-bearing check: ``flipcheck verify-all`` runs the whole golden
suite.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage, parse or
validation error, 141 stdout closed early.  Output is deterministic (sorted
keys, no timestamps, no color), so identical invocations give identical bytes.

A process loads only what its command runs: commands and golden checks
reach each submodule as ``fc.<module>``, which the package imports on
first access, and ``argparse`` is imported only for help and usage
errors, which ``_read_argv`` leaves to it.
"""

import sys
from collections import namedtuple
from types import SimpleNamespace

import flipcheck as fc


# provenance is "paper", "derived" or "trivial"
CheckReport = namedtuple(
    "CheckReport", "name inputs expected computed passed provenance")


def make_report(name: str, inputs: dict, expected, computed,
                provenance: str) -> CheckReport:
    return CheckReport(name, inputs, expected, computed,
                       expected == computed, provenance)


# -- diamond loading ----------------------------------------------------------


def _load_diamond(args) -> "fc.hodge.HodgeDiamond":
    if args.builtin is not None:
        try:
            return fc.varieties.builtin(args.builtin)
        except KeyError:
            raise ValueError(
                f"unknown builtin {args.builtin!r}; known: "
                + ", ".join(fc.varieties.builtin_names())
            )
    import json  # only --diamond input needs it; keeps it out of start-up

    with open(args.diamond, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise ValueError("diamond JSON is nested too deeply") from None
    return fc.hodge.HodgeDiamond.from_json_dict(data).validate()


def _dumps(value, **options) -> str:
    import json  # only --json output needs it; keeps it out of start-up
    return json.dumps(value, **options)


def _json_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise ValueError(f"diamond JSON integer too long "
                         f"({len(text.lstrip('-'))} digits)") from None


# -- hodge subcommand ----------------------------------------------------------


FULL_VIEW_MAX_DIM = 1000  # of the result; the view is quadratic in it


def cmd_hodge(args):
    d = _load_diamond(args)
    if args.builtin in fc.varieties.DIAGONAL_ONLY and args.hodge_op != "hh0":
        raise ValueError(f"builtin {args.builtin!r} tabulates only the "
                         f"diagonal h^(p,p), so only hh0 is defined on it")
    if args.hodge_op == "hh0":
        value = fc.hodge.hh0(d)
        return 0, lambda: [_dumps({"hh0": value}) if args.json
                           else str(value)]
    if not (args.json or args.column) and 2 * d.dim > FULL_VIEW_MAX_DIM:
        raise ValueError(f"the full view of a diamond of dimension "
                         f"{2 * d.dim} exceeds {FULL_VIEW_MAX_DIM}; "
                         f"use --column or --json")
    d = (fc.hodge.hilbert_square(d) if args.hodge_op == "hilb2"
         else fc.hodge.sym2(d))
    if args.json:
        return 0, lambda: [_dumps(d.to_json_dict(), sort_keys=True,
                                  indent=2)]
    if args.column:
        return 0, lambda: [" ".join(str(v) for v in fc.hodge.diagonal(d))]
    return 0, lambda: [fc.hodge.format_diamond(d)]


# -- fano subcommand -----------------------------------------------------------

GRID_K_MAX = 6
GRID_N_MAX = 30


def _grid(family: "fc.fano.Family") -> list[tuple[int, int]]:
    """The (n, k) cells of the verification grid, k-major.  The two
    hypersurface families start at (0, 0), a cell only the codimension
    identities evaluate."""
    if family is fc.fano.Family.GR25_SECTION:
        return [(n, 0) for n in range(2, 7)] + [(n, 1) for n in (4, 5, 6)]
    return [(n, k) for k in range(GRID_K_MAX + 1)
            for n in range(k, GRID_N_MAX + 1)]


def _codim_grid(family: "fc.fano.Family") -> dict:
    """The verification grid's passed and total cells, its failed cells,
    and the k whose identity in n fails (none for the table-driven gr25)."""
    domain = _grid(family)
    failures = [[family.value, n, k] for n, k in domain
                if not fc.fano.verify_codim_identity(family, n, k).passed]
    symbolic = [k for k in range(GRID_K_MAX + 1)
                if family is not fc.fano.Family.GR25_SECTION
                and not fc.fano.verify_codim_identity_symbolic(family, k)]
    return {"family": family.value, "passed": len(domain) - len(failures),
            "total": len(domain), "failures": failures,
            "symbolic_failures": symbolic}


def cmd_fano(args):
    if args.fano_op == "dims":
        return _fano_dims(args)
    if args.fano_op == "codim":
        return _fano_codim(args)
    if args.fano_op == "splittings":
        types = fc.fano.enumerate_line_splittings(args.n)
        if args.json:
            return 0, lambda: [_dumps({"n": args.n,
                                       "types": [list(t) for t in types]})]
        plural = "s" if len(types) != 1 else ""
        return 0, lambda: ([f"n={args.n}: {len(types)} splitting type{plural}"]
                           + [f"  {fc.fano.format_splitting(t)}"
                              for t in types])
    counts = fc.fano.sod_counts(_family(args), args.n, _plane_dim(args))
    forms = {"flip_form": counts.flip_form,
             "expanded_form": counts.expanded_form}
    forms = {name: form for name, form in forms.items() if form is not None}
    if args.json:
        return 0, lambda: [_dumps(
            {name: form.to_json_dict() for name, form in forms.items()},
            sort_keys=True, indent=2)]
    return 0, lambda: [f"{name.replace('_', ' ') + ':':<15}"
                       f"{fc.dsl.print_canonical(form)}"
                       for name, form in forms.items()]


def _family(args) -> "fc.fano.Family":
    if not args.family:
        raise ValueError("--family is required here")
    return fc.fano.parse_family(args.family)


def _plane_dim(args) -> int:
    if args.k is None:
        raise ValueError("--k (the plane dimension) is required for this family")
    return args.k


def _fano_dims(args):
    family = _family(args)
    if family is fc.fano.Family.GR25_SECTION:
        row = fc.fano.gr25_dim_row(args.n)
        if args.json:
            return 0, lambda: [_dumps(row._asdict(), sort_keys=True)]
        cells = [("dim F_1(X)", row.f1), ("dim F_2^sigma(X)", row.f2_sigma),
                 ("dim F_2^tau(X)", row.f2_tau), ("dim F_3(X)", row.f3)]
        return 0, lambda: [f"{label:<17}= {'empty' if value is None else value}"
                           for label, value in cells]
    fc.fano.check_cell(family, args.n, _plane_dim(args))
    dim = fc.fano.expected_dim_fano(family, args.n, args.k)
    if args.json:
        return 0, lambda: [_dumps(
            {"family": family.value, "n": args.n, "k_planes": args.k,
             "expected_dim": dim, "empty": dim < 0}, sort_keys=True)]
    note = "  (negative: empty)" if dim < 0 else ""
    return 0, lambda: [f"expected dim F_{args.k}(X) = {dim}{note}"]


def _fano_codim(args):
    if args.grid:
        families = ([fc.fano.parse_family(args.family)] if args.family
                    else list(fc.fano.Family))
        payload = [_codim_grid(family) for family in families]
        code = 1 if any(row["failures"] or row["symbolic_failures"]
                        for row in payload) else 0
        if args.json:
            return code, lambda: [_dumps(payload, sort_keys=True, indent=2)]

        def render():
            lines = []
            for row in payload:
                name, symbolic = row["family"], row["symbolic_failures"]
                lines.append(f"{name}: {row['passed']}/{row['total']} "
                             f"identity cells pass")
                if name != fc.fano.Family.GR25_SECTION.value:
                    word = "pass" if not symbolic else f"FAIL at k={symbolic}"
                    lines.append(f"{name}: symbolic identity in n: {word}")
            return lines
        return code, render
    family = _family(args)
    if args.k is None:
        raise ValueError("--k is required without --grid")
    if family is not fc.fano.Family.GR25_SECTION:  # gr25 checks its own cells
        fc.fano.check_cell(family, args.n, args.k)
    report = fc.fano.verify_codim_identity(family, args.n, args.k)
    code = 0 if report.passed else 1
    if args.json:
        return code, lambda: [_dumps(report.to_json_dict(),
                                     sort_keys=True, indent=2)]
    return code, lambda: [f"{'PASS' if check.passed else 'FAIL'} {check.name}: "
                          f"lhs={check.lhs} rhs={check.rhs}"
                          for check in report.checks]


# -- sod subcommand --------------------------------------------------------------


def _script_values(path: str, kinds: tuple, wrong_kind: str) -> list:
    """The values of the statements of the script at ``path``, each one of
    ``kinds``.  A decoding error names the file; a parse error also the line
    and column, and so does an evaluation error or a value of another kind
    (``wrong_kind`` its message), at the start of its statement."""
    try:
        # newline="": offsets index the file as written, as dsl counts lines
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
        values = []
        for node in fc.dsl.parse_script(text):
            try:
                value = fc.dsl.evaluate(node)
                if not isinstance(value, kinds):
                    raise ValueError(wrong_kind)
            except ValueError as exc:
                raise fc.dsl.ParseError(str(exc), text, node.span[0]) from None
            values.append(value)
        return values
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 at byte {exc.start}: "
                         f"{exc.reason}") from None
    except fc.dsl.ParseError as exc:
        raise ValueError(f"{path}:{exc.line}:{exc.column}: "
                         f"{exc.message}") from None


def _sod_check(args):
    table = fc.sod.default_rules()
    ledgers: list[fc.sod.SodLedger] = []
    values = _script_values(args.file, (fc.sod.RewriteRule, fc.sod.SodLedger),
                            "sod scripts may only contain rules and ledgers")
    for value in values:
        if isinstance(value, fc.sod.RewriteRule):
            table.add(value)
        else:
            ledgers.append(value)
    if len(ledgers) != 2:
        raise ValueError(f"expected exactly two ledgers (ambient then "
                         f"candidate), found {len(ledgers)}")
    ambient = table.normalize(ledgers[0])
    candidate = table.normalize(ledgers[1])
    ambient_hh0 = fc.sod.additive_invariant(ambient, {"Dpt": 1})
    candidate_hh0 = fc.sod.additive_invariant(candidate, {"Dpt": 1})
    verdict = fc.sod.embedding_obstruction(candidate_hh0, ambient_hh0)
    return 0, lambda: [
        _dumps({"ambient_hh0": ambient_hh0, "candidate_hh0": candidate_hh0,
                "verdict": verdict}, sort_keys=True)
        if args.json else
        f"ambient hh0 = {ambient_hh0}\ncandidate hh0 = {candidate_hh0}\n"
        f"{ambient_hh0} vs {candidate_hh0} {verdict}"]


CONSISTENCY_N_MAX = 1001  # each odd n walks a ledger of about n components


def _sod_consistency(args):
    n_max = args.n_odd_max
    if n_max < 3:
        raise ValueError(f"--n-odd-max must be at least 3, got {n_max}")
    if n_max > CONSISTENCY_N_MAX:
        raise ValueError(f"--n-odd-max must be at most {CONSISTENCY_N_MAX}, "
                         f"got {n_max}")
    results = [fc.sod.conjecture_consistency(n)
               for n in range(3, n_max + 1, 2)]
    code = 1 if any(r.in_stated_range and not r.holds for r in results) else 0
    if args.json:
        return code, lambda: [_dumps(
            [{"n": r.n, "holds": r.holds, "in_stated_range": r.in_stated_range}
             for r in results], sort_keys=True)]
    return code, lambda: [
        f"{'PASS' if r.holds else 'FAIL'} n={r.n}: "
        f"{fc.dsl.print_canonical(r.hilb2)}" if r.in_stated_range else
        f"SKIP n={r.n} (outside stated range; counts clamped)"
        for r in results]


# the paper's embedding-obstruction verdicts, keyed by the builtin whose
# Hilbert square is the ambient: golden check name, the candidate's hh0 or
# the builtin whose hh0 it is, the verdict the numbers are known to give
_OBSTRUCTION_SCENARIOS = {
    "quartic-double-solid": (
        "sod/obstruction-quartic-double-solid", "f1-quartic-double-solid",
        "OBSTRUCTED"),
    # 56 lines on a degree-2 del Pezzo surface vs the 65 exceptional
    # objects of the Hilbert square
    "degree2-del-pezzo-surface": (
        "sod/degree2-surface-obstruction", 56, "INCONCLUSIVE"),
}


def _check_obstruction(ambient_name: str) -> CheckReport:
    name, candidate, expected = _OBSTRUCTION_SCENARIOS[ambient_name]
    if isinstance(candidate, str):
        candidate = fc.hodge.hh0(fc.varieties.builtin(candidate))
    ambient = fc.hodge.hh0(fc.hodge.hilbert_square(
        fc.varieties.builtin(ambient_name)))
    verdict = fc.sod.embedding_obstruction(candidate, ambient)
    return make_report(name, {"candidate_hh0": candidate,
                              "ambient_hh0": ambient},
                       expected, verdict, "paper")


def _sod_obstruction(args):
    if args.builtin not in _OBSTRUCTION_SCENARIOS:
        raise ValueError(f"unknown obstruction scenario {args.builtin!r}; "
                         "known: " + ", ".join(sorted(_OBSTRUCTION_SCENARIOS)))
    report = _check_obstruction(args.builtin)
    code = 0 if report.passed else 1
    if args.json:
        return code, lambda: [_dumps(
            {**report.inputs, "verdict": report.computed}, sort_keys=True)]
    relation = ">" if report.computed == "OBSTRUCTED" else "<="
    return code, lambda: [f"{report.computed} "
                          f"({report.inputs['candidate_hh0']} {relation} "
                          f"{report.inputs['ambient_hh0']})"]


# -- motive subcommand -----------------------------------------------------------


def cmd_motive(args):
    values = _script_values(args.file, (fc.motive.MotiveExpr,),
                            "motive scripts may only contain expressions")
    if args.motive_op == "eval":
        return 0, lambda: [fc.dsl.print_canonical(value) for value in values]
    # check: every statement must vanish
    code = 0 if all(value.is_zero() for value in values) else 1
    return code, lambda: [f"PASS statement {i}: 0" if value.is_zero() else
                          f"FAIL statement {i}: "
                          f"{fc.dsl.print_canonical(value)}"
                          for i, value in enumerate(values, start=1)]


# -- the golden suite ------------------------------------------------------------


def _check_hodge(name: str, builtin: str, expected, measure) -> CheckReport:
    return make_report(f"hodge/{name}", {"builtin": builtin}, expected,
                       measure(fc.varieties.builtin(builtin)), "paper")


def _check_euler_identity() -> CheckReport:
    lhs, rhs = [], []
    names = ["quartic-double-solid", "degree2-del-pezzo-surface",
             "curve-g0", "curve-g2", "p3"]
    for name in names:
        d = fc.varieties.builtin(name)
        e = fc.hodge.euler(d)
        lhs.append(fc.hodge.euler(fc.hodge.hilbert_square(d)))
        rhs.append(e * (e + 1) // 2 + (d.dim - 1) * e)
    return make_report("hodge/euler-identity-hilbert-square",
                       {"builtins": names}, lhs, rhs, "derived")


def _check_degree2_count() -> CheckReport:
    total = fc.sod.sym2_ledger(["Dpt"] * 10).total()
    return make_report("sod/degree2-surface-sym2-count",
                       {"components": "10 exceptional objects"},
                       65, total, "paper")


def _check_hilb2_ledger_n5() -> CheckReport:
    led = fc.sod.hilb2_two_quadrics_ledger(5)
    return make_report("sod/hilb2-ledger-n5", {"n": 5},
                       {"DC": 8, "DSym2C": 1, "Dpt": 26},
                       dict(sorted(led.multiplicities.items())), "paper")


def _check_consistency() -> CheckReport:
    computed = [[n, fc.sod.conjecture_consistency(n).holds]
                for n in range(5, 16, 2)]
    expected = [[n, True] for n in range(5, 16, 2)]
    return make_report("sod/conjecture-consistency-odd-5-15",
                       {"n": "odd in [5, 15]"}, expected, computed, "derived")


def _check_clifford_reduction() -> CheckReport:
    failures = []
    for n in range(5, 16, 2):
        led = fc.sod.clifford_conjecture_ledger(n)
        led = fc.sod.substitute(led, "DCl0", fc.sod.SodLedger({"DC": 1}))
        led = fc.sod.substitute(led, "DS", fc.sod.SodLedger({"Dpt": 2}))
        if led != fc.sod.ogr_pencil_conjecture_ledger(n):
            failures.append(n)
    return make_report("sod/clifford-reduces-to-pencil",
                       {"n": "odd in [5, 15]"}, [], failures, "derived")


def _check_cross_module_hh0() -> CheckReport:
    n = 5
    g = (n + 1) // 2
    assignment = {
        "Dpt": 1,
        "DC": fc.hodge.hh0(fc.varieties.curve(g)),
        "DSym2C": fc.hodge.hh0(fc.hodge.sym2(fc.varieties.curve(g))),
    }
    via_ledger = fc.sod.additive_invariant(
        fc.sod.hilb2_two_quadrics_ledger(n), assignment)
    via_hodge = fc.hodge.hh0(fc.hodge.hilbert_square(
        fc.varieties.intersection_of_two_quadrics(n)))
    return make_report("sod/hh0-cross-module-n5", {"n": n, "genus": g},
                       [54, 54], [via_ledger, via_hodge], "derived")


def _check_codim_grid(family_name: str) -> CheckReport:
    family = fc.fano.Family(family_name)
    grid = _codim_grid(family)
    provenance = ("paper" if family is fc.fano.Family.GR25_SECTION
                  else "derived")
    return make_report(f"fano/codim-grid-{family.value}",
                       {"cells": grid["total"]}, [[], []],
                       [grid["failures"], grid["symbolic_failures"]],
                       provenance)


def _check_gr25_table() -> CheckReport:
    expected = [[2, 0, None, None, None], [3, 2, None, None, None],
                [4, 4, 1, 0, None], [5, 6, 4, 3, 0], [6, 8, 7, 6, 4]]
    computed = []
    for n in range(2, 7):
        row = fc.fano.gr25_dim_row(n)
        computed.append([row.n, row.f1, row.f2_sigma, row.f2_tau, row.f3])
    return make_report("fano/gr25-dimension-table", {"n": "[2, 6]"},
                       expected, computed, "paper")


def _check_line_splittings() -> CheckReport:
    failures = []
    for n in range(2, 31):
        types = fc.fano.enumerate_line_splittings(n)
        want = ([tuple(sorted((-1,) + (1,) * (n - 2)))] if n == 2 else
                sorted([tuple(sorted((0, 0) + (1,) * (n - 3))),
                        tuple(sorted((-1,) + (1,) * (n - 2)))]))
        if types != want:
            failures.append(["types", n])
        if any(len(t) != n - 1 or sum(t) != n - 3 for t in types):
            failures.append(["shape", n])
    for n in range(2, 10):
        if (fc.fano.enumerate_line_splittings(n)
                != fc.fano.brute_force_line_splittings(n)):
            failures.append(["oracle", n])
    return make_report("fano/line-splittings",
                       {"n": "[2, 30]", "oracle_n": "[2, 9]"},
                       [], failures, "paper")


def _check_hilb2_normal() -> CheckReport:
    failures = []
    for n in range(2, 31):
        try:
            fc.fano.hilb2_normal_restriction(n)
        except ArithmeticError:
            failures.append(n)
    return make_report("fano/hilb2-normal-restriction", {"n": "[2, 30]"},
                       [], failures, "paper")


def _check_taut_splitting() -> CheckReport:
    failures = []
    for d in (-1, 0, 1):
        rows = fc.fano.verify_taut_splitting(d, range(-5, 6))
        failures.extend([d, row.twist] for row in rows if not row.passed)
    return make_report("fano/taut-splitting",
                       {"d": [-1, 0, 1], "twists": "[-5, 5]"},
                       [], failures, "paper")


def _check_sod_counts_cubic() -> CheckReport:
    failures = []
    for k in range(0, 4):
        for n in range(k if k > 0 else 1, 11):
            counts = fc.fano.sod_counts(fc.fano.Family.CUBIC, n, k)
            traded = fc.sod.substitute(
                counts.flip_form, "D_PQ",
                fc.sod.SodLedger({f"D_F{k}": n - k + 2}))
            if traded != counts.expanded_form:
                failures.append([n, k, "substitution"])
            diff = counts.expanded_form.total() - counts.flip_form.total()
            if diff != (n - k + 2) - 1:
                failures.append([n, k, "total"])
    return make_report("fano/sod-counts-cubic-two-forms",
                       {"k": "[0, 3]", "n": "[k, 10]"}, [], failures, "paper")


def _check_flip_shapes() -> CheckReport:
    failures = []
    for family in fc.fano.Family:
        for n, k in _grid(family):
            if n == 0:  # flip shapes need dim X >= 1
                continue
            for shape in fc.fano.flip_shapes(family, n, k):
                if not shape.is_degenerate() and shape.r < shape.s:
                    failures.append([family.value, n, k])
    return make_report("fano/flip-shape-r-ge-s", {}, [], failures, "derived")


def _check_degree_table() -> CheckReport:
    expected = ["cubic hypersurface in P^{n+1}",
                "linear section of Gr(2,5) in P^9 via the Pluecker embedding, "
                "with 2 <= dim X <= 6",
                "P^2"]
    computed = [fc.fano.degree_classification(d) for d in (3, 5, 9)]
    return make_report("fano/degree-classification", {"d": [3, 5, 9]},
                       expected, computed, "paper")


def _check_flip_derivation() -> CheckReport:
    X, Xp, F = (fc.motive.MotiveExpr.atom(a) for a in ("X", "Xp", "F"))
    failures = []
    for r in range(6):
        for s in range(6):
            left = fc.motive.blowup_class(
                X, F * fc.motive.class_of_pn(r), s + 1)
            right = fc.motive.blowup_class(
                Xp, F * fc.motive.class_of_pn(s), r + 1)
            if left - right != (X - Xp) - fc.motive.flip_difference(F, r, s):
                failures.append([r, s])
    return make_report("motive/flip-derivation", {"r,s": "[0, 5]^2"},
                       [], failures, "derived")


def _check_flop_zero() -> CheckReport:
    F = fc.motive.MotiveExpr.atom("F")
    computed = [fc.motive.flip_difference(F, r, r).is_zero() for r in range(6)]
    return make_report("motive/flop-difference-zero", {"r": "[0, 5]"},
                       [True] * 6, computed, "trivial")


def _check_hilb2_class() -> CheckReport:
    p1 = fc.motive.class_of_pn(1)
    p2 = fc.motive.class_of_pn(2)
    got_p1 = fc.motive.hilbert_square_class(p1, 1) == p2
    coeffs = fc.motive.hilbert_square_class(p2, 2).l_coefficients()
    return make_report("motive/hilbert-square-classes",
                       {"inputs": ["[P^1]", "[P^2]"]},
                       [True, [1, 2, 3, 2, 1]], [got_p1, coeffs], "derived")


def _check_euler_specialization() -> CheckReport:
    qds = fc.varieties.builtin("quartic-double-solid")
    e = fc.hodge.euler(qds)
    cls = fc.motive.hilbert_square_class(fc.motive.MotiveExpr.atom("X"), 3)
    via_motive = cls.specialize({"X": e, "Sym2_X": e * (e + 1) // 2})
    via_hodge = fc.hodge.euler(fc.hodge.hilbert_square(qds))
    return make_report("motive/euler-specialization-quartic-double-solid",
                       {"e(X)": e}, [88, 88], [via_motive, via_hodge],
                       "derived")


def _check_round_trip() -> CheckReport:
    import random  # only this check needs it; keeps it out of start-up
    rng = random.Random(20240815)
    failures = []
    for i in range(200):
        value = random_value(rng)
        text = fc.dsl.print_canonical(value)
        back = fc.dsl.evaluate(fc.dsl.parse(text))
        if back != value:
            failures.append(i)
    return make_report("dsl/round-trip-sample", {"count": 200},
                       [], failures, "derived")


ALL_CHECKS = [
    lambda: _check_hodge("hilb2-quartic-double-solid-column",
                         "quartic-double-solid", [1, 2, 4, 104, 4, 2, 1],
                         lambda d: fc.hodge.diagonal(fc.hodge.hilbert_square(d))),
    lambda: _check_hodge("hilb2-quartic-double-solid-hh0", "quartic-double-solid",
                         118, lambda d: fc.hodge.hh0(fc.hodge.hilbert_square(d))),
    lambda: _check_hodge("f1-surface-hh0", "f1-quartic-double-solid", 222,
                         fc.hodge.hh0),
    lambda: _check_hodge("degree2-surface-hilb2-hh0", "degree2-del-pezzo-surface",
                         65, lambda d: fc.hodge.hh0(fc.hodge.hilbert_square(d))),
    _check_euler_identity,
    lambda: _check_obstruction("quartic-double-solid"),
    _check_degree2_count,
    lambda: _check_obstruction("degree2-del-pezzo-surface"),
    _check_hilb2_ledger_n5,
    _check_consistency,
    _check_clifford_reduction,
    _check_cross_module_hh0,
    lambda: _check_codim_grid("cubic"),
    lambda: _check_codim_grid("two-quadrics"),
    lambda: _check_codim_grid("gr25"),
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


def cmd_verify_all(args):
    reports = run_all_checks()
    passed = sum(r.passed for r in reports)
    code = 0 if passed == len(reports) else 1
    if args.json:
        return code, lambda: [_dumps([r._asdict() for r in reports],
                                     sort_keys=True, indent=2)]
    return code, lambda: [
        f"PASS {r.name}" if r.passed else
        f"FAIL {r.name} expected={r.expected!r} computed={r.computed!r}"
        for r in reports] + [f"{passed}/{len(reports)} checks passed"]


# -- random value generator (round-trip checks) ---------------------------------

_ATOM_POOL = ["C", "F", "X", "Y2", "Sym2_C", "a_1"]
_LEDGER_POOL = ["DC", "DSym2C", "Dpt", "DCl0", "DS", "D_F1"]


def random_motive(rng: "random.Random") -> "fc.motive.MotiveExpr":
    expr = fc.motive.MotiveExpr()
    for _ in range(rng.randint(0, 6)):
        coeff = rng.choice([c for c in range(-9, 10) if c])
        lp = rng.randint(0, 5)
        mono = tuple(rng.choice(_ATOM_POOL)
                     for _ in range(rng.randint(0, 3)))
        expr = expr + fc.motive.MotiveExpr(
            {(lp, tuple(sorted(mono))): coeff})
    return expr


def random_ledger(rng: "random.Random") -> "fc.sod.SodLedger":
    names = rng.sample(_LEDGER_POOL, rng.randint(0, len(_LEDGER_POOL)))
    return fc.sod.SodLedger({name: rng.randint(1, 99) for name in names})


def random_rule(rng: "random.Random") -> "fc.sod.RewriteRule":
    kind = rng.choice(["atom", "sym2", "tensor"])
    args = tuple(rng.choice(_LEDGER_POOL) for _ in range(1 + (kind == "tensor")))
    return fc.sod.RewriteRule(kind, args, random_ledger(rng))


def random_value(rng: "random.Random"):
    pick = rng.random()
    if pick < 0.4:
        return random_motive(rng)
    if pick < 0.8:
        return random_ledger(rng)
    return random_rule(rng)


# -- argument parsing ------------------------------------------------------------


_HODGE_OPS = ("hilb2", "sym2", "hh0")
_FANO_OPS = ("dims", "codim", "splittings", "sodcounts")
_MOTIVE_OPS = ("eval", "check")
# fano.Family's values, in order: reading them there would import fano and
# enum into every process, hodge commands included
_FAMILIES = ("cubic", "two-quadrics", "gr25")

# the command grammar, stated once: build_parser builds argparse's parser
# from it, and _read_argv reads the exactly valid forms by it.  Command
# words -> (handler, help, positionals as (dest, choices), options as
# {spelling: (default, type, help)}, and options of which exactly one is
# required).  An option's type is None for a flag, a tuple of choices or a
# conversion, and its dest is its spelling without the dashes, as argparse
# makes it.  A row without a handler is a group word: its subcommands follow.
_JSON = {"--json": (False, None, None)}
_FORMS = {
    ("hodge",): (cmd_hodge, "Hodge diamond computations",
                 [("hodge_op", _HODGE_OPS)], {
        "--builtin": (None, str, "name of a built-in diamond"),
        "--diamond": (None, str, "path to a diamond JSON file"),
        "--column": (False, None, "print the diagonal h^{p,p} column"),
        **_JSON}, ("--builtin", "--diamond")),
    ("fano",): (cmd_fano, "del Pezzo family bookkeeping",
                [("fano_op", _FANO_OPS)], {
        "--family": (None, _FAMILIES, None), "--n": (3, int, "dim X"),
        "--k": (None, int, "quadric or plane dimension"),
        "--grid": (False, None, "verify the whole (n, k) grid"), **_JSON}, ()),
    ("sod",): (None, "decomposition ledger checks", [], {}, ()),
    ("sod", "check"): (_sod_check, "run a .sod script", [("file", None)], _JSON, ()),
    ("sod", "conjecture-consistency"): (_sod_consistency, None, [], {
        "--n-odd-max": (15, int, None), **_JSON}, ()),
    ("sod", "obstruction"): (_sod_obstruction, None, [], {
        "--builtin": (None, str, None), **_JSON}, ("--builtin",)),
    ("motive",): (cmd_motive, "motive expression scripts",
                  [("motive_op", _MOTIVE_OPS), ("file", None)], {}, ()),
    ("verify-all",): (cmd_verify_all, "run the golden check suite", [],
                      _JSON, ()),
}


def build_parser() -> "argparse.ArgumentParser":
    import argparse  # help and usage errors only: _read_argv reads the rest

    class _Parser(argparse.ArgumentParser):
        # help at 78 columns on every terminal, argparse's width off one, so
        # argparse never imports shutil to ask a terminal for its size
        def _get_formatter(self):
            return self.formatter_class(prog=self.prog, width=78)

    parser = _Parser(
        prog="flipcheck",
        description="Exact checks for Hilbert-square flip arithmetic: Hodge "
                    "diamonds, Grothendieck-ring classes and "
                    "semiorthogonal-decomposition ledgers.",
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (func, help_, positionals, options, one_of) in _FORMS.items():
        # argparse lists a subcommand in its parent's help only if given help
        sub = subparsers[words[:-1]].add_parser(
            words[-1], **({"help": help_} if help_ else {}))
        if func is None:
            subparsers[words] = sub.add_subparsers(dest=f"{words[0]}_op",
                                                   required=True)
            continue
        sub.set_defaults(func=func)
        for dest, choices in positionals:
            sub.add_argument(dest, choices=choices)
        group = (sub.add_mutually_exclusive_group(required=True)
                 if len(one_of) > 1 else sub)
        for spelling, (default, kind, help_) in options.items():
            form = ({"action": "store_true"} if kind is None else
                    {"choices": kind} if isinstance(kind, tuple) else
                    {"type": kind})
            (group if spelling in one_of else sub).add_argument(
                spelling, default=default, help=help_,
                required=one_of == (spelling,), **form)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """``vars(build_parser().parse_args(argv))`` as a namespace, read
    without argparse; None unless ``argv`` is exactly valid: exact option
    spellings, each at most once, and no value or file name starting with
    ``-``.  Help, abbreviations, ``--opt=value`` and every error are left
    to argparse, so every byte of help and usage text stays argparse's."""
    words = tuple(argv[:1])
    if words in _FORMS and _FORMS[words][0] is None:  # a group word
        words = tuple(argv[:2])
    if words not in _FORMS or _FORMS[words][0] is None:
        return None
    func, _, positionals, options, one_of = _FORMS[words]
    args = {"command": words[0], "func": func}
    if len(words) == 2:
        args[f"{words[0]}_op"] = words[1]
    positionals, values, rest = list(positionals), {}, iter(argv[len(words):])
    for arg in rest:
        if not arg.startswith("-"):
            if not positionals:
                return None
            dest, choices = positionals.pop(0)
            if choices is not None and arg not in choices:
                return None
            args[dest] = arg
        elif arg in options and arg not in values:
            kind = options[arg][1]
            if kind is None:
                values[arg] = True
                continue
            value = next(rest, "-")
            if value.startswith("-"):
                return None
            if isinstance(kind, tuple):
                if value not in kind:
                    return None
                values[arg] = value
                continue
            try:
                values[arg] = kind(value)
            except ValueError:
                return None
        else:
            return None
    if positionals or (one_of and len(values.keys() & set(one_of)) != 1):
        return None
    args.update((spelling[2:].replace("-", "_"), values.get(spelling, default))
                for spelling, (default, _, _) in options.items())
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    """Run one command, which returns its exit code and ``render``, and print
    the lines ``render()`` builds: the only code that writes stdout.  Every
    error a command raises is a ``ValueError`` (``ParseError``, sod's typed
    errors, bad JSON or UTF-8, ...) or an ``OSError``; ``render`` raises one
    only for an int of over 4300 digits, which Python will not print.  Each
    ends here as one ``error:`` line, exit 2 and no output.  A reader that
    closes stdout early ends the output, with exit 141 and nothing on stderr."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        code, render = args.func(args)
        try:
            lines = render()
        except ValueError:
            raise ValueError("result holds an integer too long to print") from None
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:  # the rest goes to devnull, so exit flushes quietly
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports `yes | head -1`
    return code


if __name__ == "__main__":
    sys.exit(main())
