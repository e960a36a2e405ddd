"""Answers the benchmark checks flipcheck's output against.

Nothing here imports flipcheck.  Values come from the paper (the golden
numbers), from closed-form identities, or from a small polynomial algebra
written for the benchmark alone.  Each ``check_*`` function takes what an
operation produced and returns ``None`` when it is right, or a one-line
reason when it is wrong.
"""

from __future__ import annotations

import json
from math import comb

# -- the paper's numbers ---------------------------------------------------------

QDS_HILB2_COLUMN = [1, 2, 4, 104, 4, 2, 1]
QDS_HILB2_HH0 = 118
F1_HH0 = 222
DEGREE2_HILB2_COUNT = 65
DEGREE2_LINES = 56
HILB2_LEDGER_N5 = {"DC": 8, "DSym2C": 1, "Dpt": 26}

GOLDEN_CHECKS = [
    "hodge/hilb2-quartic-double-solid-column",
    "hodge/hilb2-quartic-double-solid-hh0",
    "hodge/f1-surface-hh0",
    "hodge/degree2-surface-hilb2-hh0",
    "hodge/euler-identity-hilbert-square",
    "sod/obstruction-quartic-double-solid",
    "sod/degree2-surface-sym2-count",
    "sod/degree2-surface-obstruction",
    "sod/hilb2-ledger-n5",
    "sod/conjecture-consistency-odd-5-15",
    "sod/clifford-reduces-to-pencil",
    "sod/hh0-cross-module-n5",
    "fano/codim-grid-cubic",
    "fano/codim-grid-two-quadrics",
    "fano/codim-grid-gr25",
    "fano/gr25-dimension-table",
    "fano/line-splittings",
    "fano/hilb2-normal-restriction",
    "fano/taut-splitting",
    "fano/sod-counts-cubic-two-forms",
    "fano/flip-shape-r-ge-s",
    "fano/degree-classification",
    "motive/flip-derivation",
    "motive/flop-difference-zero",
    "motive/hilbert-square-classes",
    "motive/euler-specialization-quartic-double-solid",
    "dsl/round-trip-sample",
]


def two_quadrics_hilb2_ledger(n: int) -> dict[str, int]:
    """Ledger of X^[2] for the intersection of two quadrics of odd
    dimension n: Sym^2 of <DC, (n-1) Dpt> plus n-2 copies of each part."""
    points = n - 1
    return {"DC": 1 + points + (n - 2),
            "DSym2C": 1,
            "Dpt": 2 * points + comb(points, 2) + (n - 2) * points}


# -- a polynomial algebra over L and atoms ------------------------------------------
#
# A polynomial is a dict {(power of L, sorted tuple of atoms): coefficient}
# with no zero coefficients.


def padd(acc: dict, other: dict, scale: int = 1) -> dict:
    """Add ``scale * other`` into ``acc`` in place and return ``acc``."""
    for key, c in other.items():
        v = acc.get(key, 0) + scale * c
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return acc


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (l1, m1), c1 in a.items():
        for (l2, m2), c2 in b.items():
            key = (l1 + l2, tuple(sorted(m1 + m2)))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def in_sym2_fragment(a: dict) -> bool:
    return all(c > 0 and len(m) <= 1 for (_, m), c in a.items())


def psym2(a: dict) -> dict:
    """Symmetric square of a sum of terms c * L^i * g, with g one atom or 1:
    c copies of L^i g give c L^{2i} Sym2_g plus C(c, 2) L^{2i} g^2, and
    two different terms give their product."""
    if not in_sym2_fragment(a):
        raise ValueError("argument outside the Sym2 fragment")
    items = sorted(a.items())
    out: dict = {}
    for i, ((lp, mono), c) in enumerate(items):
        if mono:
            padd(out, {(2 * lp, ("Sym2_" + mono[0],)): c})
            padd(out, {(2 * lp, mono + mono): comb(c, 2)})
        else:
            padd(out, {(2 * lp, ()): comb(c + 1, 2)})
        for (lp2, mono2), c2 in items[i + 1:]:
            padd(out, {(lp + lp2, tuple(sorted(mono + mono2))): c * c2})
    return out


def pn(n: int) -> dict:
    """[P^n] = 1 + L + ... + L^n."""
    return {(i, ()): 1 for i in range(n + 1)}


def specialize(terms, values: dict, l_value: int) -> int:
    """Evaluate a polynomial given as ((L power, atoms), coefficient) pairs."""
    total = 0
    for (lp, mono), c in terms:
        v = c * l_value ** lp
        for name in mono:
            v *= values[name]
        total += v
    return total


def monomial_text(lp: int, mono: tuple, magnitude: int) -> str:
    pieces = []
    if magnitude != 1 or (lp == 0 and not mono):
        pieces.append(str(magnitude))
    if lp == 1:
        pieces.append("L")
    elif lp > 1:
        pieces.append(f"L^{lp}")
    pieces.extend(mono)
    return "*".join(pieces)


def to_text(a: dict) -> str:
    """Write a polynomial in the expression grammar (no unary minus)."""
    if not a:
        return "0"
    out = []
    for i, ((lp, mono), c) in enumerate(sorted(a.items())):
        text = monomial_text(lp, mono, abs(c))
        if i == 0:
            out.append(text if c > 0 else f"0 - {text}")
        else:
            out.append(("+ " if c > 0 else "- ") + text)
    return " ".join(out)


def parse_sum(text: str) -> dict:
    """Read a printed polynomial: monomials joined by ' + ' and ' - ', each
    an optional integer, an optional L or L^k and atoms, joined by '*'."""
    words = text.split()
    out: dict = {}
    sign = 1
    expect_term = True
    for word in words:
        if not expect_term:
            if word not in ("+", "-"):
                raise ValueError(f"expected + or -, found {word!r}")
            sign = 1 if word == "+" else -1
            expect_term = True
            continue
        coeff, lp, atoms = sign, 0, []
        for piece in word.split("*"):
            if piece.isdigit():
                coeff *= int(piece)
            elif piece == "L":
                lp += 1
            elif piece.startswith("L^") and piece[2:].isdigit():
                lp += int(piece[2:])
            elif piece and (piece[0].isalpha()):
                atoms.append(piece)
            else:
                raise ValueError(f"bad monomial {word!r}")
        padd(out, {(lp, tuple(sorted(atoms))): coeff})
        expect_term = False
    if expect_term:
        raise ValueError("printed value ends with an operator")
    return out


def parse_ledger(text: str) -> dict[str, int]:
    """Read '{A:1, B:2}' into a dict."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a ledger: {text!r}")
    out: dict[str, int] = {}
    for item in filter(None, (s.strip() for s in text[1:-1].split(","))):
        name, _, count = item.partition(":")
        out[name.strip()] = int(count)
    return out


# -- diamonds and ledgers as plain data -------------------------------------------


def euler(entries: dict) -> int:
    return sum(v if (p + q) % 2 == 0 else -v for (p, q), v in entries.items())


def parity_totals(entries: dict) -> tuple[int, int]:
    even = sum(v for (p, q), v in entries.items() if (p + q) % 2 == 0)
    odd = sum(v for (p, q), v in entries.items() if (p + q) % 2 == 1)
    return even, odd


# -- output checks -------------------------------------------------------------------


def _lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.strip()]


def _want_rc(rc: int, want: int) -> str | None:
    return None if rc == want else f"exit code {rc}, expected {want}"


def check_verify_all(rc: int, stdout: str) -> str | None:
    lines = _lines(stdout)
    total = len(GOLDEN_CHECKS)
    if not lines or lines[-1] != f"{total}/{total} checks passed":
        return "summary line is not '27/27 checks passed'"
    passed = [line[5:] for line in lines[:-1] if line.startswith("PASS ")]
    if sorted(passed) != sorted(GOLDEN_CHECKS) or len(lines) != total + 1:
        return "PASS lines do not name the 27 golden checks"
    return _want_rc(rc, 0)


def check_verify_all_json(rc: int, stdout: str) -> str | None:
    try:
        reports = {r["name"]: r for r in json.loads(stdout)}
    except (ValueError, KeyError, TypeError) as exc:
        return f"verify-all --json output unreadable: {exc}"
    if sorted(reports) != sorted(GOLDEN_CHECKS):
        return "report names differ from the 27 golden checks"
    if not all(r.get("passed") is True for r in reports.values()):
        return "a golden check did not pass"
    computed = {name: r.get("computed") for name, r in reports.items()}
    want = {
        "hodge/hilb2-quartic-double-solid-column": QDS_HILB2_COLUMN,
        "hodge/hilb2-quartic-double-solid-hh0": QDS_HILB2_HH0,
        "hodge/f1-surface-hh0": F1_HH0,
        "hodge/degree2-surface-hilb2-hh0": DEGREE2_HILB2_COUNT,
        "sod/degree2-surface-sym2-count": DEGREE2_HILB2_COUNT,
        "sod/hilb2-ledger-n5": HILB2_LEDGER_N5,
        "sod/obstruction-quartic-double-solid": "OBSTRUCTED",
        "sod/degree2-surface-obstruction": "INCONCLUSIVE",
    }
    for name, value in want.items():
        if computed[name] != value:
            return f"{name} computed {computed[name]!r}, paper says {value!r}"
    inputs = reports["sod/obstruction-quartic-double-solid"].get("inputs")
    if inputs != {"candidate_hh0": F1_HH0, "ambient_hh0": QDS_HILB2_HH0}:
        return "obstruction inputs are not 222 > 118"
    return _want_rc(rc, 0)


def check_hilb2_column(rc: int, stdout: str) -> str | None:
    if stdout.split() != [str(v) for v in QDS_HILB2_COLUMN]:
        return f"column {stdout.strip()!r}, expected 1 2 4 104 4 2 1"
    return _want_rc(rc, 0)


def check_f1_hh0(rc: int, stdout: str) -> str | None:
    if stdout.split() != [str(F1_HH0)]:
        return f"hh0 {stdout.strip()!r}, expected 222"
    return _want_rc(rc, 0)


def check_obstruction(rc: int, stdout: str) -> str | None:
    if stdout.split() != ["OBSTRUCTED", f"({F1_HH0}", ">", f"{QDS_HILB2_HH0})"]:
        return f"obstruction line {stdout.strip()!r}, expected 222 > 118"
    return _want_rc(rc, 0)


def check_consistency(rc: int, stdout: str) -> str | None:
    lines = _lines(stdout)
    if len(lines) != 7 or not lines[0].startswith("SKIP n=3"):
        return "expected SKIP n=3 and six PASS lines"
    for line, n in zip(lines[1:], range(5, 16, 2)):
        head, _, ledger = line.partition(": ")
        if head != f"PASS n={n}":
            return f"line {line!r} is not PASS n={n}"
        try:
            got = parse_ledger(ledger)
        except ValueError as exc:
            return str(exc)
        if got != two_quadrics_hilb2_ledger(n):
            return f"n={n}: ledger {got}, expected {two_quadrics_hilb2_ledger(n)}"
    return _want_rc(rc, 0)


CODIM_GRID_LINES = [
    "cubic: 196/196 identity cells pass",
    "cubic: symbolic identity in n: pass",
    "two-quadrics: 196/196 identity cells pass",
    "two-quadrics: symbolic identity in n: pass",
    "gr25: 8/8 identity cells pass",
]


def check_codim_grid(rc: int, stdout: str) -> str | None:
    if _lines(stdout) != CODIM_GRID_LINES:
        return "codimension grid lines differ"
    return _want_rc(rc, 0)


def check_motive_check(rc: int, stdout: str, expected: list) -> str | None:
    """Verdict lines of ``motive check``: PASS for a statement that is 0,
    FAIL with its value otherwise, in statement order."""
    lines = _lines(stdout)
    if len(lines) != len(expected):
        return f"{len(lines)} verdict lines for {len(expected)} statements"
    for i, (line, want) in enumerate(zip(lines, expected), start=1):
        verdict = "FAIL" if want else "PASS"
        if not line.startswith(verdict + " "):
            return f"statement {i}: {line[:60]!r}, expected {verdict}"
        try:
            got = parse_sum(line.rsplit(": ", 1)[-1])
        except ValueError as exc:
            return f"statement {i}: {exc}"
        if got != want:
            return f"statement {i}: printed value differs"
    return _want_rc(rc, 1 if any(expected) else 0)


def check_motive_eval(rc: int, stdout: str, expected: list) -> str | None:
    lines = _lines(stdout)
    if len(lines) != len(expected):
        return f"{len(lines)} values for {len(expected)} statements"
    for i, (line, want) in enumerate(zip(lines, expected), start=1):
        try:
            got = parse_sum(line)
        except ValueError as exc:
            return f"statement {i}: {exc}"
        if got != want:
            return f"statement {i}: value differs"
    return _want_rc(rc, 0)


def check_sod_check(rc: int, stdout: str, ambient: int,
                    candidate: int) -> str | None:
    verdict = "OBSTRUCTED" if candidate > ambient else "INCONCLUSIVE"
    want = [f"ambient hh0 = {ambient}", f"candidate hh0 = {candidate}",
            f"{ambient} vs {candidate} {verdict}"]
    if _lines(stdout) != want:
        return f"sod check printed {_lines(stdout)[:3]!r}, expected {want!r}"
    return _want_rc(rc, 0)
