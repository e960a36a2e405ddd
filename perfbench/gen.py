"""Seeded inputs for the ``scripts`` and ``kernels`` workloads.

Every generator draws from a ``random.Random`` it is given, so one seed
always yields the same files and values.  Each script statement is built
together with its value, computed by the benchmark's own arithmetic in
:mod:`oracle`, so the expected output is known without running flipcheck.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import padd, pmul, pn, psym2, to_text

# Three sizes per script kind.  The largest are tens of KB, where today's
# front end is clearly superlinear; each still runs in about a second.
FLIP_BYTES = {"S": 3_000, "M": 10_000, "L": 30_000}
SUM_TERMS = {"S": 500, "M": 1_000, "L": 2_000}
SYM2_WIDTH = {"S": 12, "M": 24, "L": 48}
NESTED_DEGREE = {"S": 3, "M": 6, "L": 12}
SOD_RULES = {"S": 100, "M": 200, "L": 400}
# Copies of each size per cycle: small files are the common case.  Fifteen
# ops per cycle put the median 7.5 and the p90 1.5 ops from the top of a
# cycle, halfway into the samples of one file whatever the files cost, so
# neither quantile falls in the gap between two files' latencies.
COPIES = {"S": 3, "M": 1, "L": 1}


@dataclass(frozen=True)
class Script:
    """One generated file and the command that runs it.  ``expected`` is
    the list of statement values (``motive``) or the pair of hh0 values
    (``sod``)."""

    name: str
    command: tuple[str, ...]
    text: str
    expected: object


def _atoms(rng: random.Random, prefix: str, k: int) -> list[str]:
    return [f"{prefix}{i}" for i in rng.sample(range(10 * k + 10), k)]


def _fragment_class(rng: random.Random, atoms: list[str], terms: int) -> dict:
    """A sum of c * L^i * g with c > 0 and g one atom or 1."""
    x: dict = {}
    for _ in range(terms):
        mono = (rng.choice(atoms),) if atoms and rng.random() < 0.7 else ()
        padd(x, {(rng.randint(0, 3), mono): rng.randint(1, 3)})
    return x


def _pn_text(n: int) -> str:
    return "(" + to_text(pn(n)).replace(" ", "") + ")"


def _flip_statement(rng: random.Random) -> tuple[str, dict]:
    """(Bl X) - (Bl X') - ([X] - [X'] - [F]([P^r] - [P^s])), which is 0."""
    x, xp, f = (f"{p}{rng.randint(0, 99)}" for p in ("X", "Xp", "F"))
    r, s = rng.randint(0, 6), rng.randint(0, 6)
    pr, ps = pn(r), pn(s)
    text = (f"({x} + {f}*{_pn_text(r)}*({_pn_text(s)} - 1))"
            f" - ({xp} + {f}*{_pn_text(s)}*({_pn_text(r)} - 1))"
            f" - ({x} - {xp} - {f}*({_pn_text(r)} - {_pn_text(s)}))")
    one = {(0, ()): 1}
    fm = {(0, (f,)): 1}
    value = padd({(0, (x,)): 1}, pmul(fm, pmul(pr, padd(dict(ps), one, -1))))
    padd(value, {(0, (xp,)): 1}, -1)
    padd(value, pmul(fm, pmul(ps, padd(dict(pr), one, -1))), -1)
    padd(value, {(0, (x,)): 1, (0, (xp,)): -1}, -1)
    padd(value, pmul(fm, padd(dict(pr), ps, -1)))
    return text, value


def _hilb2_statement(rng: random.Random) -> tuple[str, dict]:
    """Sym2([X]) + ([P^{n-1}] - 1)[X] - (its expansion), which is 0."""
    atoms = [f"Y{rng.randint(0, 99)}" for _ in range(3)]
    x = _fragment_class(rng, atoms, rng.randint(1, 4))
    n = rng.randint(1, 4)
    twist = {(i, ()): 1 for i in range(1, n)}
    expansion = padd(psym2(x), pmul(twist, x))
    text = f"Sym2({to_text(x)})"
    if twist:
        text += f" + ({to_text(twist)})*({to_text(x)})"
    return f"{text} - ({to_text(expansion)})", {}


def flips_script(rng: random.Random, size: str, index: int) -> Script:
    """Many short flip and Hilbert-square instances: token-heavy, most
    vanish, one in eight carries an extra term and must FAIL.  Statements
    come in shuffled blocks of eight, five flips and three Hilbert squares
    with one extra term among them, so that every seed gives the same mix
    and files of one size cost much the same."""
    lines = [f"# flip and Hilbert-square instances, size {size}"]
    expected = []
    nbytes = 0
    block: list = []
    while nbytes < FLIP_BYTES[size]:
        if not block:
            block = [_flip_statement] * 5 + [_hilb2_statement] * 3
            rng.shuffle(block)
            extra_at = rng.randrange(len(block))
        text, value = block.pop()(rng)
        if value:
            raise AssertionError("generator built a non-vanishing identity")
        if len(block) == extra_at:
            extra = {(rng.randint(0, 4), (f"Z{rng.randint(0, 9)}",)): rng.randint(1, 5)}
            text += " + " + to_text(extra)
            value = extra
        lines.append(text)
        expected.append(value)
        nbytes += len(text) + 1
    return Script(f"flips-{size}{index}.mot", ("motive", "check"),
                  "\n".join(lines) + "\n", expected)


def sums_script(rng: random.Random, size: str, index: int) -> Script:
    """A sum of thousands of terms, Sym2 of a wide sum, Sym2 nested three
    deep over an L-polynomial and twice over a class with an atom."""
    n_terms = SUM_TERMS[size]
    pool = _atoms(rng, "a", max(8, n_terms // 3))
    pieces, big = [], {}
    for i in range(n_terms):
        c, lp = rng.randint(1, 9), rng.randint(0, 5)
        mono = tuple(sorted(rng.sample(pool, rng.randint(1, 2))))
        sign = 1 if i == 0 or rng.random() < 0.7 else -1
        term = "*".join([str(c)] + ([f"L^{lp}"] if lp else []) + list(mono))
        pieces.append(term if i == 0 else ("+ " if sign > 0 else "- ") + term)
        padd(big, {(lp, mono): sign * c})
    wide_atoms = _atoms(rng, "w", SYM2_WIDTH[size])
    wide = {}
    for name in wide_atoms:
        padd(wide, {(rng.randint(0, 3), (name,)): rng.randint(1, 3)})
    padd(wide, {(0, ()): 1, (1, ()): 1})
    degree = NESTED_DEGREE[size]
    lpoly = {(i, ()): rng.randint(1, 3) for i in range(degree + 1)}
    # one atom, once, so that Sym2 of it stays in the fragment
    small = _fragment_class(rng, [], 3)
    padd(small, {(rng.randint(0, 2), (f"u{rng.randint(0, 99)}",)): 1})
    statements = [
        (" ".join(pieces), big),
        (f"Sym2({to_text(wide)})", psym2(wide)),
        (f"Sym2(Sym2(Sym2({to_text(lpoly)})))", psym2(psym2(psym2(lpoly)))),
        (f"Sym2(Sym2({to_text(small)}))", psym2(psym2(small))),
    ]
    text = "".join(f"# statement {i}\n{s}\n"
                   for i, (s, _) in enumerate(statements, start=1))
    return Script(f"sums-{size}{index}.mot", ("motive", "eval"), text,
                  [v for _, v in statements])


def sod_script(rng: random.Random, size: str, index: int) -> Script:
    """Hundreds of rewrite rules over hundreds of atoms, each rule rewriting
    into earlier atoms and Dpt, then an ambient and a candidate ledger."""
    n_rules = SOD_RULES[size]
    names, value, lines = [], {"Dpt": 1, "Sym2_Dpt": 2}, []
    for i in range(n_rules):
        rhs = {"Dpt": rng.randint(1, 3)}
        for _ in range(rng.randint(0, 2) if names else 0):
            earlier = rng.choice(names)
            rhs[earlier] = rhs.get(earlier, 0) + rng.randint(1, 2)
        body = ", ".join(f"{k}:{v}" for k, v in rhs.items())
        if rng.random() < 0.25:
            lhs, name = f"Sym2(E{i})", f"Sym2_E{i}"
        else:
            lhs = name = f"D{i}"
        lines.append(f"{lhs} => {{{body}}}")
        names.append(name)
        value[name] = sum(value[k] * m for k, m in rhs.items())
    ledgers = []
    for role in ("ambient", "candidate"):
        chosen = rng.sample(names, len(names) // 2) + ["Dpt", "Sym2_Dpt"]
        led = {name: rng.randint(1, 4) for name in chosen}
        ledgers.append(sum(value[k] * m for k, m in led.items()))
        body = ", ".join(f"{k}:{v}" for k, v in led.items())
        lines.append(f"# {role}\n{{{body}}}")
    return Script(f"rules-{size}{index}.sod", ("sod", "check"),
                  "\n".join(lines) + "\n", tuple(ledgers))


def scripts(seed: int) -> list[Script]:
    """One cycle of the scripts workload, in a seeded order."""
    rng = random.Random(seed)
    out = []
    for size, copies in COPIES.items():
        for index in range(copies):
            out.append(flips_script(rng, size, index))
            out.append(sums_script(rng, size, index))
            out.append(sod_script(rng, size, index))
    rng.shuffle(out)
    return out


# -- kernel inputs ---------------------------------------------------------------


def dense_diamond(rng: random.Random, dim: int) -> dict:
    """Entries {(p, q): h} with every h > 0, Hodge-symmetric and Serre-dual."""
    entries = {}
    for p in range(dim + 1):
        for q in range(dim + 1):
            if (p, q) not in entries:
                h = rng.randint(1, 9)
                for key in ((p, q), (q, p), (dim - p, dim - q), (dim - q, dim - p)):
                    entries[key] = h
    return entries


def wide_class(rng: random.Random, width: int, prefix: str) -> dict:
    """Sum of ``width`` terms c * L^i * atom with distinct atoms, c > 0."""
    return {(rng.randint(0, 4), (name,)): rng.randint(1, 3)
            for name in _atoms(rng, prefix, width)}


def mixed_components(rng: random.Random, m: int) -> list[str]:
    """One curve component among m - 1 exceptional objects, seeded position."""
    comps = ["Dpt"] * (m - 1)
    comps.insert(rng.randrange(m), "DC")
    return comps
