"""Exact-arithmetic checks for Hilbert squares of del Pezzo varieties.

Submodules:

* :mod:`flipcheck.hodge` - Hodge diamond arithmetic (Kunneth products,
  symmetric squares, Hilbert squares, hh0)
* :mod:`flipcheck.varieties` - built-in diamonds
* :mod:`flipcheck.motive` - Grothendieck-ring fragment with the Lefschetz
  class, blowup relation, standard-flip difference and Sym^2 calculus
* :mod:`flipcheck.sod` - semiorthogonal-decomposition ledgers, rewrite
  rules, additive invariants and the embedding obstruction
* :mod:`flipcheck.fano` - dimensions, thresholds, flip shapes, codimension
  identities and splitting types for the three del Pezzo families
* :mod:`flipcheck.dsl` - text format and parser for expressions, ledgers
  and rules
* :mod:`flipcheck.cli` - the `flipcheck` command
"""

__version__ = "0.1.0"

# the three del Pezzo families fano works over, by the names the CLI takes
# and prints: every process loads this file, fano or not
FAMILIES = ("cubic", "two-quadrics", "gr25")


def comb(n: int, k: int) -> int:
    """``math.comb(n, k)``, exactly, for the ledgers of ``sod`` and the
    counts of ``fano``: 0 for ``k > n``, and ValueError when an argument is
    negative.  Stated here because ``math`` is an extension module whose
    load every process that counts would pay."""
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    if k > n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out = out * (n - k + i) // i  # C(n - k + i, i), exact at every step
    return out


__all__ = ["dsl", "fano", "hodge", "motive", "sod", "varieties",
           "__version__"]


def __getattr__(name: str):
    """Import a submodule on its first access (PEP 562), so that a process
    loads only the modules its command runs."""
    if name in __all__:
        # the import statement's own path, which -X importtime reports, and
        # which binds the submodule here as an attribute
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
