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
