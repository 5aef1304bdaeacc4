"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses partition the failure
modes: malformed regexes, unsupported operations (e.g. negation of a
nondeterministic regex, per Appendix A of the paper), graph construction
problems, and query-evaluation problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class RegexSyntaxError(ReproError):
    """A regular expression could not be parsed.

    Carries the offending position so callers can point at the problem.
    """

    def __init__(self, message: str, position: int = -1):
        if position >= 0:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnsupportedRegexError(ReproError):
    """The regex is valid but an operation on it is not supported.

    The primary case is negation: following Appendix A, negation is only
    supported when the epsilon-free NFA produced by Thompson's construction
    is already deterministic.
    """


class GraphError(ReproError):
    """Invalid graph construction or access (unknown node, bad edge, ...)."""


class QueryError(ReproError):
    """Invalid query specification (unknown endpoints, bad bounds, ...)."""


class UnsupportedQueryError(QueryError):
    """The engine cannot answer this query class.

    The Landmark-Index baseline raises this for anything beyond query
    type 1 (label-set restricted paths) — the Table 1 limitation.
    """


class IndexBuildError(ReproError):
    """An index-based baseline could not be built (e.g. memory budget hit).

    The landmark index raises this when its size exceeds the configured
    budget, mirroring the out-of-memory crashes of LI reported in the paper.
    """


class TimeBudgetExceeded(ReproError):
    """A search exceeded its wall-clock budget.

    BBFS runs in the paper were abandoned past one minute on Twitter; the
    same mechanism is exposed here through an optional per-query budget.
    """


class InvariantError(ReproError):
    """An engine caught itself about to break one of its guarantees.

    Raised by the engines' own explicit self-checks — for example, a
    joined witness path that fails the compatibility re-check before a
    positive answer is returned.  Unlike ``assert``, these checks also
    run under ``python -O``.  Seeing one means the engine is at fault,
    not the query.
    """


class VerificationError(ReproError):
    """Base class for the independent oracle layer (:mod:`repro.verify`).

    Raised only by the verification machinery, never by the engines
    themselves — an engine seeing one of these means the paranoid-mode
    check it requested failed.
    """


class WitnessViolationError(VerificationError):
    """A :class:`~repro.core.result.QueryResult` violated an invariant.

    Carries the name of the *first* violated invariant (the witness
    oracle checks in a fixed order precisely so that this name is
    deterministic) and a human-readable detail string.
    """

    def __init__(self, message: str, invariant: str = ""):
        super().__init__(message)
        self.invariant = invariant


class DivergenceError(VerificationError):
    """Two engines disagreed outside the paper's legal error model.

    Exact engines answering a supported query must agree exactly;
    approximate engines may only err on the negative side (one-sided
    error, Sec. 3.1.2).  Anything else is a divergence.  Carries a
    replayable fingerprint (dataset, query, seed, engine).
    """

    def __init__(self, message: str, fingerprint: object = None):
        super().__init__(message)
        self.fingerprint = fingerprint
