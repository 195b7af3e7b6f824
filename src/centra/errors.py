"""Exception types shared across the toolkit."""


class CentraError(Exception):
    """Base class for all toolkit errors."""


class DegreeMismatchError(CentraError):
    """Permutations of different degrees were combined."""


class GroupTooLargeError(CentraError):
    """Generator closure exceeded the configured order cap."""

    def __init__(self, cap: int, partial_count: int):
        super().__init__(
            f"group too large: closure exceeded cap of {cap} elements "
            f"(at least {partial_count} found)"
        )
        self.cap = cap
        self.partial_count = partial_count


class SubgroupCapError(CentraError):
    """Subgroup enumeration was asked for a group above the brute-force cap."""

    def __init__(self, order: int, cap: int):
        super().__init__(
            f"subgroup enumeration cap exceeded: |G| = {order} > {cap}; "
            f"use the pair-reduced membership predicate instead"
        )
        self.order = order
        self.cap = cap


class PresentationSyntaxError(CentraError):
    """Presentation text failed to parse; carries line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class EnumerationInconclusiveError(CentraError):
    """Coset enumeration hit its table limit.

    This is not a proof that the presented group is infinite; it only means
    the enumeration gave up at the configured coset bound.
    """

    def __init__(self, limit: int, defined: int):
        super().__init__(
            f"coset enumeration inconclusive: table limit {limit} reached "
            f"({defined} cosets defined)"
        )
        self.limit = limit
        self.defined = defined


class BudgetError(CentraError):
    """Work was refused before it started: it would need more than a fixed
    budget, such as element storage or total relator length."""

    def __init__(self, budget: str, needed: int, limit: int):
        super().__init__(f"{budget} exceeded: {needed} needed, limit {limit}")
        self.budget = budget
        self.needed = needed
        self.limit = limit


class InvalidActionError(CentraError):
    """Semidirect-product data does not define a homomorphism into Aut(N)."""


class InvariantError(CentraError):
    """An internal invariant of the toolkit failed; this is a bug, not bad input."""
