"""Exception hierarchy.

Three families, mirroring the CLI exit codes: input problems (parse or
structural validation, exit 1), mathematical precondition failures
(exit 2), and ambiguous reconstruction (exit 4).  Negative verdicts
(compare/iso, exit 3) are ordinary return values, not exceptions.
``InvariantError`` belongs to none of them: it reports a defect.
"""

from __future__ import annotations


class FbgaError(Exception):
    """Base class for all errors raised by this package."""


class InvariantError(FbgaError):
    """A result failed its own consistency check (a defect, not bad input)."""


# -- input problems (exit 1) -------------------------------------------------

class InputError(FbgaError):
    """Malformed or structurally invalid input."""


class ParseError(InputError):
    pass


class RibbonStructureError(InputError):
    """A ribbon-graph axiom is violated at construction time."""


class FixedPointPairing(RibbonStructureError):
    """The half-edge pairing has a fixed point (an edge glued to itself)."""


class DuplicateHalfEdge(RibbonStructureError):
    """A half-edge id occurs where ids must be unique."""


class OrbitMismatch(RibbonStructureError):
    """Rotation, pairing and attachment do not cover the same half-edge set."""


class UnknownVertex(InputError):
    pass


class MissingDegree(InputError):
    """An operation needs a degree function but a vertex has no degree."""


class DisconnectedInput(InputError):
    """Operation requires a connected graph."""


class InconsistentInput(InputError):
    """Loewy data that no admissible graph can produce."""


# -- mathematical preconditions (exit 2) -------------------------------------

class MathPreconditionError(FbgaError):
    pass


class NotAdmissible(MathPreconditionError):
    """The degree function fails an admissibility condition.  ``violations``
    holds them all; the message names at most the first three."""

    def __init__(self, violations):
        self.violations = list(violations)
        shown = "; ".join(str(v) for v in self.violations[:3])
        if len(self.violations) > 3:
            shown = f"{len(self.violations)} violations, the first 3: {shown}"
        super().__init__(f"degree function is not admissible: {shown}")


class NotABrauerGraph(MathPreconditionError):
    """Covering base must have integral multiplicities."""


class InvalidCut(MathPreconditionError):
    """A cutting set must pick exactly one half-edge per vertex, attached there."""


class CoverNotAdmissible(MathPreconditionError):
    """The finite cover fails admissibility (multiplicities incongruent mod r)."""


class NonDivisorPower(MathPreconditionError):
    """Quotient power must divide the order of the Nakayama permutation."""


class SizeLimitExceeded(MathPreconditionError):
    """An input above a declared bound was refused: an algebra whose
    dimension is above the walk budget of the presentation, Loewy table
    and basis builders, a cover or a repetitive window whose built
    half-edges (and a window's walk length) cost more than that budget,
    or the brute-force dimension oracle over too many arrows
    or with a path enumeration past its rewriting bound.  A refusal, never
    a verdict."""


class UnboundedPath(MathPreconditionError):
    """The gentle presentation has a relation-free oriented cycle."""


class Exceptional(MathPreconditionError):
    """Loewy data of the two exceptional 4-dimensional local algebras."""


# -- ambiguity (exit 4) -------------------------------------------------------

class AmbiguityError(FbgaError):
    pass


class Ambiguous(AmbiguityError):
    """Several non-isomorphic graphs fit the Loewy data."""

    def __init__(self, message, tie_classes=()):
        self.tie_classes = list(tie_classes)
        super().__init__(message)
