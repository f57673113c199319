"""Exception types shared across the package."""


class TorsionCertError(Exception):
    """Base class for everything this package raises on purpose."""


class ParseError(TorsionCertError, ValueError):
    """Bad text input for any of the file or literal grammars."""


# scalar

class DivisionByZero(TorsionCertError, ZeroDivisionError):
    """Division by a scalar that is zero (exactly, or under the zero test)."""


class MixedExtension(TorsionCertError, TypeError):
    """Arithmetic between quadratic extensions with different discriminants."""


class NonFinite(TorsionCertError, ArithmeticError):
    """A floating operation produced NaN or infinity."""


class FactorBound(TorsionCertError, ArithmeticError):
    """Trial division to its bound left a cofactor that is neither 1, a
    prime nor a square, so the integer's squarefree part is unknown."""


# freegroup

class AlphabetMismatch(TorsionCertError, ValueError):
    """Words or group-ring elements over different alphabets were combined."""


# linalg

class NotSquare(TorsionCertError, ValueError):
    """Determinant of a non-square matrix or polynomial grid."""


class DimensionMismatch(TorsionCertError, ValueError):
    """Matrix shapes do not line up."""


class MixedScalarKind(TorsionCertError, TypeError):
    """Operands carry different scalar kinds (rational / quadext / complex)."""


class InexactDivision(TorsionCertError, ArithmeticError):
    """A division that must be exact left a remainder (in the exact
    kernel, a bug)."""


# polynomial

class ZeroDenominator(TorsionCertError, ZeroDivisionError):
    """Degree of a torsion quotient with zero denominator."""


class DegenerateInput(TorsionCertError, ValueError):
    """Resultant elimination asked for a variable the input does not contain."""


# representation

class ScalarEmbedding(TorsionCertError, TypeError):
    """A coefficient cannot be embedded into the representation's scalars."""


class SingularImage(TorsionCertError, ValueError):
    """A generator image is singular, or not of determinant 1 under
    ``sl_flag``."""


class NotTwoByTwo(TorsionCertError, ValueError):
    """Symmetric powers are defined here for 2x2 input only."""


class NotSL2(TorsionCertError, ValueError):
    """Operation requires a rank-2 representation with determinant-1 images."""


class NoRootFound(TorsionCertError, RuntimeError):
    """Grid scan for a parabolic representation exhausted without a root."""


class IncompleteRootScan(NoRootFound):
    """The parabolic grid scan kept fewer roots than the Riley polynomial
    has distinct roots."""


class ReducibleOnly(TorsionCertError, RuntimeError):
    """Every parabolic solution shares an eigenvector (abelian-image case)."""


# charvar

class EliminationDegenerate(TorsionCertError, ValueError):
    """The determinant condition vanishes identically; nothing to eliminate."""


class LiftMismatch(TorsionCertError, ArithmeticError):
    """A lift's traces or determinants differ from its character's (a
    bug)."""


# twisted

class NotInfiniteCyclic(TorsionCertError, ValueError):
    """First homology of the presentation is not infinite cyclic."""


class AllColumnsDegenerate(TorsionCertError, ValueError):
    """No generator column has an invertible torsion denominator."""


class NotDeficiencyOne(TorsionCertError, ValueError):
    """Torsion needs exactly one fewer relator than generators."""


class MissingGenusHint(TorsionCertError, ValueError):
    """Genus comparison requested on a presentation without a genus hint."""


class LongitudeTraceViolation(TorsionCertError, ValueError):
    """The longitude trace is not -2; the lift is not a holonomy-style lift."""


class ChainCondition(TorsionCertError, ValueError):
    """d following d is nonzero: the representation does not kill a relator."""


# suturedcert

class OracleMismatch(TorsionCertError, RuntimeError):
    """Determinant verdict and cohomology-rank verdict disagree (a bug)."""


class IrreducibilityWarning(UserWarning):
    """A lifted character is reducible: the generator images share an
    eigenvector, so the local system is only well defined up to the
    paper-trail choice; results are still returned."""
