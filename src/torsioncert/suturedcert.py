"""Product certificates for sutured handlebodies presented by the images
of surface generators inside the ambient free group.

The certificate is the determinant of the block matrix of Fox derivatives
of those images pushed through a representation: nonzero exactly when the
sutured manifold is a homology product for that coefficient system.  An
optional oracle reads the relative h1 of the presentation 2-complex, k*n
minus the rank of that Fox matrix, after checking Fox's fundamental
formula on it with the representation's own images of the ambient
generators and the surface words; so the oracle compares the
determinant's zero test with a rank of the same matrix.
"""

from . import linalg as _la
from . import scalar as _s
from .errors import (AlphabetMismatch, ChainCondition, OracleMismatch,
                     ParseError)
from .freegroup import Alphabet, Word, parse_at, read_sections


class SuturedHandlebodyData:
    """Inclusion data: one ambient word per surface generator.

    Balanced by construction: as many images as ambient generators.
    """

    def __init__(self, alphabet, images, name=""):
        images = tuple(images)
        if len(images) != len(alphabet):
            raise ValueError(
                "need %d images for rank %d, got %d (unbalanced data)"
                % (len(alphabet), len(alphabet), len(images)))
        for w in images:
            if not isinstance(w, Word) or w.alphabet != alphabet:
                raise AlphabetMismatch("image %r over the wrong alphabet"
                                       % (w,))
        self.alphabet = alphabet
        self.images = images
        self.name = name

    def __repr__(self):
        return "SuturedHandlebodyData(%s -> %s)" % (
            ", ".join(self.alphabet.names),
            ", ".join(str(w) for w in self.images))


class Certificate:
    """Outcome of the product test for one representation."""

    def __init__(self, determinant, is_product, rep_description,
                 oracle_h1=None, extended=False):
        self.determinant = determinant
        self.is_product = is_product
        self.rep_description = rep_description
        self.oracle_h1 = oracle_h1
        self.extended = extended

    def __repr__(self):
        tail = ", oracle_h1=%d" % self.oracle_h1 \
            if self.oracle_h1 is not None else ""
        return "Certificate(det=%s, product=%s%s)" % (
            _s.scalar_str(self.determinant), self.is_product, tail)


def fox_matrix(data, rep):
    """Block matrix of evaluated Fox derivatives of the surface images.

    Block (i, j) is the image under the representation of the j-th partial
    derivative of the i-th surface word; the result is square of side
    rep.n * rank, built in one pass by ``rep.fox_matrix``.
    """
    if rep.alphabet != data.alphabet:
        raise AlphabetMismatch("representation over %r, data over %r"
                               % (rep.alphabet, data.alphabet))
    return rep.fox_matrix(data.images)


def _relative_h1(data, rep, m, rank=None):
    """The relative h1 of the presentation complex of data through rep,
    and the edge blocks D1 and W - 1 of its boundary d1.

    m is :func:`fox_matrix` of data and rep.  D1 stacks rho(x_j) - 1 for
    the ambient generators and W - 1 stacks rho(w_i) - 1 for the surface
    words, each image from ``rep.eval_word``, apart from the Fox sweep
    that built m; ``linalg.less_one`` builds each once.  Fox's fundamental
    formula, sum_j (dw_i/dx_j) (rho(x_j) - 1) = rho(w_i) - 1, says that
    m . D1 = W - 1; this chain check (``linalg.fox_formula_row``) raises
    ``ChainCondition`` on the first surface word whose Fox blocks in m
    break it.  The relative h1 is k*n minus the rank of m: ``rank`` where
    the caller has it from the determinant's exact echelon, else
    ``m.rank()``."""
    w1 = _la.less_one([rep.eval_word(w) for w in data.images])
    d1 = _la.less_one(rep.images)
    bad = _la.fox_formula_row(m, d1, w1)
    if bad is not None:
        raise ChainCondition("d2 . d1 != 0: representation does not "
                             "kill relator %d" % (bad // rep.n))
    if rank is None:
        rank = m.rank()
    return len(rep.alphabet) * rep.n - rank, d1, w1


def oracle_dims(data, rep):
    """(h0, h1, h2) of the presentation complex with an edge per ambient
    generator x_j and per surface generator s_i and a face w_i . s_i^-1
    per surface word, its relative h1 with the surface edges collapsed,
    and its cell-count Euler characteristic 1 - 2k + k.

    The faces' boundary is d2 = [m | S], with m the Fox matrix and S block
    diagonal of blocks -rho(w_i) rho(s_i)^-1 = -1, so d2 has full rank
    k*n and h2 = 0.  The edges' boundary d1 is [D1; W - 1], the blocks
    that :func:`_relative_h1` built for its chain check; with r1 its
    rank, h0 = n - r1 and h1 = 2k*n - r1 - k*n."""
    rel_h1, d1, w1 = _relative_h1(data, rep, fox_matrix(data, rep))
    r1 = _la.block_assemble([[d1], [w1]]).rank()
    k = len(data.alphabet)
    return (rep.n - r1, k * rep.n - r1, 0), rel_h1, 1 - 2 * k + k


def certify(data, rep, with_oracle=False):
    """Decide homology-product-ness by the Fox determinant; optionally
    compare with the relative h1 of the presentation complex.

    The oracle first checks Fox's fundamental formula on the certificate's
    own Fox matrix against the surface words' images, which come from
    ``rep.eval_word`` and not from the sweep that built the matrix
    (:func:`_relative_h1`).  Its relative h1 is k*n minus the rank of the
    same matrix: for exact kinds the rank of the Bareiss echelon that gave
    the determinant, so the comparison cannot fail; for floats a
    completely pivoted rank against the tolerance, a separate decision
    from the determinant's zero test.  A disagreement raises rather than
    returning a silently wrong verdict.
    """
    m = fox_matrix(data, rep)
    det, scale, rank = _la.det_rank_with_scale(m)
    is_product = not _s.zero_test(det, scale=scale)
    cert = Certificate(det, is_product, rep.description(),
                       extended=len(data.alphabet) > 2)
    if with_oracle:
        rel_h1 = _relative_h1(data, rep, m, rank)[0]
        cert.oracle_h1 = rel_h1
        if is_product != (rel_h1 == 0):
            raise OracleMismatch(
                "determinant verdict %s but relative h1 = %d"
                % (is_product, rel_h1))
    return cert


def pants_example():
    """The fibered-over-the-pants instance: images x and y x y x^-1 y^-1."""
    alphabet = Alphabet("x y")
    return SuturedHandlebodyData(
        alphabet,
        [Word.from_string(alphabet, "x"),
         Word.from_string(alphabet, "yxyXY")],
        name="pants")


def sutured_to_text(data):
    lines = []
    if data.name:
        lines.append("name: %s" % data.name)
    lines.append("ambient: %s" % " ".join(data.alphabet.names))
    lines.append("images:")
    for w in data.images:
        lines.append(str(w))
    return "\n".join(lines) + "\n"


def sutured_from_text(text):
    """Sutured data from the ``.sut`` format of
    :func:`~torsioncert.freegroup.read_sections`, with an ``images:`` block
    of words."""
    fields, image_lines = read_sections(text, ("name", "ambient", "images"),
                                        block="images")
    if "ambient" not in fields:
        raise ParseError("missing ambient line")
    alphabet = parse_at(Alphabet, *fields["ambient"])
    images = [parse_at(alphabet.word, *line) for line in image_lines]
    name = fields["name"][1] if "name" in fields else ""
    try:
        return SuturedHandlebodyData(alphabet, images, name=name)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
