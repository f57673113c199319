"""Product certificates for sutured handlebodies presented by the images
of surface generators inside the ambient free group.

The certificate is the determinant of the block matrix of Fox derivatives
of those images pushed through a representation: nonzero exactly when the
sutured manifold is a homology product for that coefficient system.  An
optional oracle reads the relative h1 of the presentation 2-complex on an
enlarged alphabet (``Representation.extended``).  That complex is
assembled from the Fox matrix itself, whose chain condition it checks,
so the oracle compares the determinant's zero test with a rank of the
same matrix.
"""

from . import linalg as _la
from . import scalar as _s
from .errors import AlphabetMismatch, OracleMismatch, ParseError
from .freegroup import Alphabet, Word, parse_at, read_sections
from .twisted import checked_complex, homology_dims


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

    @property
    def ambient_rank(self):
        return len(self.alphabet)

    @property
    def surface_rank(self):
        return len(self.images)

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
    rep.n * rank.
    """
    if rep.alphabet != data.alphabet:
        raise AlphabetMismatch("representation over %r, data over %r"
                               % (rep.alphabet, data.alphabet))
    return _la.block_assemble([rep.fox_blocks(w) for w in data.images])


def _fresh_surface_names(ambient):
    pool = "abcdefghijklmnopqrstuvwxyz"
    taken = set(ambient.names)
    fresh = [c for c in pool if c not in taken]
    if len(fresh) < len(ambient):
        raise ValueError("no free letters for the surface generators")
    return fresh[:len(ambient)]


def enlarged_presentation(data):
    """The 2-complex presentation with a relator image_i . s_i^-1 per
    surface generator, over the ambient alphabet extended by fresh surface
    letters; surface edges come after the ambient ones."""
    k = len(data.alphabet)
    surface = _fresh_surface_names(data.alphabet)
    big = Alphabet(list(data.alphabet.names) + surface)
    relators = []
    for i, w in enumerate(data.images):
        letters = tuple(w.letters) + (-(k + i + 1),)
        relators.append(Word(big, letters))
    return big, relators


def extend_rep(data, rep):
    """The representation of the enlarged alphabet agreeing with rep on
    ambient generators and sending each surface generator to the image of
    its word, so every enlarged relator dies.

    Surface images are products of rep's letter images on numerators.
    Over exact kinds nothing is checked or inverted again: a surface
    generator's inverse is the image of its inverse word.
    """
    return rep.extended(enlarged_presentation(data)[0], data.images)


def _relative_h1(data, rep, m, rank=None):
    """The relative h1 of the enlarged presentation complex with the
    surface edges collapsed, with the complex's boundary matrices (d2, d1)
    through :func:`extend_rep`.

    m is :func:`fox_matrix` of data and rep.  Only the ambient-edge
    columns of d2 survive the collapse, and they are m, so the relative
    h1 is k*n minus the rank of m: ``rank`` where the caller has it from
    the determinant's exact echelon, else ``m.rank()``.  d2 is [m | S],
    with S block diagonal: block i is the Fox derivative of the relator
    image_i . s_i^-1 by its surface letter, -rho(image_i) rho(s_i)^-1,
    one ``running_mul`` and one ``signed_sum`` as the relator's Fox sweep
    takes them, so d2 has the bits of ``build_complex`` on
    :func:`enlarged_presentation`.  The chain condition d2 . d1 = 0
    (``twisted.checked_complex``) thus checks the certificate's own
    matrix, and raises ``ChainCondition`` when it fails."""
    ext = extend_rep(data, rep)
    k = len(data.alphabet)
    zero = ext.units[1]
    surface = [[zero] * k for _ in range(k)]
    for i in range(k):
        s = k + i + 1
        surface[i][i] = _la.signed_sum([(-1, _la.running_mul(
            ext.letter_image(s), ext.letter_image(-s)))], zero)
    d2, d1 = checked_complex(
        _la.block_assemble([[m, _la.block_assemble(surface)]]), ext)
    if rank is None:
        rank = m.rank()
    return k * rep.n - rank, d2, d1


def oracle_dims(data, rep):
    """(h0, h1, h2) of the enlarged presentation complex, its relative h1
    with the surface edges collapsed, and the complex's cell-count Euler
    characteristic 1 - 2k + k.  The complex is the one :func:`certify`
    checks, assembled from the Fox matrix (:func:`_relative_h1`); the
    relative h1 is k*n minus the rank of that matrix."""
    rel_h1, d2, d1 = _relative_h1(data, rep, fox_matrix(data, rep))
    k = len(data.alphabet)
    return homology_dims(d2, d1), rel_h1, 1 - 2 * k + k


def certify(data, rep, with_oracle=False):
    """Decide homology-product-ness by the Fox determinant; optionally
    compare with the relative h1 of the enlarged presentation complex.

    The oracle assembles that complex from the certificate's own Fox
    matrix and checks its chain condition, Fox's fundamental formula on
    that matrix (:func:`_relative_h1`).  Its relative h1 is k*n minus the
    rank of the same matrix: for exact kinds the rank of the Bareiss
    echelon that gave the determinant, so the comparison cannot fail; for
    floats a completely pivoted rank against the tolerance, a separate
    decision from the determinant's zero test.  A disagreement raises
    rather than returning a silently wrong verdict.
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
