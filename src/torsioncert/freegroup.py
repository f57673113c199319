"""Reduced words in finitely generated free groups, integer group rings,
and Fox's free differential calculus.

Letters are stored one at a time with exponent +-1, as signed integers:
letter k > 0 means generator number k-1, letter -k its inverse.  In text,
a lowercase letter is a generator and the matching uppercase letter its
inverse, so ``yxyXY`` reads y x y x^-1 y^-1 and ``1`` is the identity.

The Fox derivative d/dg is the Z-linear map on the group ring fixed by

    d(g)/dg = 1,   d(g^-1)/dg = -g^-1,   d(h^e)/dg = 0  (h != g),

together with the product rule d(uv)/dg = du/dg + u * dv/dg.

Pushed through a multiplicative map Phi, the derivatives of a word
w = l_1 ... l_m come out of one left-to-right pass.  With P_k the image of
the prefix of length k (P_0 the identity),

    Phi(dw/dx_j) = sum of P_(k-1) over positions with l_k = x_j
                   - sum of P_k over positions with l_k = x_j^-1,

so :func:`fox_sweep` yields one signed prefix image per letter, with the
length k of its prefix, at the cost of one product per letter after the
first: P_1 is the first letter's image itself, and a positive last letter
costs none, since P_m is read only when l_m is an inverse.  The identity
is a term and never a factor.  Over words themselves the sweep gives the
group-ring derivative, :func:`fox_derivative`.

:func:`read_sections` is the one reader of the ``key: value`` data files
(``.pres``, ``.sut``, ``.rep``) whose parsers build on these words.
"""

from . import scalar as _s
from .errors import AlphabetMismatch, ParseError


class Alphabet:
    """An ordered list of single-letter generator names.

    >>> A = Alphabet("x y")
    >>> A.names
    ('x', 'y')
    >>> A.word("yxyXY").inverse()
    Word('yxYXY')
    """

    __slots__ = ("names", "_pos")

    def __init__(self, names):
        if isinstance(names, str):
            names = names.split() if " " in names else list(names)
        names = tuple(names)
        if not names:
            raise ValueError("alphabet needs at least one generator")
        for nm in names:
            if len(nm) != 1 or not ("a" <= nm <= "z"):
                raise ValueError("generator name must be a single letter a-z, got %r" % nm)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names in %r" % (names,))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_pos", {nm: i for i, nm in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("alphabets are immutable")

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "Alphabet(%r)" % " ".join(self.names)

    def __contains__(self, name):
        return name in self._pos

    def index(self, name):
        try:
            return self._pos[name]
        except KeyError:
            raise ValueError("no generator %r in %r" % (name, self)) from None

    def word(self, text):
        return Word.from_string(self, text)

    def identity(self):
        return Word(self, ())


def _reduce(letters):
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


class Word:
    """A freely reduced word; the empty word is the group identity.

    >>> A = Alphabet("x y")
    >>> A.word("xy") * A.word("Yx")
    Word('xx')
    >>> A.word("x") * A.word("X") == A.identity()
    True
    """

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet, letters, _reduced=False):
        letters = tuple(letters)
        n = len(alphabet)
        for l in letters:
            if not isinstance(l, int) or l == 0 or abs(l) > n:
                raise ValueError("bad letter %r for rank-%d alphabet" % (l, n))
        if not _reduced:
            letters = _reduce(letters)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError("words are immutable")

    @classmethod
    def from_string(cls, alphabet, text):
        text = text.strip()
        if text == "1" or text == "":
            return cls(alphabet, ())
        letters = []
        for ch in text:
            low = ch.lower()
            if low not in alphabet:
                raise ParseError("letter %r not in alphabet %r" % (ch, alphabet))
            k = alphabet.index(low) + 1
            letters.append(k if ch == low else -k)
        return cls(alphabet, letters)

    def _check(self, other):
        if not isinstance(other, Word):
            raise TypeError("expected a Word, got %r" % (other,))
        if other.alphabet != self.alphabet:
            raise AlphabetMismatch(
                "words over %r and %r" % (self.alphabet, other.alphabet))

    def __mul__(self, other):
        self._check(other)
        return Word(self.alphabet, self.letters + other.letters)

    def inverse(self):
        return Word(self.alphabet, tuple(-l for l in reversed(self.letters)),
                    _reduced=True)

    def __len__(self):
        return len(self.letters)

    def is_identity(self):
        return not self.letters

    def is_cyclically_reduced(self):
        return len(self.letters) < 2 or self.letters[0] != -self.letters[-1]

    def exponent_sum(self):
        """The total exponent of each generator, as a tuple."""
        out = [0] * len(self.alphabet)
        for l in self.letters:
            out[abs(l) - 1] += 1 if l > 0 else -1
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Word) and self.alphabet == other.alphabet \
            and self.letters == other.letters

    def __hash__(self):
        return hash((self.alphabet, self.letters))

    def __str__(self):
        if not self.letters:
            return "1"
        names = self.alphabet.names
        return "".join(names[l - 1] if l > 0 else names[-l - 1].upper()
                       for l in self.letters)

    def __repr__(self):
        return "Word(%r)" % str(self)


class GroupRingElem:
    """A finite formal sum of words with scalar coefficients, as
    :func:`parse_ring_elem` reads it and :func:`fox_derivative` gives it.

    Coefficients are integers for Fox derivatives; any scalar kind is
    accepted.  Zero coefficients are never stored.  The package reads,
    prints and evaluates elements; their arithmetic is the reference
    algebra of the Fox-calculus tests, in ``tests/helpers.py``.

    >>> A = Alphabet("x y")
    >>> e = parse_ring_elem(A, "1 + x*y - x*y*X + 0*y")
    >>> print(e)
    1 + x*y - x*y*X
    >>> fox_derivative(A.word("xyX"), 0) == parse_ring_elem(A, "1 - x*y*X")
    True
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms):
        clean = {}
        for w, c in terms.items():
            if w.alphabet != alphabet:
                raise AlphabetMismatch("term %r not over %r" % (w, alphabet))
            if c != 0:
                clean[w] = c
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("group-ring elements are immutable")

    def __eq__(self, other):
        return isinstance(other, GroupRingElem) and \
            self.alphabet == other.alphabet and self.terms == other.terms

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __str__(self):
        return _s.sum_str(_ring_term(w, self.terms[w]) for w in sorted(
            self.terms, key=lambda w: (len(w), str(w))))

    def __repr__(self):
        return "GroupRingElem(%s)" % str(self)


def _ring_term(w, c):
    neg = c < 0
    mag = -c if neg else c
    if w.is_identity():
        return neg, str(mag)
    wtext = "*".join(str(w))
    return neg, wtext if mag == 1 else "%s*%s" % (mag, wtext)


def _parse_ring_term(alphabet, text):
    compact = text.replace("*", "").replace(" ", "")
    if not compact:
        raise ParseError("empty term in group-ring literal")
    i = 0
    while i < len(compact) and (compact[i].isdigit() or compact[i] == "/"):
        i += 1
    coeff_text, word_text = compact[:i], compact[i:]
    coeff = _s.integral_to_int(_s.parse_fraction(coeff_text, text)) \
        if coeff_text else 1
    if word_text == "" or word_text == "1":
        word = alphabet.identity()
    else:
        word = Word.from_string(alphabet, word_text)
    return word, coeff


def parse_ring_elem(alphabet, text):
    """Parse ``1 + x*y - x*y*X`` style group-ring literals."""
    s = text.strip()
    if not s:
        raise ParseError("empty group-ring literal")
    terms = {}
    for sign, term in _s.split_sum(s):
        w, c = _parse_ring_term(alphabet, term)
        terms[w] = terms.get(w, 0) + sign * c
    return GroupRingElem(alphabet, terms)


def read_sections(text, keys, block=None):
    """The ``key: value`` lines of a data file, read in one pass.

    Blank lines and lines starting with ``#`` are skipped.  Every key must
    be one of ``keys`` and appear at most once.  Bare lines are allowed only
    after the ``block`` header, and a value on that header line counts as
    its first bare line.  Returns ``(fields, lines)``: ``fields`` maps each
    key read to ``(line number, value)`` in file order, and ``lines`` lists
    the block's ``(line number, text)``.
    """
    fields, lines = {}, []
    in_block = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition(":")
        if not sep:
            if not in_block:
                raise ParseError("line %d: expected 'key: value'" % ln)
            lines.append((ln, line))
            continue
        key, val = key.strip(), val.strip()
        if key not in keys:
            raise ParseError("line %d: unknown key %r" % (ln, key))
        if key in fields:
            raise ParseError("line %d: duplicate %r" % (ln, key))
        fields[key] = (ln, val)
        in_block = key == block
        if in_block and val:
            lines.append((ln, val))
    return fields, lines


def parse_at(parse, ln, text):
    """``parse(text)``, with a ValueError or KeyError it raises reported as
    a ParseError at line ``ln``."""
    try:
        return parse(text)
    except (ValueError, KeyError) as exc:
        raise ParseError("line %d: %s" % (ln, exc)) from None


def fox_sweep(w, image, one, mul):
    """The terms ``(j, sign, k, P)`` of every evaluated Fox derivative of
    ``w``, one per letter in word order, as in the module docstring: P is
    the image of the prefix of ``w`` of length k.

    ``image(l)`` is the image of the signed letter ``l``, ``one`` that of
    the identity, which is yielded but never multiplied, and ``mul`` the
    product of the ring.
    """
    prefix = one
    last = len(w.letters) - 1
    for k, l in enumerate(w.letters):
        if l > 0:
            yield l - 1, 1, k, prefix
            if k == last:
                return
        prefix = mul(prefix, image(l)) if k else image(l)
        if l < 0:
            yield -l - 1, -1, k + 1, prefix


def fox_derivative(w, j):
    """Fox derivative of a word by generator number ``j``: the terms of
    :func:`fox_sweep` over words, collected into the group ring.

    >>> A = Alphabet("x y")
    >>> print(fox_derivative(A.word("xyX"), 0))
    1 - x*y*X
    >>> print(fox_derivative(A.word("yxyXY"), 1))
    1 + y*x - y*x*y*X*Y
    """
    alphabet = w.alphabet
    terms = {}
    for i, sign, _, prefix in fox_sweep(
            w, lambda l: Word(alphabet, (l,), _reduced=True),
            alphabet.identity(), Word.__mul__):
        if i == j:
            terms[prefix] = terms.get(prefix, 0) + sign
    return GroupRingElem(alphabet, terms)
