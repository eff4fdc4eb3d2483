"""Sign and sepr-symbol algebra.

Signs are the three values {+, -, 0}; sepr symbols are the seven values
{N, A+, A-, A*, S+, S-, S*} that classify, for each order k, which signs
occur among the order-k principal minors of a matrix.  This module holds
the symbol addition/multiplication tables and the rule that combines the
sepr-sequences of the two diagonal blocks of a block upper-triangular
matrix into the sequence of the whole.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterator


class Sign(IntEnum):
    """Entry sign: +1, -1 or 0.  Closed under multiplication."""

    MINUS = -1
    ZERO = 0
    PLUS = 1

    def __mul__(self, other):
        return Sign(int(self) * int(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Sign(-int(self))

    @property
    def char(self) -> str:
        return {Sign.PLUS: "+", Sign.MINUS: "-", Sign.ZERO: "0"}[self]

    @classmethod
    def of(cls, x) -> "Sign":
        """Sign of a number (or of an already-signed value)."""
        if x > 0:
            return cls.PLUS
        if x < 0:
            return cls.MINUS
        return cls.ZERO

    @classmethod
    def from_char(cls, c: str) -> "Sign":
        try:
            return {"+": cls.PLUS, "-": cls.MINUS, "0": cls.ZERO}[c]
        except KeyError:
            raise ValueError(f"not a sign character: {c!r}") from None


class AmbSign(Enum):
    """Sign extended with `ambiguous`, the value of a formula that adds + and -."""

    PLUS = "+"
    MINUS = "-"
    ZERO = "0"
    AMBIGUOUS = "ambiguous"

    @classmethod
    def from_sign(cls, s: Sign) -> "AmbSign":
        return {Sign.PLUS: cls.PLUS, Sign.MINUS: cls.MINUS, Sign.ZERO: cls.ZERO}[s]

    def to_sign(self) -> Sign:
        if self is AmbSign.AMBIGUOUS:
            raise ValueError("ambiguous value has no definite sign")
        return {AmbSign.PLUS: Sign.PLUS, AmbSign.MINUS: Sign.MINUS, AmbSign.ZERO: Sign.ZERO}[self]

    def add(self, other: "AmbSign") -> "AmbSign":
        if AmbSign.AMBIGUOUS in (self, other):
            return AmbSign.AMBIGUOUS
        if self is AmbSign.ZERO:
            return other
        if other is AmbSign.ZERO or self is other:
            return self
        return AmbSign.AMBIGUOUS  # + plus - is ambiguous

    def mul(self, other: "AmbSign") -> "AmbSign":
        if AmbSign.ZERO in (self, other):
            return AmbSign.ZERO
        if AmbSign.AMBIGUOUS in (self, other):
            return AmbSign.AMBIGUOUS
        return AmbSign.from_sign(self.to_sign() * other.to_sign())


class SeprSymbol(IntEnum):
    """The seven sepr symbols, in table order N, A+, A-, A*, S+, S-, S*."""

    N = 0
    AP = 1
    AM = 2
    AST = 3
    SP = 4
    SM = 5
    SST = 6

    @property
    def token(self) -> str:
        return _TOKENS[self]

    def __str__(self) -> str:
        return self.token

    @property
    def sign_mask(self) -> int:
        """3-bit mask of the minor signs the symbol asserts: 1=+, 2=-, 4=0."""
        return _MASKS[self]

    @classmethod
    def from_sign_mask(cls, mask: int) -> "SeprSymbol":
        """Symbol for a nonempty set of present minor signs."""
        return _FROM_MASK[mask]


_TOKENS = {
    SeprSymbol.N: "N",
    SeprSymbol.AP: "A+",
    SeprSymbol.AM: "A-",
    SeprSymbol.AST: "A*",
    SeprSymbol.SP: "S+",
    SeprSymbol.SM: "S-",
    SeprSymbol.SST: "S*",
}

# bit 1: a positive minor exists; bit 2: a negative one; bit 4: a zero one.
_MASKS = {
    SeprSymbol.N: 4,
    SeprSymbol.AP: 1,
    SeprSymbol.AM: 2,
    SeprSymbol.AST: 3,
    SeprSymbol.SP: 5,
    SeprSymbol.SM: 6,
    SeprSymbol.SST: 7,
}
_FROM_MASK = {m: s for s, m in _MASKS.items()}

_N, _AP, _AM, _AST, _SP, _SM, _SST = SeprSymbol

# Symbol addition: the symbol describing the union of two collections of
# minors whose sign profiles are the operands.  Transcribed as an explicit
# 7x7 table; tests re-derive it from the mask semantics.
ADD_TABLE = (
    (_N, _SP, _SM, _SST, _SP, _SM, _SST),
    (_SP, _AP, _AST, _AST, _SP, _SST, _SST),
    (_SM, _AST, _AM, _AST, _SST, _SM, _SST),
    (_SST, _AST, _AST, _AST, _SST, _SST, _SST),
    (_SP, _SP, _SST, _SST, _SP, _SST, _SST),
    (_SM, _SST, _SM, _SST, _SST, _SM, _SST),
    (_SST, _SST, _SST, _SST, _SST, _SST, _SST),
)

# Symbol multiplication: sign profile of products of one minor from each
# operand (as in a minor of a block-diagonal matrix).
MUL_TABLE = (
    (_N, _N, _N, _N, _N, _N, _N),
    (_N, _AP, _AM, _AST, _SP, _SM, _SST),
    (_N, _AM, _AP, _AST, _SM, _SP, _SST),
    (_N, _AST, _AST, _AST, _SST, _SST, _SST),
    (_N, _SP, _SM, _SST, _SP, _SM, _SST),
    (_N, _SM, _SP, _SST, _SM, _SP, _SST),
    (_N, _SST, _SST, _SST, _SST, _SST, _SST),
)


def symbol_add(a: SeprSymbol, b: SeprSymbol) -> SeprSymbol:
    """Table lookup; commutative, with N neutral only against itself."""
    return ADD_TABLE[a][b]


def symbol_mul(a: SeprSymbol, b: SeprSymbol) -> SeprSymbol:
    """Table lookup; commutative, A+ is the identity and N absorbs."""
    return MUL_TABLE[a][b]


class SequenceParseError(ValueError):
    """Raised on an invalid sepr-sequence string; carries the bad offset."""

    def __init__(self, text: str, offset: int):
        self.offset = offset
        super().__init__(f"invalid sepr token at offset {offset}: {text[offset:offset + 2]!r}")


@dataclass(frozen=True)
class SeprSequence:
    """A nonempty sequence of sepr symbols, t_1 ... t_n."""

    terms: tuple[SeprSymbol, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("sepr-sequence must have length >= 1")

    @property
    def order(self) -> int:
        return len(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[SeprSymbol]:
        return iter(self.terms)

    def __getitem__(self, k):
        return self.terms[k]

    def __str__(self) -> str:
        return "".join(t.token for t in self.terms)

    def to_json(self) -> list[str]:
        return [t.token for t in self.terms]

    @classmethod
    def parse(cls, text: str) -> "SeprSequence":
        """Parse ASCII tokens N, A+, A-, A*, S+, S-, S* (no separators)."""
        terms: list[SeprSymbol] = []
        i = 0
        while i < len(text):
            c = text[i]
            if c == "N":
                terms.append(SeprSymbol.N)
                i += 1
                continue
            if c in "AS" and i + 1 < len(text) and text[i + 1] in "+-*":
                tok = c + text[i + 1]
                terms.append(next(s for s, t in _TOKENS.items() if t == tok))
                i += 2
                continue
            raise SequenceParseError(text, i)
        if not terms:
            raise SequenceParseError(text, 0)
        return cls(tuple(terms))

    @classmethod
    def of(cls, *symbols: SeprSymbol) -> "SeprSequence":
        return cls(tuple(symbols))


def parse_sequence(text: str) -> SeprSequence:
    return SeprSequence.parse(text)


_NEG_MAP = {
    SeprSymbol.AP: SeprSymbol.AM,
    SeprSymbol.AM: SeprSymbol.AP,
    SeprSymbol.SP: SeprSymbol.SM,
    SeprSymbol.SM: SeprSymbol.SP,
}


def neg_superscripts(s: SeprSequence) -> SeprSequence:
    """Swap + and - superscripts pointwise; fixes N, A*, S*.  Involutive."""
    return SeprSequence(tuple(_NEG_MAP.get(t, t) for t in s.terms))


def combine(a: SeprSequence, b: SeprSequence) -> SeprSequence:
    """Sequence of a block upper-triangular matrix from its two block sequences.

    t_k folds symbol products a_l * b_(k-l) with symbol_add, taking
    a_0 = b_0 = A+ and skipping indices outside either sequence.  Every
    position has at least one contributing product, so the fold never
    starts empty (symbol_add has no neutral element).
    """
    n, m = len(a), len(b)

    def at(seq: SeprSequence, i: int) -> SeprSymbol:
        return SeprSymbol.AP if i == 0 else seq.terms[i - 1]

    out = []
    for k in range(1, n + m + 1):
        lo, hi = max(0, k - m), min(k, n)
        acc = None
        for l in range(lo, hi + 1):
            prod = symbol_mul(at(a, l), at(b, k - l))
            acc = prod if acc is None else symbol_add(acc, prod)
        out.append(acc)
    return SeprSequence(tuple(out))
