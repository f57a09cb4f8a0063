"""Formal twist / crosscap-slide words and their action on mod-2 homology.

Letters, whitespace separated, with an optional integer exponent:

    t_{a_3}   t_{c_2}^{-1}   t_{d_4}   Y_{3,1}   Y_{alpha_{1,3,4},alpha_{1,3,4,5}}

The rightmost letter of a word acts first.  Twists act as transvections
about the class of their circle; every crosscap slide (Y letter) acts as the
identity.  Exponents are kept on the letter so certificates round-trip
verbatim; homologically an inverse twist acts like the twist itself since
all these transvections are involutions.

Curve classes of the twisting circles in the standard basis (`_axis_bits`):

    a_i -> x_i + x_{i+1}        c_i -> x_i + x_{i+1} + x_{i+2} + x_{i+3}
    d_i -> x_i + x_{i+2}        alpha_I -> sum of x_i over I

b-circles are accepted by the grammar but rejected with a diagnostic: no
homology class is assigned to them in this model, and every generating set
used here avoids them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .f2core import Genus, GenusMismatchError, H1Matrix, H1Vector, _check, _require_same_genus
from .gmform import QPreservationVerdict, preserves_q, q_eval, z4_str


class WordParseError(ValueError):
    """Malformed word text; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedLetterError(ValueError):
    """A parseable letter whose homology action is deliberately undefined."""


@dataclass(frozen=True)
class Letter:
    """One generator letter.

    kind is one of "a", "b", "c", "d" (twists, args = (index,)), "y"
    (args = (i, j)) or "ya" (args = (leg tuple, arm tuple)).  power != 0;
    negative powers are formal inverses.
    """

    kind: str
    args: tuple
    power: int = 1

    def with_power(self, power: int) -> "Letter":
        return Letter(self.kind, self.args, power)

    def spell(self) -> str:
        if self.kind in ("a", "b", "c", "d"):
            base = f"t_{{{self.kind}_{self.args[0]}}}"
        elif self.kind == "y":
            base = f"Y_{{{self.args[0]},{self.args[1]}}}"
        elif self.kind == "ya":
            leg, arm = self.args
            base = f"Y_{{{_spell_alpha(leg)},{_spell_alpha(arm)}}}"
        else:
            raise ValueError(f"unknown letter kind {self.kind!r}")
        if self.power != 1:
            base += f"^{{{self.power}}}"
        return base

    def __str__(self) -> str:
        return self.spell()


def _spell_alpha(indices: tuple) -> str:
    if len(indices) == 1:
        return f"alpha_{indices[0]}"
    return "alpha_{" + ",".join(str(i) for i in indices) + "}"


_ALPHA_SET = r"(?:alpha|α)_([0-9]+|\{[0-9]+(?:,[0-9]+)*\})"
# one pattern reads a whole token: a letter, its alternatives tried in order
# (alpha slide: groups leg, arm; index slide: i, j; twist: kind and its index,
# bare or braced), then an optional exponent (the group holding "^", then the
# power, braced or bare); or else the first character that starts no letter.
# Whitespace matches nothing, so `finditer` steps over it.
_RX_TOKEN = re.compile(
    r"(?:Y_\{" + _ALPHA_SET + "," + _ALPHA_SET + r"\}"
    r"|Y_\{([0-9]+),([0-9]+)\}"
    r"|t_\{([a-d])_(?:([0-9]+)|\{([0-9]+)\})\})"
    r"(?P<caret>\^(?:\{(-?[0-9]+)\}|(-?[0-9]+)))?"
    r"|(\S)"
)


def _indices(text: str) -> tuple[int, ...]:
    """The indices written "3" or "{1,3,4}"."""
    return tuple(int(t) for t in text.strip("{}").split(","))


def parse_word(text: str, genus: Genus) -> "MCGWord":
    """Parse word text under the grammar above; positions reported on errors."""
    letters = []
    for m in _RX_TOKEN.finditer(text):
        leg, arm, i, j, kind, index, braced, caret, exp, bare_exp, stray = m.groups()
        if stray is not None:
            pos = m.start()
            raise WordParseError(f"unrecognized letter {text[pos : pos + 16]!r}", pos)
        if kind is not None:
            args = (int(index or braced),)
        elif leg is not None:
            kind, args = "ya", (_indices(leg), _indices(arm))
        else:
            kind, args = "y", (int(i), int(j))
        power = 1 if caret is None else int(exp or bare_exp)
        if power == 0:
            raise WordParseError("zero exponent is not allowed", m.start("caret"))
        letters.append(Letter(kind, args, power))
    return MCGWord(genus, tuple(letters))


# support of each twisting circle's class, shifted to start at x_i
_AXIS_PATTERN = {"a": 0b11, "c": 0b1111, "d": 0b101}


def _validate_letter(letter: Letter, genus: Genus) -> None:
    g = genus.g
    kind, args = letter.kind, letter.args
    if letter.power == 0:
        raise ValueError(f"{letter.spell()}: zero exponent is not allowed")
    if kind == "b":
        raise UnsupportedLetterError(
            f"{letter.spell()}: twists about b-circles carry no homology class in "
            "this model and are rejected; rewrite the word over a-, c-, d- and "
            "Y-letters instead"
        )
    if kind in _AXIS_PATTERN:
        # the circle about x_i covers its pattern's span from x_i
        top = g + 1 - _AXIS_PATTERN[kind].bit_length()
        i = args[0]
        if top < 1:
            raise ValueError(f"{letter.spell()}: no {kind}-twist exists at genus {g}")
        if not 1 <= i <= top:
            raise ValueError(
                f"{letter.spell()}: index {i} out of range 1..{top} at genus {g}"
            )
    elif kind == "y":
        i, j = args
        if not (1 <= i <= g and 1 <= j <= g):
            raise ValueError(f"{letter.spell()}: indices must lie in 1..{g}")
        if i == j:
            raise ValueError(f"{letter.spell()}: leg and arm indices must differ")
    elif kind == "ya":
        leg, arm = args
        for t in (leg, arm):
            if any(not 1 <= i <= g for i in t):
                raise ValueError(f"{letter.spell()}: indices must lie in 1..{g}")
            if tuple(sorted(set(t))) != t:
                raise ValueError(
                    f"{letter.spell()}: index sets must be strictly ascending"
                )
        ok_pair = len(leg) == 1 and len(arm) == 2 and leg[0] in arm
        ok_quad = (
            len(leg) == 3
            and len(arm) == 4
            and arm[:3] == leg
        )
        if not (ok_pair or ok_quad):
            raise ValueError(
                f"{letter.spell()}: expected a one-index leg inside a two-index arm, "
                "or a three-index leg extended upward by one arm index"
            )
    else:
        raise ValueError(f"unknown letter kind {kind!r}")


@dataclass(frozen=True)
class MCGWord:
    """A validated word; the rightmost letter acts first.

    Its text, axes, matrix and inverse are computed from its letters once,
    on first use, and kept on the word (the inverse keeps its own matrix);
    its fields stay immutable, so equality, hashing and sharing are those
    of the letters.
    """

    genus: Genus
    letters: tuple[Letter, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for letter in self.letters:
            _validate_letter(letter, self.genus)

    @cached_property
    def text(self) -> str:
        return " ".join(letter.spell() for letter in self.letters)

    @cached_property
    def axes(self) -> tuple[int, ...]:
        """Axis masks of the word's odd-power twists, rightmost letter first.

        Transvections are involutions, so only odd powers act, and Y letters
        act as the identity.
        """
        return tuple(
            a for l in reversed(self.letters) if l.power % 2 and (a := _axis_bits(l))
        )

    @cached_property
    def _matrix(self) -> H1Matrix:
        """Matrix of the word's homology action, read through induced_matrix.

        A basis class outside the union of the axes pairs evenly with every
        axis, so no twist moves it: only the columns inside the union are
        folded, and the rest stay basis columns."""
        axes = self.axes
        touched = 0
        for a in axes:
            touched |= a
        cols = [1 << j for j in range(self.genus.g)]
        inside = [c for c in cols if c & touched]
        for basis, c in zip(inside, _fold(axes, inside)):
            cols[basis.bit_length() - 1] = c
        return H1Matrix(self.genus, tuple(cols))

    def spell(self) -> str:
        return self.text

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return len(self.letters)

    @classmethod
    def _joined(cls, genus: Genus, letters: tuple[Letter, ...]) -> "MCGWord":
        """A word over letters already validated at this genus, not checked again."""
        word = object.__new__(cls)
        object.__setattr__(word, "genus", genus)
        object.__setattr__(word, "letters", letters)
        return word

    def inverse(self) -> "MCGWord":
        return self._inverse

    @cached_property
    def _inverse(self) -> "MCGWord":
        inverse = MCGWord._joined(
            self.genus,
            tuple(l.with_power(-l.power) for l in reversed(self.letters)),
        )
        # the inverse's inverse is this word
        inverse.__dict__["_inverse"] = self
        return inverse


def _require_genus(genus: Genus, words) -> None:
    for word in words:
        if word.genus.g != genus.g:
            raise GenusMismatchError(
                f"cannot join a word over genus {word.genus.g} into genus {genus.g}"
            )


def _axis_bits(letter: Letter) -> int:
    """Mask of the twisting circle's class for a validated letter; 0 for Y."""
    pattern = _AXIS_PATTERN.get(letter.kind)
    return pattern << (letter.args[0] - 1) if pattern else 0


def _fold(axes, masks) -> list[int]:
    """Images of class masks under the transvections about `axes`, first
    axis acting first: a twist about a acts as c -> c + (c . a) a."""
    out = []
    for c in masks:
        for a in axes:
            if (c & a).bit_count() & 1:
                c ^= a
        out.append(c)
    return out


def certify(genus: Genus, steps, sources, targets, what: str) -> str:
    """A reduction's certificate: the text of its list of step words joined
    into one word, the first step acting first (rightmost).  The steps' own
    axes, taken in step order, must carry the list of source class masks
    onto the list of target masks, or InternalCheckError(what) is raised."""
    _require_genus(genus, steps)
    axes = [a for step in steps for a in step.axes]
    _check(_fold(axes, sources) == targets, what)
    return " ".join(step.text for step in reversed(steps))


def act(word: MCGWord, v: H1Vector) -> H1Vector:
    """Image of a class under the word's homology action."""
    _require_same_genus(word, v)
    return H1Vector(v.genus, _fold(word.axes, [v.bits])[0])


def induced_matrix(word: MCGWord) -> H1Matrix:
    """Matrix of the word's homology action; column j is the image of x_{j+1}.
    Folded once per word, on first use, and kept on the word."""
    return word._matrix


@dataclass(frozen=True)
class ExtendabilityVerdict:
    word: MCGWord
    matrix: H1Matrix
    extendable: bool
    witness: H1Vector | None = None

    def __bool__(self) -> bool:
        return self.extendable

    def to_json(self) -> dict:
        out = {
            "word": self.word.spell(),
            "genus": self.word.genus.g,
            "matrix": self.matrix.to_col_bitstrings(),
            "extendable": self.extendable,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_text()
        return out


def decide_extendable(word: MCGWord) -> ExtendabilityVerdict:
    """Decide extendability of a word over the standardly embedded surface.

    A mapping class extends over the ambient four-sphere exactly when its
    homology action preserves the mod-4 form, so the decision is exact.  On
    a negative answer the verdict carries a witness class whose form value
    changes.
    """
    m = induced_matrix(word)
    verdict: QPreservationVerdict = preserves_q(m)
    return ExtendabilityVerdict(word, m, verdict.preserves, verdict.witness)


def witness_detail(verdict: ExtendabilityVerdict) -> str:
    """Human-readable account of a failing witness."""
    if verdict.witness is None:
        return ""
    before = q_eval(verdict.witness)
    after = q_eval(verdict.matrix.apply(verdict.witness))
    return (
        f"form value of {verdict.witness.to_text()} changes "
        f"{z4_str(before)} -> {z4_str(after)}"
    )
