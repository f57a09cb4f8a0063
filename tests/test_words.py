import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from crosscap.f2core import Genus, GenusMismatchError, H1Matrix, H1Vector, compose, preserves_intersection_form, transvection
from crosscap.gmform import q_eval
from crosscap.groupops import reduce_isotropic_pair, reduce_q2_vector
from crosscap.rewrite import AlphaTriple, RSequence, reduce_alpha, reduce_rseq
from crosscap.words import (
    Letter,
    MCGWord,
    UnsupportedLetterError,
    WordParseError,
    _axis_bits,
    act,
    certify,
    decide_extendable,
    induced_matrix,
    parse_word,
)

from helpers import circle_support, random_word_text, twist_top


def vec(g, text):
    return H1Vector.parse(Genus(g), text)


_POWERS = st.sampled_from([1, -1, 2, -2, 3, -3])


@st.composite
def letters(draw, g):
    """Any valid letter at genus g, with odd, even and negative powers."""
    kinds = ["a", "y", "ya"] + (["d"] if g >= 3 else []) + (["c"] if g >= 4 else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("a", "c", "d"):
        return Letter(kind, (draw(st.integers(1, twist_top(kind, g))),), draw(_POWERS))
    if kind == "y":
        i, j = draw(st.lists(st.integers(1, g), min_size=2, max_size=2, unique=True))
        return Letter("y", (i, j), draw(_POWERS))
    if g >= 4 and draw(st.booleans()):
        arm = tuple(sorted(draw(st.lists(st.integers(1, g), min_size=4, max_size=4, unique=True))))
        return Letter("ya", (arm[:3], arm), draw(_POWERS))
    arm = tuple(sorted(draw(st.lists(st.integers(1, g), min_size=2, max_size=2, unique=True))))
    return Letter("ya", ((draw(st.sampled_from(arm)),), arm), draw(_POWERS))


@st.composite
def words(draw):
    g = draw(st.integers(2, 64))
    return MCGWord(Genus(g), tuple(draw(st.lists(letters(g), max_size=12))))


def product_of_transvections(word):
    """Oracle: compose one transvection matrix per odd-power twist."""
    acc = H1Matrix.identity(word.genus)
    for letter in word.letters:
        support = circle_support(letter)
        if support and letter.power % 2:
            acc = compose(acc, transvection(H1Vector.from_indices(word.genus, support)))
    return acc


class TestGrammar:
    def test_round_trip(self):
        text = "t_{a_1} t_{c_2}^{-1} Y_{3,1} t_{d_4} Y_{alpha_{1,3,4},alpha_{1,3,4,5}}"
        word = parse_word(text, Genus(7))
        assert word.spell() == text
        assert parse_word(word.spell(), Genus(7)) == word

    def test_exponent_forms(self):
        g = Genus(5)
        assert parse_word("t_{a_1}^{-1}", g) == parse_word("t_{a_1}^-1", g)
        assert parse_word("t_{a_1}^{2}", g) == parse_word("t_{a_1}^2", g)
        assert parse_word("t_{d_{3}}", g) == parse_word("t_{d_3}", g)

    def test_alpha_singleton_form(self):
        word = parse_word("Y_{alpha_1,alpha_{1,2}}", Genus(4))
        assert word.letters[0].kind == "ya"
        assert word.letters[0].args == ((1,), (1, 2))

    def test_empty_word(self):
        word = parse_word("   ", Genus(3))
        assert len(word) == 0
        assert induced_matrix(word).is_identity

    def test_parse_error_position(self):
        with pytest.raises(WordParseError) as err:
            parse_word("t_{a_1} nonsense", Genus(4))
        assert err.value.position == 8

    def test_zero_exponent_rejected(self):
        with pytest.raises(WordParseError):
            parse_word("t_{a_1}^{0}", Genus(4))

    def test_b_letters_rejected_with_diagnostic(self):
        with pytest.raises(UnsupportedLetterError, match="b-circles"):
            parse_word("t_{b_2}", Genus(6))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            parse_word("t_{a_5}", Genus(5))
        with pytest.raises(ValueError):
            parse_word("t_{c_3}", Genus(5))
        with pytest.raises(ValueError):
            parse_word("t_{d_4}", Genus(5))
        with pytest.raises(ValueError):
            parse_word("Y_{2,2}", Genus(5))
        with pytest.raises(ValueError):
            parse_word("Y_{1,6}", Genus(5))
        with pytest.raises(ValueError, match=r"^t_\{c_1\}: no c-twist exists at genus 2$"):
            parse_word("t_{c_1}", Genus(2))
        with pytest.raises(ValueError, match=r"^t_\{d_1\}: no d-twist exists at genus 2$"):
            parse_word("t_{d_1}", Genus(2))

    @pytest.mark.parametrize("kind", ["a", "c", "d"])
    def test_twist_index_range_matches_circle_support(self, kind):
        # parse_word accepts t_{kind_i} exactly when the twisting circle's
        # support fits in 1..g; a refusal names the largest index that fits
        for g in range(1, 65):
            genus = Genus(g)
            fits = [
                i for i in range(g + 2)
                if all(1 <= t <= g for t in circle_support(Letter(kind, (i,))))
            ]
            for i in range(g + 2):
                text = f"t_{{{kind}_{i}}}"
                if i in fits:
                    assert parse_word(text, genus).letters == (Letter(kind, (i,)),)
                    continue
                with pytest.raises(ValueError) as info:
                    parse_word(text, genus)
                if fits:
                    reason = f"index {i} out of range 1..{fits[-1]} at genus {g}"
                else:
                    reason = f"no {kind}-twist exists at genus {g}"
                assert str(info.value) == f"{text}: {reason}"

    def test_alpha_letter_validation(self):
        with pytest.raises(ValueError):
            parse_word("Y_{alpha_{1,3},alpha_{1,3,4}}", Genus(6))  # leg size 2
        with pytest.raises(ValueError):
            parse_word("Y_{alpha_{1,3,4},alpha_{1,2,3,4}}", Genus(6))  # arm not upward
        with pytest.raises(ValueError):
            parse_word("Y_{alpha_2,alpha_{3,4}}", Genus(6))  # leg outside arm

    def test_inverse_word(self):
        g = Genus(5)
        word = parse_word("t_{a_1} Y_{2,1} t_{d_2}^{-1}", g)
        assert word.inverse().spell() == "t_{d_2} Y_{2,1}^{-1} t_{a_1}^{-1}"
        assert induced_matrix(word.inverse()) == induced_matrix(word).inverse()

    def test_joined_words_equal_validated_words(self):
        genus = Genus(16)
        one = parse_word("t_{a_1} Y_{2,1} t_{d_2}^{-1}", genus)
        two = parse_word("t_{c_13} Y_{alpha_{4,6,7},alpha_{4,6,7,9}}^{2}", genus)
        for word in (one, two):
            inverse = word.inverse()
            assert inverse == MCGWord(genus, inverse.letters)

    def test_joined_words_reject_another_genus(self):
        # t_{d_14} and t_{c_13} are valid at genus 16 but not at genus 12
        big = parse_word("t_{d_14} t_{c_13}", Genus(16))
        small = parse_word("t_{a_1} t_{d_2}", Genus(12))
        # a certificate's steps are refused before any replay
        for genus, steps in (
            (Genus(12), [small, big]),
            (Genus(12), [big.inverse()]),
            (Genus(16), [big, small]),
            (Genus(16), [small.inverse()]),
        ):
            with pytest.raises(GenusMismatchError):
                certify(genus, steps, [0], [0], "unused")


class TestInducedAction:
    def test_slides_act_trivially(self):
        assert induced_matrix(parse_word("Y_{1,2}", Genus(4))).is_identity
        assert induced_matrix(
            parse_word("Y_{alpha_{1,2,3},alpha_{1,2,3,4}}", Genus(4))
        ).is_identity

    def test_twist_is_transvection(self):
        assert induced_matrix(parse_word("t_{d_1}", Genus(4))) == transvection(
            vec(4, "x1+x3")
        )

    def test_triple_product(self):
        m = induced_matrix(parse_word("t_{a_1} t_{a_3} t_{c_1}", Genus(4)))
        expected = compose(
            compose(transvection(vec(4, "x1+x2")), transvection(vec(4, "x3+x4"))),
            transvection(vec(4, "x1+x2+x3+x4")),
        )
        assert m == expected

    def test_inverse_flag_acts_like_twist(self):
        g = Genus(5)
        assert induced_matrix(parse_word("t_{a_2}^{-1}", g)) == induced_matrix(
            parse_word("t_{a_2}", g)
        )
        assert induced_matrix(parse_word("t_{a_2}^{2}", g)).is_identity

    @settings(max_examples=150, deadline=None)
    @given(st.integers(4, 9), st.integers(0, 2**32 - 1), st.data())
    def test_morphism_property(self, g, seed, data):
        import random as _random

        rng = _random.Random(seed)
        u = parse_word(random_word_text(rng, g, 6), Genus(g))
        v = parse_word(random_word_text(rng, g, 6), Genus(g))
        uv = MCGWord(Genus(g), u.letters + v.letters)
        assert induced_matrix(uv) == compose(induced_matrix(u), induced_matrix(v))

    @settings(max_examples=300, deadline=None)
    @given(words(), st.data())
    def test_matches_transvection_product(self, word, data):
        oracle = product_of_transvections(word)
        v = H1Vector(word.genus, data.draw(st.integers(0, (1 << word.genus.g) - 1)))
        assert induced_matrix(word) == oracle
        assert act(word, v) == oracle.apply(v)
        assert parse_word(word.spell(), word.genus) == word

    def test_empty_word(self):
        for g in (2, 20, 64):
            assert induced_matrix(MCGWord(Genus(g), ())).is_identity

    def test_every_letter_preserves_pairing(self):
        g = Genus(6)
        words = ["t_{a_3}", "t_{c_2}", "t_{d_4}", "Y_{5,2}"]
        for text in words:
            assert preserves_intersection_form(induced_matrix(parse_word(text, g)))


class TestExtendability:
    def test_slides_extend(self):
        assert decide_extendable(parse_word("Y_{3,1}", Genus(4))).extendable

    def test_two_index_twists_extend(self):
        for i in (1, 2):
            assert decide_extendable(parse_word(f"t_{{d_{i}}}", Genus(4))).extendable

    def test_plain_twist_fails_with_witness(self):
        verdict = decide_extendable(parse_word("t_{a_1}", Genus(4)))
        assert not verdict.extendable
        assert verdict.witness == vec(4, "x1")

    def test_squares_extend(self):
        g = Genus(6)
        for i in range(1, 6):
            assert decide_extendable(parse_word(f"t_{{a_{i}}}^{{2}}", g)).extendable
        for i in range(1, 4):
            assert decide_extendable(parse_word(f"t_{{c_{i}}}^{{2}}", g)).extendable

    def test_insensitive_to_slide_insertion(self):
        import random as _random

        rng = _random.Random(4242)
        g = 6
        for _ in range(60):
            text = random_word_text(rng, g, 8)
            word = parse_word(text, Genus(g))
            base = decide_extendable(word).extendable
            slot = rng.randint(0, len(word.letters))
            letters = list(word.letters)
            letters.insert(slot, Letter("y", (2, 5)))
            dressed = MCGWord(Genus(g), tuple(letters))
            assert decide_extendable(dressed).extendable == base

    def test_verdict_json_fields(self):
        verdict = decide_extendable(parse_word("t_{a_1}", Genus(4)))
        payload = verdict.to_json()
        assert set(payload) == {"word", "genus", "matrix", "extendable", "witness"}
        good = decide_extendable(parse_word("t_{d_1}", Genus(4))).to_json()
        assert "witness" not in good



def _letter_axes(word):
    """Oracle: the axes of the word's odd-power twists, rightmost letter
    first, recomputed letter by letter."""
    return [a for l in reversed(word.letters) if l.power % 2 and (a := _axis_bits(l))]


class TestWordMemo:
    @settings(max_examples=200, deadline=None)
    @given(words())
    def test_text_and_axes_match_letters(self, word):
        assert word.text == " ".join(l.spell() for l in word.letters)
        assert word.spell() == word.text == str(word)
        assert list(word.axes) == _letter_axes(word)
        inverse = word.inverse()
        assert list(inverse.axes) == _letter_axes(inverse)

    @settings(max_examples=200, deadline=None)
    @given(words())
    def test_inverse_is_kept(self, word):
        inverse = word.inverse()
        assert word.inverse() is inverse
        assert inverse.inverse() == word
        assert inverse.letters == tuple(
            l.with_power(-l.power) for l in reversed(word.letters)
        )

    @settings(max_examples=200, deadline=None)
    @given(words())
    def test_filled_memo_keeps_equality_and_hash(self, word):
        word.text, word.axes, word.inverse()
        fresh = parse_word(" ".join(l.spell() for l in word.letters), word.genus)
        assert fresh == word and hash(fresh) == hash(word)
        assert word.inverse() == fresh.inverse()
        assert hash(word.inverse()) == hash(fresh.inverse())


def _replays(genus, text, sources, targets):
    """Oracle for a reduction's certificate: the text parses at the genus,
    spells back letter by letter to itself, and its axes, recomputed from
    the parsed letters, carry the source masks onto the target masks."""
    word = parse_word(text, genus)
    assert " ".join(l.spell() for l in word.letters) == text
    axes = _letter_axes(word)
    images = []
    for c in sources:
        for a in axes:
            if (c & a).bit_count() & 1:
                c ^= a
        images.append(c)
    assert images == targets


def _mask(indices):
    return sum(1 << (t - 1) for t in indices)


def _seeded_class(rng, genus, value):
    """A random nonzero class with form value `value` at the genus."""
    while True:
        v = H1Vector(genus, rng.randrange(1, 1 << genus.g))
        if q_eval(v) == value:
            return v


_SEEDED_GENERA = (6, 7, 8, 9, 12, 16, 17, 24, 32, 47, 64)


class TestCertificateOracle:
    """Each reduction's word, from memoized step texts and replayed on
    memoized step axes, against a fresh parse replayed letter by letter."""

    @pytest.mark.parametrize("g", range(1, 11))
    def test_every_sequence(self, g):
        genus = Genus(g)
        for bits in range(1 << g):
            path = reduce_rseq(RSequence(genus, bits))
            _replays(genus, path.word, [bits], [path.end.bits])

    @pytest.mark.parametrize("g", range(3, 13))
    def test_every_triple(self, g):
        genus = Genus(g)
        for t in combinations(range(1, g + 1), 3):
            red = reduce_alpha(genus, AlphaTriple(*t))
            _replays(genus, red.word, [_mask(t)], [_mask(red.terminal)])

    @pytest.mark.parametrize("g", _SEEDED_GENERA)
    def test_seeded_q2_classes(self, g):
        genus = Genus(g)
        rng = random.Random(1700 + g)
        for _ in range(20):
            a = _seeded_class(rng, genus, 2)
            red = reduce_q2_vector(a)
            _replays(genus, red.word, [a.bits], [red.end.bits])

    @pytest.mark.parametrize("g", _SEEDED_GENERA)
    def test_seeded_isotropic_pairs(self, g):
        genus = Genus(g)
        rng = random.Random(1800 + g)
        w = H1Vector.from_indices(genus, range(1, g + 1))
        branches = set()
        for k in range(40):
            a = _seeded_class(rng, genus, 0)
            # every other pair spans w: the full-support branch at even genus
            b = a + w if k % 2 else _seeded_class(rng, genus, 0)
            if b.is_zero() or q_eval(b) or q_eval(a + b):
                continue
            red = reduce_isotropic_pair(a, b)
            branches.add(red.branch)
            named = {"a": a, "b": b, "a+b": a + b}
            sources = [named[name].bits for name in red.tracked_pair]
            _replays(genus, red.word, sources, [v.bits for v in red.final_pair])
        assert "generic" in branches and ("full_support" in branches or g % 2)
