import random
from itertools import product

import pytest

from crosscap import gmform
from crosscap.f2core import (
    BudgetExceededError,
    Genus,
    H1Matrix,
    H1Vector,
    _odd_mask,
    compose,
    preserves_intersection_form,
    transvection,
)
from crosscap.gmform import (
    _smallest_failing,
    basis_value,
    preserves_q,
    q_eval,
    q_eval_recursive,
    q_table,
    z4_str,
)
from crosscap.words import decide_extendable, parse_word

from helpers import _rank_f2, random_invertible_cols, random_word_text, scan_first_failing


def vec(g, text):
    return H1Vector.parse(Genus(g), text)


def bits(*indices):
    return sum(1 << (i - 1) for i in indices)


def _transvect(cols, axis):
    return [c ^ axis if (c & axis).bit_count() & 1 else c for c in cols]


def mixed_invertible_cols(rng, g):
    """Random invertible matrices of four kinds, so that every branch of the
    isometry test is reached: uniform (fails early), isometries (no failure),
    pairing-preserving non-isometries (a basis class fails, often late) and
    perturbed isometries (often a two-class witness)."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_invertible_cols(rng, g)
    qtab = q_table(Genus(g))
    even_axes = [a for a in (rng.randrange(1, 1 << g) for _ in range(40)) if a.bit_count() % 2 == 0]
    axes = even_axes if kind == 2 else [a for a in even_axes if qtab[a] == 2]
    cols = [1 << j for j in range(g)]
    for a in axes[: rng.randint(1, 12)]:
        cols = _transvect(cols, a)
    if kind == 3:
        while True:
            trial = list(cols)
            trial[rng.randrange(g)] ^= rng.randrange(1, 1 << g)
            if _rank_f2(tuple(trial)) == g:
                cols = trial
                break
    return tuple(cols)


def assert_matches_scan(m):
    expected = scan_first_failing(m.cols, m.genus.g)
    verdict = preserves_q(m)
    witness = None if verdict.witness is None else verdict.witness.bits
    assert (verdict.preserves, witness) == (expected is None, expected)
    return expected


class TestEvaluation:
    def test_basis_values(self):
        assert q_eval(vec(4, "x1")) == 1
        assert q_eval(vec(4, "x3")) == 1
        assert q_eval(vec(4, "x2")) == 3
        assert q_eval(vec(4, "x4")) == 3
        assert q_eval(vec(4, "0")) == 0

    def test_two_index_values(self):
        assert q_eval(vec(4, "x1+x3")) == 2
        assert q_eval_recursive(vec(4, "x1+x3")) == 2
        assert q_eval(vec(4, "x1+x2")) == 0
        assert q_eval_recursive(vec(4, "x1+x2")) == 0  # 1 + 3 + 2*0 mod 4

    def test_four_index_value(self):
        assert q_eval(vec(4, "x1+x2+x3+x4")) == 0
        assert q_eval_recursive(vec(4, "x1+x2+x3+x4")) == 0

    @pytest.mark.parametrize("g", range(1, 11))
    def test_oracle_equality_exhaustive(self, g):
        genus = Genus(g)
        for bits in range(1 << g):
            v = H1Vector(genus, bits)
            assert q_eval(v) == q_eval_recursive(v)

    @pytest.mark.parametrize("g", range(1, 7))
    def test_quadratic_refinement_exhaustive(self, g):
        genus = Genus(g)
        qt = q_table(genus)
        for v in range(1 << g):
            for w in range(1 << g):
                lhs = qt[v ^ w]
                rhs = (qt[v] + qt[w] + 2 * ((v & w).bit_count() & 1)) % 4
                assert lhs == rhs

    def test_basis_value_function(self):
        assert basis_value(1) == 1
        assert basis_value(2) == 3
        assert basis_value(7) == 1

    def test_display(self):
        assert [z4_str(v) for v in range(4)] == ["0", "1", "2", "3"]
        assert [z4_str(v, signed=True) for v in range(4)] == ["0", "+1", "2", "-1"]


class TestPreservation:
    def test_identity(self):
        assert preserves_q(H1Matrix.identity(Genus(5))).preserves

    def test_good_transvection(self):
        assert preserves_q(transvection(vec(4, "x1+x3"))).preserves

    def test_bad_transvection_with_witness(self):
        verdict = preserves_q(transvection(vec(4, "x1+x2")))
        assert not verdict.preserves
        assert verdict.witness == vec(4, "x1")
        assert verdict.mode == "exhaustive"

    @pytest.mark.parametrize("g", range(2, 7))
    def test_transvection_criterion_exhaustive(self, g):
        # a transvection preserves the form exactly when its axis has value 2
        genus = Genus(g)
        for bits in range(1, 1 << g):
            if bits.bit_count() % 2:
                continue
            a = H1Vector(genus, bits)
            verdict = preserves_q(transvection(a))
            assert verdict.preserves == (q_eval(a) == 2)

    @pytest.mark.parametrize("g", range(2, 6))
    def test_triple_criterion_exhaustive(self, g):
        genus = Genus(g)
        vectors = [H1Vector(genus, b) for b in range(1, 1 << g)]
        zeros = [v for v in vectors if q_eval(v) == 0]
        for a in zeros:
            for b in zeros:
                if a == b or q_eval(a + b) != 0:
                    continue
                m = compose(
                    compose(transvection(a), transvection(b)), transvection(a + b)
                )
                assert preserves_q(m).preserves


class TestSmallestWitness:
    """The O(g^2) witness against the increasing 2^g scan it replaced."""

    @pytest.mark.parametrize("g", range(1, 5))
    def test_every_invertible_matrix(self, g):
        genus = Genus(g)
        seen = set()
        for cols in product(range(1 << g), repeat=g):
            if _rank_f2(cols) == g:
                w = assert_matches_scan(H1Matrix(genus, cols))
                seen.add(0 if w is None else w.bit_count())
        # below genus 3 no pair can fail, and genus 1 has only the identity
        assert seen == {1: {0}, 2: {0, 1}}.get(g, {0, 1, 2})

    @pytest.mark.parametrize("g", range(5, 13))
    def test_random_invertible_matrices(self, g):
        rng = random.Random(1000 + g)
        genus = Genus(g)
        seen = set()
        for _ in range(200):
            w = assert_matches_scan(H1Matrix(genus, mixed_invertible_cols(rng, g)))
            seen.add(0 if w is None else w.bit_count())
        assert seen == {0, 1, 2}

    @pytest.mark.parametrize("g", range(13, 17))
    def test_random_words(self, g):
        rng = random.Random(2000 + g)
        genus = Genus(g)
        for n in range(8):
            if n % 2:
                # d-twists and slides only: extendable, so the scan runs in full
                text = " ".join(
                    f"t_{{d_{rng.randint(1, g - 2)}}}" if rng.random() < 0.7
                    else f"Y_{{{rng.randint(1, g // 2)},{rng.randint(g // 2 + 1, g)}}}"
                    for _ in range(rng.randint(1, 12))
                )
            else:
                text = random_word_text(rng, g, 12)
            assert_matches_scan(decide_extendable(parse_word(text, genus)).matrix)

    @pytest.mark.parametrize("g", (21, 24, 32, 48, 64))
    def test_word_witness_is_first_failing_basis_class(self, g):
        # a word's matrix keeps the pairing (each twist axis has even
        # weight), so its smallest failing class is a basis class: the
        # first one whose image changes its form value
        rng = random.Random(3000 + g)
        genus = Genus(g)
        basis = [H1Vector.basis(genus, i) for i in range(1, g + 1)]
        seen = set()
        for _ in range(30):
            verdict = decide_extendable(parse_word(random_word_text(rng, g, 12), genus))
            m = verdict.matrix
            assert preserves_intersection_form(m)
            oracle = next(
                (e for e in basis if q_eval_recursive(m.apply(e)) != q_eval_recursive(e)), None
            )
            assert verdict.witness == oracle
            assert verdict.extendable == (oracle is None)
            seen.add(verdict.extendable)
        assert seen == {False, True}

    def test_pinned_two_class_witnesses(self):
        # computed with the 2^g scan at genus 20 before it left the library;
        # the failure lies in columns 1..7, so larger genera share it
        for g in (20, 21, 24):
            cols = [1 << j for j in range(g)]
            cols[4] = bits(2, 4, 5, 6, 8)
            cols[6] = bits(1, 2, 7)
            m = H1Matrix(Genus(g), tuple(cols))
            verdict = preserves_q(m)
            assert (verdict.witness.to_text(), verdict.mode) == ("x2+x5", "exhaustive")
            assert _smallest_failing(m.cols, _odd_mask(g)) == bits(2, 5)

    def test_no_form_table_needed(self, monkeypatch):
        def refuse(genus):
            raise AssertionError("preserves_q must not build a form table")

        monkeypatch.setattr(gmform, "q_table", refuse)
        word = "t_{c_14} t_{d_16}^{-1} Y_{3,17} t_{a_2}^{2} t_{d_1} t_{c_15} t_{a_17}"
        verdict = decide_extendable(parse_word(word, Genus(20)))
        assert (verdict.extendable, verdict.witness.to_text()) == (False, "x14")
        assert decide_extendable(parse_word("t_{d_3} t_{d_17}", Genus(20))).extendable


def test_form_table_budget():
    before = q_table.cache_info().currsize
    with pytest.raises(BudgetExceededError) as info:
        q_table(Genus(21))
    assert str(info.value) == "form table is budgeted for genus <= 20, got 21"
    assert q_table.cache_info().currsize == before
