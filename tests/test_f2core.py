import ast
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

import crosscap
from crosscap.f2core import (
    Genus,
    GenusMismatchError,
    H1Matrix,
    H1Vector,
    SingularMatrixError,
    compose,
    intersection,
    preserves_intersection_form,
    transvection,
)
from crosscap.gmform import q_eval


def vec(g, text):
    return H1Vector.parse(Genus(g), text)


class TestGenus:
    def test_bounds(self):
        Genus(1)
        Genus(64)
        with pytest.raises(ValueError):
            Genus(0)
        with pytest.raises(ValueError):
            Genus(65)
        with pytest.raises(TypeError):
            Genus("4")


class TestVectorNotation:
    def test_text_round_trip(self):
        v = vec(5, "x1+x3+x4")
        assert v.support == (1, 3, 4)
        assert v.to_text() == "x1+x3+x4"

    def test_bitstring_parse(self):
        v = vec(5, "10110")
        assert v == vec(5, "x1+x3+x4")

    def test_zero(self):
        assert vec(3, "0").is_zero()
        assert vec(3, "0").to_text() == "0"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            vec(4, "101")  # wrong bit string length
        with pytest.raises(ValueError):
            vec(4, "x1+x9")
        with pytest.raises(ValueError):
            vec(4, "x1+x1")
        with pytest.raises(ValueError):
            vec(4, "y2")

    @pytest.mark.parametrize("text", ["x\uff11", "x1+x\u0662", "x\u0967"])
    def test_non_ascii_digits_rejected(self, text):
        # indices are ASCII digits: int() would read a fullwidth or
        # Arabic-Indic one, so the notation must refuse it first
        with pytest.raises(ValueError) as err:
            vec(12, text)
        assert str(err.value) == f"cannot parse vector notation {text!r}"

    def test_lengths(self):
        v = vec(6, "x1+x2+x4")
        assert v.weight == 3


class TestIntersection:
    # the expected values are pinned by polarization against the form:
    # 2 (v . w) = q(v+w) - q(v) - q(w) (mod 4), and (v . v) = -q(v) (mod 2)
    def test_basis_values(self):
        assert intersection(vec(2, "x1"), vec(2, "x1")) == 1
        assert intersection(vec(2, "x1"), vec(2, "x2")) == 0
        assert intersection(vec(2, "x1+x2"), vec(2, "x2")) == 1

    @pytest.mark.parametrize("g", range(1, 9))
    def test_polarization_oracle_exhaustive(self, g):
        genus = Genus(g)
        for vb in range(1 << g):
            v = H1Vector(genus, vb)
            assert intersection(v, v) == q_eval(v) % 2
            for wb in range(1 << g):
                w = H1Vector(genus, wb)
                expected = ((q_eval(v + w) - q_eval(v) - q_eval(w)) % 4) // 2
                assert intersection(v, w) == expected

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatchError):
            intersection(vec(3, "x1"), vec(4, "x1"))

    @given(st.integers(1, 12), st.data())
    def test_symmetric_bilinear(self, g, data):
        genus = Genus(g)
        bits = st.integers(0, (1 << g) - 1)
        v = H1Vector(genus, data.draw(bits))
        w = H1Vector(genus, data.draw(bits))
        u = H1Vector(genus, data.draw(bits))
        assert intersection(v, w) == intersection(w, v)
        assert intersection(v + u, w) == intersection(v, w) ^ intersection(u, w)


class TestTransvection:
    def test_swap_action(self):
        t = transvection(vec(4, "x1+x2"))
        assert t.apply(vec(4, "x1")) == vec(4, "x2")
        assert t.apply(vec(4, "x2")) == vec(4, "x1")
        assert t.apply(vec(4, "x3")) == vec(4, "x3")
        assert t.apply(vec(4, "x4")) == vec(4, "x4")

    def test_fixes_disjoint_class(self):
        t = transvection(vec(4, "x1+x3"))
        assert t.apply(vec(4, "x2")) == vec(4, "x2")

    def test_rejects_odd_weight(self):
        with pytest.raises(SingularMatrixError, match="odd weight"):
            transvection(vec(3, "x1"))

    def test_rejects_zero(self):
        with pytest.raises(SingularMatrixError):
            transvection(vec(3, "0"))

    @pytest.mark.parametrize("g", range(2, 9))
    def test_involution_and_fixed_axis_exhaustive(self, g):
        genus = Genus(g)
        identity = H1Matrix.identity(genus)
        for bits in range(1, 1 << g):
            if bits.bit_count() % 2:
                continue
            a = H1Vector(genus, bits)
            t = transvection(a)
            assert compose(t, t) == identity
            assert t.apply(a) == a


class TestMatrix:
    def test_identity_apply(self):
        genus = Genus(5)
        m = H1Matrix.identity(genus)
        for bits in range(1 << 5):
            v = H1Vector(genus, bits)
            assert m.apply(v) == v

    def test_singular_rejected(self):
        genus = Genus(3)
        with pytest.raises(SingularMatrixError):
            H1Matrix(genus, (0b001, 0b001, 0b100))

    def test_compose_identity_and_involution(self):
        genus = Genus(4)
        t = transvection(vec(4, "x1+x3"))
        assert compose(t, H1Matrix.identity(genus)) == t
        assert compose(t, t) == H1Matrix.identity(genus)
        assert compose(t, t).is_identity

    def test_commuting_triple_is_involution(self):
        # the three axes pair to 0 with each other, so the product squares
        # to the identity and equals its own reversed-order inverse
        a = vec(4, "x1+x2")
        b = vec(4, "x3+x4")
        m = compose(compose(transvection(a), transvection(b)), transvection(a + b))
        reverse = compose(
            compose(transvection(a + b).inverse(), transvection(b).inverse()),
            transvection(a).inverse(),
        )
        assert m == reverse
        assert compose(m, m).is_identity

    def test_associativity_random(self):
        rng = random.Random(20260809)
        for _ in range(1000):
            g = rng.randint(2, 8)
            genus = Genus(g)
            mats = []
            while len(mats) < 3:
                cols = tuple(rng.randrange(1 << g) for _ in range(g))
                try:
                    mats.append(H1Matrix(genus, cols))
                except SingularMatrixError:
                    continue
            a, b, c = mats
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_inverse(self):
        rng = random.Random(7)
        genus = Genus(6)
        for _ in range(50):
            while True:
                cols = tuple(rng.randrange(1 << 6) for _ in range(6))
                try:
                    m = H1Matrix(genus, cols)
                    break
                except SingularMatrixError:
                    continue
            assert compose(m, m.inverse()).is_identity
            assert compose(m.inverse(), m).is_identity

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatchError):
            compose(H1Matrix.identity(Genus(3)), H1Matrix.identity(Genus(4)))
        with pytest.raises(GenusMismatchError):
            H1Matrix.identity(Genus(3)).apply(vec(4, "x1"))

    def test_column_bitstrings_round_trip(self):
        t = transvection(vec(4, "x1+x2"))
        strings = t.to_col_bitstrings()
        assert strings == ["0100", "1000", "0010", "0001"]

    def test_transvection_preserves_form_pairing(self):
        for g in range(2, 7):
            genus = Genus(g)
            for bits in range(1, 1 << g):
                if bits.bit_count() % 2:
                    continue
                assert preserves_intersection_form(transvection(H1Vector(genus, bits)))


def test_no_assert_statement_in_package():
    # internal checks raise through f2core._check, so python -O keeps them
    package = pathlib.Path(crosscap.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
