import dataclasses
import hashlib
import json
import math
import pathlib
import random
import sys
import threading
from itertools import islice, product

import pytest
from hypothesis import example, given, settings, strategies as st

from crosscap import groupops
from crosscap.cli import main
from crosscap.f2core import (
    BudgetExceededError,
    Genus,
    H1Matrix,
    H1Vector,
    InternalCheckError,
    apply_mask,
    compose,
    transvection,
)
from crosscap.gmform import preserves_q, q_eval, q_table
from crosscap.groupops import (
    FACTORIZE_GENUS_CAP,
    _Reducer,
    _SearchTree,
    _moves,
    _pack,
    _packed_move,
    _unpack,
    enumerate_orthogonal,
    factorize,
    full_support_factorization,
    level_counts,
    reduce_isotropic_pair,
    reduce_q2_vector,
    standard_generators,
    subgroup_closure,
    two_index_label,
    verify_generation,
)
from crosscap.words import act, induced_matrix, parse_word

from helpers import (
    backward_tree,
    brute_orthogonal_cols,
    closure_oracle,
    factorize_oracle,
    falsified,
    grow_unpruned,
    random_invertible_cols,
    replay_certificates,
    rewire,
    run_python,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_orders.json").read_text()
)


def vec(g, text):
    return H1Vector.parse(Genus(g), text)


class TestEnumeration:
    @pytest.mark.parametrize("g,order", [(1, 1), (2, 1), (3, 2)])
    def test_small_orders(self, g, order):
        assert enumerate_orthogonal(Genus(g)).order == order

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_against_brute_filter(self, g):
        # oracle: filter every invertible matrix by exhaustive preservation
        table = enumerate_orthogonal(Genus(g))
        assert {rec.matrix.cols for rec in table.records()} == brute_orthogonal_cols(g)

    def test_g3_is_swap(self):
        table = enumerate_orthogonal(Genus(3))
        mats = {rec.matrix.cols for rec in table.records()}
        assert H1Matrix.identity(Genus(3)).cols in mats
        assert transvection(vec(3, "x1+x3")).cols in mats

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_members_preserve_everything(self, g):
        from crosscap.f2core import preserves_intersection_form

        table = enumerate_orthogonal(Genus(g))
        for record in table.records():
            assert preserves_q(record.matrix).preserves
            assert preserves_intersection_form(record.matrix)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_orthogonal(Genus(9))


class TestClosure:
    def test_empty_generating_set(self):
        table = subgroup_closure([], genus=Genus(3))
        assert table.order == 1
        assert table.complete

    def test_single_involution(self):
        table = subgroup_closure([transvection(vec(3, "x1+x3"))])
        assert table.order == 2
        assert table.diameter == 1
        assert table.verify_certificates()

    def test_closure_inside_isometries(self):
        closure = subgroup_closure([transvection(vec(4, "x1+x3"))])
        enum = enumerate_orthogonal(Genus(4))
        assert set(closure.elements) <= set(enum.elements)

    def test_cap_flags_partial(self):
        gens = [m for _, m in standard_generators(Genus(5))]
        table = subgroup_closure(gens, cap=10)
        assert not table.complete
        assert table.order <= 10

    def test_cap_below_one_rejected(self):
        # the identity counts, so no table fits a cap below 1
        gens = [m for _, m in standard_generators(Genus(5))]
        for cap in (0, -1):
            with pytest.raises(ValueError, match="cap must be at least 1"):
                subgroup_closure(gens, cap=cap)
        with pytest.raises(ValueError, match="cap must be at least 1"):
            subgroup_closure([], cap=0, genus=Genus(3))
        assert subgroup_closure([], cap=1, genus=Genus(3)).complete

    def test_every_cap_holds_whole_levels(self):
        # a capped closure is the complete closure's first d levels, for the
        # largest d whose levels fit the cap: same keys, same order, same
        # letters, and words that replay
        genus = Genus(5)
        gens = [m for _, m in standard_generators(genus)]
        full = subgroup_closure(gens, genus=genus)
        assert full.complete and full.order == 72
        depths = [len(rec.word) for rec in full.records()]
        assert depths == sorted(depths)
        ends = [sum(depth <= d for depth in depths) for d in range(full.diameter + 1)]
        items = list(full.elements.items())
        for cap in range(1, 74):
            table = subgroup_closure(gens, cap=cap, genus=genus)
            d = max(k for k, end in enumerate(ends) if end <= cap)
            assert table.diameter == d
            assert list(table.elements.items()) == items[: ends[d]]
            assert table.complete == (cap >= 72)
            assert table.verify_certificates()
        # the partial level of a cap past level 1 is not kept
        table = subgroup_closure(gens, cap=7, genus=genus)
        assert (table.order, table.diameter) == (6, 1)

    def test_all_ones_fixed_by_whole_closure(self):
        # every generator axis has even weight, so the full-support class is
        # fixed by everything the set generates
        for g in (4, 5, 6):
            genus = Genus(g)
            ones = H1Vector(genus, (1 << g) - 1)
            table = subgroup_closure([m for _, m in standard_generators(genus)], genus=genus)
            for record in table.records():
                assert record.matrix.apply(ones) == ones

    def test_labels_rendered(self):
        gens = standard_generators(Genus(4))
        table = subgroup_closure(
            [m for _, m in gens], labels=[l for l, _ in gens], genus=Genus(4)
        )
        record = next(r for r in table.records() if len(r.word) == 1)
        assert table.word_labels(record.word)[0] in {label for label, _ in gens}

    def test_json_shape(self):
        table = subgroup_closure([transvection(vec(3, "x1+x3"))], labels=["t_{d_1}"])
        payload = table.to_json(include_elements=True)
        assert payload["order"] == 2
        assert payload["complete"] is True
        assert payload["elements"][1]["word"] == ["t_{d_1}"]

    def test_json_bytes_pinned(self):
        # discovery order and every certificate word, frozen at genus 6
        genus = Genus(6)
        gens = standard_generators(genus)
        table = subgroup_closure(
            [m for _, m in gens], labels=[l for l, _ in gens], genus=genus
        )
        text = json.dumps(table.to_json(include_elements=True), indent=2, sort_keys=True)
        digest = hashlib.sha256((text + "\n").encode()).hexdigest()
        assert digest == "42823ba4f5e3d20489baa26be6716bf7687cb7c4b7f68a05417807714cc140ed"


def brute_level_count(g: int, j: int) -> int:
    """|B_j| by a scan over all 2^g classes: q(c) = q(x_j), c orthogonal to
    x_1..x_{j-1} and c outside span(x_1..x_{j-1}, x1+...+xg)."""
    q = q_table(Genus(g))
    low = [1 << i for i in range(j - 1)]
    span = {0}
    for v in low + [(1 << g) - 1]:
        span |= {s ^ v for s in span}
    return sum(
        1
        for c in range(1 << g)
        if q[c] == q[1 << (j - 1)]
        and not any((c & x).bit_count() & 1 for x in low)
        and c not in span
    )


def no_enumeration(genus):
    raise AssertionError("the generation check enumerated the group")


class TestGeneration:
    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6, 7])
    def test_closure_equals_enumeration(self, g, monkeypatch):
        # the order is proved by counting: the enumeration is never asked
        monkeypatch.setattr(groupops, "enumerate_orthogonal", no_enumeration)
        report = verify_generation(Genus(g))
        assert report.equal
        assert report.closure_order == GOLDEN["orders"][str(g)]
        assert report.enumerated_order == report.closure_order
        assert report.diameter == GOLDEN["diameters"][str(g)]

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7])
    def test_counting_bound_is_enumerated_order(self, g):
        assert math.prod(level_counts(Genus(g))) == enumerate_orthogonal(Genus(g)).order

    def test_counting_bound_golden_at_genus_8(self):
        assert math.prod(level_counts(Genus(8))) == GOLDEN["orders"]["8"]

    @pytest.mark.parametrize("g", range(1, 13))
    def test_level_counts_against_scan(self, g):
        # B_g = {x_g} by definition: x_g lies in span(x_<g, w), so the scan
        # finds nothing there
        counts = level_counts(Genus(g))
        assert counts == tuple(brute_level_count(g, j) for j in range(1, g)) + (1,)

    def test_non_isometry_closure_of_bound_order_is_falsified(self, monkeypatch, capsys):
        # the transvection about x1+x2 is an involution sending x1 (q = 1) to
        # x2 (q = 3): its closure has order 2, the counting bound at genus 3,
        # so only the preserves_q premise tells it from the isometry group
        genus = Genus(3)
        t = transvection(vec(3, "x1+x2"))
        assert not preserves_q(t) and math.prod(level_counts(genus)) == 2
        monkeypatch.setattr(groupops, "standard_generators", lambda genus: [("t", t)])
        report = verify_generation(genus)
        assert (report.closure_order, report.to_json()["complete"]) == (2, True)
        assert not report.equal
        payload, line = falsified(capsys, "4.8", 3)
        assert payload["detail"]["equal"] is False
        assert line == "closure order 2, enumerated order 2, equal: False (diameter 1)"

    @pytest.mark.parametrize("g,order", [(5, 12), (6, 36), (7, 144), (8, 576)])
    def test_dropping_every_triple_is_falsified(self, g, order, monkeypatch, capsys):
        two_index = {two_index_label(i) for i in range(1, g - 1)}
        kept = [(label, m) for label, m in standard_generators(Genus(g)) if label in two_index]
        monkeypatch.setattr(groupops, "standard_generators", lambda genus: kept)
        assert main(["verify-lemma", "4.8", "-g", str(g)]) == 1
        detail = json.loads(capsys.readouterr().out)["detail"]
        assert (detail["closure_order"], detail["equal"]) == (order, False)
        assert detail["enumerated_order"] == GOLDEN["orders"][str(g)]

    def test_budget_bounds(self):
        # genus 1 is inside the budget: the closure {I} equals the enumeration {I}
        report = verify_generation(Genus(1))
        assert report.equal and report.closure_order == report.enumerated_order == 1
        with pytest.raises(BudgetExceededError):
            verify_generation(Genus(9))

    def test_capped_closure_is_budget_exhausted(self):
        # a closure cut off at its cap proves nothing, so it gives no verdict
        with pytest.raises(BudgetExceededError, match="^closure hit the node cap; raise --cap$"):
            verify_generation(Genus(7), cap=100)


def non_involutive_set():
    """A 3-cycle of the basis (x1 -> x2 -> x3 -> x1) and t_{d_1} at genus 3."""
    genus = Genus(3)
    return [H1Matrix(genus, (0b010, 0b100, 0b001)), transvection(vec(3, "x1+x3"))]


def _standard(g):
    """The standard generating set of genus g: its matrices and labels."""
    pairs = standard_generators(Genus(g))
    return [m for _, m in pairs], [label for label, _ in pairs]


class TestEdgeCertificates:
    """`verify_certificates` checks each tree edge once, in discovery order;
    `replay_certificates` replays every word from the root."""

    @pytest.mark.parametrize("g", range(2, 8))
    def test_agrees_with_replay_on_standard_closures(self, g):
        mats, labels = _standard(g)
        table = subgroup_closure(mats, labels=labels, genus=Genus(g))
        # replaying all 40320 words at genus 7 is slow; the edge check is not
        limit = 4096 if g == 7 else None
        assert table.verify_certificates(limit) is replay_certificates(table, limit) is True
        assert table.verify_certificates() is True

    @pytest.mark.parametrize("cap", [1, 2, 50, 500])
    def test_agrees_with_replay_on_capped_closures(self, cap):
        mats, labels = _standard(6)
        table = subgroup_closure(mats, cap=cap, labels=labels, genus=Genus(6))
        assert not table.complete
        assert table.verify_certificates() is replay_certificates(table) is True

    def test_agrees_with_replay_on_non_involutive_set(self):
        # letter -1 is listed, so undoing letter 1 runs the inverse's move
        table = subgroup_closure(non_involutive_set(), labels=["r", "s"])
        assert -1 in table.elements.values()
        for limit in (None, 1, 5):
            assert table.verify_certificates(limit) is replay_certificates(table, limit) is True

    def test_letters_naming_other_generators_fail(self):
        # the tree was grown by t_{d_1} first; the table says letter 1 is t_{d_2}
        mats, labels = _standard(5)
        table = subgroup_closure(mats, labels=labels, genus=Genus(5))
        swapped = dataclasses.replace(table, generators=(mats[1], mats[0], *mats[2:]))
        assert swapped.verify_certificates() is replay_certificates(swapped) is False
        assert swapped.verify_certificates(limit=2) is False
        assert swapped.verify_certificates(limit=1) is True  # the root alone

    def test_wrong_letter_fails(self):
        # a level-1 element given another generator's letter: undoing it
        # lands on a level-2 element, which is not checked yet
        mats, labels = _standard(5)
        table = subgroup_closure(mats, labels=labels, genus=Genus(5))
        first = next(key for key, signed in table.elements.items() if signed == 1)
        table.elements[first] = 2
        assert table.verify_certificates() is False

    def test_loop_fails(self):
        # two elements whose letters undo to each other: the walk from the
        # root never reaches them, and the replay never reaches the root
        mats, labels = _standard(5)
        table = subgroup_closure(mats, labels=labels, genus=Genus(5))
        a = next(key for key, signed in table.elements.items() if signed == 1)
        b = next(
            key for key, signed in table.elements.items()
            if signed == 2 and table.tree.parent(key, 2) == a
        )
        table.elements[a] = 2
        assert table.tree.parent(a, 2) == b
        assert table.verify_certificates() is False
        with pytest.raises(InternalCheckError, match="never reached the root"):
            replay_certificates(table)

    def test_second_root_fails(self):
        mats, labels = _standard(5)
        table = subgroup_closure(mats, labels=labels, genus=Genus(5))
        last = next(reversed(table.elements))
        table.elements[last] = 0
        assert table.verify_certificates() is False
        assert table.verify_certificates(limit=len(table.elements) - 1) is True

    @pytest.mark.parametrize("limit", [None, 1, 8])
    def test_enumerated_table_has_no_certificates(self, limit):
        table = enumerate_orthogonal(Genus(4))
        assert table.order == 8
        with pytest.raises(ValueError, match="no certificates"):
            table.verify_certificates(limit)

    def test_generation_checks_first_4096(self, monkeypatch):
        limits = []
        check = groupops.GroupTable.verify_certificates

        def recorded(table, limit=None):
            limits.append(limit)
            return check(table, limit)

        monkeypatch.setattr(groupops.GroupTable, "verify_certificates", recorded)
        assert verify_generation(Genus(6)).equal
        assert limits == [4096]


class TestFactorize:

    def test_identity(self):
        mats, labels = _standard(4)
        result = factorize(H1Matrix.identity(Genus(4)), mats, labels=labels)
        assert result.found and result.word == ()

    def test_generator_is_single_letter(self):
        mats, labels = _standard(4)
        result = factorize(transvection(vec(4, "x1+x3")), mats, labels=labels)
        assert result.found
        assert result.word_labels == ("t_{d_1}",)

    def test_replay_and_shortest_on_whole_group(self):
        genus = Genus(5)
        mats, labels = _standard(5)
        table = subgroup_closure(mats, labels=labels, genus=genus)
        for record in table.records():
            result = factorize(record.matrix, mats, labels=labels)
            assert result == factorize_oracle(record.matrix, mats, labels=labels)
            assert result.found
            assert len(result.word) == len(record.word)  # closure words are shortest
            acc = H1Matrix.identity(genus)
            for signed in result.word:
                m = mats[abs(signed) - 1]
                acc = compose(acc, m if signed > 0 else m.inverse())
            assert acc == record.matrix

    def test_label_count_checked(self):
        mats, _ = _standard(4)
        with pytest.raises(ValueError, match="one label per generator required"):
            factorize(H1Matrix.identity(Genus(4)), mats, labels=["x"])

    def test_cap_below_two_rejected(self):
        # both starting elements count, so a cap of 1 could never be honoured
        mats, labels = _standard(4)
        identity = H1Matrix.identity(Genus(4))
        for cap in (1, 0, -3):
            with pytest.raises(ValueError, match="at least 2"):
                factorize(identity, mats, labels=labels, cap=cap)
        assert factorize(identity, mats, labels=labels, cap=2).found
        capped = factorize(transvection(vec(4, "x2+x4")), mats, labels=labels, cap=2)
        assert (capped.status, capped.explored) == ("budget_exhausted", 2)

    def test_genus_budget_compiles_nothing(self):
        assert FACTORIZE_GENUS_CAP == 16
        genus = Genus(FACTORIZE_GENUS_CAP + 1)
        mats = [m for _, m in standard_generators(genus)]
        before = _moves.cache_info()
        with pytest.raises(BudgetExceededError, match="genus <= 16"):
            factorize(H1Matrix.identity(genus), mats)
        assert _moves.cache_info() == before

    def test_non_member_proof(self):
        genus = Genus(3)
        result = factorize(
            transvection(vec(3, "x1+x2")), [transvection(vec(3, "x1+x3"))]
        )
        assert result.status == "not_member"

    def test_budget_exhaustion_distinct(self):
        mats, labels = _standard(6)
        target = transvection(vec(6, "x2+x6"))
        result = factorize(target, mats, labels=labels, cap=4)
        assert result.status == "budget_exhausted"

    def test_cap_bounds_explored(self):
        mats, labels = _standard(8)
        target = induced_matrix(parse_word(
            "t_{d_1} t_{d_4} t_{d_6} t_{a_2} t_{a_4} t_{c_2} t_{d_3} t_{a_4} "
            "t_{a_6} t_{c_4} t_{d_5} t_{d_2}",
            Genus(8),
        ))
        for cap in (50, 200, 1000):
            result = factorize(target, mats, labels=labels, cap=cap)
            assert result.status == "budget_exhausted"
            assert result.explored <= cap
        result = factorize(target, mats, labels=labels)
        assert result.found
        assert (len(result.word), result.explored) == (8, 6494)

    def test_non_involutive_generators(self):
        # a 3-cycle of the basis is not an involution, so its formal inverse
        # enters the search alphabet; the splice order of the two half-words
        # only shows up with such generators
        genus = Genus(3)
        cycle, t = non_involutive_set()
        gens = [cycle, t]
        table = subgroup_closure(gens, labels=["r", "s"], genus=genus)
        assert table.verify_certificates()
        for record in table.records():
            result = factorize(record.matrix, gens, labels=["r", "s"])
            assert result.found
            assert len(result.word) == len(record.word)
            acc = H1Matrix.identity(genus)
            for signed in result.word:
                m = gens[abs(signed) - 1]
                acc = compose(acc, m if signed > 0 else m.inverse())
            assert acc == record.matrix


def _products(g, count):
    """`count` seeded products of 3 to 8 standard generators at genus g."""
    rng = random.Random(f"products:{g}")
    mats, _ = _standard(g)
    out = []
    for _ in range(count):
        acc = H1Matrix.identity(Genus(g))
        for _ in range(rng.randint(3, 8)):
            acc = compose(acc, rng.choice(mats))
        out.append(acc)
    return out


def _whole_levels(tree):
    """Whether the shared forward tree holds whole levels only: every key it
    indexes, and every letter and parent it records, is counted by its last
    level end.  The records are asserted too: the element at each position
    is its letter's forward move of the element at its parent's position,
    which lies in the level above."""
    held = len(tree.index)
    if not held == len(tree.position) == len(tree.letters) == len(tree.parents) == tree.ends[-1]:
        return False
    keys = list(tree.position)
    assert [tree.position[key] for key in keys] == list(range(held))
    ends = tree.ends
    for k in range(1, len(ends)):
        for p in range(ends[k - 1], ends[k]):
            parent = tree.parents[p]
            assert (ends[k - 2] if k > 1 else 0) <= parent < ends[k - 1]
            assert tree.moves[tree.letters[p]](keys[parent]) == keys[p]
            assert tree.index[keys[p]] == tree.letters[p]
    return True


_CAP_CASES = {
    # a not_member proof over the standard set
    "g5-non-member": lambda: (*_standard(5), transvection(vec(5, "x1+x2"))),
    "g6-product": lambda: (
        *_standard(6),
        induced_matrix(parse_word(
            "t_{d_1} t_{a_2} t_{a_4} t_{c_2} t_{d_3} t_{d_4} t_{a_1} t_{a_3} t_{c_1}",
            Genus(6),
        )),
    ),
    # members at depth 4 and 5, the genus-5 diameter: an even word meets on
    # a backward step, an odd one on a forward step
    **{
        f"g5-depth-{d}": lambda d=d: (
            *_standard(5),
            next(r.matrix for r in subgroup_closure(_standard(5)[0]).records() if len(r.word) == d),
        )
        for d in (4, 5)
    },
    # a non-member over the non-involutive set, whose alphabet holds a
    # formal inverse
    "g3-non-involutive": lambda: (
        non_involutive_set(), ["r", "s"], H1Matrix(Genus(3), (0b111, 0b110, 0b101))
    ),
}


class TestSharedForwardTree:
    """`factorize` reads one shared forward tree per generating set; the
    oracle regrows a private one on every call.  Results must be equal in
    status, word, labels and explored count, however far the shared tree
    has grown before."""

    @staticmethod
    def _same(targets, gens, labels=None, cap=groupops.DEFAULT_NODE_CAP):
        for target in targets:
            got = factorize(target, gens, labels=labels, cap=cap)
            assert got == factorize_oracle(target, gens, labels=labels, cap=cap)

    def test_non_involutive_set_members_and_non_members(self):
        # every invertible matrix of genus 3: the closure's members and the
        # rest, each a not_member proof
        genus = Genus(3)
        gens = non_involutive_set()
        targets = [
            H1Matrix(genus, cols)
            for cols in product(range(1, 8), repeat=3)
            if len(set(cols)) == 3 and cols[0] ^ cols[1] != cols[2]
        ]
        assert len(targets) == 168
        statuses = {factorize_oracle(t, gens).status for t in targets}
        assert statuses == {"found", "not_member"}
        _moves.cache_clear()
        self._same(targets, gens, ["r", "s"])

    @pytest.mark.parametrize("g", [8, 9])
    def test_products_fresh_and_after_deep_search(self, g):
        mats, labels = _standard(g)
        targets = _products(g, 200)
        _moves.cache_clear()
        self._same(targets, mats, labels)
        # a capped non-member search reveals level 5, deeper than any of the
        # products needs (4), so their searches read past their own depth
        deep = factorize(transvection(vec(g, "x1+x2")), mats, cap=60000)
        assert deep.status == "budget_exhausted"
        tree, _ = _moves(tuple(mats), g)
        assert len(tree.ends) > 5 and _whole_levels(tree)
        self._same(targets, mats, labels)

    @pytest.mark.parametrize("case", sorted(_CAP_CASES))
    def test_every_cap_leaves_whole_levels(self, case):
        gens, labels, target = _CAP_CASES[case]()
        g = target.genus.g
        full = factorize_oracle(target, gens, labels)
        assert full.explored > 10
        for cap in range(2, full.explored + 2):
            capped = factorize_oracle(target, gens, labels, cap=cap)
            _moves.cache_clear()
            assert factorize(target, gens, labels, cap=cap) == capped
            assert _whole_levels(_moves(tuple(gens), g)[0])
            assert factorize(target, gens, labels) == full
            # and over a tree that already holds every level the cap meets
            assert factorize(target, gens, labels, cap=cap) == capped

    def test_interrupted_growth_leaves_whole_levels(self):
        # a move that raises partway through a level, as an interrupt would
        mats, labels = _standard(6)
        target = transvection(vec(6, "x1+x2"))
        _moves.cache_clear()
        tree, _ = _moves(tuple(mats), 6)
        moves, calls = tree.moves, []

        def failing(x):
            calls.append(x)
            if len(calls) == 200:
                raise RuntimeError("interrupted")
            return moves[1](x)

        rewire(tree, {**moves, 1: failing})
        with pytest.raises(RuntimeError, match="interrupted"):
            factorize(target, mats, labels)
        rewire(tree, moves)
        assert len(tree.ends) > 2 and _whole_levels(tree)
        assert len(tree.frontier) == tree.ends[-1] - tree.ends[-2]
        held = len(tree.ends)

        # and an undo step that raises, as the next level is recorded: the
        # plans keep their moves, so only the step that finds each parent
        # calls the failing one
        def undo_failing(x):
            raise RuntimeError("interrupted while recording")

        tree.moves = {**moves, 1: undo_failing}
        with pytest.raises(RuntimeError, match="interrupted while recording") as raised:
            factorize(target, mats, labels)
        assert any(entry.name == "_record_level" for entry in raised.traceback)
        tree.moves = moves
        assert len(tree.ends) == held and _whole_levels(tree)
        assert len(tree.frontier) == tree.ends[-1] - tree.ends[-2]
        assert factorize(target, mats, labels) == factorize_oracle(target, mats, labels)

    def test_two_threads_on_one_fresh_set(self):
        mats, labels = _standard(8)
        targets = _products(8, 60)
        want = [factorize_oracle(t, mats, labels) for t in targets]
        got = [None, None]
        start = threading.Barrier(2)

        def run(slot, order):
            start.wait()
            got[slot] = {k: factorize(targets[k], mats, labels) for k in order}

        switch = sys.getswitchinterval()
        _moves.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(0, range(len(targets)))),
                threading.Thread(target=run, args=(1, reversed(range(len(targets))))),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(switch)
        for results in got:
            assert [results[k] for k in range(len(targets))] == want
        tree = _moves(tuple(mats), 8)[0]
        assert _whole_levels(tree)
        # the records two threads left are those one thread leaves
        held = (list(tree.position), tree.letters, tree.parents, tree.ends)
        _moves.cache_clear()
        fresh = _moves(tuple(mats), 8)[0]
        for k in range(1, len(tree.ends)):
            assert fresh.reveal(k, groupops.DEFAULT_NODE_CAP)
        assert (list(fresh.position), fresh.letters, fresh.parents, fresh.ends) == held

    def test_empty_set_at_genus_3_then_5(self):
        # the empty set is one tuple at every genus, but its tree is rooted
        # at the identity of the genus asked for
        _moves.cache_clear()
        for g in (3, 5):
            genus = Genus(g)
            identity = factorize(H1Matrix.identity(genus), [])
            assert (identity.status, identity.word, identity.explored) == ("found", (), 2)
            other = factorize(transvection(vec(g, "x1+x3")), [])
            assert (other.status, other.explored) == ("not_member", 2)
            for target in (H1Matrix.identity(genus), transvection(vec(g, "x1+x3"))):
                assert factorize(target, []) == factorize_oracle(target, [])


_WAVE_SETS = {
    # genus and generating set
    **{f"standard-{g}": (lambda g=g: (g, _standard(g)[0])) for g in range(2, 8)},
    "non-involutive": lambda: (3, non_involutive_set()),
    "non-involutive-reversed": lambda: (3, non_involutive_set()[::-1]),
    "duplicate-and-identity": lambda: (
        5, [*_standard(5)[0], _standard(5)[0][2], H1Matrix.identity(Genus(5))]
    ),
    "empty": lambda: (3, []),
}


def _wave_targets(gens, g):
    """Members of the group the set generates (the identity, the last
    element of its closure and a seeded sample) and up to two non-members,
    drawn from seeded random invertible matrices and a transvection about
    x1+x2; every set here has some."""
    genus = Genus(g)
    members = [rec.matrix for rec in subgroup_closure(gens, genus=genus).records()]
    rng = random.Random(f"wave:{g}:{len(gens)}")
    keys = {_pack(m.cols, g) for m in members}
    others = [H1Matrix(genus, random_invertible_cols(rng, g)) for _ in range(20)]
    others.append(transvection(vec(g, "x1+x2")))
    outside = [m for m in others if _pack(m.cols, g) not in keys]
    assert outside
    return [members[0], members[-1], *rng.sample(members, min(3, len(members))), *outside[-2:]]


def _derive_level(tree, keys, backward, end):
    """Derive the backward wave `keys` through position end - 1, resuming
    `derive` after each stop, and return the meets it reported.  Each stop
    must leave `keys` ending at the key it reports, held below `end`."""
    meets = []
    while (meet := tree.derive(keys, backward, end)) is not None:
        p, q = meet
        assert len(keys) == q + 1 and tree.position[keys[q]] == p < end
        meets.append(meet)
    assert len(keys) == end
    return meets


# members whose shortest words have even length 2k, so the search ends on
# backward step k, where several keys of the level meet forward level k;
# the first meet in frontier order is neither the first nor the last key of
# the level, nor the meet with the smallest forward position
_SEVERAL_MEETS = {
    "g5-length-4": (5, "t_{a_1} t_{a_3} t_{c_1} t_{d_1} t_{d_3} t_{d_2}"),
    "g6-length-6": (
        6,
        "t_{a_2} t_{a_4} t_{c_2} t_{d_1} t_{a_3} t_{a_5} t_{c_3} t_{d_2} t_{d_4} t_{d_3}",
    ),
    # the word the CI byte-pin step factorizes at genus 8
    "g8-length-8": (
        8,
        "t_{a_4} t_{a_6} t_{c_4} t_{a_1} t_{a_3} t_{c_1} t_{d_2} t_{a_4} t_{a_6} t_{c_4} "
        "t_{d_3} t_{a_5} t_{a_7} t_{c_5} t_{d_2} t_{a_3} t_{a_5} t_{c_3}",
    ),
}


def _private_waves(target, gens, depth):
    """A private forward tree from the identity and a private backward tree
    from `target`, each grown `depth` levels by `grow_unpruned`."""
    genus = target.genus
    shared, _ = _moves(tuple(gens), genus.g)
    fwd = _SearchTree(_pack(H1Matrix.identity(genus).cols, genus.g), shared.plans)
    bwd = backward_tree(target, gens)
    for _ in range(depth):
        assert grow_unpruned(fwd, groupops.DEFAULT_NODE_CAP)
        assert grow_unpruned(bwd, groupops.DEFAULT_NODE_CAP)
    return fwd, bwd


class TestDerivedBackwardWave:
    """`factorize` reads its backward wave off the shared forward tree: the
    key at forward position p is T f^-1 for the forward element f there.
    Against a backward tree grown privately from T by `grow_unpruned`, with
    moves the oracle compiles itself, the derived levels must hold the same
    keys in the same order with the same letters.  `derive` stops at the
    first key held below its end; the search keeps that meet, the first of
    its level in frontier order, and counts the level whole."""

    @pytest.mark.parametrize("name", sorted(_WAVE_SETS))
    def test_levels_match_private_backward_tree(self, name):
        g, gens = _WAVE_SETS[name]()
        _moves.cache_clear()
        tree, backward = _moves(tuple(gens), g)
        cap = groupops.DEFAULT_NODE_CAP
        depth = 0
        while depth == 0 or tree.ends[depth] > tree.ends[depth - 1]:
            assert tree.reveal(depth + 1, cap)
            depth += 1
        for target in _wave_targets(gens, g):
            keys = [_pack(target.cols, g)]
            bwd = backward_tree(target, gens)
            for k in range(1, depth + 1):
                start, end = tree.ends[k - 1], tree.ends[k]
                meets = _derive_level(tree, keys, backward, end)
                assert grow_unpruned(bwd, cap)
                assert len(bwd.frontier) == end - start
                assert list(bwd.index) == keys
                assert list(bwd.index.values()) == tree.letters[:end]
                # the stops are the level's keys held below its end, in order
                assert meets == [
                    (tree.position[key], q)
                    for q, key in enumerate(bwd.frontier, start=start)
                    if tree.position.get(key, end) < end
                ]
            assert not bwd.frontier

    @pytest.mark.parametrize("case", sorted(_SEVERAL_MEETS))
    def test_stopped_derivation_is_a_prefix_and_resumes(self, case):
        g, text = _SEVERAL_MEETS[case]
        mats, _ = _standard(g)
        target = induced_matrix(parse_word(text, Genus(g)))
        k = len(factorize(target, mats).word) // 2
        tree, backward = _moves(tuple(mats), g)
        _, bwd = _private_waves(target, mats, k)
        full = list(bwd.index)
        start, end = tree.ends[k - 1], tree.ends[k]
        keys = [full[0]]
        for j in range(1, k):
            assert tree.derive(keys, backward, tree.ends[j]) is None
        p, q = tree.derive(keys, backward, end)
        # stopped at the first key of level k held below its end, inside it
        assert start < q < end - 1 and keys == full[: q + 1]
        assert all(tree.position.get(key, end) >= end for key in keys[start:q])
        assert tree.position[keys[q]] == p < end
        # resuming runs through the rest of the level
        _derive_level(tree, keys, backward, end)
        assert keys == full

    @pytest.mark.parametrize("case", sorted(_SEVERAL_MEETS))
    def test_first_of_several_backward_meets(self, case):
        g, text = _SEVERAL_MEETS[case]
        mats, labels = _standard(g)
        target = induced_matrix(parse_word(text, Genus(g)))
        got = factorize(target, mats, labels)
        assert got == factorize_oracle(target, mats, labels)
        k = len(got.word) // 2
        assert got.found and len(got.word) == 2 * k
        fwd, bwd = _private_waves(target, mats, k)
        meets = [key for key in bwd.frontier if key in fwd.index]
        assert len(meets) >= 2
        first = bwd.frontier.index(meets[0])
        assert 0 < first < len(bwd.frontier) - 1
        forward_order = [key for key in fwd.frontier if key in bwd.index]
        assert forward_order[0] != meets[0]
        # the meet first in frontier order, and the whole level explored
        assert got.word == fwd.word(meets[0]) + bwd.word(meets[0])
        assert got.word != fwd.word(meets[-1]) + bwd.word(meets[-1])
        assert got.explored == len(fwd.index) + len(bwd.index)

    @pytest.mark.parametrize("g", range(2, 5))
    def test_every_element_matches_oracle(self, g):
        # genus 5 is `TestFactorize.test_replay_and_shortest_on_whole_group`
        mats, labels = _standard(g)
        _moves.cache_clear()
        for record in subgroup_closure(mats, genus=Genus(g)).records():
            got = factorize(record.matrix, mats, labels)
            assert got.found and len(got.word) == len(record.word)
            assert got == factorize_oracle(record.matrix, mats, labels)


class TestGrowWholeLevels:
    """`_SearchTree.grow` adds the next level whole, or leaves `index` and
    `frontier` as they were."""

    @staticmethod
    def _tree(levels):
        # a private tree over the genus-6 standard moves, grown `levels` deep
        mats, _ = _standard(6)
        shared = _moves(tuple(mats), 6)[0]
        root = _pack(H1Matrix.identity(Genus(6)).cols, 6)
        tree = _SearchTree(root, shared.plans)
        for _ in range(levels):
            assert tree.grow(groupops.DEFAULT_NODE_CAP)
        return tree

    @staticmethod
    def _state(tree):
        return list(tree.index.items()), list(tree.frontier)

    def test_room_too_small_leaves_tree(self):
        whole = self._tree(3)
        tree = self._tree(2)
        before = self._state(tree)
        size = len(whole.frontier)
        assert size > 1
        for room in (size - 1, 1, 0, -3):
            assert not tree.grow(room)
            assert self._state(tree) == before
        # a level of exactly `room` keys fits
        assert tree.grow(size)
        assert self._state(tree) == self._state(whole)

    def test_raising_move_leaves_tree(self):
        whole = self._tree(3)
        tree = self._tree(2)
        before = self._state(tree)
        moves, calls, reached = tree.moves, [], []

        # move 1 runs once per frontier key that letter 1 did not reach:
        # raise halfway through the level
        def failing(x):
            calls.append(x)
            if len(calls) == len(tree.frontier) // 2:
                reached.append(len(tree.index))
                raise RuntimeError("interrupted")
            return moves[1](x)

        rewire(tree, {**moves, 1: failing})
        with pytest.raises(RuntimeError, match="interrupted"):
            tree.grow(groupops.DEFAULT_NODE_CAP)
        # the move raised after the level had gained keys
        assert reached[0] > len(before[0])
        rewire(tree, moves)
        assert self._state(tree) == before
        assert tree.grow(groupops.DEFAULT_NODE_CAP)
        assert self._state(tree) == self._state(whole)


def _letter_cols(generators):
    """Each signed letter's matrix columns: k is generator k, -k its
    inverse."""
    cols = {k: m.cols for k, m in enumerate(generators, start=1)}
    cols.update({-k: m.inverse().cols for k, m in enumerate(generators, start=1)})
    return cols


def _commute(a, b):
    """Whether two matrices, as column tuples, commute: both products by
    `apply_mask` on columns."""
    return [apply_mask(a, c) for c in b] == [apply_mask(b, c) for c in a]


@st.composite
def _generating_sets(draw):
    """A genus 2-5, a set of its matrices and a cap.  The set mixes random
    invertible matrices (mostly neither involutions nor isometries), the
    identity and standard generators, and may repeat a generator or be
    empty; the cap keeps the closure of a random set small."""
    g = draw(st.integers(2, 5))
    genus = Genus(g)
    pool = [
        st.integers(0, 2**32).map(
            lambda seed: H1Matrix(genus, random_invertible_cols(random.Random(seed), g))
        ),
        st.just(H1Matrix.identity(genus)),
    ]
    standard, _ = _standard(g)
    if standard:
        pool.append(st.sampled_from(standard))
    gens = draw(st.lists(st.one_of(pool), max_size=4))
    if gens and draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), draw(st.sampled_from(gens)))
    return genus, gens, draw(st.integers(1, 3000))


class TestPrunedGrowth:
    """`_SearchTree.grow` leaves out the children its plans prove held; the
    oracle `grow_unpruned` tries every letter from every key.  Both must
    build the same trees: the same keys in the same order with the same
    letters, the same diameter and the same completeness."""

    @staticmethod
    def _same_closure(gens, genus, cap=groupops.DEFAULT_NODE_CAP):
        table = subgroup_closure(gens, cap=cap, genus=genus)
        items, diameter, complete = closure_oracle(gens, genus, cap)
        assert list(table.elements.items()) == items
        assert (table.diameter, table.complete) == (diameter, complete)

    @pytest.mark.parametrize("g", range(2, 8))
    def test_standard_closures_match_oracle(self, g):
        mats, _ = _standard(g)
        self._same_closure(mats, Genus(g))

    @given(_generating_sets())
    @settings(max_examples=150, deadline=None)
    @example((Genus(3), [], 5))
    @example((Genus(3), non_involutive_set(), 200))
    @example((Genus(3), non_involutive_set()[::-1], 200))
    @example((Genus(4), [*_standard(4)[0], H1Matrix.identity(Genus(4))], 200))
    @example((Genus(4), [_standard(4)[0][1], *_standard(4)[0]], 200))
    def test_drawn_sets_match_oracle(self, case):
        genus, gens, cap = case
        self._same_closure(gens, genus, cap)

    def test_every_cap_at_genus_5_matches_oracle(self):
        mats, _ = _standard(5)
        for cap in range(1, 73):
            self._same_closure(mats, Genus(5), cap)

    def test_sampled_caps_at_genus_7_match_oracle(self):
        # the level ends of the genus-7 closure, each cap on either side of
        # one, and two caps inside levels
        mats, _ = _standard(7)
        ends = [1, 10, 63, 330, 1447, 5242, 15505, 32443, 40036, 40320]
        depths = [len(rec.word) for rec in subgroup_closure(mats).records()]
        assert ends == [sum(d <= k for d in depths) for k in range(len(ends))]
        for cap in (329, 330, 3000, 15504, 15505, 15506, 36000, 40319):
            self._same_closure(mats, Genus(7), cap)

    @pytest.mark.parametrize("g", [5, 6, 7])
    def test_non_members_match_oracle(self, g):
        # a not_member proof closes one side, so both waves grow to the end
        # of their levels; at genus 7 the backward wave closes over all
        # 40320 elements
        mats, labels = _standard(g)
        rng = random.Random(f"non-members:{g}")
        targets = [transvection(vec(g, "x1+x2")), transvection(vec(g, f"x{g - 1}+x{g}"))]
        targets.append(H1Matrix(Genus(g), random_invertible_cols(rng, g)))
        _moves.cache_clear()
        for target in targets:
            got = factorize(target, mats, labels)
            assert got.status == "not_member"
            assert got == factorize_oracle(target, mats, labels)

    def test_genus_7_closure_move_calls_pinned(self):
        # the unpruned loop tries 9 letters from each of 40320 keys, 362880
        # children; the plans leave out 88653 of them
        mats, _ = _standard(7)
        shared = _moves(tuple(mats), 7)[0]
        calls = []

        def counted(move):
            def call(x):
                calls.append(1)
                return move(x)

            return call

        root = _pack(H1Matrix.identity(Genus(7)).cols, 7)
        tree = _SearchTree(root, shared.plans)
        rewire(tree, {s: counted(move) for s, move in shared.moves.items()})
        while tree.frontier:
            assert tree.grow(groupops.DEFAULT_NODE_CAP)
        assert (len(tree.index), len(calls)) == (40320, 274227)

    @pytest.mark.parametrize(
        "gens",
        [
            *(_standard(g)[0] for g in range(2, 9)),
            non_involutive_set(),
            non_involutive_set()[::-1],
            [*_standard(5)[0], _standard(5)[0][2], H1Matrix.identity(Genus(5))],
            [],
        ],
        ids=[*(f"standard-{g}" for g in range(2, 9)), "non-involutive",
             "non-involutive-reversed", "duplicate-and-identity", "empty"],
    )
    def test_skipped_letters_are_the_undo_or_earlier_commuting(self, gens):
        # each plan lists its letters in listed order and leaves out the undo
        # letter and letters listed before its own that commute with it, by
        # the columns of the letters' matrices; no letter listed after its
        # own is left out but the undo letter; the backward moves, which
        # have no plans, list the same letters
        g = gens[0].genus.g if gens else 3
        forward, backward = _moves(tuple(gens), g)
        cols = _letter_cols(gens)
        plans, moves = forward.plans, forward.moves
        listed = list(moves)
        assert list(backward) == listed == [t for t, _ in plans[0]]
        assert set(plans) == {0, *listed}
        for s in listed:
            plan = plans[s]
            assert all(move is moves[t] for t, move in plan)
            kept = [t for t, _ in plan]
            assert kept == [t for t in listed if t in kept]
            undo = -s if -s in moves else s
            assert undo not in kept
            for t in listed:
                if t in kept or t == undo:
                    continue
                assert listed.index(t) < listed.index(s)
                assert _commute(cols[s], cols[t])
            for t in listed[: listed.index(s)]:
                if t != undo and _commute(cols[s], cols[t]):
                    assert t not in kept


class TestMoves:
    """The search's packed moves against `compose`, the product they replace."""

    @staticmethod
    def _terms(m):
        # one term per distinct nonzero column difference from the identity
        return len({c ^ (1 << j) for j, c in enumerate(m.cols)} - {0})

    @classmethod
    def _matrices(cls, g):
        rng = random.Random(g)
        genus = Genus(g)
        # uniform invertible matrices are mostly neither involutions nor
        # isometries, and dense, so they run the general loop over three or
        # more terms; the standard generators are both, with one term
        # (t_{d_i}) or two (a triple); the identity has none
        mats = [H1Matrix(genus, random_invertible_cols(rng, g)) for _ in range(12)]
        gens = [m for _, m in standard_generators(genus)]
        assert {cls._terms(m) for m in gens} == ({1, 2} if g >= 4 else {1} if g == 3 else set())
        mats += gens
        mats.append(H1Matrix.identity(genus))
        if g >= 3:
            assert max(cls._terms(m) for m in mats) >= 3
        xs = [H1Matrix(genus, random_invertible_cols(rng, g)) for _ in range(8)]
        return mats, xs

    @pytest.mark.parametrize("g", range(2, 17))
    def test_right_move_is_right_product(self, g):
        mats, xs = self._matrices(g)
        assert any(m.inverse() != m for m in mats)
        assert any(not preserves_q(m).preserves for m in mats)
        for m in mats:
            move = _packed_move(m, False)
            for x in xs:
                assert move(_pack(x.cols, g)) == _pack(compose(x, m).cols, g)

    @pytest.mark.parametrize("g", range(2, 17))
    def test_left_move_is_left_product(self, g):
        mats, xs = self._matrices(g)
        for m in mats:
            move = _packed_move(m, True)
            for x in xs:
                assert move(_pack(x.cols, g)) == _pack(compose(m, x).cols, g)

    @pytest.mark.parametrize("g", range(1, 17))
    def test_pack_round_trip(self, g):
        rng = random.Random(100 + g)
        for _ in range(20):
            cols = tuple(rng.randrange(1 << g) for _ in range(g))
            key = _pack(cols, g)
            # oracle: column j spelled as the j-th g-bit block from the bottom
            spelled = "".join(format(c, f"0{g}b") for c in reversed(cols))
            assert key == int(spelled, 2)
            assert _unpack(key, g) == cols


class TestMembershipAcrossGenera:
    """A matrix of another genus is never a member, with no genus check."""

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_neighbouring_genera_are_not_members(self, g):
        genus = Genus(g)
        closure = subgroup_closure([m for _, m in standard_generators(genus)], genus=genus)
        for table in (closure, enumerate_orthogonal(genus)):
            for h in (g - 1, g + 1):
                other = Genus(h)
                others = [H1Matrix.identity(other)]
                others += [m for _, m in standard_generators(other)]
                others += [rec.matrix for rec in islice(enumerate_orthogonal(other).records(), 50)]
                for m in others:
                    assert m not in table
            assert H1Matrix.identity(genus) in table


class TestMoveCache:
    def _targets(self):
        gens = non_involutive_set()
        table = subgroup_closure(gens, genus=Genus(3))
        return [rec.matrix for rec in table.records()]

    def test_alternating_sets_match_fresh_compiles(self):
        cycle, t = non_involutive_set()
        sets = ([cycle, t], [t, cycle], [cycle])
        targets = self._targets()
        fresh = {}
        for k, gens in enumerate(sets):
            for n, target in enumerate(targets):
                _moves.cache_clear()
                fresh[k, n] = factorize(target, gens)
        for n, target in enumerate(targets):
            for k, gens in enumerate(sets):
                assert factorize(target, gens) == fresh[k, n]

    def test_same_matrices_new_labels(self):
        gens = non_involutive_set()
        for target in self._targets():
            first = factorize(target, gens, labels=["r", "s"])
            second = factorize(target, gens, labels=["p", "q"])
            assert second.word == first.word
            rename = str.maketrans("rs", "pq")
            assert second.word_labels == tuple(w.translate(rename) for w in first.word_labels)

    def test_compiled_once_per_set(self):
        gens = non_involutive_set()
        targets = self._targets()
        _moves.cache_clear()
        for target in targets:
            factorize(target, gens)
        subgroup_closure(gens)
        info = _moves.cache_info()
        assert (info.misses, info.hits) == (1, len(targets))

    def test_standard_generators_list_is_fresh(self):
        genus = Genus(5)
        first = standard_generators(genus)
        kept = list(first)
        first.pop()
        first[0] = ("x", H1Matrix.identity(genus))
        assert standard_generators(genus) == kept


class TestQ2Reduction:
    def test_already_normal(self):
        red = reduce_q2_vector(vec(4, "x1+x3"))
        assert red.moves == ()
        assert red.word == ""

    def test_even_pair(self):
        red = reduce_q2_vector(vec(6, "x2+x4"))
        assert red.moves
        m = induced_matrix(parse_word(red.word, Genus(6)))
        assert m.apply(vec(6, "x2+x4")) == vec(6, "x1+x3")

    def test_precondition(self):
        with pytest.raises(ValueError, match="need 2"):
            reduce_q2_vector(vec(6, "x1+x2+x3+x4+x5+x6"))

    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_exhaustive(self, g):
        genus = Genus(g)
        target = vec(g, "x1+x3")
        for bits in range(1, 1 << g):
            a = H1Vector(genus, bits)
            if q_eval(a) != 2:
                continue
            red = reduce_q2_vector(a)
            assert red.verified
            m = induced_matrix(parse_word(red.word, genus))
            assert m.apply(a) == target

    def test_block_collapse_branch(self):
        # six odd indices: the surplus is laid out as a four-slot block and
        # collapsed with two triple moves (only reachable from genus 11 up)
        a = vec(11, "x1+x3+x5+x7+x9+x11")
        red = reduce_q2_vector(a)
        m = induced_matrix(parse_word(red.word, Genus(11)))
        assert m.apply(a) == vec(11, "x1+x3")

    def test_even_heavy_with_blocks(self):
        a = vec(12, "x2+x4+x6+x8+x10+x12")
        assert q_eval(a) == 2
        red = reduce_q2_vector(a)
        m = induced_matrix(parse_word(red.word, Genus(12)))
        assert m.apply(a) == vec(12, "x1+x3")

    def test_cross_check_via_factorization(self):
        # independent route: the factorization search must find some word
        # whose action also sends the class to x1+x3
        genus = Genus(5)
        a = vec(5, "x2+x4")
        red = reduce_q2_vector(a)
        pairs = standard_generators(genus)
        table = subgroup_closure([m for _, m in pairs], genus=genus)
        conjugator = induced_matrix(parse_word(red.word, genus))
        assert conjugator in table  # the reduction word stays inside the group


class TestPairReduction:
    def test_canonical_is_fixed(self):
        red = reduce_isotropic_pair(vec(4, "x1+x2"), vec(4, "x3+x4"))
        assert red.branch == "generic"
        assert red.moves == ()

    def test_swapped_pair(self):
        red = reduce_isotropic_pair(vec(4, "x3+x4"), vec(4, "x1+x2"))
        assert red.branch == "generic"
        assert red.final_pair == (vec(4, "x1+x2"), vec(4, "x3+x4"))
        m = induced_matrix(parse_word(red.word, Genus(4)))
        assert m.apply(vec(4, "x3+x4")) == vec(4, "x1+x2")

    def test_full_support_identity_g6(self):
        lhs, rhs = full_support_factorization(Genus(6))
        assert lhs == rhs

    def test_full_support_branch(self):
        red = reduce_isotropic_pair(vec(6, "x1+x2"), vec(6, "x3+x4+x5+x6"))
        assert red.branch == "full_support"
        assert red.identity_applicable and red.identity_holds

    def test_pinned_first_class(self):
        red = reduce_isotropic_pair(
            vec(6, "x1+x2+x3+x4+x5+x6"), vec(6, "x5+x6")
        )
        assert red.branch == "full_support"
        assert red.tracked_pair == ("a+b", "b")
        assert red.final_pair == (vec(6, "x1+x2"), vec(6, "x3+x4+x5+x6"))

    def test_degenerate_equal_classes(self):
        red = reduce_isotropic_pair(vec(4, "x1+x2"), vec(4, "x1+x2"))
        assert red.branch == "degenerate_pair"

    def test_json_bytes_pinned(self):
        # every move and the word of a 79-move generic reduction, frozen at genus 64
        a = vec(64, "x3+x8+x17+x30")
        b = vec(64, "x3+x5+x8+x12+x41+x60")
        red = reduce_isotropic_pair(a, b)
        text = json.dumps(red.to_json(), indent=2, sort_keys=True)
        digest = hashlib.sha256((text + "\n").encode()).hexdigest()
        assert digest == "7d732d2cddc3187ad9e01c8a467e8d2eae0364d39625e12e6a91a2e11732e234"

    def test_full_support_json_bytes_pinned(self):
        # a 22-move full-support reduction at genus 10 that erases three pairs
        # after the switch to the complementary pair
        genus = Genus(10)
        a = H1Vector.from_indices(genus, range(1, 11))
        red = reduce_isotropic_pair(a, vec(10, "x9+x10"))
        assert red.branch == "full_support" and len(red.moves) == 22
        text = json.dumps(red.to_json(), indent=2, sort_keys=True)
        digest = hashlib.sha256((text + "\n").encode()).hexdigest()
        assert digest == "092f9cf086733dbd28026c84930992f31a656db507a27c11f05afdfbfcc13d4e"

    @pytest.mark.parametrize(
        "a,b,branch,moves,digest",
        [
            # a generic pair whose reduction swaps in the third class a+b
            (
                "x7+x20+x33+x58",
                "x7+x11+x20+x45+x50+x61+x62+x64",
                "generic",
                189,
                "806e7f6fd8c71624564681b7bcf2868f13e8bc185a98c725389577253286c7fa",
            ),
            # a pair spanning the all-ones class, given as b = a + w below
            (
                "x2+x9+x40+x63",
                None,
                "full_support",
                54,
                "61e6423eac14a145714323b7dc8b6e96d2dd093f8cc5c316c6745e3230cb6958",
            ),
        ],
        ids=["generic", "full_support"],
    )
    def test_compact_json_bytes_pinned_g64(self, a, b, branch, moves, digest):
        genus = Genus(64)
        a = vec(64, a)
        b = vec(64, b) if b else a + H1Vector.from_indices(genus, range(1, 65))
        red = reduce_isotropic_pair(a, b)
        assert (red.branch, len(red.moves)) == (branch, moves)
        text = json.dumps(red.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_preconditions(self):
        with pytest.raises(ValueError):
            reduce_isotropic_pair(vec(4, "0"), vec(4, "x1+x2"))
        with pytest.raises(ValueError):
            reduce_isotropic_pair(vec(4, "x1+x3"), vec(4, "x1+x2"))

    def test_block_collapse_side(self):
        # four odd indices on one side exercise the four-slot block collapse
        # inside the pair normal form (reachable from genus 7 up)
        a = vec(8, "x1+x3+x5+x7")
        b = vec(8, "x2+x4+x6+x8")
        assert q_eval(a) == q_eval(b) == q_eval(a + b) == 0
        red = reduce_isotropic_pair(a, b)
        assert red.verified and red.branch == "full_support"
        assert red.identity_holds

    @pytest.mark.parametrize("g", [4, 5])
    def test_exhaustive_small(self, g):
        genus = Genus(g)
        zeros = [
            H1Vector(genus, b)
            for b in range(1, 1 << g)
            if q_eval(H1Vector(genus, b)) == 0
        ]
        for a in zeros:
            for b in zeros:
                if q_eval(a + b) != 0:
                    continue
                red = reduce_isotropic_pair(a, b)
                assert red.verified
                if red.branch == "generic":
                    assert red.final_pair == (vec(g, "x1+x2"), vec(g, "x3+x4"))
                elif red.branch == "degenerate_pair":
                    assert a == b


class TestReducerOracle:
    """The mask-level reducer against `act` on classes, after every move."""

    @pytest.fixture
    def checked_moves(self, monkeypatch):
        parsed = {}
        moves = []
        apply = _Reducer._apply

        def checked(red, labels):
            # a call applies a run of moves: fold each label through `act`
            classes = [H1Vector(red.genus, bits) for bits in red.tracked]
            apply(red, labels)
            for label in labels:
                key = (red.genus, label)
                if key not in parsed:
                    parsed[key] = parse_word(label, red.genus)
                classes = [act(parsed[key], v) for v in classes]
            assert red.tracked == [v.bits for v in classes]
            moves.extend(labels)

        monkeypatch.setattr(_Reducer, "_apply", checked)
        return moves

    @pytest.mark.parametrize("g", range(3, 11))
    def test_every_q2_class(self, checked_moves, g):
        for a in _q2_classes(g):
            reduce_q2_vector(a)
        assert checked_moves or g == 3

    @pytest.mark.parametrize("g", range(2, 9))
    def test_every_isotropic_pair(self, checked_moves, g):
        for a, b in _isotropic_pairs(g):
            reduce_isotropic_pair(a, b)
        assert checked_moves or g < 4

    def test_every_oracle_reduction_pinned(self):
        # the canonical JSON of each reduction above, in the same order
        results = [reduce_q2_vector(a) for g in range(3, 11) for a in _q2_classes(g)]
        results += [
            reduce_isotropic_pair(a, b) for g in range(2, 9) for a, b in _isotropic_pairs(g)
        ]
        text = "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in results)
        assert len(results) == 4213
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "a852c05e9c115b90c39c8b62eb087194d47bf91999200e1a1cc35da0e4d3071b"


def _q2_classes(g):
    genus = Genus(g)
    return [a for a in (H1Vector(genus, b) for b in range(1, 1 << g)) if q_eval(a) == 2]


def _isotropic_pairs(g):
    """Every (a, b) of nonzero classes with q(a) = q(b) = q(a+b) = 0, a = b
    included."""
    genus = Genus(g)
    zeros = [v for v in (H1Vector(genus, b) for b in range(1, 1 << g)) if q_eval(v) == 0]
    return [(a, b) for a in zeros for b in zeros if q_eval(a + b) == 0]


class TestInternalChecks:
    def test_swap_plan_check_survives_optimize(self):
        # under -O a bare assert would vanish and the plan would be [3, 1]
        code = (
            "from crosscap.groupops import _swap_plan\n"
            "print(_swap_plan([1, 3], [3, 5, 7]))\n"
        )
        proc = run_python(code, "-O")
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "InternalCheckError" in proc.stderr

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            # the moves still track correctly, but the word spells t_{d_1}
            # for the triple; only the replay of the joined word, which
            # recomputes the axes from its letters, sees it
            ("(_label_table(genus)[two_index_label(1)][0], axes, matrix)", "failed to replay"),
            # the triple move folds two of its three axes
            ("(word, axes[:2], matrix)", "support parity broken"),
        ],
    )
    def test_corrupted_label_table_fails_check_under_optimize(self, corrupt, message):
        code = (
            "import sys\n"
            "from crosscap.cli import main\n"
            "from crosscap.f2core import Genus\n"
            "from crosscap.groupops import _label_table, triple_label, two_index_label\n"
            "genus = Genus(6)\n"
            "word, axes, matrix = _label_table(genus)[triple_label(1)]\n"
            f"_label_table(genus)[triple_label(1)] = {corrupt}\n"
            "sys.exit(main(['reduce-q2', '-g', '6', 'x2+x4']))\n"
        )
        proc = run_python(code, "-O")
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("internal check failed")
        assert message in proc.stderr

    @pytest.mark.parametrize(
        "call,message",
        [
            (
                "factorize(gens[1], gens)",
                "factorization word failed to replay",
            ),
            ("verify_generation(genus)", "closure certificate failed to replay"),
        ],
    )
    def test_broken_packed_move_fails_replay_under_optimize(self, call, message):
        # letter 1's forward move applies generator 2, an involution, so the
        # undo walk still finds each parent: the search reaches its targets
        # but records letter 1; only a check on column tuples (`_replay`, or
        # the edge check's `apply_mask` step) sees it
        code = (
            "from crosscap import groupops\n"
            "from crosscap.f2core import Genus\n"
            "from crosscap.groupops import factorize, standard_generators, verify_generation\n"
            "compiled = groupops._moves\n"
            "def broken(generators, g):\n"
            "    forward, backward = compiled(generators, g)\n"
            "    moves = {**forward.moves, 1: forward.moves[2]}\n"
            "    plans = {s: tuple((t, moves[t]) for t, _ in plan)\n"
            "             for s, plan in forward.plans.items()}\n"
            "    return groupops._ForwardTree(g, plans), backward\n"
            "groupops._moves = broken\n"
            "genus = Genus(6)\n"
            "gens = [m for _, m in standard_generators(genus)]\n"
            f"{call}\n"
        )
        proc = run_python(code, "-O")
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert proc.stderr.rstrip().endswith(f"InternalCheckError: {message}")

    @pytest.mark.parametrize(
        "undo,call,message",
        [
            # letter -1 never reaches a new element, so the search finds the
            # same set, but undoing letter 1 stays put, so the walk alone
            # would never reach the root
            (
                "lambda x: x",
                "factorize(gens[0], gens)",
                "undoing moves never reached the root",
            ),
            (
                "lambda x: x",
                "list(subgroup_closure(gens).records())",
                "undoing moves never reached the root",
            ),
            # undoing letter 1 lands on a key the tree never reached
            (
                "lambda x: x ^ 1 << 8",
                "factorize(gens[0], gens)",
                "an undone move left the tree",
            ),
        ],
    )
    def test_broken_undo_move_fails_check_under_optimize(self, undo, call, message):
        # the inverse of the 3-cycle is a listed letter, so its move is what
        # undoes letter 1; only the undo walk, bounded by the tree's size,
        # sees the fault, never a KeyError or an endless walk
        code = (
            "from crosscap import groupops\n"
            "from crosscap.f2core import Genus, H1Matrix, transvection, H1Vector\n"
            "from crosscap.groupops import factorize, subgroup_closure\n"
            "compiled = groupops._moves\n"
            "def broken(generators, g):\n"
            "    forward, backward = compiled(generators, g)\n"
            f"    moves = {{**forward.moves, -1: {undo}}}\n"
            "    plans = {s: tuple((t, moves[t]) for t, _ in plan)\n"
            "             for s, plan in forward.plans.items()}\n"
            "    return groupops._ForwardTree(g, plans), backward\n"
            "groupops._moves = broken\n"
            "genus = Genus(3)\n"
            "gens = [H1Matrix(genus, (0b010, 0b100, 0b001)),\n"
            "        transvection(H1Vector.parse(genus, 'x1+x3'))]\n"
            f"{call}\n"
        )
        proc = run_python(code, "-O")
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert proc.stderr.rstrip().endswith(f"InternalCheckError: search tree: {message}")

    def test_corrupted_label_table_fails_pair_replay_under_optimize(self):
        # the first triple move still folds its own axes, but its word spells
        # the second triple; only the replay of the joined word sees it
        code = (
            "from crosscap.f2core import Genus, H1Vector\n"
            "from crosscap.groupops import _label_table, reduce_isotropic_pair, triple_label\n"
            "genus = Genus(8)\n"
            "table = _label_table(genus)\n"
            "_, axes, matrix = table[triple_label(1)]\n"
            "table[triple_label(1)] = (table[triple_label(2)][0], axes, matrix)\n"
            "reduce_isotropic_pair(\n"
            "    H1Vector.parse(genus, 'x2+x4+x6+x8'), H1Vector.parse(genus, 'x1+x2+x3+x4')\n"
            ")\n"
        )
        proc = run_python(code, "-O")
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert proc.stderr.rstrip().endswith(
            "InternalCheckError: pair reduction failed to replay"
        )
