"""Acceptance gate: one test per criterion, each printing a pass line with
its runtime (run with `pytest tests/test_acceptance.py -s` to see them)."""

import json
import pathlib
import random
import time
from itertools import combinations

from crosscap.f2core import Genus, H1Vector, compose, transvection
from crosscap.gmform import preserves_q, q_eval, q_eval_recursive, q_table
from crosscap.groupops import (
    enumerate_orthogonal,
    reduce_isotropic_pair,
    reduce_q2_vector,
    standard_generators,
    subgroup_closure,
)
from crosscap.rewrite import (
    ALPHA_TERMINALS,
    AlphaTriple,
    RSequence,
    builtin_rule_tables,
    canonical_targets,
    reduce_alpha,
    reduce_rseq,
    rule_schemas,
    verify_rule_consistency,
)
from crosscap.words import decide_extendable, induced_matrix, parse_word

from helpers import random_word_text

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_orders.json").read_text()
)


class _Clock:
    def __init__(self, number, name, limit):
        self.number, self.name, self.limit = number, name, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(
            f"ACCEPTANCE {self.number} {self.name}: {status} "
            f"({elapsed:.2f}s, limit {self.limit:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} over time budget"
        return False


def test_criterion_1_form_axioms():
    with _Clock(1, "form axioms", 10.0):
        for g in range(1, 11):
            genus = Genus(g)
            qt = q_table(genus)
            size = 1 << g
            parity = [(v.bit_count() & 1) for v in range(size)]
            for v in range(size):
                assert qt[v] == q_eval_recursive(H1Vector(genus, v))
                qv = qt[v]
                for w in range(size):
                    assert qt[v ^ w] == (qv + qt[w] + 2 * parity[v & w]) % 4


def test_criterion_2_transvection_criterion():
    with _Clock(2, "transvection criterion", 60.0):
        for g in range(2, 9):
            genus = Genus(g)
            for bits in range(1, 1 << g):
                if bits.bit_count() % 2:
                    continue
                a = H1Vector(genus, bits)
                assert preserves_q(transvection(a)).preserves == (q_eval(a) == 2)
        for g in range(2, 7):
            genus = Genus(g)
            zeros = [
                H1Vector(genus, b)
                for b in range(1, 1 << g)
                if q_eval(H1Vector(genus, b)) == 0
            ]
            checked = 0
            for a in zeros:
                for b in zeros:
                    if a == b or q_eval(a + b) != 0:
                        continue
                    m = compose(
                        compose(transvection(a), transvection(b)),
                        transvection(a + b),
                    )
                    assert preserves_q(m).preserves
                    checked += 1
            if g >= 4:
                assert checked > 0


def test_criterion_3_generation():
    with _Clock(3, "generation closure equals enumeration", 300.0):
        for g in range(2, 7):
            genus = Genus(g)
            gens = standard_generators(genus)
            closure = subgroup_closure(
                [m for _, m in gens], labels=[l for l, _ in gens], genus=genus
            )
            enum = enumerate_orthogonal(genus)
            assert closure.complete
            assert set(closure.elements) == set(enum.elements)
            assert closure.order == GOLDEN["orders"][str(g)]
            assert closure.diameter == GOLDEN["diameters"][str(g)]
            assert closure.verify_certificates()


def test_criterion_4_certified_rules():
    with _Clock(4, "certified rule tables", 10.0):
        for g in range(1, 11):
            genus = Genus(g)
            for rule in rule_schemas():
                verdict = verify_rule_consistency(rule, genus)
                assert verdict.ok, f"g={g}: {verdict}"
            counts = {}
            for inst in builtin_rule_tables(genus):
                counts[inst.rule.family] = counts.get(inst.rule.family, 0) + 1
            assert counts.get("swap3", 0) == 4 * max(0, g - 2)
            assert counts.get("swap4", 0) == 6 * max(0, g - 3)
            assert counts.get("twist2", 0) == 2 * max(0, g - 1)
            assert counts.get("twist4", 0) == 15 * max(0, g - 3)


def test_criterion_5_sequence_classification():
    with _Clock(5, "sequence normal forms", 30.0):
        for g in range(1, 11):
            genus = Genus(g)
            canon = {t.bits for t in canonical_targets(genus)}
            for bits in range(1 << g):
                path = reduce_rseq(RSequence(genus, bits))
                assert path.verified
                assert path.end.bits in canon
                values = {q_eval(H1Vector(genus, s.bits)) for s in path.states}
                parities = {s.bits.bit_count() & 1 for s in path.states}
                assert len(values) == 1 and len(parities) == 1


def test_criterion_6_triple_classification():
    with _Clock(6, "three-index circle terminals", 5.0):
        first = {t for t, label in ALPHA_TERMINALS.items() if label == "alpha_1"}
        last = {t for t, label in ALPHA_TERMINALS.items() if label == "alpha_2"}
        assert first == {(1, 3, 4), (1, 2, 3), (2, 3, 5), (2, 4, 6)}
        assert last == {(1, 3, 5), (1, 2, 4), (2, 3, 4), (2, 4, 5)}
        for g in range(3, 13):
            genus = Genus(g)
            for t in combinations(range(1, g + 1), 3):
                red = reduce_alpha(genus, AlphaTriple(*t))
                assert red.verified
                assert red.terminal in ALPHA_TERMINALS
                assert red.label == ALPHA_TERMINALS[red.terminal]


def test_criterion_7_constructive_reduction():
    with _Clock(7, "constructive normal-form reductions", 60.0):
        for g in range(3, 7):
            genus = Genus(g)
            target = H1Vector.parse(genus, "x1+x3")
            for bits in range(1, 1 << g):
                a = H1Vector(genus, bits)
                if q_eval(a) != 2:
                    continue
                red = reduce_q2_vector(a)
                assert red.verified
                assert induced_matrix(parse_word(red.word, genus)).apply(a) == target
        for g in range(2, 7):
            genus = Genus(g)
            zeros = [
                H1Vector(genus, b)
                for b in range(1, 1 << g)
                if q_eval(H1Vector(genus, b)) == 0
            ]
            canonical = None
            if g >= 4:
                canonical = (
                    H1Vector.parse(genus, "x1+x2"),
                    H1Vector.parse(genus, "x3+x4"),
                )
            for a in zeros:
                for b in zeros:
                    if q_eval(a + b) != 0:
                        continue
                    red = reduce_isotropic_pair(a, b)
                    assert red.verified
                    if red.branch == "generic":
                        assert red.final_pair == canonical
                    elif red.branch == "full_support":
                        if red.identity_applicable:
                            assert red.identity_holds
                        else:
                            assert g == 4  # triple equals a listed generator
                    else:
                        assert red.branch == "degenerate_pair" and a == b


def test_criterion_8_extendability_decision():
    with _Clock(8, "extendability against membership", 60.0):
        genus = Genus(5)
        gens = standard_generators(genus)
        table = subgroup_closure(
            [m for _, m in gens], labels=[l for l, _ in gens], genus=genus
        )
        rng = random.Random(20260809)
        for _ in range(1000):
            word = parse_word(random_word_text(rng, 5, 12), genus)
            verdict = decide_extendable(word)
            assert verdict.extendable == (induced_matrix(word) in table)
        for _ in range(100):
            letters = []
            for _ in range(rng.randint(0, 8)):
                i = rng.randint(1, 5)
                j = rng.randint(1, 4)
                if j >= i:
                    j += 1
                letters.append(f"Y_{{{i},{j}}}")
            slide_word = parse_word(" ".join(letters), genus)
            assert decide_extendable(slide_word).extendable
        for i in range(1, 4):
            assert decide_extendable(parse_word(f"t_{{d_{i}}}", genus)).extendable
        for i in range(1, 5):
            assert decide_extendable(parse_word(f"t_{{a_{i}}}^{{2}}", genus)).extendable
        for i in range(1, 3):
            assert decide_extendable(parse_word(f"t_{{c_{i}}}^{{2}}", genus)).extendable
