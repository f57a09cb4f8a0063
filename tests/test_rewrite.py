import dataclasses
import hashlib
import pathlib
import random
import re
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from crosscap import rewrite
from crosscap.cli import main
from crosscap.f2core import (
    BudgetExceededError,
    FalsificationError,
    Genus,
    H1Vector,
    InternalCheckError,
)
from crosscap.gmform import q_eval
from crosscap.rewrite import (
    ALPHA_TERMINALS,
    RSEQ_GENUS_CAP,
    AlphaTriple,
    RSequence,
    RuleFailure,
    _alpha_shift,
    _check_window_local,
    _chunk_tables,
    _live_moves,
    _reduction_forest,
    _shift_certificate,
    alpha_terminals,
    builtin_rule_tables,
    canonical_targets,
    classify_rseq_components,
    instantiate,
    reduce_alpha,
    reduce_rseq,
    rule_by_id,
    rule_instances,
    rule_schemas,
    rules_json,
    verify_rule_consistency,
)
from crosscap.words import MCGWord, induced_matrix, parse_word

from helpers import (
    _showing,
    add_normal_form,
    break_instance,
    break_slot_word,
    falsified,
    leaves_window,
    run_python,
    sequence_graph,
    set_search_components,
    shift_rule_verdicts,
    shift_steps,
    window_positions,
)


def vec(g, text):
    return H1Vector.parse(Genus(g), text)


@lru_cache(maxsize=None)
def _reduction_ends(g: int) -> tuple[int, ...]:
    """The oracle for the component report: the normal form `reduce_rseq`
    reaches from each sequence of the genus, by mask.  One pass per genus,
    shared by the tests that read it."""
    genus = Genus(g)
    return tuple(reduce_rseq(RSequence(genus, bits)).end.bits for bits in range(1 << g))


class TestSequences:
    def test_reference_encoding(self):
        s = RSequence(Genus(7), vec(7, "x2+x3+x6+x7").bits)
        assert s.ascii() == "pMPmpMP"
        assert s.display() == "[+ ⊖ ⊕ - + ⊖ ⊕]"

    def test_zero_vector(self):
        assert RSequence(Genus(4), 0).ascii() == "pmpm"

    @pytest.mark.parametrize("g", range(1, 11))
    def test_round_trip_exhaustive(self, g):
        genus = Genus(g)
        for bits in range(1 << g):
            s = RSequence(genus, bits)
            assert RSequence.parse(s.ascii()) == s

    def test_parse_forms(self):
        assert RSequence.parse("[+ ⊖ ⊕]").ascii() == "pMP"
        assert RSequence.parse("pMP").ascii() == "pMP"
        assert RSequence.parse("[+ M P]") == RSequence.parse("pMP")

    def test_parity_validation(self):
        with pytest.raises(ValueError, match="parity"):
            RSequence.parse("mp")
        with pytest.raises(ValueError, match="parity"):
            RSequence.parse("[+ +]")
        with pytest.raises(ValueError):
            RSequence.parse("")


class TestRuleTables:
    def test_schema_counts(self):
        fams = {}
        for rule in rule_schemas():
            fams[rule.family] = fams.get(rule.family, 0) + 1
        assert fams == {"swap3": 4, "swap4": 6, "twist2": 2, "twist4": 15, "alpha": 3}
        noops = [r for r in rule_schemas() if r.noop]
        assert [r.rule_id for r in noops] == ["TC.3", "TC.6", "TC.12", "TC.15"]

    def test_instance_counts_g5(self):
        insts = builtin_rule_tables(Genus(5))
        by_family = {}
        for inst in insts:
            by_family[inst.rule.family] = by_family.get(inst.rule.family, 0) + 1
        assert by_family["swap3"] == 4 * 3  # window length 3, anchors 1..g-2
        assert by_family["swap4"] == 6 * 2
        assert by_family["twist2"] == 2 * 4
        assert by_family["twist4"] == 15 * 2

    def test_shuffle_window_classes(self):
        genus = Genus(3)
        inst = next(iter(rule_instances(rule_by_id("S3.1"), genus)))
        assert inst.anchor == 1
        assert H1Vector(genus, inst.lhs_bits) == vec(3, "x3")
        assert H1Vector(genus, inst.rhs_bits) == vec(3, "x1")

    def test_twist_case_11_class_map(self):
        genus = Genus(4)
        inst = next(iter(rule_instances(rule_by_id("TC.11"), genus)))
        lhs, rhs = H1Vector(genus, inst.lhs_bits), H1Vector(genus, inst.rhs_bits)
        assert lhs == vec(4, "x1+x2+x4")
        assert rhs == vec(4, "x3")
        m = induced_matrix(inst.word)
        assert m.apply(lhs) == rhs

    def test_noop_keeps_class(self):
        genus = Genus(4)
        for rid in ("TC.3", "TC.5", "TC.9", "TC.10"):
            inst = next(iter(rule_instances(rule_by_id(rid), genus)))
            assert inst.lhs_bits == inst.rhs_bits

    @pytest.mark.parametrize("g", range(1, 9))
    def test_all_rules_consistent(self, g):
        genus = Genus(g)
        for rule in rule_schemas():
            verdict = verify_rule_consistency(rule, genus)
            assert verdict.ok, verdict

    def test_instantiate_nested_braces(self):
        # nested index expressions keep their braces; the spelled word drops them
        assert instantiate("t_{d_{n-2}}", n=5) == "t_{d_{3}}"
        assert parse_word(instantiate("t_{d_{n-2}}", n=5), Genus(5)).text == "t_{d_3}"
        text = instantiate("Y_{i+3,i+1} t_{a_{i+2}}", i=2)
        assert parse_word(text, Genus(5)).text == "Y_{5,3} t_{a_4}"

    def test_rules_json_shape(self):
        payload = rules_json(Genus(5))
        assert payload["genus"] == 5
        entry = next(e for e in payload["rules"] if e["id"] == "S3.1")
        assert entry["window"] == ["m", "p", "M"]
        assert entry["anchors"] == [1, 2, 3]
        assert "t_{d_i}" in entry["certificate"]


class TestFalsifiedRule:
    """A certificate that misses its rule gives a failure, not a pass."""

    @pytest.fixture
    def broken_ta1(self, monkeypatch):
        # Y_{3,4} stays inside TA.1's window at anchor 3 and acts as the
        # identity, so x3 is not carried to x4
        break_instance(monkeypatch, "TA.1", 3, "Y_{3,4}")

    def test_verdict_names_the_failing_instance(self, broken_ta1):
        verdict = verify_rule_consistency(rule_by_id("TA.1"), Genus(6))
        assert not verdict.ok
        assert verdict.instances_checked == 3
        assert verdict.failure == RuleFailure(3, "x4", "x3")

    def test_verify_lemma_46_exits_falsified(self, broken_ta1, capsys):
        payload, line = falsified(capsys, "4.6", 6)
        assert line == "twist cases TA.1 inconsistent"
        entry = next(r for r in payload["detail"]["rules"] if r["id"] == "TA.1")
        assert entry["ok"] is False
        assert (entry["failing_anchor"], entry["expected"], entry["got"]) == (3, "x4", "x3")


class TestNormalForms:
    def test_targets_g1(self):
        assert [t.ascii() for t in canonical_targets(Genus(1))] == ["p", "P"]

    def test_targets_g2(self):
        assert [t.ascii() for t in canonical_targets(Genus(2))] == [
            "pm", "Pm", "pM", "PM",
        ]

    def test_targets_g5(self):
        assert [t.ascii() for t in canonical_targets(Genus(5))] == [
            "pmpmp", "Pmpmp", "pMpmp", "PMpmp", "PmPmp", "PMPMP",
        ]

    def test_reduce_statement_examples(self):
        path = reduce_rseq(RSequence.parse("pmP"))
        assert path.end.ascii() == "Pmp"
        path = reduce_rseq(RSequence.parse("pMP"))
        assert path.end.ascii() == "PMp"
        path = reduce_rseq(RSequence.parse("Pm"))
        assert path.end.ascii() == "Pm" and not path.steps

    @pytest.mark.parametrize("g", range(1, 8))
    def test_reduce_all_with_invariants(self, g):
        genus = Genus(g)
        canon = {t.bits for t in canonical_targets(genus)}
        for bits in range(1 << g):
            path = reduce_rseq(RSequence(genus, bits))
            assert path.verified
            assert path.end.bits in canon
            values = {q_eval(H1Vector(genus, s.bits)) for s in path.states}
            parities = {s.bits.bit_count() & 1 for s in path.states}
            assert len(values) == 1 and len(parities) == 1

    @pytest.mark.parametrize("g", range(1, 15))
    def test_trees_keep_invariants(self, g):
        # the per-sequence pass the component report does not make: every
        # sequence has the form value and support parity of the normal form
        # its reduction ends at
        genus = Genus(g)
        for bits, end in enumerate(_reduction_ends(g)):
            assert q_eval(H1Vector(genus, bits)) == q_eval(H1Vector(genus, end))
            assert bits.bit_count() & 1 == end.bit_count() & 1

    def test_components_g1(self):
        report = classify_rseq_components(Genus(1))
        assert len(report.components) == 2
        assert all(c.size == 1 for c in report.components)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_components_covered(self, g):
        report = classify_rseq_components(Genus(g))
        assert sum(c.size for c in report.components) == 1 << g

    @pytest.mark.parametrize("g", range(1, 65))
    def test_component_sizes_closed_form(self, g):
        # count the masks by q = l_odd - l_even (mod 4): a of the ceil(g/2)
        # odd positions and b of the floor(g/2) even ones circled; 0 (q = 0)
        # and w (q = g mod 2) are components of their own
        odd, even = (g + 1) // 2, g // 2
        counts = [0] * 4
        for a in range(odd + 1):
            for b in range(even + 1):
                counts[(a - b) % 4] += comb(odd, a) * comb(even, b)
        counts[0] -= 1
        counts[g % 2] -= 1
        expected = [(1, 0), (1, g % 2)] + [(n, q) for q, n in enumerate(counts) if n]
        report = classify_rseq_components(Genus(g))
        assert sorted((c.size, c.form_value) for c in report.components) == sorted(expected)
        if g == 12:
            assert counts == [1054, 1024, 992, 1024]

    def test_reduction_budget_builds_nothing(self, monkeypatch):
        assert RSEQ_GENUS_CAP == 18

        def refuse(rule, genus):
            raise AssertionError("the budget must refuse before any move is built")

        monkeypatch.setattr(rewrite, "rule_instances", refuse)
        before = _reduction_forest.cache_info().currsize
        with pytest.raises(BudgetExceededError):
            reduce_rseq(RSequence(Genus(19), 0))
        assert _reduction_forest.cache_info().currsize == before

    @pytest.mark.parametrize("g", range(1, 17))
    def test_neighbours_match_adjacency_oracle(self, g):
        # the neighbours `_reduction_forest` looks up in its chunk tables,
        # against the explicit adjacency lists: a breadth-first search over
        # the lists reaches the same sequences in the same order through the
        # same instances as the forest.  At genus 13-16 there are 3 or 4
        # chunks, and the last holds 3, 4, 1 and 2 anchors: every layout
        oracle_instances, adj = sequence_graph(g)
        oracle = {t.bits: None for t in canonical_targets(Genus(g))}
        queue = list(oracle)
        for u in queue:
            for v, idx, _ in adj[u]:
                if v not in oracle:
                    oracle[v] = idx
                    queue.append(v)
        instances, forest = _reduction_forest(g)
        assert instances == oracle_instances
        assert list(forest.items()) == list(oracle.items())
        if g > 12:
            return
        # the components need every edge, not only the forest's
        canon = {t.bits for t in canonical_targets(Genus(g))}
        seen = set()
        expected = []
        for start in range(1 << g):
            if start in seen:
                continue
            members = {start}
            queue = [start]
            for u in queue:
                for v, _, _ in adj[u]:
                    if v not in members:
                        members.add(v)
                        queue.append(v)
            seen |= members
            expected.append(
                (
                    len(members),
                    RSequence(Genus(g), start).ascii(),
                    tuple(RSequence(Genus(g), b).ascii() for b in sorted(canon & members)),
                )
            )
        report = classify_rseq_components(Genus(g))
        got = [(c.size, c.representative, c.canonical_members) for c in report.components]
        assert got == expected

    @pytest.mark.parametrize("g", range(1, 13))
    def test_showing_matches_plain_sets(self, g):
        # the set search oracle's doubled selection set of each side of each
        # live move is the set {u : u & window == side}, bit u standing for
        # sequence u
        for inst in _live_moves(Genus(g)):
            for side in (inst.lhs_bits, inst.rhs_bits):
                plain = 0
                for u in range(1 << g):
                    if u & inst.window_bits == side:
                        plain |= 1 << u
                assert _showing(g, inst, side) == plain

    def test_components_build_no_forest(self, capsys, monkeypatch):
        # 4.4 reads the live moves, never the forest `reduce_rseq` walks
        def refuse(g):
            raise AssertionError("the 4.4 check must not build the forest")

        monkeypatch.setattr(rewrite, "_reduction_forest", refuse)
        assert main(["verify-lemma", "4.4", "-g", "12"]) == 0
        out = capsys.readouterr().out
        digest = "ec44fa9c1f18a554b6cf915b3128939a4521376ea02a797bfe2388ac5b8e61ce"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_certificates_spell_as_instantiated(self):
        # reduce_alpha returns the spelling of the parsed step words
        for g in (6, 12, 24):
            genus = Genus(g)
            for inst in builtin_rule_tables(genus):
                assert parse_word(inst.word.text, genus) == inst.word

    def test_cached_shift_words_spell_as_instantiated(self):
        # all three shift rules share one template; every slot n of it
        for g in (6, 24, 64):
            genus = Genus(g)
            for rule in rule_schemas():
                if rule.family != "alpha":
                    continue
                for n in range(3, g + 1):
                    text = instantiate(rule.certificate, n=n)
                    assert _shift_certificate(g, n) == parse_word(text, genus)

    def test_every_cache_bounded(self):
        from crosscap import f2core, gmform, groupops, rewrite, words

        # the caches README's "Concurrency" table lists, with their bounds
        caches = {
            f"{obj.__module__.split('.')[-1]}.{obj.__name__}": obj.cache_info().maxsize
            for module in (f2core, gmform, words, groupops, rewrite)
            for obj in vars(module).values()
            if hasattr(obj, "cache_info")
        }
        assert caches == {
            "groupops._moves": 4,
            "groupops._label_table": 64,
            "rewrite._shift_certificate": 2048,
            "rewrite._reduction_forest": 4,
            "gmform.q_table": 4,
        }
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## Concurrency", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^\| `(\w+\.\w+)`", section, flags=re.M)
        assert sorted(listed) == sorted(caches)


def _with_letter(inst, genus, text):
    """The instance with one more letter on the left of its word."""
    word = MCGWord(genus, parse_word(text, genus).letters + inst.word.letters)
    return dataclasses.replace(inst, word=word)


# (rule, anchor, added letter, its axis, window, lemma whose check runs the
# rule): the added axis leaves the window.  An index shift's letter goes on
# the word of the slot it lowers, `_slot`
_ESCAPES = [
    ("S3.1", 1, "t_{a_3}", "x3+x4", [1, 2, 3], None),
    ("TA.1", 1, "t_{a_2}", "x2+x3", [1, 2], "4.6"),
    # the slot-3 word, checked at its first instance against x1+x3
    ("AL.1", (3, 4, 5), "t_{d_2}", "x2+x4", [1, 3], "4.10"),
    # a live move: t_{a_4} fixes its rhs x1+x3, so only the window check
    # sees it
    ("S4.6", 1, "t_{a_4}", "x4+x5", [1, 2, 3, 4], "4.4"),
]


def _slot(rule_id: str, anchor) -> int | None:
    """The slot an index shift lowers at its anchor; None for a window rule."""
    return anchor[int(rule_id[-1]) - 1] if rule_id.startswith("AL.") else None


class TestWindowLocality:
    @pytest.mark.parametrize("g", (6, 12, 24))
    def test_window_bits_match_position_oracle(self, g):
        genus = Genus(g)
        for n, inst in enumerate(builtin_rule_tables(genus)):
            assert inst.window_bits == H1Vector.from_indices(genus, window_positions(inst)).bits
            assert not leaves_window(inst)
            _check_window_local(inst.word, inst.window_bits, "here")
            # one more twist letter, inside or outside the window by turns
            grown = _with_letter(inst, genus, f"t_{{a_{n % (g - 1) + 1}}}")
            if leaves_window(grown):
                with pytest.raises(InternalCheckError, match="^here: .* leaves the window"):
                    _check_window_local(grown.word, grown.window_bits, "here")
            else:
                _check_window_local(grown.word, grown.window_bits, "here")

    @pytest.mark.parametrize(
        "rule_id,anchor,letter,axis,window,lemma", _ESCAPES, ids=[e[0] for e in _ESCAPES]
    )
    def test_escaping_axis_fails_consistency(
        self, monkeypatch, rule_id, anchor, letter, axis, window, lemma
    ):
        genus = Genus(6)
        if (slot := _slot(rule_id, anchor)) is not None:
            break_slot_word(monkeypatch, slot, f"{letter} {_shift_certificate(6, slot).text}")
        else:
            original = rewrite.rule_instances

            def corrupted(rule, genus):
                for inst in original(rule, genus):
                    hit = (rule.rule_id, inst.anchor) == (rule_id, anchor)
                    yield _with_letter(inst, genus, letter) if hit else inst

            monkeypatch.setattr(rewrite, "rule_instances", corrupted)
        with pytest.raises(InternalCheckError) as info:
            verify_rule_consistency(rule_by_id(rule_id), genus)
        assert str(info.value) == (
            f"{rule_id} at {anchor}: axis {axis} leaves the window {window}"
        )

    @pytest.mark.parametrize(
        "rule_id,anchor,letter,axis,window,lemma",
        [e for e in _ESCAPES if e[-1]],
        ids=[e[0] for e in _ESCAPES if e[-1]],
    )
    def test_escaping_axis_fails_check_under_optimize(
        self, rule_id, anchor, letter, axis, window, lemma
    ):
        if (slot := _slot(rule_id, anchor)) is not None:
            corrupt = (
                "original = rewrite._shift_certificate\n"
                "def corrupted(g, n):\n"
                "    word = original(g, n)\n"
                f"    if n == {slot}:\n"
                f"        extra = parse_word({letter!r}, word.genus).letters\n"
                "        word = MCGWord(word.genus, extra + word.letters)\n"
                "    return word\n"
                "rewrite._shift_certificate = corrupted\n"
            )
        else:
            corrupt = (
                "original = rewrite.rule_instances\n"
                "def corrupted(rule, genus):\n"
                "    for inst in original(rule, genus):\n"
                f"        if (rule.rule_id, inst.anchor) == ({rule_id!r}, {anchor!r}):\n"
                f"            extra = parse_word({letter!r}, genus).letters\n"
                "            word = MCGWord(genus, extra + inst.word.letters)\n"
                "            inst = dataclasses.replace(inst, word=word)\n"
                "        yield inst\n"
                "rewrite.rule_instances = corrupted\n"
            )
        code = (
            "import dataclasses, sys\n"
            "from crosscap import rewrite\n"
            "from crosscap.cli import main\n"
            "from crosscap.words import MCGWord, parse_word\n"
            f"{corrupt}"
            f"sys.exit(main(['verify-lemma', {lemma!r}, '-g', '6']))\n"
        )
        proc = run_python(code, "-O")
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("internal check failed")
        assert f"{rule_id} at {anchor}: axis {axis} leaves the window {window}" in proc.stderr


class TestAlphaReduction:
    def test_terminal_table_matches_form(self):
        genus = Genus(6)
        for triple, label in ALPHA_TERMINALS.items():
            value = q_eval(H1Vector.from_indices(genus, triple))
            assert value == (1 if label == "alpha_1" else 3)

    def test_statement_examples(self):
        assert reduce_alpha(Genus(6), AlphaTriple(1, 2, 3)).label == "alpha_1"
        assert reduce_alpha(Genus(6), AlphaTriple(2, 4, 5)).label == "alpha_2"
        red = reduce_alpha(Genus(12), AlphaTriple(3, 5, 7))
        assert red.terminal == (1, 3, 5) and red.label == "alpha_2"
        assert [s.after for s in red.steps] == [(1, 5, 7), (1, 3, 7), (1, 3, 5)]

    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaTriple(2, 2, 3)
        with pytest.raises(ValueError):
            reduce_alpha(Genus(5), AlphaTriple(1, 2, 6))

    @pytest.mark.parametrize("g", range(3, 11))
    def test_exhaustive_terminals(self, g):
        genus = Genus(g)
        for t in combinations(range(1, g + 1), 3):
            red = reduce_alpha(genus, AlphaTriple(*t))
            assert red.terminal in ALPHA_TERMINALS
            assert red.verified
            assert len(red.steps) <= sum(t) // 2

    def test_terminal_independent_of_rule_order(self):
        # the fixed priority is a determinism choice; random application
        # order must land on the same terminal
        rng = random.Random(11)
        for g in range(3, 10):
            for t in combinations(range(1, g + 1), 3):
                expected = reduce_alpha(Genus(g), AlphaTriple(*t)).terminal
                cur = t
                while True:
                    options = [p for p in (1, 2, 3) if _alpha_shift(p, cur) is not None]
                    if not options:
                        break
                    cur = _alpha_shift(rng.choice(options), cur)[0]
                assert cur == expected

    def test_steps_match_first_applicable_oracle(self):
        for g in range(3, 25):
            genus = Genus(g)
            for t in combinations(range(1, g + 1), 3):
                expected = shift_steps(t)
                red = reduce_alpha(genus, AlphaTriple(*t))
                assert [(s.rule_id, s.before, s.after) for s in red.steps] == expected
                # along the path no earlier rule applies, and each rule's shift
                # is the oracle's, its slot the entry it lowers
                for rule, before, after in expected:
                    p = int(rule[-1])
                    assert [_alpha_shift(q, before) for q in range(1, p)] == [None] * (p - 1)
                    assert _alpha_shift(p, before) == (after, before[p - 1])
                assert [_alpha_shift(p, red.terminal) for p in (1, 2, 3)] == [None] * 3

    def test_walk_matches_reduce_alpha(self):
        # the walk checks one shift per triple; reduce_alpha replays each path
        for g in range(1, 25):
            genus = Genus(g)
            triples = combinations(range(1, g + 1), 3)
            expected = [(t, reduce_alpha(genus, AlphaTriple(*t)).terminal) for t in triples]
            assert list(alpha_terminals(genus)[0].items()) == expected

    @pytest.mark.parametrize("dropped", list(ALPHA_TERMINALS))
    def test_walk_dropped_terminal_matches_first_failure(self, monkeypatch, dropped):
        # the walk raises what reduce_alpha raises for the smallest triple
        # whose path stops off the list
        monkeypatch.delitem(ALPHA_TERMINALS, dropped)
        genus = Genus(9)
        for t in combinations(range(1, 10), 3):
            try:
                reduce_alpha(genus, AlphaTriple(*t))
            except FalsificationError as exc:
                expected = str(exc)
                break
        with pytest.raises(FalsificationError) as walked:
            alpha_terminals(genus)
        assert str(walked.value) == expected
        if dropped == (2, 4, 6):
            assert expected == (
                "triple (2, 4, 6) stopped at (2, 4, 6), which is not a listed terminal"
            )


class TestShiftWalk:
    """`alpha_terminals` checks the shift rules in its one walk of the
    triples, folding each slot word once; the per-instance check,
    `shift_rule_verdicts`, is its oracle."""

    def test_instance_counts(self):
        # each rule applies to C(g-2, 3) triples: 364 at genus 16, 37820 at 64
        for g in range(1, 65):
            _, verdicts = alpha_terminals(Genus(g))
            assert [v.instances_checked for v in verdicts] == [comb(max(g - 2, 0), 3)] * 3
            assert all(verdicts)

    @pytest.mark.parametrize("g", range(1, 25))
    def test_verdicts_match_oracle(self, g):
        genus = Genus(g)
        assert list(alpha_terminals(genus)[1]) == shift_rule_verdicts(genus)

    @pytest.mark.parametrize("g", (8, 10))
    def test_broken_slot_word_matches_oracle(self, monkeypatch, g):
        # each slot word in turn acts as the identity, or moves x_n onto
        # x_{n-2}+x_n; both stay inside the slot's window
        genus = Genus(g)
        for n in range(3, g + 1):
            for text in (f"Y_{{{n},{n - 2}}}", f"t_{{d_{n - 2}}} t_{{d_{n - 2}}}"):
                with monkeypatch.context() as m:
                    break_slot_word(m, n, text)
                    walked = [v.to_json() for v in alpha_terminals(genus)[1]]
                    expected = [v.to_json() for v in shift_rule_verdicts(genus)]
                assert walked == expected
                assert not all(v["ok"] for v in walked)

    def test_folds_each_slot_word_once(self, monkeypatch):
        # one fold per slot, 14 at genus 16, where a fold per instance would
        # make 3 * 364
        calls = []
        fold = rewrite._fold

        def counted(axes, masks):
            calls.append(len(masks))
            return fold(axes, masks)

        monkeypatch.setattr(rewrite, "_fold", counted)
        alpha_terminals(Genus(16))
        assert 0 < len(calls) <= 16 - 2


_REPLAY_FAILED = "path certificate failed to replay"
_MOVE_CHANGES_Q = "live move S3.1 at 2 changes the form value"
_SHARED_Q = "normal forms with live moves share a form value"
_NO_SWAP_2_4 = "no live move swaps positions 2 and 4"


def _add_move_changing_q(moves):
    """One more live move: S3.1 at 2, which moves x4 to x2, moving x4 to x3."""
    [inst] = [i for i in moves if (i.rule.rule_id, i.anchor) == ("S3.1", 2)]
    moves.append(dataclasses.replace(inst, rhs_bits=0b100))


def _move_check_fails(genus) -> bool:
    try:
        classify_rseq_components(genus)
    except InternalCheckError as exc:
        assert str(exc) == _REPLAY_FAILED
        return True
    return False


def _some_path_fails(genus) -> bool:
    try:
        for bits in range(1 << genus.g):
            reduce_rseq(RSequence(genus, bits))
    except InternalCheckError as exc:
        assert str(exc) == _REPLAY_FAILED
        return True
    return False


def _outcome(classify, genus):
    """A component report's JSON, or the class and message of the check or
    falsification that stopped it."""
    try:
        return classify(genus).to_json()
    except (FalsificationError, InternalCheckError) as exc:
        return type(exc).__name__, str(exc)


class TestForestCheck:
    """`classify_rseq_components` checks each live move once and searches
    the support types each normal form reaches.  Its oracles are
    `reduce_rseq`, which walks the forest and replays a sequence's whole
    path, and the set search over all 2^g sequences it replaced."""

    @pytest.fixture(autouse=True)
    def fresh_forests(self):
        _reduction_forest.cache_clear()
        yield
        _reduction_forest.cache_clear()

    def _mutate(self, monkeypatch, g, mutate):
        """Serve a copy of the genus-g live moves changed by `mutate`."""
        moves = _live_moves(Genus(g))
        mutate(moves)
        monkeypatch.setattr(rewrite, "_live_moves", lambda genus: moves)

    @pytest.mark.parametrize("g", range(1, 13))
    def test_agrees_with_reduce_rseq(self, g):
        # counting the normal forms the reductions end at gives each
        # component's size and smallest member, one component per normal form
        genus = Genus(g)
        size: dict[int, int] = {}
        smallest: dict[int, int] = {}
        for bits, end in enumerate(_reduction_ends(g)):
            size[end] = size.get(end, 0) + 1
            smallest.setdefault(end, bits)
        assert sorted(size) == sorted(t.bits for t in canonical_targets(genus))
        expected = [
            (size[end], RSequence(genus, first).ascii(), (RSequence(genus, end).ascii(),))
            for end, first in sorted(smallest.items(), key=lambda item: item[1])
        ]
        report = classify_rseq_components(genus)
        got = [(c.size, c.representative, c.canonical_members) for c in report.components]
        assert got == expected

    @pytest.mark.parametrize("g", range(1, 17))
    def test_matches_set_search(self, g):
        genus = Genus(g)
        assert classify_rseq_components(genus).to_json() == set_search_components(genus).to_json()

    @pytest.mark.parametrize("g", [8, 11])
    def test_dropped_swap4_moves_match_set_search(self, monkeypatch, g):
        # each live swap4 move left out in turn, then each pair of swap4
        # rules: the types join or split the components exactly as the sets
        # do, or both report the same unreached sequence.  A single move is
        # never missed; three pairs of rules (S4.1 and S4.4, S4.2 and S4.3,
        # S4.5 and S4.6) leave a component without a normal form
        genus = Genus(g)
        moves = _live_moves(genus)
        swap4 = [inst for inst in moves if inst.rule.family == "swap4"]
        rules = sorted({inst.rule.rule_id for inst in swap4})
        drops = [[inst] for inst in swap4]
        drops += [[i for i in swap4 if i.rule.rule_id in pair] for pair in combinations(rules, 2)]
        falsified = []
        for dropped in drops:
            kept = [inst for inst in moves if inst not in dropped]
            with monkeypatch.context() as m:
                m.setattr(rewrite, "_live_moves", lambda genus: kept)
                got = _outcome(classify_rseq_components, genus)
                assert got == _outcome(set_search_components, genus)
            if isinstance(got, tuple):
                falsified.append(sorted({inst.rule.rule_id for inst in dropped}))
        assert len(swap4) == {8: 15, 11: 24}[g]
        assert falsified == [["S4.1", "S4.4"], ["S4.2", "S4.3"], ["S4.5", "S4.6"]]

    def test_dropped_swap3_move_fails_transposition_check(self, monkeypatch):
        # without S3.3 (anchors 2 and 4 at genus 6) no move swaps x2 + x3 and
        # x4 + x3, so the support types need not lie in one component each;
        # the set search, which does not need them to, still passes
        genus = Genus(6)
        kept = [inst for inst in _live_moves(genus) if inst.rule.rule_id != "S3.3"]
        monkeypatch.setattr(rewrite, "_live_moves", lambda genus: kept)
        set_search_components(genus)
        with pytest.raises(InternalCheckError, match=f"^{_NO_SWAP_2_4}$"):
            classify_rseq_components(genus)

    @pytest.mark.parametrize("g", range(1, 11))
    def test_roots_follow_parents(self, g):
        # each sequence's reduction ends at the one normal form of its
        # component in the explicit adjacency lists
        _, adj = sequence_graph(g)
        canon = {t.bits for t in canonical_targets(Genus(g))}
        component = [-1] * (1 << g)
        for start in range(1 << g):
            if component[start] < 0:
                members = [start]
                component[start] = start
                for u in members:
                    for v, _, _ in adj[u]:
                        if component[v] < 0:
                            component[v] = start
                            members.append(v)
                [normal] = canon & set(members)
                assert all(_reduction_ends(g)[u] == normal for u in members)

    def test_broken_step_word_agrees_with_reduce_rseq(self, monkeypatch):
        # each live move in turn gets a word acting as the identity: the move
        # check fails whenever some sequence's path replay fails
        genus = Genus(6)
        failed = 0
        for inst in _live_moves(genus):
            with monkeypatch.context() as m:
                break_instance(m, inst.rule.rule_id, inst.anchor, "Y_{1,2}")
                _reduction_forest.cache_clear()
                checked = _move_check_fails(genus)
                assert checked or not _some_path_fails(genus)
            failed += checked
        assert failed > 0

    def test_wrong_step_word_fails(self, monkeypatch):
        # pMpMpm reaches its normal form by S4.6 at 1; t_{d_1} fixes x2+x4
        break_instance(monkeypatch, "S4.6", 1, "t_{d_1}")
        with pytest.raises(InternalCheckError, match=f"^{_REPLAY_FAILED}$"):
            classify_rseq_components(Genus(6))

    def test_smallest_unreduced_sequence_is_falsified(self, monkeypatch):
        # the message reduce_rseq gives for the first sequence it cannot reduce
        targets = rewrite.canonical_targets
        monkeypatch.setattr(rewrite, "canonical_targets", lambda genus: targets(genus)[:-1])
        genus = Genus(6)
        with pytest.raises(FalsificationError) as search:
            classify_rseq_components(genus)
        with pytest.raises(FalsificationError) as path:
            for bits in range(1 << 6):
                reduce_rseq(RSequence(genus, bits))
        assert str(search.value) == str(path.value)
        assert str(search.value) == "sequence PMPMPM lies in a component without a normal form"

    def test_folds_each_certificate_once(self, monkeypatch):
        # every live move's certificate is folded, each once, where a fold
        # per edge would make 1018 at genus 10, one per sequence but the 6
        # normal forms
        calls = []
        fold = rewrite._fold

        def counted(axes, masks):
            calls.append(len(masks))
            return fold(axes, masks)

        monkeypatch.setattr(rewrite, "_fold", counted)
        classify_rseq_components(Genus(10))
        assert calls == [1] * len(_live_moves(Genus(10)))

    @pytest.mark.parametrize("g", range(1, RSEQ_GENUS_CAP + 1))
    def test_inverse_axes_reversed(self, g):
        # a rev step replays by the move's one fold: the inverse word's axes
        # are the certificate's, reversed
        for inst in _live_moves(Genus(g)):
            assert inst.word.inverse().axes == tuple(reversed(inst.word.axes))

    def test_move_changing_q_fails(self, monkeypatch):
        # the extra move keeps every component's q but one: it joins x4, in
        # the component of x2, to x3, in the component of x1
        self._mutate(monkeypatch, 6, _add_move_changing_q)
        with pytest.raises(InternalCheckError, match=f"^{_MOVE_CHANGES_Q}$"):
            classify_rseq_components(Genus(6))

    def test_normal_forms_sharing_q_fail(self, monkeypatch):
        add_normal_form(monkeypatch)
        with pytest.raises(InternalCheckError, match=f"^{_SHARED_Q}$"):
            classify_rseq_components(Genus(5))


class TestChunkTables:
    """The forest's chunk tables must partition the live moves, each window
    inside its chunk's bits; a failure is a defect in crosscap."""

    def test_uncovered_moves_fail(self):
        # chunks laid out for genus 8 miss the genus-12 moves anchored past 8
        moves, _ = _reduction_forest(12)
        with pytest.raises(InternalCheckError, match="^the chunks do not partition the live moves$"):
            _chunk_tables(moves, 8)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
    def test_wide_chunk_exits_4(self, flags):
        # with five anchors a chunk, S4.2 at 5 reads bits 4..7, past the
        # chunk's seven bits 0..6
        code = (
            "import sys\n"
            "from crosscap import rewrite\n"
            "from crosscap.cli import main\n"
            "rewrite._CHUNK = 5\n"
            "sys.exit(main(['reduce-rseq', 'PMpMPmPm']))\n"
        )
        proc = run_python(code, *flags)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == "internal check failed: live move S4.2 at 5 leaves its chunk's bits\n"


class TestTreesAreComponents:
    """A broken check of the component report is a defect in crosscap:
    `verify-lemma 4.4` exits 4 with the check's line, also under `python -O`."""

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
    @pytest.mark.parametrize(
        "corrupt,g,message",
        [
            # the move of `_add_move_changing_q`, served as a live move
            (
                "import dataclasses\n"
                "moves = rewrite._live_moves(rewrite.Genus(6))\n"
                "[inst] = [i for i in moves if (i.rule.rule_id, i.anchor) == ('S3.1', 2)]\n"
                "extra = moves + [dataclasses.replace(inst, rhs_bits=0b100)]\n"
                "rewrite._live_moves = lambda genus: extra\n",
                6,
                _MOVE_CHANGES_Q,
            ),
            # the normal form of `add_normal_form`
            (
                "targets = rewrite.canonical_targets\n"
                "def extra(genus):\n"
                "    return targets(genus) + (rewrite.RSequence(genus, 0b100),)\n"
                "rewrite.canonical_targets = extra\n",
                5,
                _SHARED_Q,
            ),
            # S3.3 left out of the live moves
            (
                "moves = rewrite._live_moves(rewrite.Genus(6))\n"
                "kept = [i for i in moves if i.rule.rule_id != 'S3.3']\n"
                "rewrite._live_moves = lambda genus: kept\n",
                6,
                _NO_SWAP_2_4,
            ),
        ],
        ids=["move-changes-q", "normal-forms-share-q", "no-transposition"],
    )
    def test_exit_4(self, flags, corrupt, g, message):
        code = (
            "import sys\n"
            "from crosscap import rewrite\n"
            "from crosscap.cli import main\n"
            f"{corrupt}"
            f"sys.exit(main(['verify-lemma', '4.4', '-g', '{g}']))\n"
        )
        proc = run_python(code, *flags)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == f"internal check failed: {message}\n"


class TestCertificateReplay:
    @pytest.mark.parametrize(
        "corrupt,argv,exit_code,message",
        [
            # the path's one step, S4.6 at 1, carries the word of S3.1 at 1,
            # t_{d_1}, which fixes x2+x4; the forest still walks to PmPmpm,
            # so only the replay of the joined word sees it
            (
                "import dataclasses\n"
                "instances, forest = rewrite._reduction_forest(6)\n"
                "idx = forest[rewrite.RSequence.parse('pMpMpm').bits]\n"
                "s31 = rewrite.rule_by_id('S3.1').certificate\n"
                "word = rewrite.parse_word(rewrite.instantiate(s31, i=1), rewrite.Genus(6))\n"
                "instances[idx] = dataclasses.replace(instances[idx], word=word)\n",
                ["reduce-rseq", "pMpMpm"],
                4,
                "path certificate failed to replay",
            ),
            # each shift gets the word of the next slot
            (
                "original = rewrite._shift_certificate\n"
                "def next_slot(genus, n):\n"
                "    return original(genus, n + 1)\n"
                "rewrite._shift_certificate = next_slot\n",
                ["reduce-alpha", "-g", "8", "3", "5", "7"],
                4,
                "index-shift certificate failed to replay",
            ),
            # the same word on the same move, S4.6 at 1, met by the 4.4
            # check's one fold of each live move
            (
                "import dataclasses\n"
                "moves = rewrite._live_moves(rewrite.Genus(6))\n"
                "[idx] = [n for n, i in enumerate(moves) if (i.rule.rule_id, i.anchor) == ('S4.6', 1)]\n"
                "s31 = rewrite.rule_by_id('S3.1').certificate\n"
                "word = rewrite.parse_word(rewrite.instantiate(s31, i=1), rewrite.Genus(6))\n"
                "moves[idx] = dataclasses.replace(moves[idx], word=word)\n"
                "rewrite._live_moves = lambda genus: moves\n",
                ["verify-lemma", "4.4", "-g", "6"],
                4,
                "path certificate failed to replay",
            ),
            # Y_{n,n-2} stays inside each shift's window and acts as the
            # identity: the walk's one fold of each slot word fails, so all
            # three shift rules are inconsistent and the lemma is falsified
            (
                "from crosscap.f2core import Genus\n"
                "from crosscap.words import parse_word\n"
                "def in_window(g, n):\n"
                "    return parse_word('Y_{%d,%d}' % (n, n - 2), Genus(g))\n"
                "rewrite._shift_certificate = in_window\n",
                ["verify-lemma", "4.10", "-g", "8"],
                1,
                "4.10 (gamma2-short): all 56 triples reach a listed terminal; "
                "shift rules AL.1, AL.2, AL.3 inconsistent",
            ),
        ],
        ids=["reduce-rseq", "reduce-alpha", "verify-lemma-4.4", "verify-lemma-4.10"],
    )
    def test_wrong_step_word_fails_replay_under_optimize(self, corrupt, argv, exit_code, message):
        code = (
            "import sys\n"
            "from crosscap import rewrite\n"
            "from crosscap.cli import main\n"
            f"{corrupt}"
            f"sys.exit(main({argv!r}))\n"
        )
        proc = run_python(code, "-O")
        assert proc.returncode == exit_code
        # a defect prints nothing; a falsified lemma prints its report
        assert (proc.stdout == "") == (exit_code == 4)
        prefix = {1: "falsified", 4: "internal check failed"}[exit_code]
        assert proc.stderr == f"{prefix}: {message}\n"
