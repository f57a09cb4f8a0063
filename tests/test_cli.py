import hashlib
import json
import pathlib
import shlex

import pytest

from crosscap import cli, groupops, rewrite
from crosscap.cli import LEMMA_CLAIMS, main
from crosscap.f2core import Genus, H1Matrix
from crosscap.words import parse_word

from helpers import add_normal_form, break_instance, break_slot_word, falsified, validate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_forests():
    # the sequence forest is cached per genus: rebuild it on both sides
    rewrite._reduction_forest.cache_clear()
    yield
    rewrite._reduction_forest.cache_clear()


def _drop_normal_form(monkeypatch):
    targets = rewrite.canonical_targets
    monkeypatch.setattr(rewrite, "canonical_targets", lambda genus: targets(genus)[:-1])


def _drop_terminal(monkeypatch):
    monkeypatch.delitem(rewrite.ALPHA_TERMINALS, (1, 2, 3))


def _break_al1(monkeypatch):
    # only AL.1 lowers an entry 3; Y_{3,1} stays inside the slot's window
    # x1+x3 and acts as the identity, so AL.1 fails at its first triple,
    # (3, 4, 5)
    break_slot_word(monkeypatch, 3, "Y_{3,1}")


def _in_window_shift_word(monkeypatch):
    # Y_{n,n-2} stays inside each shift's window and acts as the identity:
    # every shift rule is inconsistent
    monkeypatch.setattr(
        rewrite, "_shift_certificate", lambda g, n: parse_word(f"Y_{{{n},{n - 2}}}", Genus(g))
    )


def _break_s46(monkeypatch):
    # pMpMpm reaches its normal form by S4.6 at 1; t_{d_1} fixes x2+x4
    break_instance(monkeypatch, "S4.6", 1, "t_{d_1}")


def _replay_to_identity(monkeypatch):
    monkeypatch.setattr(
        groupops, "_replay", lambda genus, gens, word: H1Matrix.identity(genus)
    )


def _drop_label(monkeypatch):
    table = groupops._label_table
    dropped = groupops.triple_label(1)
    monkeypatch.setattr(
        groupops,
        "_label_table",
        lambda genus: {k: v for k, v in table(genus).items() if k != dropped},
    )


class TestEvalAndAct:
    def test_eval_json(self, capsys):
        code, out, _ = run(capsys, "eval-form", "-g", "5", "x1+x3")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "eval.schema.json")
        assert payload["value"] == 2

    def test_eval_signed_text(self, capsys):
        code, out, _ = run(capsys, "eval-form", "-g", "5", "x2", "--signed", "--format", "text")
        assert code == 0
        assert out.strip() == "q(x2) = -1"

    def test_act(self, capsys):
        code, out, _ = run(capsys, "act", "-g", "4", "t_{a_1}", "x1")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "act.schema.json")
        assert payload["image"] == "x2"


class TestExtendable:
    def test_positive(self, capsys):
        code, out, _ = run(capsys, "extendable", "-g", "4", "t_{d_1}")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "extendable.schema.json")
        assert payload["extendable"] is True
        assert "witness" not in payload

    def test_negative_with_witness(self, capsys):
        code, out, _ = run(capsys, "extendable", "-g", "4", "t_{a_1}")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "extendable.schema.json")
        assert payload == {
            "word": "t_{a_1}",
            "genus": 4,
            "matrix": ["0100", "1000", "0010", "0001"],
            "extendable": False,
            "witness": "x1",
        }

    def test_slide_dressing_irrelevant(self, capsys):
        _, plain, _ = run(capsys, "extendable", "-g", "5", "t_{d_2}")
        _, dressed, _ = run(capsys, "extendable", "-g", "5", "Y_{1,4} t_{d_2} Y_{4,1}")
        assert json.loads(plain)["extendable"] == json.loads(dressed)["extendable"]


class TestFactorize:
    def test_found(self, capsys):
        code, out, _ = run(capsys, "factorize", "-g", "4", "t_{a_1}^{2} t_{d_2}")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "factorize.schema.json")
        assert payload["status"] == "found"
        assert payload["word"] == ["t_{d_2}"]

    def test_non_member(self, capsys):
        code, out, _ = run(capsys, "factorize", "-g", "4", "t_{a_1}")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "not_member"

    def test_budget_exit(self, capsys):
        code, out, err = run(
            capsys, "factorize", "-g", "6", "t_{d_1} t_{d_3}", "--cap", "3"
        )
        assert code == 3
        assert json.loads(out)["status"] == "budget_exhausted"
        assert "budget" in err

    def test_cap_below_one_is_usage_error(self, capsys):
        for cap in ("0", "-5"):
            code, out, err = run(capsys, "factorize", "-g", "4", "t_{d_1}", "--cap", cap)
            assert code == 2
            assert out == ""
            assert "--cap" in err

    def test_cap_one_is_usage_error_only_for_factorize(self, capsys):
        # both starting elements of the search count against the cap
        code, out, err = run(capsys, "factorize", "-g", "9", "t_{d_1}", "--cap", "1")
        assert (code, out) == (2, "")
        assert "--cap: must be at least 2" in err
        code, out, _ = run(capsys, "verify-lemma", "4.8", "-g", "1", "--cap", "1")
        assert code == 0
        assert json.loads(out)["detail"]["equal"] is True

    def test_genus_budget(self, capsys):
        code, out, err = run(capsys, "factorize", "-g", "64", "t_{d_1}")
        assert (code, out) == (3, "")
        assert "genus <= 16" in err

    def test_failed_replay_is_internal_error(self, capsys, monkeypatch):
        _replay_to_identity(monkeypatch)
        code, out, err = run(capsys, "factorize", "-g", "4", "t_{d_1}")
        assert code == 4
        assert out == ""
        assert err == "internal check failed: factorization word failed to replay\n"


class TestEnumerate:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-g", "3", "--elements")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "table.schema.json")
        assert payload["order"] == 2

    def test_budget(self, capsys):
        code, _, err = run(capsys, "enumerate", "-g", "9")
        assert code == 3
        assert "budget" in err


# every budget refusal, with the exact stderr line (computed before the
# genus budgets went through one guard)
BUDGET_REFUSALS = [
    (
        ("enumerate", "-g", "9"),
        "orthogonal enumeration is budgeted for genus <= 8, got 9",
    ),
    (
        ("verify-lemma", "4.8", "-g", "9"),
        "generation check is budgeted for genus <= 8, got 9",
    ),
    (
        ("verify-lemma", "thm4.1", "-g", "9"),
        "generation check is budgeted for genus <= 8, got 9",
    ),
    (
        ("factorize", "-g", "17", "t_{d_1}"),
        "factorization is budgeted for genus <= 16, got 17",
    ),
    (
        ("reduce-rseq", "pMpMpMpMpMpMpMpMpMp"),
        "sequence reduction is budgeted for genus <= 18, got 19",
    ),
    (
        ("verify-lemma", "4.8", "-g", "7", "--cap", "100"),
        "closure hit the node cap; raise --cap",
    ),
    (
        ("factorize", "-g", "6", "t_{d_1} t_{d_3}", "--cap", "3"),
        "factorization reached its cap of 3 elements; nothing is claimed",
    ),
]


@pytest.mark.parametrize("argv,message", BUDGET_REFUSALS)
def test_budget_refusal_pinned(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err == f"budget exhausted: {message}\n"


def test_thm41_refuses_before_deciding_a_word(capsys, monkeypatch):
    def refuse(word):
        raise AssertionError("the budget must refuse before any word is decided")

    monkeypatch.setattr(cli, "decide_extendable", refuse)
    code, out, err = run(capsys, "verify-lemma", "thm4.1", "-g", "9")
    assert code == 3
    assert out == ""
    assert err == "budget exhausted: generation check is budgeted for genus <= 8, got 9\n"


def _readme_cli_examples() -> list[list[str]]:
    """Arguments of each `crosscap` line in the sh block under README's CLI heading."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("crosscap ")
    ]


def test_readme_cli_examples(capsys):
    # every example runs and prints JSON, and the facts its comment states hold
    payloads = {}
    for argv in _readme_cli_examples():
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        payloads[tuple(argv)] = json.loads(out)
    assert len(payloads) == 10
    assert payloads[("eval-form", "-g", "5", "x1+x3")]["value"] == 2
    assert payloads[("extendable", "-g", "4", "t_{d_1}")]["extendable"] is True
    negative = payloads[("extendable", "-g", "4", "t_{a_1}")]
    assert negative["extendable"] is False and negative["witness"] == "x1"
    assert payloads[("reduce-q2", "-g", "6", "x2+x4")]["end"] == "x1+x3"


class TestVerifyLemma:
    @pytest.mark.parametrize(
        "lemma,genus",
        [
            ("4.4", 4), ("4.6", 5), ("4.8", 4), ("4.10", 7), ("thm4.1", 4),
            # at genus 1 the closure {I} equals the enumeration {I}
            ("4.8", 1), ("thm4.1", 1),
        ],
    )
    def test_each_workflow(self, capsys, lemma, genus):
        code, out, _ = run(capsys, "verify-lemma", lemma, "-g", str(genus))
        assert code == 0
        payload = json.loads(out)
        validate(payload, "lemma.schema.json")
        assert payload["ok"] is True
        assert payload["claim"] == LEMMA_CLAIMS[lemma]

    def test_claim_name_accepted(self, capsys):
        code, out, _ = run(capsys, "verify-lemma", "gen-Og-os-red", "-g", "3")
        assert code == 0
        assert json.loads(out)["lemma"] == "4.8"

    def test_unknown_lemma_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify-lemma", "9.9", "-g", "4")
        assert code == 2
        assert "unknown lemma" in err

    @pytest.mark.parametrize(
        "lemma,genus,line",
        [
            ("4.4", 6, "4.4 (G-g-eq-r-circle) verified: all 64 sequences reduce to a "
             "normal form (6 components)"),
            ("4.6", 6, "4.6 (product-Y-homeo) verified: 17 twist cases, 55 instances, "
             "all consistent"),
            ("4.8", 5, "4.8 (gen-Og-os-red) verified: closure order 72, enumerated order "
             "72, equal: True (diameter 5)"),
            ("4.10", 9, "4.10 (gamma2-short) verified: all 84 triples reach a listed "
             "terminal; shift rules consistent"),
            ("thm4.1", 5, "thm4.1 (generator-pin) verified: 31 generator words all "
             "extendable; homology image generates the full isometry group: True"),
        ],
    )
    def test_verified_text_line(self, capsys, lemma, genus, line):
        code, out, err = run(capsys, "verify-lemma", lemma, "-g", str(genus), "--format", "text")
        assert (code, out, err) == (0, line + "\n", "")


class TestFalsifiedReport:
    """A falsified workflow prints its lemma's report and a line naming what
    failed, both when it returns a failed verdict and when a reduction
    raises FalsificationError inside it.  The 4.6 and 4.8 cases sit next to
    their mutations in test_rewrite.py and test_groupops.py."""

    def test_44_dropped_normal_form(self, capsys, monkeypatch, fresh_forests):
        _drop_normal_form(monkeypatch)
        payload, line = falsified(capsys, "4.4", 4)
        assert line == "sequence PMPM lies in a component without a normal form"
        assert payload["detail"] == {"falsified": line}

    def test_44_broken_invariant(self, capsys, monkeypatch):
        # a form that reads only x1 changes along the moves that change x1:
        # every forest edge is a live move, so a move that changes the form
        # value is a defect in crosscap, not a verdict (exit 4, no report)
        monkeypatch.setattr(rewrite, "_q_mask", lambda bits, odd: bits & 1)
        for fmt in ("json", "text"):
            got, out, err = run(capsys, "verify-lemma", "4.4", "-g", "4", "--format", fmt)
            assert (got, out) == (4, "")
            assert err == "internal check failed: live move S3.2 at 1 changes the form value\n"

    def test_410_failed_shift_rule(self, capsys, monkeypatch):
        _break_al1(monkeypatch)
        payload, line = falsified(capsys, "4.10", 6)
        assert line == "all 20 triples reach a listed terminal; shift rules AL.1 inconsistent"
        assert payload["detail"]["shift_rules"][0] == {
            "id": "AL.1",
            "instances": 1,
            "ok": False,
            "failing_anchor": [3, 4, 5],
            "expected": "x1+x4+x5",
            "got": "x3+x4+x5",
        }

    def test_410_dropped_terminal(self, capsys, monkeypatch):
        _drop_terminal(monkeypatch)
        payload, line = falsified(capsys, "4.10", 5)
        assert line == "triple (1, 2, 3) stopped at (1, 2, 3), which is not a listed terminal"
        assert payload["detail"] == {"falsified": line}

    def test_thm41_non_extendable_generator(self, capsys, monkeypatch):
        gens = cli.standard_generators
        monkeypatch.setattr(
            cli, "standard_generators", lambda genus: [*gens(genus), ("t_{a_1}", None)]
        )
        payload, line = falsified(capsys, "thm4.1", 4)
        assert payload["detail"]["non_extendable_generators"] == ["t_{a_1}"]
        assert line == (
            "1 of 20 generator words not extendable; homology image generates "
            "the full isometry group: True"
        )


class TestReductions:
    def test_reduce_rseq(self, capsys):
        code, out, _ = run(capsys, "reduce-rseq", "pmP")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "path.schema.json")
        assert payload["end"] == "Pmp"

    def test_reduce_rseq_budget(self, capsys):
        code, out, err = run(capsys, "reduce-rseq", "pm" * 9 + "p")
        assert (code, out) == (3, "")
        assert "genus <= 18" in err

    def test_reduce_rseq_genus_mismatch(self, capsys):
        code, _, err = run(capsys, "reduce-rseq", "pmP", "-g", "5")
        assert code == 2
        assert "does not match" in err

    def test_reduce_alpha(self, capsys):
        code, out, _ = run(capsys, "reduce-alpha", "-g", "9", "3", "5", "7")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "alpha.schema.json")
        assert payload["terminal"] == [1, 3, 5]
        assert payload["label"] == "alpha_2"

    def test_reduce_q2(self, capsys):
        code, out, _ = run(capsys, "reduce-q2", "-g", "6", "x2+x4")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "vector_reduction.schema.json")
        assert payload["end"] == "x1+x3"

    def test_reduce_q2_precondition_usage_error(self, capsys):
        code, _, err = run(capsys, "reduce-q2", "-g", "6", "x1+x2")
        assert code == 2
        assert "need 2" in err


# a product of 8 standard generators at genus 9; factorize finds length 8
FACTORIZE_G9 = (
    "t_{d_2} t_{a_3} t_{a_5} t_{c_3} t_{d_6} t_{a_1} t_{a_3} t_{c_1} t_{d_4} "
    "t_{a_4} t_{a_6} t_{c_4} t_{d_1} t_{a_6} t_{a_8} t_{c_6}"
)
CAPPED_FACTORIZE_G9 = ("factorize", "-g", "9", FACTORIZE_G9, "--cap", "200")
# the smallest cap factorize accepts: the two starting elements fill it
SMALLEST_CAP_FACTORIZE = ("factorize", "-g", "9", "t_{d_1}", "--cap", "2")
# a shortest word of length 8 at genus 8 whose last backward level meets
# forward level 4 at keys 2264, 2616 and 2635 of its 2666; capped one below
# that whole level
FACTORIZE_G8_MEETS = (
    "t_{a_4} t_{a_6} t_{c_4} t_{a_1} t_{a_3} t_{c_1} t_{d_2} t_{a_4} t_{a_6} t_{c_4} "
    "t_{d_3} t_{a_5} t_{a_7} t_{c_5} t_{d_2} t_{a_3} t_{a_5} t_{c_3}"
)
CAPPED_FACTORIZE_G8_MEETS = ("factorize", "-g", "8", FACTORIZE_G8_MEETS, "--cap", "6493")
# pinned commands that end in another exit code than 0
PINNED_EXIT = {CAPPED_FACTORIZE_G9: 3, SMALLEST_CAP_FACTORIZE: 3, CAPPED_FACTORIZE_G8_MEETS: 3}


class TestCliContract:
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("enumerate", "-g", "6", "--elements"),
                "700250c194c63978188e461491dbf27732293f62ab1d698013ab5e57d75fc984",
            ),
            (
                ("verify-lemma", "4.8", "-g", "7"),
                "00d37d305c01a0a471c5d64ef4c7776e1ca30d3a5019d9018e011bd2dc4ba3d3",
            ),
            (
                ("verify-lemma", "thm4.1", "-g", "6"),
                "a0e31995c04db542a399cae3154fbfd314c888d532a21e9a9b23602404f67c1a",
            ),
            (
                # smallest witness x14: the old 2^g scan passed 8191 classes
                (
                    "extendable",
                    "-g",
                    "20",
                    "t_{c_14} t_{d_16}^{-1} Y_{3,17} t_{a_2}^{2} t_{d_1} t_{c_15} t_{a_17}",
                ),
                "62e1240db4bd7c3425ac7665c89050642670d67b49bdb5f3ae84467c056e3320",
            ),
            (
                (
                    "extendable",
                    "-g",
                    "24",
                    "t_{a_3} t_{c_18} Y_{alpha_{5,7,8},alpha_{5,7,8,9}} t_{d_20}^{3} t_{c_5}^{-1}",
                ),
                "14f2c12ea3476b990ee3af203bf5f850c9d9a6dbab3cbcf70739d59e4faff8f7",
            ),
            (
                ("verify-lemma", "4.4", "-g", "10"),
                "cb718e5859bb5f84d660a49744bd65fa2b07ed2042e6169587882d4cd4815091",
            ),
            (
                ("verify-lemma", "4.10", "-g", "16"),
                "82a482c92ce0dd6fc009438a475c66256230dd0ba20c7edd27673b28a80c9245",
            ),
            (
                ("verify-lemma", "4.6", "-g", "12"),
                "a7854d0b68c4a7833ff106c642a70668bb73cab2f9a0c6696ec31756a865535e",
            ),
            (
                ("reduce-rseq", "PmpMPMpmPMpMPm"),
                "14c7ea2bed71b60961af46965a83b6dd34abf952da3aa840069f6a817ee98d07",
            ),
            (
                ("reduce-alpha", "-g", "64", "33", "48", "64"),
                "454f5e482cba093b4c3977def54e2de3ef1b5a05a9aba6eaa2e8695807b04912",
            ),
            (
                ("reduce-q2", "-g", "64", "x2+x7+x10+x19+x22+x31+x40+x44+x51+x64"),
                "a9cb381785fc01d1201ac0b3ac84efe20d57871c3f067994ad1a9e77a0a23376",
            ),
            (
                ("factorize", "-g", "9", FACTORIZE_G9),
                "9be4f29c50eb181e655e3635f9f0bf4084ac9353cf85c9160442e822ed15d5e2",
            ),
            (
                # budget_exhausted with explored 200
                CAPPED_FACTORIZE_G9,
                "123ff67565223ace22dfed3fa31a45e78e905ece4c870b13f52725c50e05dff3",
            ),
            (
                SMALLEST_CAP_FACTORIZE,
                "6d8c83d558c168103f2f162d5455d1769b04baad2bb86b86c6d148f6d9205abb",
            ),
            (
                ("verify-lemma", "4.10", "-g", "24"),
                "934ea631e361b2e51b8dc345405becdd458e7d072913c369605ff2076f816618",
            ),
            (
                # every shift-rule anchor and the one shared shift template
                ("verify-lemma", "4.6", "-g", "24"),
                "3c069b559c73678fd77f856db4cf82345aa35cda7e066f15bd18d5a3c2464001",
            ),
            (
                # found, length 5, explored 2643: 144-bit packed keys
                (
                    "factorize",
                    "-g",
                    "12",
                    "t_{d_1} t_{d_5} t_{a_3} t_{a_5} t_{c_3} t_{d_9} t_{d_2}",
                ),
                "edd28016f615ee7027ef7436912cb8e810bfba401af6f20878629120fb04b4a1",
            ),
            (
                # found, length 3, explored 487: 256-bit keys at the genus cap
                ("factorize", "-g", "16", "t_{d_1} t_{a_11} t_{a_13} t_{c_11} t_{d_14}"),
                "00a0424c7a0ff71ddb17d4aa62ab616c7eb546d22d86318563272147a9a3ce1b",
            ),
            (
                # every triple of the index-shift system at genus 32
                ("verify-lemma", "4.10", "-g", "32"),
                "f44ae10538a24e701519ba877a7fbafffa7bf7755b632b575c400913de7a3e50",
            ),
            (
                # the odd genus, where w shares q = 1 with x1
                ("verify-lemma", "4.4", "-g", "17"),
                "bcfb13b0cc3915571b50708c2b4f3cd50c77dbb211b998704e6951f32e447948",
            ),
            (
                # found, length 8, explored 6494: the first of three meets on
                # the last backward step, in frontier order
                ("factorize", "-g", "8", FACTORIZE_G8_MEETS),
                "eec823612bb0def2798ef8cd71cd0e73b34f4fe6c412a080527700a57f4d7d3e",
            ),
            (
                # budget_exhausted with explored 6493
                CAPPED_FACTORIZE_G8_MEETS,
                "a0ba392fa8e4e77cdaf7a5f1f21dea878e4aa6c1b0d88e7185a3c8a87bdc019d",
            ),
            (
                # all 2^64 sequences, counted by support type
                ("verify-lemma", "4.4", "-g", "64"),
                "4efeec567400b9fb3a0afd67aad69d4716138e06a1f8440b6cc75e037f7f0f0e",
            ),
        ],
    )
    def test_output_bytes_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == PINNED_EXIT.get(argv, 0)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_workers_accepts_only_one(self, capsys):
        commands = (("enumerate", "-g", "4", "--elements"), ("verify-lemma", "4.8", "-g", "4"))
        for argv in commands:
            code, out, err = run(capsys, *argv, "--workers", "2")
            assert (code, out) == (2, "")
            assert "--workers" in err
            _, plain, _ = run(capsys, *argv)
            _, one, _ = run(capsys, *argv, "--workers", "1")
            assert one == plain

    def test_usage_error_bad_vector(self, capsys):
        code, _, err = run(capsys, "eval-form", "-g", "3", "zzz")
        assert code == 2
        assert "error" in err

    def test_parser_error_names_the_type(self, capsys):
        # the parser's own errors keep the one-line contract, and a bad
        # number names the type it fails to parse as
        code, out, err = run(capsys, "verify-lemma", "4.8", "-g", "4", "--cap", "abc")
        assert (code, out) == (2, "")
        assert err == "error: argument --cap: invalid int value: 'abc'\n"

    def test_help_is_not_an_error(self, capsys):
        code, out, err = run(capsys, "verify-lemma", "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: crosscap verify-lemma ")

    def test_usage_error_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_genus(self, capsys):
        assert run(capsys, "eval-form", "x1")[0] == 2

    def test_word_parse_error_reports_position(self, capsys):
        code, _, err = run(capsys, "extendable", "-g", "4", "t_{a_1} ???")
        assert code == 2
        assert "position 8" in err

    def test_b_twist_diagnostic(self, capsys):
        code, _, err = run(capsys, "extendable", "-g", "6", "t_{b_2}")
        assert code == 2
        assert "b-circles" in err

    def test_repeat_runs_byte_identical(self, capsys):
        _, one, _ = run(capsys, "verify-lemma", "4.6", "-g", "6")
        _, two, _ = run(capsys, "verify-lemma", "4.6", "-g", "6")
        assert one == two


# the schema of each command's report
SCHEMAS = {
    "eval-form": "eval",
    "act": "act",
    "extendable": "extendable",
    "factorize": "factorize",
    "enumerate": "table",
    "verify-lemma": "lemma",
    "reduce-rseq": "path",
    "reduce-alpha": "alpha",
    "reduce-q2": "vector_reduction",
}
# the stderr prefix of each non-zero exit code
PREFIXES = {1: "falsified: ", 2: "error: ", 3: "budget exhausted: ", 4: "internal check failed: "}
# every exit code each command can reach: (argv, exit code, mutation or None)
OUTCOMES = [
    (("eval-form", "-g", "5", "x1+x3"), 0, None),
    (("act", "-g", "4", "t_{a_1}", "x1"), 0, None),
    (("extendable", "-g", "4", "t_{a_1}"), 0, None),
    (("factorize", "-g", "4", "t_{a_1}^{2} t_{d_2}"), 0, None),
    (("enumerate", "-g", "3", "--elements"), 0, None),
    (("verify-lemma", "4.6", "-g", "5"), 0, None),
    (("reduce-rseq", "pmP"), 0, None),
    (("reduce-alpha", "-g", "9", "3", "5", "7"), 0, None),
    (("reduce-q2", "-g", "6", "x2+x4"), 0, None),
    (("verify-lemma", "4.10", "-g", "6"), 1, _break_al1),
    (("verify-lemma", "4.10", "-g", "5"), 1, _drop_terminal),
    (("reduce-rseq", "PMPM"), 1, _drop_normal_form),
    (("reduce-alpha", "-g", "5", "1", "2", "3"), 1, _drop_terminal),
    (("eval-form", "-g", "3", "zzz"), 2, None),
    (("act", "-g", "4", "t_{a_1}", "x9"), 2, None),
    (("extendable", "-g", "2", "t_{c_1}"), 2, None),
    (("factorize", "-g", "6", "t_{b_2}"), 2, None),
    (("enumerate", "-g", "0"), 2, None),
    (("verify-lemma", "9.9", "-g", "4"), 2, None),
    (("reduce-rseq", "pmP", "-g", "5"), 2, None),
    (("reduce-alpha", "-g", "5", "3", "2", "1"), 2, None),
    (("reduce-q2", "-g", "6", "x1+x2"), 2, None),
    (("enumerate", "-g", "9"), 3, None),
    (("verify-lemma", "4.8", "-g", "7", "--cap", "100"), 3, None),
    (CAPPED_FACTORIZE_G9, 3, None),
    (("factorize", "-g", "17", "t_{d_1}"), 3, None),
    (("reduce-rseq", "pm" * 9 + "p"), 3, None),
    (("factorize", "-g", "4", "t_{d_1}"), 4, _replay_to_identity),
    (("reduce-q2", "-g", "6", "x2+x4"), 4, _drop_label),
    (("verify-lemma", "4.4", "-g", "6"), 4, _break_s46),
    (("verify-lemma", "4.4", "-g", "5"), 4, add_normal_form),
    (("verify-lemma", "4.10", "-g", "8"), 1, _in_window_shift_word),
]


def _outcome_ids(rows) -> list[str]:
    """Each row's test id: its command and exit code, followed, where rows
    share both, by the name of its mutation or else its genus, so no id
    depends on a row's position."""
    bases = [f"{argv[0]}-{code}" for argv, code, _ in rows]
    ids = []
    for base, (argv, _, mutation) in zip(bases, rows):
        if bases.count(base) > 1:
            tag = mutation.__name__.strip("_") if mutation else "g" + argv[argv.index("-g") + 1]
            base = f"{base}-{tag}"
        ids.append(base)
    return ids


OUTCOME_IDS = _outcome_ids(OUTCOMES)
# argv the parser rejects before any command runs (exit 2), each with its id
PARSER_ERRORS = {
    "parser-2-cap": ("verify-lemma", "4.8", "-g", "4", "--cap", "abc"),
    "parser-2-workers": ("verify-lemma", "4.8", "-g", "4", "--workers", "2"),
    "parser-2-no-genus": ("verify-lemma", "4.8"),
    "parser-2-command": ("frobnicate", "-g", "4"),
}
OUTCOMES += [(argv, 2, None) for argv in PARSER_ERRORS.values()]
OUTCOME_IDS += list(PARSER_ERRORS)


class TestOutcomeContract:
    """Every command reaches each of its exit codes the same way: a report
    on stdout or nothing, text that is never JSON, and on a non-zero exit
    exactly one stderr line with that code's prefix."""

    @pytest.mark.usefixtures("fresh_forests")
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "argv,code,mutation", OUTCOMES, ids=OUTCOME_IDS
    )
    def test_outcome(self, capsys, monkeypatch, argv, code, mutation, fmt):
        if mutation is not None:
            mutation(monkeypatch)
        got, out, err = run(capsys, *argv, "--format", fmt)
        assert got == code
        assert out or code != 0
        if fmt == "text":
            assert not any(line.startswith("{") for line in out.splitlines())
        elif out:
            validate(json.loads(out), f"{SCHEMAS[argv[0]]}.schema.json")
        if code == 0:
            assert err == ""
        else:
            assert err.startswith(PREFIXES[code])
            assert err.count("\n") == 1 and err.endswith("\n")

    def test_ids_unique(self):
        assert len(set(OUTCOME_IDS)) == len(OUTCOME_IDS)

    @pytest.mark.usefixtures("fresh_forests")
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_corrupted_step_word_fails_move_check(self, capsys, monkeypatch, fmt):
        _break_s46(monkeypatch)
        got, out, err = run(capsys, "verify-lemma", "4.4", "-g", "6", "--format", fmt)
        assert (got, out) == (4, "")
        assert err == "internal check failed: path certificate failed to replay\n"
