"""Command-line front end.

A command writes its report to stdout, or nothing, then returns or raises.
`main` alone maps the exception to an exit code and one stderr line
`<prefix>: <message>`: 1 falsified, 2 error (usage, as the parser's own
errors), 3 budget exhausted, 4 internal check failed (a defect in crosscap).
JSON output is canonical (sorted keys) and byte-identical for identical
inputs.  All computation is serial; `--workers` accepts only 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .f2core import BudgetExceededError, FalsificationError, Genus, H1Vector, InternalCheckError
from .gmform import q_eval, z4_str
from .groupops import (
    DEFAULT_NODE_CAP,
    enumerate_orthogonal,
    factorize,
    reduce_q2_vector,
    standard_generators,
    verify_generation,
)
from .rewrite import (
    AlphaTriple,
    RSequence,
    alpha_terminals,
    classify_rseq_components,
    reduce_alpha,
    reduce_rseq,
    rule_schemas,
    rules_json,
    verify_rule_consistency,
)
from .words import act, decide_extendable, induced_matrix, parse_word, witness_detail

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _cmd_eval_form(args) -> None:
    genus = Genus(args.genus)
    v = H1Vector.parse(genus, args.vector)
    value = q_eval(v)
    payload = {
        "genus": genus.g,
        "vector": v.to_text(),
        "value": value,
        "display": z4_str(value, signed=args.signed),
    }
    _emit(payload, [f"q({v.to_text()}) = {z4_str(value, signed=args.signed)}"], args.format)


def _cmd_act(args) -> None:
    genus = Genus(args.genus)
    word = parse_word(args.word, genus)
    v = H1Vector.parse(genus, args.vector)
    image = act(word, v)
    payload = {
        "genus": genus.g,
        "word": word.spell(),
        "vector": v.to_text(),
        "image": image.to_text(),
    }
    _emit(payload, [f"{v.to_text()} -> {image.to_text()}"], args.format)


def _cmd_extendable(args) -> None:
    genus = Genus(args.genus)
    verdict = decide_extendable(parse_word(args.word, genus))
    payload = verdict.to_json()
    if verdict.extendable:
        lines = ["extendable: yes"]
    else:
        lines = [f"extendable: no ({witness_detail(verdict)})"]
    _emit(payload, lines, args.format)


def _cmd_factorize(args) -> None:
    genus = Genus(args.genus)
    word = parse_word(args.word, genus)
    target = induced_matrix(word)
    gens = standard_generators(genus)
    result = factorize(
        target,
        [m for _, m in gens],
        labels=[label for label, _ in gens],
        cap=args.cap,
    )
    payload = {"genus": genus.g, "input": word.spell(), **result.to_json()}
    if result.status == "budget_exhausted":
        _emit(payload, ["budget exhausted"], args.format)
        raise BudgetExceededError(
            f"factorization reached its cap of {args.cap} elements; nothing is claimed"
        )
    if result.found:
        text = " ".join(result.word_labels) if result.word_labels else "(empty word)"
        lines = [f"found: {text} (length {len(result.word)})"]
    else:
        lines = ["not a member of the generated subgroup (search closed)"]
    _emit(payload, lines, args.format)


def _cmd_enumerate(args) -> None:
    genus = Genus(args.genus)
    table = enumerate_orthogonal(genus)
    payload = table.to_json(include_elements=args.elements)
    _emit(payload, [f"order {table.order} (genus {genus.g})"], args.format)


def _cmd_reduce_rseq(args) -> None:
    s = RSequence.parse(args.sequence)
    if args.genus is not None and args.genus != s.genus.g:
        raise ValueError(
            f"sequence length {s.genus.g} does not match --genus {args.genus}"
        )
    path = reduce_rseq(s)
    payload = path.to_json()
    lines = [
        f"{path.start.display()} -> {path.end.display()} in {len(path.steps)} steps",
        f"word: {path.word or '(empty)'}",
    ]
    _emit(payload, lines, args.format)


def _cmd_reduce_alpha(args) -> None:
    genus = Genus(args.genus)
    red = reduce_alpha(genus, AlphaTriple(args.i, args.j, args.k))
    payload = {"genus": genus.g, **red.to_json()}
    lines = [
        f"({args.i},{args.j},{args.k}) -> {red.terminal} [{red.label}] "
        f"in {len(red.steps)} steps",
        f"word: {red.word or '(empty)'}",
    ]
    _emit(payload, lines, args.format)


def _cmd_reduce_q2(args) -> None:
    genus = Genus(args.genus)
    red = reduce_q2_vector(H1Vector.parse(genus, args.vector))
    payload = red.to_json()
    lines = [
        f"{red.start.to_text()} -> {red.end.to_text()} "
        f"({len(red.moves)} moves, verified)",
        f"word: {red.word or '(empty)'}",
    ]
    _emit(payload, lines, args.format)


# ---------------------------------------------------------------------------
# lemma verification workflows
# ---------------------------------------------------------------------------

# every workflow maps (genus, cap) to (ok, detail, line); the cap bounds only
# the generation-check closure, so 4.4, 4.6 and 4.10 ignore it


def _verify_44(genus: Genus, cap: int) -> tuple[bool, dict, str]:
    # every live move's certificate replays and each sequence reaches a normal form, or this raises
    report = classify_rseq_components(genus)
    reduced = 1 << genus.g
    detail = {"sequences": reduced, "components": report.to_json()["components"]}
    line = f"all {reduced} sequences reduce to a normal form ({len(report.components)} components)"
    return True, detail, line


def _verify_46(genus: Genus, cap: int) -> tuple[bool, dict, str]:
    rules = [
        verify_rule_consistency(rule, genus).to_json()
        for rule in rule_schemas()
        if rule.family in ("twist2", "twist4")
    ]
    failing = [r["id"] for r in rules if not r["ok"]]
    detail = {"rules": rules, "tables": rules_json(genus)["rules"]}
    if failing:
        line = f"twist cases {', '.join(failing)} inconsistent"
    else:
        instances = sum(r["instances"] for r in rules)
        line = f"{len(rules)} twist cases, {instances} instances, all consistent"
    return not failing, detail, line


def _verify_48(genus: Genus, cap: int) -> tuple[bool, dict, str]:
    report = verify_generation(genus, cap=cap)
    line = (
        f"closure order {report.closure_order}, enumerated order "
        f"{report.enumerated_order}, equal: {report.equal} "
        f"(diameter {report.diameter})"
    )
    return report.equal, report.to_json(), line


def _verify_410(genus: Genus, cap: int) -> tuple[bool, dict, str]:
    terminals, verdicts = alpha_terminals(genus)
    failing = [v.rule_id for v in verdicts if not v.ok]
    counts = Counter(map(str, terminals.values()))
    triples = sum(counts.values())
    rules = [v.to_json() for v in verdicts]
    detail = {"triples": triples, "terminal_counts": counts, "shift_rules": rules}
    shifts = "shift rules consistent"
    if failing:
        shifts = f"shift rules {', '.join(failing)} inconsistent"
    return not failing, detail, f"all {triples} triples reach a listed terminal; {shifts}"


def _verify_thm41(genus: Genus, cap: int) -> tuple[bool, dict, str]:
    # the generation check refuses above its budget before any word is decided
    generation = verify_generation(genus, cap=cap)
    g = genus.g
    words = []
    words += [f"Y_{{{i},{j}}}" for i in range(1, g + 1) for j in range(1, g + 1) if i != j]
    words += [f"t_{{a_{i}}}^{{2}}" for i in range(1, g)]
    words += [f"t_{{c_{i}}}^{{2}}" for i in range(1, g - 2)]
    words += [label for label, _ in standard_generators(genus)]
    failing = [w for w in words if not decide_extendable(parse_word(w, genus)).extendable]
    ok = not failing and generation.equal
    detail = {
        "generator_words": len(words),
        "non_extendable_generators": failing,
        "image_generates_isometries": generation.equal,
        "orders": {
            "closure": generation.closure_order,
            "enumerated": generation.enumerated_order,
        },
    }
    if failing:
        extendable = f"{len(failing)} of {len(words)} generator words not extendable"
    else:
        extendable = f"{len(words)} generator words all extendable"
    line = (
        f"{extendable}; homology image generates the full isometry group: "
        f"{generation.equal}"
    )
    return ok, detail, line


# the stable claim name and the workflow of each lemma id verify-lemma accepts
_WORKFLOWS = {
    "4.4": ("G-g-eq-r-circle", _verify_44),
    "4.6": ("product-Y-homeo", _verify_46),
    "4.8": ("gen-Og-os-red", _verify_48),
    "4.10": ("gamma2-short", _verify_410),
    "thm4.1": ("generator-pin", _verify_thm41),
}
LEMMA_CLAIMS = {lemma: claim for lemma, (claim, _) in _WORKFLOWS.items()}
_CLAIM_TO_ID = {claim: lemma for lemma, claim in LEMMA_CLAIMS.items()}


def _cmd_verify_lemma(args) -> None:
    lemma = _CLAIM_TO_ID.get(args.lemma, args.lemma)
    if lemma not in _WORKFLOWS:
        raise ValueError(
            f"unknown lemma id {args.lemma!r}; choose from "
            f"{sorted(LEMMA_CLAIMS)} or {sorted(_CLAIM_TO_ID)}"
        )
    claim, workflow = _WORKFLOWS[lemma]
    genus = Genus(args.genus)
    try:
        ok, detail, line = workflow(genus, args.cap)
    except FalsificationError as exc:
        ok, detail, line = False, {"falsified": str(exc)}, str(exc)
    payload = {"lemma": lemma, "claim": claim, "genus": genus.g, "ok": ok, "detail": detail}
    if not ok:
        _emit(payload, ["FALSIFIED: " + line], args.format)
        raise FalsificationError(f"{lemma} ({claim}): {line}")
    _emit(payload, [f"{lemma} ({claim}) verified: {line}"], args.format)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    # argparse names the type in its message: "invalid int value: 'abc'"
    parse.__name__ = "int"
    return parse


class _Parser(argparse.ArgumentParser):
    """Its usage errors, and its subcommands', are one `error:` line, exit 2."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _add_common(sub):
    sub.add_argument("-g", "--genus", type=int, required=True)
    sub.add_argument("--format", choices=("text", "json"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crosscap",
        description=(
            "mod-4 form evaluation, extendability decisions, isometry-group "
            "workflows and certified circle rewriting"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval-form", help="evaluate the form on a class")
    _add_common(p)
    p.add_argument("vector")
    p.add_argument("--signed", action="store_true", help="display +1/-1 style")
    p.set_defaults(func=_cmd_eval_form)

    p = subs.add_parser("act", help="apply a word's homology action to a class")
    _add_common(p)
    p.add_argument("word")
    p.add_argument("vector")
    p.set_defaults(func=_cmd_act)

    p = subs.add_parser("extendable", help="decide extendability of a word")
    _add_common(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_extendable)

    p = subs.add_parser(
        "factorize", help="factor a word's action over the standard generators"
    )
    _add_common(p)
    p.add_argument("word")
    # both starting elements of the bidirectional search count against it
    p.add_argument("--cap", type=_int_at_least(2), default=DEFAULT_NODE_CAP)
    p.set_defaults(func=_cmd_factorize)

    p = subs.add_parser("enumerate", help="enumerate the isometry group")
    _add_common(p)
    p.add_argument("--elements", action="store_true")
    p.add_argument("--workers", type=int, choices=(1,), default=1)
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("verify-lemma", help="run one verification workflow")
    p.add_argument("lemma", help="4.4 | 4.6 | 4.8 | 4.10 | thm4.1 (or claim name)")
    _add_common(p)
    p.add_argument("--cap", type=_int_at_least(1), default=DEFAULT_NODE_CAP)
    p.add_argument("--workers", type=int, choices=(1,), default=1)
    p.set_defaults(func=_cmd_verify_lemma)

    p = subs.add_parser("reduce-rseq", help="reduce a sequence to normal form")
    p.add_argument("sequence")
    p.add_argument("-g", "--genus", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(func=_cmd_reduce_rseq)

    p = subs.add_parser("reduce-alpha", help="reduce a three-index circle")
    _add_common(p)
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_reduce_alpha)

    p = subs.add_parser("reduce-q2", help="reduce a form-value-2 class to x1+x3")
    _add_common(p)
    p.add_argument("vector")
    p.set_defaults(func=_cmd_reduce_q2)

    return parser


# the exit code and stderr prefix of each outcome a command raises; no input
# reaches an unguarded lookup, so a KeyError is a defect in crosscap
_OUTCOMES = {
    FalsificationError: (EXIT_FALSIFIED, "falsified"),
    ValueError: (EXIT_USAGE, "error"),
    BudgetExceededError: (EXIT_BUDGET, "budget exhausted"),
    InternalCheckError: (EXIT_INTERNAL, "internal check failed"),
    KeyError: (EXIT_INTERNAL, "internal check failed"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        args.func(args)
    except tuple(_OUTCOMES) as exc:
        code, prefix = next(_OUTCOMES[t] for t in type(exc).__mro__ if t in _OUTCOMES)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
