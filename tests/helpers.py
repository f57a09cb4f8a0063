"""Shared oracles and generators for the test suite."""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys
from importlib import resources
from itertools import combinations, islice, product

import jsonschema

import crosscap
from crosscap import rewrite
from crosscap.cli import LEMMA_CLAIMS, main
from crosscap.f2core import Genus, H1Matrix, H1Vector
from crosscap.gmform import _q_mask, basis_value, q_table
from crosscap.groupops import (
    DEFAULT_NODE_CAP,
    FactorizationResult,
    _SearchTree,
    _labels,
    _moves,
    _pack,
    _packed_move,
    _replay,
    _spell,
)
from crosscap.rewrite import (
    RuleFailure,
    RuleVerdict,
    _check_window_local,
    rule_instances,
    rule_schemas,
)
from crosscap.words import Letter, MCGWord, WordParseError, act, parse_word


def _rank_f2(cols: tuple[int, ...]) -> int:
    basis: dict[int, int] = {}
    rank = 0
    for m in cols:
        cur = m
        while cur:
            lead = cur.bit_length() - 1
            if lead in basis:
                cur ^= basis[lead]
            else:
                basis[lead] = cur
                rank += 1
                break
    return rank


def _apply_cols(cols: tuple[int, ...], v: int) -> int:
    out = 0
    for j in range(len(cols)):
        if (v >> j) & 1:
            out ^= cols[j]
    return out


def scan_first_failing(cols: tuple[int, ...], g: int) -> int | None:
    """Slow oracle for the isometry test: walk all 2^g masks in increasing
    order, each image built from a smaller one plus one column, and return
    the first mask whose form value changes (None if there is none)."""
    qtab = q_table(Genus(g))
    img = [0] * (1 << g)
    for v in range(1, 1 << g):
        low = v & -v
        img[v] = img[v ^ low] ^ cols[low.bit_length() - 1]
        if qtab[img[v]] != qtab[v]:
            return v
    return None


def pair_scan_smallest_failing(cols: tuple[int, ...], odd: int) -> int | None:
    """Oracle for the isometry test's witness: the plain pair scan, which
    checks every column against every earlier column."""
    for k, ck in enumerate(cols):
        if _q_mask(ck, odd) != basis_value(k + 1):
            return 1 << k
        for i in range(k):
            if (cols[i] & ck).bit_count() & 1:
                return (1 << i) | (1 << k)
    return None


_ORACLE_ALPHA_SET = r"(?:alpha|α)_([0-9]+|\{[0-9]+(?:,[0-9]+)*\})"
_ORACLE_RX_LETTER = re.compile(
    r"Y_\{" + _ORACLE_ALPHA_SET + "," + _ORACLE_ALPHA_SET + r"\}"
    r"|Y_\{([0-9]+),([0-9]+)\}"
    r"|t_\{([a-d])_([0-9]+|\{[0-9]+\})\}"
)
_ORACLE_RX_EXP = re.compile(r"\^(?:\{(-?[0-9]+)\}|(-?[0-9]+))")


def _oracle_indices(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.strip("{}").split(","))


def two_pattern_parse_word(text: str, genus: Genus) -> MCGWord:
    """Oracle for the word parser: the two-pattern parser, which skips
    whitespace by `str.isspace`, matches a letter, then matches its
    exponent with a second pattern."""
    letters = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _ORACLE_RX_LETTER.match(text, pos)
        if m is None:
            snippet = text[pos : pos + 16]
            raise WordParseError(f"unrecognized letter {snippet!r}", pos)
        leg, arm, i, j, kind, index = m.groups()
        if leg is not None:
            letter = Letter("ya", (_oracle_indices(leg), _oracle_indices(arm)))
        elif i is not None:
            letter = Letter("y", (int(i), int(j)))
        else:
            letter = Letter(kind, _oracle_indices(index))
        pos = m.end()
        m = _ORACLE_RX_EXP.match(text, pos)
        if m:
            power = int(m.group(1) if m.group(1) is not None else m.group(2))
            if power == 0:
                raise WordParseError("zero exponent is not allowed", pos)
            letter = letter.with_power(power)
            pos = m.end()
        letters.append(letter)
    return MCGWord(genus, tuple(letters))


def sequence_graph(g: int):
    """Slow oracle for the shuffle moves: the explicit adjacency list on all
    2^g sequences.  Each live swap instance (sign parity fitting its anchor)
    is numbered in turn and matched against every sequence; a match adds the
    edge source -> target as "fwd" and target -> source as "rev", with the
    live instance's number.  Returns the live swap instances and the
    adjacency lists."""
    genus = Genus(g)
    live = [
        inst
        for rule in rule_schemas()
        if rule.family in ("swap3", "swap4")
        for inst in rule_instances(rule, genus)
        if all(
            (sym in ("p", "P")) == ((inst.anchor + k) % 2 == 1)
            for k, sym in enumerate(rule.window)
        )
    ]
    adj: list[list[tuple[int, int, str]]] = [[] for _ in range(1 << g)]
    for idx, inst in enumerate(live):
        wmask = ((1 << len(inst.rule.window)) - 1) << (inst.anchor - 1)
        context = ~wmask & ((1 << g) - 1)
        for bits in range(1 << g):
            if bits & wmask == inst.lhs_bits:
                target = (bits & context) | inst.rhs_bits
                adj[bits].append((target, idx, "fwd"))
                adj[target].append((bits, idx, "rev"))
    return live, adj


def window_positions(inst) -> tuple[int, ...]:
    """Slow oracle for a window rule instance's window, as ascending
    positions: the span of the pattern from its anchor."""
    return tuple(range(inst.anchor, inst.anchor + len(inst.rule.window)))


# offsets from i of the crosscaps each twisting circle passes through, as in
# the README letter table
_CIRCLE_OFFSETS = {"a": (0, 1), "c": (0, 1, 2, 3), "d": (0, 2)}


def circle_support(letter) -> tuple[int, ...]:
    """1-based support of the twisting circle's class; () for slides."""
    offsets = _CIRCLE_OFFSETS.get(letter.kind, ())
    return tuple(letter.args[0] + k for k in offsets)


def twist_top(kind: str, g: int) -> int:
    """Largest index of a kind-twist whose circle fits in x_1..x_g."""
    return g - max(_CIRCLE_OFFSETS[kind])


def leaves_window(inst) -> bool:
    """Slow oracle for the locality check: whether some twist letter of the
    instance's word has a curve class outside `window_positions`."""
    allowed = set(window_positions(inst))
    return any(not set(circle_support(letter)) <= allowed for letter in inst.word.letters)


def random_invertible_cols(rng, g: int) -> tuple[int, ...]:
    """Uniformly random invertible g-by-g matrix over F2, as column masks."""
    while True:
        cols = tuple(rng.randrange(1 << g) for _ in range(g))
        if _rank_f2(cols) == g:
            return cols


def brute_orthogonal_cols(g: int) -> set[tuple[int, ...]]:
    """Independent oracle: filter all g-by-g matrices over F2 for
    invertibility and exhaustive form preservation.  Feasible for g <= 4."""
    qtab = q_table(Genus(g))
    out = set()
    for cols in product(range(1 << g), repeat=g):
        if _rank_f2(cols) != g:
            continue
        if all(qtab[_apply_cols(cols, v)] == qtab[v] for v in range(1 << g)):
            out.add(cols)
    return out


def random_letter(rng, g: int) -> str:
    """One random letter spelling valid at genus g."""
    kinds = [k for k in ("a", "d", "y", "c") if k == "y" or twist_top(k, g) >= 1]
    kind = rng.choice(kinds)
    if kind != "y":
        base = f"t_{{{kind}_{rng.randint(1, twist_top(kind, g))}}}"
    else:
        i = rng.randint(1, g)
        j = rng.randint(1, g - 1)
        if j >= i:
            j += 1
        base = f"Y_{{{i},{j}}}"
    power = rng.choice([1, 1, 1, -1, 2, -2])
    if power != 1:
        base += f"^{{{power}}}"
    return base


def random_word_text(rng, g: int, max_len: int = 10) -> str:
    return " ".join(random_letter(rng, g) for _ in range(rng.randint(0, max_len)))


def shift_steps(triple: tuple[int, int, int]) -> list[tuple[str, tuple, tuple]]:
    """Oracle for the index-shift reduction, as the rules are stated: AL.1
    lowers i by two when i > 2, AL.2 lowers j when j > i + 2, AL.3 lowers k
    when k > j + 2.  The first rule that applies is applied, until none
    does; returns each step as (rule id, before, after)."""
    steps = []
    i, j, k = triple
    while True:
        if i > 2:
            rule, after = "AL.1", (i - 2, j, k)
        elif j > i + 2:
            rule, after = "AL.2", (i, j - 2, k)
        elif k > j + 2:
            rule, after = "AL.3", (i, j, k - 2)
        else:
            return steps
        steps.append((rule, (i, j, k), after))
        i, j, k = after


def shift_rule_verdicts(genus: Genus) -> list[RuleVerdict]:
    """Oracle for the shift rules' verdicts: the per-instance check, rule by
    rule.  Each (rule, triple) pair where the rule applies, as the rules are
    stated in `shift_steps`, is one instance whose window is the triple and
    the lowered index: its slot word's axes must lie inside that window,
    and the word must carry the triple's class onto the shifted triple's.
    A rule stops at its first failing instance."""
    verdicts = []
    for p, rule_id in enumerate(("AL.1", "AL.2", "AL.3")):
        checked, failure = 0, None
        for triple in combinations(range(1, genus.g + 1), 3):
            if triple[p] <= (triple[p - 1] if p else 0) + 2:
                continue
            n = triple[p]
            shifted = triple[:p] + (n - 2,) + triple[p + 1 :]
            lhs = H1Vector.from_indices(genus, triple)
            rhs = H1Vector.from_indices(genus, shifted)
            word = rewrite._shift_certificate(genus.g, n)
            _check_window_local(word, lhs.bits | rhs.bits, f"{rule_id} at {triple}")
            checked += 1
            got = act(word, lhs)
            if got != rhs:
                failure = RuleFailure(triple, rhs.to_text(), got.to_text())
                break
        verdicts.append(RuleVerdict(rule_id, failure is None, checked, failure))
    return verdicts


def break_slot_word(monkeypatch, slot: int, certificate: str) -> None:
    """Give the index shifts at slot `slot` the certificate `certificate` in
    place of the shared template's word, for the rest of the test."""
    words = rewrite._shift_certificate

    def broken(g, n):
        return parse_word(certificate, Genus(g)) if n == slot else words(g, n)

    monkeypatch.setattr(rewrite, "_shift_certificate", broken)


def break_instance(monkeypatch, rule_id: str, anchor, certificate: str) -> None:
    """Give the instance of `rule_id` at `anchor` the certificate
    `certificate` in place of its own, for the rest of the test."""
    instances = rewrite.rule_instances

    def broken(rule, genus):
        for inst in instances(rule, genus):
            if rule.rule_id == rule_id and inst.anchor == anchor:
                inst = dataclasses.replace(inst, word=parse_word(certificate, genus))
            yield inst

    monkeypatch.setattr(rewrite, "rule_instances", broken)


def add_normal_form(monkeypatch) -> None:
    """List x3 as one more normal form, for the rest of the test: it shares
    q = 1 with the normal form x1, and both have a live move."""
    targets = rewrite.canonical_targets

    def extra(genus):
        return targets(genus) + (rewrite.RSequence(genus, 0b100),)

    monkeypatch.setattr(rewrite, "canonical_targets", extra)


def replay_certificates(table, limit=None) -> bool:
    """Slow oracle for `GroupTable.verify_certificates`: read each stored
    word (or the first `limit`) off the tree up to the root and replay it
    from the identity against its matrix, one record at a time."""
    return all(
        _replay(table.genus, table.generators, rec.word) == rec.matrix
        for rec in islice(table.records(), limit)
    )


def grow_unpruned(tree: _SearchTree, room: int) -> bool:
    """Oracle for `_SearchTree.grow`: the same whole-level step, but trying
    every letter from every key, the undo letter and commuting letters
    included.  Children of the frontier in discovery order, moves in listed
    order, unseen children only; a level of more than `room` keys, or a
    move that raises, leaves `index` and `frontier` as they were."""
    index, moves, new = tree.index, tuple(tree.moves.items()), []
    try:
        for key in tree.frontier:
            for signed, move in moves:
                child = move(key)
                if child in index:
                    continue
                if len(new) >= room:
                    return False
                index[child] = signed
                new.append(child)
        tree.frontier = new
        return True
    finally:
        if tree.frontier is not new:
            for key in new:
                del index[key]


def closure_oracle(generators, genus, cap=DEFAULT_NODE_CAP):
    """Slow oracle for `subgroup_closure`: the same breadth-first closure
    grown by `grow_unpruned`.  Returns the element items in discovery
    order (key and letter), the diameter and whether the closure is
    complete."""
    forward, _ = _moves(tuple(generators), genus.g)
    tree = _SearchTree(_pack(H1Matrix.identity(genus).cols, genus.g), forward.plans)
    diameter, complete = 0, True
    while tree.frontier:
        if not grow_unpruned(tree, cap - len(tree.index)):
            complete = False
            break
        diameter += bool(tree.frontier)
    return list(tree.index.items()), diameter, complete


def backward_tree(target, generators) -> _SearchTree:
    """A private backward tree rooted at `target`, for `grow_unpruned`: its
    moves X -> X a^-1 are compiled here from the generator matrices, letter
    k for generator k and -k for its inverse unless that is the generator
    itself, in the alphabet's order (positive letters first)."""
    gens = list(generators)
    moves = {k: _packed_move(m.inverse(), False) for k, m in enumerate(gens, start=1)}
    moves.update(
        {-k: _packed_move(m, False) for k, m in enumerate(gens, start=1) if m.inverse() != m}
    )
    return _SearchTree(_pack(target.cols, target.genus.g), {0: tuple(moves.items())})


def factorize_oracle(target, generators, labels=None, cap=DEFAULT_NODE_CAP):
    """Slow oracle for `factorize`: the bidirectional search with a private
    forward tree, regrown from the identity on every call, and a private
    backward tree grown from the target (`backward_tree`), both by
    `grow_unpruned`.  Levels alternate strictly, the forward one first, and
    every meet of a level is collected; a level that takes both trees past
    the cap ends the search with `explored` equal to the cap."""
    gens = list(generators)
    genus = target.genus
    labels = _labels(labels, len(gens))
    shared, _ = _moves(tuple(gens), genus.g)
    goal = _pack(target.cols, genus.g)
    fwd = _SearchTree(_pack(H1Matrix.identity(genus).cols, genus.g), shared.plans)
    bwd = backward_tree(target, gens)
    meets = [goal] if goal in fwd.index else []
    forward = True
    while not meets:
        explored = len(fwd.index) + len(bwd.index)
        side, other = (fwd, bwd) if forward else (bwd, fwd)
        if not side.frontier:
            return FactorizationResult("not_member", None, None, explored)
        if not grow_unpruned(side, cap - explored):
            return FactorizationResult("budget_exhausted", None, None, cap)
        meets = [key for key in side.frontier if key in other.index]
        forward = not forward
    word = min((fwd.word(c) + bwd.word(c) for c in meets), key=len)
    assert _replay(genus, gens, word) == target
    return FactorizationResult(
        "found", word, _spell(labels, word), len(fwd.index) + len(bwd.index)
    )


def rewire(tree: _SearchTree, moves: dict) -> None:
    """Give `tree` the moves `moves`, in its dict and in every plan, so that
    `grow` calls them; the plans keep their letters."""
    tree.moves = moves
    tree.plans = {s: tuple((t, moves[t]) for t, _ in plan) for s, plan in tree.plans.items()}


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter started with `flags` (such as -O),
    with the crosscap under test on its path; returns the completed process
    with its stdout and stderr as text."""
    src = pathlib.Path(crosscap.__file__).parent.parent
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )


def validate(payload: dict, schema_name: str) -> None:
    text = resources.files("crosscap").joinpath(f"schemas/{schema_name}").read_text()
    jsonschema.validate(payload, json.loads(text))


def falsified(capsys, lemma: str, genus: int) -> tuple[dict, str]:
    """Run a workflow that is falsified in both formats: each run exits 1
    with one stderr line naming the lemma, its claim and what failed, the
    JSON report validates with `ok` false, and the text output is one line
    with one FALSIFIED prefix.  Returns the report and the text line
    without its prefix."""
    outs, errs = [], []
    for fmt in ("json", "text"):
        code = main(["verify-lemma", lemma, "-g", str(genus), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        outs.append(captured.out)
        errs.append(captured.err)
    payload, text = json.loads(outs[0]), outs[1]
    validate(payload, "lemma.schema.json")
    assert payload["ok"] is False
    assert text.startswith("FALSIFIED: ") and text.count("FALSIFIED") == 1
    assert text.count("\n") == 1 and text.endswith("\n")
    line = text[len("FALSIFIED: "):-1]
    expected = f"falsified: {lemma} ({LEMMA_CLAIMS[lemma]}): {line}\n"
    assert errs == [expected, expected]
    return payload, line
