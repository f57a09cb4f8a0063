"""Shared oracles and generators for the test suite."""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
from importlib import resources
from itertools import islice, product

import jsonschema

import crosscap
from crosscap import rewrite
from crosscap.cli import LEMMA_CLAIMS, main
from crosscap.f2core import Genus, H1Matrix
from crosscap.gmform import q_table
from crosscap.groupops import (
    DEFAULT_NODE_CAP,
    FactorizationResult,
    _SearchTree,
    _labels,
    _moves,
    _pack,
    _replay,
    _spell,
)
from crosscap.rewrite import rule_instances, rule_schemas
from crosscap.words import parse_word


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
    """Slow oracle for a rule instance's window, as ascending positions:
    the span of the pattern from its anchor, or for an index shift the
    triple together with the index the rule lowers by two."""
    rule = inst.rule
    if rule.family != "alpha":
        return tuple(range(inst.anchor, inst.anchor + len(rule.window)))
    lowered = inst.anchor[("AL.1", "AL.2", "AL.3").index(rule.rule_id)] - 2
    return tuple(sorted(set(inst.anchor) | {lowered}))


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


def _grow_partial(tree: _SearchTree, room: int) -> bool:
    """Add the next breadth-first level to `tree`, one child at a time:
    children of the frontier in discovery order, moves in listed order,
    unseen children only, at most `room` of them.  Returns False, leaving
    the level partial, when one more insertion was needed.  The oracle's
    own growth step, apart from `_SearchTree.grow`, which it checks."""
    index, moves = tree.index, tuple(tree.moves.items())
    frontier, tree.frontier = tree.frontier, []
    for key in frontier:
        for signed, move in moves:
            child = move(key)
            if child in index:
                continue
            if room <= 0:
                return False
            room -= 1
            index[child] = signed
            tree.frontier.append(child)
    return True


def factorize_oracle(target, generators, labels=None, cap=DEFAULT_NODE_CAP):
    """Slow oracle for `factorize`: the bidirectional search with a private
    forward tree, regrown from the identity on every call.  Levels
    alternate strictly, the forward one first, and every meet of a level is
    collected; the cap counts both trees at each insertion."""
    gens = list(generators)
    genus = target.genus
    labels = _labels(labels, len(gens))
    shared, bwd_moves = _moves(tuple(gens), genus.g)
    goal = _pack(target.cols, genus.g)
    fwd = _SearchTree(_pack(H1Matrix.identity(genus).cols, genus.g), shared.moves)
    bwd = _SearchTree(goal, bwd_moves)
    meets = [goal] if goal in fwd.index else []
    forward = True
    while not meets:
        explored = len(fwd.index) + len(bwd.index)
        side, other = (fwd, bwd) if forward else (bwd, fwd)
        if not side.frontier:
            return FactorizationResult("not_member", None, None, explored)
        if not _grow_partial(side, cap - explored):
            return FactorizationResult(
                "budget_exhausted", None, None, len(fwd.index) + len(bwd.index)
            )
        meets = [key for key in side.frontier if key in other.index]
        forward = not forward
    word = min((fwd.word(c) + bwd.word(c) for c in meets), key=len)
    assert _replay(genus, gens, word) == target
    return FactorizationResult(
        "found", word, _spell(labels, word), len(fwd.index) + len(bwd.index)
    )


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
