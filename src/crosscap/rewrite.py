"""Certified symbol rewriting for standard-position circles.

An r-sequence displays a homology class as g symbols: odd positions show
'+' (coefficient 0) or a circled plus (coefficient 1), even positions '-'
or a circled minus.  Internally the four symbols are the ASCII letters
p/m (plain, written '+'/'-') and P/M (circled); a coarse layer x/X forgets
the sign and keeps only whether the position is circled.

Three built-in rule families, every instance carrying a word certificate
whose homology action maps the window class of its left side to the window
class of its right side:

* "swap3"/"swap4": the sign-shuffle equivalences that drive every sequence
  to a short list of normal forms;
* "twist2"/"twist4": the coarse case tables describing how a twist moves a
  standard circle (four of the fifteen four-symbol cases are explicit
  no-ops whose certificate is the bare twist);
* "alpha": index-shift moves on three-index crosscap circles, lowering one
  index by two per move, checked by one walk of the triples.

Certificate transvection axes always lie inside the rule window, so the
window-level check is context independent: any class outside the window
pairs to 0 with every axis and passes through untouched.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .f2core import (
    FalsificationError,
    Genus,
    H1Vector,
    InternalCheckError,
    _check,
    _odd_mask,
    _require_genus_budget,
)
from .gmform import _q_mask
from .words import MCGWord, _axis_bits, _fold, certify, parse_word


# ---------------------------------------------------------------------------
# r-sequences
# ---------------------------------------------------------------------------

_CHAR_TO_SYMBOL = {
    "+": "p",
    "p": "p",
    "-": "m",
    "−": "m",  # minus sign
    "m": "m",
    "⊕": "P",  # circled plus
    "P": "P",
    "⊖": "M",  # circled minus
    "M": "M",
}

_DISPLAY = {"p": "+", "m": "-", "P": "⊕", "M": "⊖"}


def _symbol(position: int, circled: bool) -> str:
    if position % 2:
        return "P" if circled else "p"
    return "M" if circled else "m"


@dataclass(frozen=True)
class RSequence:
    """Symbol display of a homology class; equivalent data, fixed parity."""

    genus: Genus
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < 1 << self.genus.g:
            raise ValueError("bit mask out of range for genus")

    @classmethod
    def parse(cls, text: str) -> "RSequence":
        """Parse "[+ ⊖ ⊕]" or the compact ASCII form "pMP"."""
        s = text.strip()
        if s.startswith("[") and s.endswith("]"):
            s = s[1:-1]
        tokens = s.split() if any(ch.isspace() for ch in s) else list(s)
        if not tokens:
            raise ValueError("empty r-sequence")
        bits = 0
        for pos, tok in enumerate(tokens, start=1):
            sym = _CHAR_TO_SYMBOL.get(tok)
            if sym is None:
                raise ValueError(f"unknown symbol {tok!r} at position {pos}")
            if (sym in ("p", "P")) != (pos % 2 == 1):
                raise ValueError(
                    f"malformed symbol parity: {tok!r} cannot sit at position {pos}"
                )
            if sym in ("P", "M"):
                bits |= 1 << (pos - 1)
        genus = Genus(len(tokens))
        return cls(genus, bits)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(
            _symbol(p, bool((self.bits >> (p - 1)) & 1))
            for p in range(1, self.genus.g + 1)
        )

    def display(self) -> str:
        return "[" + " ".join(_DISPLAY[s] for s in self.symbols) + "]"

    def ascii(self) -> str:
        return "".join(self.symbols)

    def __str__(self) -> str:
        return self.display()


# ---------------------------------------------------------------------------
# rule schemas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RewriteRule:
    rule_id: str
    family: str  # "swap3" | "swap4" | "twist2" | "twist4" | "alpha"
    case: str
    window: tuple[str, ...] | None
    replacement: tuple[str, ...] | None
    certificate: str  # template over i (window rules) or n (index shifts)
    bidirectional: bool
    noop: bool = False


_SWAP3_CERT_A = "Y_{i+2,i} Y_{i+1,i} t_{d_i}"
_SWAP3_CERT_B = "Y_{i+2,i+1} Y_{i+1,i+2} t_{d_i}"
_SWAP4_CERT_A = "Y_{i+3,i+1} Y_{i+2,i+1} t_{a_i}^{-2} t_{a_i} t_{a_{i+2}} t_{c_i}"
_SWAP4_CERT_B = (
    "Y_{i,i+2} Y_{i+1,i+2} t_{a_{i+2}}^{2} t_{c_i}^{-1} t_{a_{i+2}}^{-1} t_{a_i}^{-1}"
)
_SWAP4_CERT_C = "Y_{i+1,i} t_{a_i} t_{a_{i+2}} t_{c_i} Y_{i+2,i+3}^{-1}"
# the one certificate of all three index shifts
_SHIFT_CERT = "Y_{n,n-2}^{-1} Y_{n-1,n-2}^{-1} t_{d_{n-2}}"

_RULES: list[RewriteRule] = [
    # sign shuffles, window length 3
    RewriteRule("S3.1", "swap3", "1", ("m", "p", "M"), ("M", "p", "m"), _SWAP3_CERT_A, True),
    RewriteRule("S3.2", "swap3", "2", ("p", "m", "P"), ("P", "m", "p"), _SWAP3_CERT_A, True),
    RewriteRule("S3.3", "swap3", "3", ("m", "P", "M"), ("M", "P", "m"), _SWAP3_CERT_B, True),
    RewriteRule("S3.4", "swap3", "4", ("p", "M", "P"), ("P", "M", "p"), _SWAP3_CERT_B, True),
    # sign shuffles, window length 4
    RewriteRule("S4.1", "swap4", "1", ("m", "P", "M", "P"), ("m", "P", "m", "p"), _SWAP4_CERT_A, True),
    RewriteRule("S4.2", "swap4", "2", ("p", "M", "P", "M"), ("p", "M", "p", "m"), _SWAP4_CERT_A, True),
    RewriteRule("S4.3", "swap4", "3", ("M", "P", "M", "p"), ("m", "p", "M", "p"), _SWAP4_CERT_B, True),
    RewriteRule("S4.4", "swap4", "4", ("P", "M", "P", "m"), ("p", "m", "P", "m"), _SWAP4_CERT_B, True),
    RewriteRule("S4.5", "swap4", "5", ("m", "P", "m", "P"), ("M", "p", "M", "p"), _SWAP4_CERT_C, True),
    RewriteRule("S4.6", "swap4", "6", ("p", "M", "p", "M"), ("P", "m", "P", "m"), _SWAP4_CERT_C, True),
    # coarse two-symbol twist cases
    RewriteRule("TA.1", "twist2", "1", ("X", "x"), ("x", "X"), "Y_{i,i+1} t_{a_i}^{-1}", False),
    RewriteRule("TA.2", "twist2", "2", ("x", "X"), ("X", "x"), "Y_{i+1,i} t_{a_i}", False),
    # coarse four-symbol twist cases (four explicit no-ops)
    RewriteRule("TC.1", "twist4", "1", ("X", "x", "x", "x"), ("x", "X", "X", "X"),
                "Y_{i,i+1} Y_{i+2,i+3} Y_{i+1,i+3} Y_{i+1,i+2}^{-1} t_{c_i}^{-1}", False),
    RewriteRule("TC.2", "twist4", "2", ("x", "X", "x", "x"), ("X", "x", "X", "X"),
                "Y_{i+1,i} Y_{i+2,i+3} t_{c_i}", False),
    RewriteRule("TC.3", "twist4", "3", ("X", "X", "x", "x"), ("X", "X", "x", "x"),
                "t_{c_i}", False, noop=True),
    RewriteRule("TC.4", "twist4", "4", ("x", "x", "X", "x"), ("X", "X", "x", "X"),
                "Y_{i+2,i+3} Y_{i+1,i} t_{c_i}^{-1}", False),
    RewriteRule("TC.5", "twist4", "5", ("X", "x", "X", "x"), ("X", "x", "X", "x"),
                "Y_{i+1,i+2} Y_{i,i+2} Y_{i+3,i+2}^{-1} Y_{i+2,i+3}^{-1} Y_{i,i+3}^{-1} t_{c_i}^{-1}", False),
    RewriteRule("TC.6", "twist4", "6", ("x", "X", "X", "x"), ("x", "X", "X", "x"),
                "t_{c_i}", False, noop=True),
    RewriteRule("TC.7", "twist4", "7", ("X", "X", "X", "x"), ("x", "x", "x", "X"),
                "Y_{i,i+3} Y_{i+1,i+3} Y_{i+2,i+3} t_{c_i}^{-1}", False),
    RewriteRule("TC.8", "twist4", "8", ("x", "x", "x", "X"), ("X", "X", "X", "x"),
                "Y_{i+3,i+2} Y_{i+1,i} Y_{i+2,i} Y_{i+2,i+1}^{-1} t_{c_i}", False),
    RewriteRule("TC.9", "twist4", "9", ("X", "x", "x", "X"), ("X", "x", "x", "X"),
                "Y_{i+2,i+3} Y_{i+1,i} Y_{i+3,i} Y_{i+3,i+1}^{-1} Y_{i+3,i+2} Y_{i+2,i+3} "
                "Y_{i+1,i+3} Y_{i+1,i+2}^{-1} Y_{i,i+3} Y_{i,i+2}^{-1} Y_{i,i+1} t_{c_i}^{-1}", False),
    RewriteRule("TC.10", "twist4", "10", ("x", "X", "x", "X"), ("x", "X", "x", "X"),
                "Y_{i+2,i+1} Y_{i+3,i+1} Y_{i,i+3}^{-1} Y_{i+1,i}^{-1} Y_{i+3,i}^{-1} t_{c_i}", False),
    RewriteRule("TC.11", "twist4", "11", ("X", "X", "x", "X"), ("x", "x", "X", "x"),
                "Y_{i,i+2} Y_{i+1,i+2} Y_{i+3,i+2} Y_{i+2,i} Y_{i+2,i+1}^{-1} t_{c_i}", False),
    RewriteRule("TC.12", "twist4", "12", ("x", "x", "X", "X"), ("x", "x", "X", "X"),
                "t_{c_i}", False, noop=True),
    RewriteRule("TC.13", "twist4", "13", ("X", "x", "X", "X"), ("x", "X", "x", "x"),
                "Y_{i+3,i+1} Y_{i+2,i+1} Y_{i,i+1} Y_{i+1,i+3} Y_{i+1,i+2}^{-1} t_{c_i}^{-1}", False),
    RewriteRule("TC.14", "twist4", "14", ("x", "X", "X", "X"), ("X", "x", "x", "x"),
                "Y_{i+3,i} Y_{i+2,i} Y_{i+1,i} t_{c_i}", False),
    RewriteRule("TC.15", "twist4", "15", ("X", "X", "X", "X"), ("X", "X", "X", "X"),
                "t_{c_i}", False, noop=True),
    # index shifts on three-index circles: lower one index by two
    RewriteRule("AL.1", "alpha", "first", None, None, _SHIFT_CERT, False),
    RewriteRule("AL.2", "alpha", "second", None, None, _SHIFT_CERT, False),
    RewriteRule("AL.3", "alpha", "third", None, None, _SHIFT_CERT, False),
]

_RULES_BY_ID = {r.rule_id: r for r in _RULES}
# the index shifts in priority order: AL.p, at position p - 1, moves entry p
_SHIFT_RULES = tuple(r for r in _RULES if r.family == "alpha")

# Terminal triples of the index-shift system and their class labels: the
# first four are equivalent to the first one-sided circle, the last four to
# the second.  Labels are consistent with the form (value 1 vs 3).
ALPHA_TERMINALS: dict[tuple[int, int, int], str] = {
    (1, 3, 4): "alpha_1",
    (1, 2, 3): "alpha_1",
    (2, 3, 5): "alpha_1",
    (2, 4, 6): "alpha_1",
    (1, 3, 5): "alpha_2",
    (1, 2, 4): "alpha_2",
    (2, 3, 4): "alpha_2",
    (2, 4, 5): "alpha_2",
}


def rule_schemas() -> tuple[RewriteRule, ...]:
    return tuple(_RULES)


def rule_by_id(rule_id: str) -> RewriteRule:
    return _RULES_BY_ID[rule_id]


_IDX_EXPR = re.compile(r"(?<![0-9A-Za-z])([a-z])([+-]\d+)?(?![0-9A-Za-z])")


def instantiate(template: str, **bindings: int) -> str:
    """Substitute index expressions like i, i+2, n-2 in a certificate."""

    def repl(m):
        name = m.group(1)
        if name not in bindings:
            return m.group(0)
        return str(bindings[name] + int(m.group(2) or 0))

    return _IDX_EXPR.sub(repl, template)


@dataclass(frozen=True)
class RuleInstance:
    """One rule pinned to a position, with its certificate word; the
    certificate text is the word's spelling, `word.text`.  The window and
    both sides are class masks: bit k - 1 is x_k."""

    rule: RewriteRule
    anchor: int | tuple[int, int, int]
    word: MCGWord
    lhs_bits: int
    rhs_bits: int
    window_bits: int


def _pattern_bits(pattern: tuple[str, ...], anchor: int) -> int:
    bits = 0
    for k, sym in enumerate(pattern):
        if sym in ("P", "M", "X"):
            bits |= 1 << (anchor + k - 1)
    return bits


def _alpha_shift(p: int, triple: tuple[int, int, int]):
    """AL.p: lower entry p by two when it sits more than 2 above entry p - 1,
    reading 0 before the first entry.  The shifted triple and the slot (the
    entry's value) if the rule applies, else None."""
    n = triple[p - 1]
    if n <= (triple[p - 2] if p > 1 else 0) + 2:
        return None
    return triple[: p - 1] + (n - 2,) + triple[p:], n


def _mask(indices) -> int:
    """Class mask of the sum of x_t over distinct indices t."""
    bits = 0
    for t in indices:
        bits |= 1 << (t - 1)
    return bits


# room for every slot n at every genus up to 64: the sum of g-2 over g is 1953
@lru_cache(maxsize=2048)
def _shift_certificate(g: int, n: int) -> MCGWord:
    """The index-shift certificate word at slot n and genus g.  The three
    shift rules share one template, so a word depends only on the genus
    and n.  Keyed by the plain int, so a lookup hashes no Genus."""
    return parse_word(instantiate(_SHIFT_CERT, n=n), Genus(g))


def _anchors(rule: RewriteRule, g: int) -> list:
    """Where the rule applies at this genus: window anchors or triples."""
    if rule.family == "alpha":
        p = _SHIFT_RULES.index(rule) + 1
        triples = combinations(range(1, g + 1), 3)
        return [t for t in triples if _alpha_shift(p, t) is not None]
    return list(range(1, g - len(rule.window) + 2))


def rule_instances(rule: RewriteRule, genus: Genus):
    """Every instance of one window rule at this genus, by anchor."""
    span = len(rule.window)
    for anchor in _anchors(rule, genus.g):
        yield RuleInstance(
            rule=rule,
            anchor=anchor,
            word=parse_word(instantiate(rule.certificate, i=anchor), genus),
            lhs_bits=_pattern_bits(rule.window, anchor),
            rhs_bits=_pattern_bits(rule.replacement, anchor),
            window_bits=((1 << span) - 1) << (anchor - 1),
        )


def builtin_rule_tables(genus: Genus) -> list[RuleInstance]:
    """Every window rule's instances at this genus (shifts: `alpha_terminals`)."""
    return [inst for rule in _RULES if rule.window for inst in rule_instances(rule, genus)]


def rules_json(genus: Genus) -> dict:
    """Schema-level export of the rule tables with anchor ranges."""
    entries = []
    for rule in _RULES:
        anchors = _anchors(rule, genus.g)
        entries.append(
            {
                "id": rule.rule_id,
                "family": rule.family,
                "case": rule.case,
                "window": list(rule.window) if rule.window else None,
                "replacement": list(rule.replacement) if rule.replacement else None,
                "certificate": rule.certificate,
                "bidirectional": rule.bidirectional,
                "noop": rule.noop,
                "anchors": [list(a) if isinstance(a, tuple) else a for a in anchors],
            }
        )
    return {"genus": genus.g, "rules": entries}


# ---------------------------------------------------------------------------
# certificate consistency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleFailure:
    anchor: int | tuple[int, int, int]
    expected: str
    got: str


@dataclass(frozen=True)
class RuleVerdict:
    rule_id: str
    ok: bool
    instances_checked: int
    failure: RuleFailure | None = None

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        entry = {"id": self.rule_id, "instances": self.instances_checked, "ok": self.ok}
        if self.failure:
            entry["failing_anchor"] = self.failure.anchor
            entry["expected"] = self.failure.expected
            entry["got"] = self.failure.got
        return entry


def _check_window_local(word: MCGWord, window_bits: int, where: str) -> None:
    """Structural check: every transvection axis lies inside the window; a
    failure names `where`.  The word's letters were validated when parsed."""
    for letter in word.letters:
        axis = _axis_bits(letter)
        if axis & ~window_bits:
            window = list(H1Vector(word.genus, window_bits).support)
            raise InternalCheckError(
                f"{where}: axis {H1Vector(word.genus, axis).to_text()} leaves the window {window}"
            )


def verify_rule_consistency(rule: RewriteRule, genus: Genus) -> RuleVerdict:
    """Check every instance: the certificate's action maps the decoded left
    window class to the decoded right one (context independent by window
    locality, asserted structurally); an index shift, by `alpha_terminals`."""
    if rule.family == "alpha":
        return alpha_terminals(genus)[1][_SHIFT_RULES.index(rule)]
    checked = 0
    for inst in rule_instances(rule, genus):
        _check_window_local(inst.word, inst.window_bits, f"{rule.rule_id} at {inst.anchor}")
        [got] = _fold(inst.word.axes, [inst.lhs_bits])
        checked += 1
        if got != inst.rhs_bits:
            return RuleVerdict(
                rule.rule_id,
                False,
                checked,
                RuleFailure(
                    inst.anchor,
                    H1Vector(genus, inst.rhs_bits).to_text(),
                    H1Vector(genus, got).to_text(),
                ),
            )
    return RuleVerdict(rule.rule_id, True, checked)


# ---------------------------------------------------------------------------
# the sequence graph and its normal forms
# ---------------------------------------------------------------------------


def canonical_targets(genus: Genus) -> tuple[RSequence, ...]:
    """The normal-form sequences every sequence reduces to."""
    g = genus.g
    if g == 1:
        supports = [(), (1,)]
    elif g == 2:
        supports = [(), (1,), (2,), (1, 2)]
    else:
        supports = [(), (1,), (2,), (1, 2), (1, 3), tuple(range(1, g + 1))]
    return tuple(RSequence(genus, H1Vector.from_indices(genus, s).bits) for s in supports)


# reduce_rseq builds and caches a breadth-first forest on all 2^g sequences, at
# genus 18 0.7-0.8 s and 39 MB in a fresh process (2 cores, Python 3.11.7)
RSEQ_GENUS_CAP = 18


def _live(inst: RuleInstance) -> bool:
    """A shuffle move: the pattern's plus signs (p, P) sit at odd positions."""
    return all((s in "pP") == (inst.anchor + k) % 2 for k, s in enumerate(inst.rule.window))


def _live_moves(genus: Genus) -> list[RuleInstance]:
    """The one list of live moves: the shuffle instances that fit their
    anchor's parity, in rule-then-anchor order."""
    return [
        inst
        for rule in _RULES
        if rule.family in ("swap3", "swap4")
        for inst in rule_instances(rule, genus)
        if _live(inst)
    ]


# the forest looks a sequence's moves up chunk by chunk: chunk c holds the
# moves anchored at 4c+1..4c+4, whose windows (at most 4 symbols) lie in bits
# 4c..4c+6, so one 128-entry table per chunk lists the moves each
# 7-bit view shows
_CHUNK = 4
_CHUNK_BITS = 7


def _chunk_tables(moves: list[RuleInstance], g: int) -> list[tuple[int, tuple]]:
    """Per chunk, its first bit and its table: entry `view` is the ascending
    tuple of indices of the chunk's moves whose window shows their lhs or
    rhs when the chunk's bits read `view`.  Checks that the chunks partition
    the moves and that each window lies in its chunk's bits."""
    chunks = [
        (start, [idx for idx, m in enumerate(moves) if start < m.anchor <= start + _CHUNK])
        for start in range(0, g, _CHUNK)
    ]
    placed = sorted(idx for _, members in chunks for idx in members)
    _check(placed == list(range(len(moves))), "the chunks do not partition the live moves")
    tables = []
    for start, members in chunks:
        if not members:
            continue
        table: list[list[int]] = [[] for _ in range(1 << _CHUNK_BITS)]
        for idx in members:
            m = moves[idx]
            wmask = m.window_bits >> start
            what = f"live move {m.rule.rule_id} at {m.anchor} leaves its chunk's bits"
            _check(wmask << start == m.window_bits and wmask >> _CHUNK_BITS == 0, what)
            sides = (m.lhs_bits >> start, m.rhs_bits >> start)
            for view, entry in enumerate(table):
                if view & wmask in sides:
                    entry.append(idx)
        tables.append((start, tuple(map(tuple, table))))
    return tables


# the forests of the last four genera stay cached: at genus 15-18 together
# about 480 k entries, each a shared small int
@lru_cache(maxsize=4)
def _reduction_forest(g: int):
    """The live moves (`_live_moves`) and the multi-source breadth-first
    forest from the normal forms over the sequence graph, where a move links
    u to u ^ lhs ^ rhs when u's window shows either side.  Each normal form
    maps to None, each other sequence to the index of the move that reached
    it, whose undoing gives its parent; the dict keeps the discovery order.
    A sequence's moves come from the chunk tables (`_chunk_tables`); sorting
    their indices restores the rule-then-anchor order.  Only `reduce_rseq`
    reads it."""
    genus = Genus(g)
    moves = _live_moves(genus)
    flips = [m.lhs_bits ^ m.rhs_bits for m in moves]
    view = (1 << _CHUNK_BITS) - 1
    tables = _chunk_tables(moves, g)
    members = [target.bits for target in canonical_targets(genus)]
    forest: dict[int, int | None] = dict.fromkeys(members)
    # the loop visits the members it appends, level after level
    for u in members:
        shown: list[int] = []
        for start, table in tables:
            shown += table[u >> start & view]
        shown.sort()
        for idx in shown:
            v = u ^ flips[idx]
            if v not in forest:
                forest[v] = idx
                members.append(v)
    return moves, forest


@dataclass(frozen=True)
class PathStep:
    rule_id: str
    anchor: int
    direction: str  # "fwd" or "rev"


@dataclass(frozen=True)
class CertifiedPath:
    """A rule path from a sequence to a normal form, with a combined word
    certificate that replays on homology classes."""

    start: RSequence
    end: RSequence
    steps: tuple[PathStep, ...]
    states: tuple[RSequence, ...]
    word: str
    verified: bool

    def to_json(self) -> dict:
        return {
            "genus": self.start.genus.g,
            "start": self.start.ascii(),
            "end": self.end.ascii(),
            "steps": [
                {"rule": s.rule_id, "anchor": s.anchor, "direction": s.direction}
                for s in self.steps
            ],
            "states": [s.ascii() for s in self.states],
            "word": self.word,
            "verified": self.verified,
        }


def _forest_step(moves, cur: int, idx: int) -> tuple[str, int, MCGWord]:
    """The step from sequence `cur` back to its forest parent by move
    `idx`: its direction, the parent and the step word.  The step runs
    forward when cur shows the move's lhs, and its word is then the
    certificate, else the certificate's inverse."""
    inst = moves[idx]
    parent = cur ^ inst.lhs_bits ^ inst.rhs_bits
    if cur & inst.window_bits == inst.lhs_bits:
        return "fwd", parent, inst.word
    return "rev", parent, inst.word.inverse()


def _missing_normal_form(s: RSequence) -> FalsificationError:
    """The outcome for a sequence whose component holds no normal form."""
    return FalsificationError(
        f"sequence {s.ascii()} lies in a component without a normal form"
    )


def reduce_rseq(s: RSequence) -> CertifiedPath:
    """Shortest rule path from s to a normal form, replay-verified.

    The search runs over all 2^g sequences, so it is budgeted at genus
    RSEQ_GENUS_CAP; longer sequences raise BudgetExceededError before
    anything is built or cached.  Raises FalsificationError if the component
    of s contains no normal form (which would refute the classification at
    symbol level; never expected).
    """
    g = s.genus.g
    _require_genus_budget("sequence reduction", g, RSEQ_GENUS_CAP)
    moves, forest = _reduction_forest(g)
    if s.bits not in forest:
        raise _missing_normal_form(s)
    steps = []
    states = [s.bits]
    step_words: list[MCGWord] = []
    cur = s.bits
    while (idx := forest[cur]) is not None:
        inst = moves[idx]
        direction, cur, word = _forest_step(moves, cur, idx)
        step_words.append(word)
        steps.append(PathStep(inst.rule.rule_id, inst.anchor, direction))
        states.append(cur)
    word = certify(s.genus, step_words, [s.bits], [cur], "path certificate failed to replay")
    return CertifiedPath(
        start=s,
        end=RSequence(s.genus, cur),
        steps=tuple(steps),
        states=tuple(RSequence(s.genus, b) for b in states),
        word=word,
        verified=True,
    )


@dataclass(frozen=True)
class ComponentSummary:
    size: int
    representative: str
    canonical_members: tuple[str, ...]
    form_value: int
    support_parity: int


@dataclass(frozen=True)
class ComponentsReport:
    genus: int
    components: tuple[ComponentSummary, ...]

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "ok": True,
            "components": [
                {
                    "size": c.size,
                    "representative": c.representative,
                    "canonical": list(c.canonical_members),
                    "form_value": c.form_value,
                    "support_parity": c.support_parity,
                    "ok": True,
                }
                for c in self.components
            ],
        }


def classify_rseq_components(genus: Genus) -> ComponentsReport:
    """Components of the sequence graph, by smallest member, each with its
    normal form and the form's value and support parity.  Each live move is
    checked once, and a failure is a defect (InternalCheckError): q(lhs) =
    q(rhs), so it keeps q, which is additive over disjoint supports; its axes
    lie in its window (`_check_window_local`); and its word folds lhs onto
    rhs, which by window locality replays every edge of the move both ways.
    Some live move swaps x_i + m and x_{i+2} + m for every i and middle class
    m (0 or x_{i+1}), so the moves act as the transpositions (i, i+2) and a
    component is a union of types (a, b), a of the O odd and b of the E even
    positions circled.  A side s of a move, its window holding wo odd and we
    even positions, fits (a, b) when s_a <= a, s_b <= b, wo - s_a <= O - a
    and we - s_b <= E - b, and links it to (a, b) - s + t, t the other side.
    The normal forms with a live move (all but 0 and w) differ in q, so no
    move joins two of them, and q and support parity (q mod 2) are constant
    on each component.  One breadth-first search over types runs from each
    normal form; the least sequence of the types none reaches (a type's
    least has its lowest a odd and b even positions circled) is falsified."""
    g = genus.g
    odd = _odd_mask(g)
    even = odd ^ (1 << g) - 1
    total_odd, total_even = (g + 1) // 2, g // 2

    def kind(bits: int) -> tuple[int, int]:
        return (bits & odd).bit_count(), (bits & even).bit_count()

    def least(a: int, b: int) -> int:
        return _odd_mask(2 * a) | _odd_mask(2 * b) << 1

    sides = set()  # (type of a side, type of its window, type of the other side)
    swaps = set()  # (window, smaller side, larger side)
    for inst in _live_moves(genus):
        where = f"{inst.rule.rule_id} at {inst.anchor}"
        what = f"live move {where} changes the form value"
        _check(_q_mask(inst.lhs_bits, odd) == _q_mask(inst.rhs_bits, odd), what)
        _check_window_local(inst.word, inst.window_bits, where)
        replays = _fold(inst.word.axes, [inst.lhs_bits]) == [inst.rhs_bits]
        _check(replays, "path certificate failed to replay")
        lhs, window, rhs = kind(inst.lhs_bits), kind(inst.window_bits), kind(inst.rhs_bits)
        sides |= {(lhs, window, rhs), (rhs, window, lhs)}
        swaps.add((inst.window_bits, *sorted((inst.lhs_bits, inst.rhs_bits))))
    for i in range(1, g - 1):
        held = all((7 << i - 1, 1 << i - 1 | m, 1 << i + 1 | m) in swaps for m in (0, 1 << i))
        _check(held, f"no live move swaps positions {i} and {i + 2}")

    def links(a: int, b: int):
        for (sa, sb), (wa, wb), (ta, tb) in sides:
            if sa <= a and sb <= b and wa - sa <= total_odd - a and wb - sb <= total_even - b:
                yield a - sa + ta, b - sb + tb

    normal = [target.bits for target in canonical_targets(genus)]
    moving = [root for root in normal if any(links(*kind(root)))]
    values = {_q_mask(root, odd) for root in moving}
    _check(len(values) == len(moving), "normal forms with live moves share a form value")
    found = []
    unreached = {(a, b) for a in range(total_odd + 1) for b in range(total_even + 1)}
    for root in normal:
        component = [kind(root)]
        for a, b in component:  # visits the types it appends, level by level
            component += set(links(a, b)).difference(component)
        unreached.difference_update(component)
        size = sum(comb(total_odd, a) * comb(total_even, b) for a, b in component)
        found.append((min(least(*t) for t in component), root, size))
    if unreached:
        raise _missing_normal_form(RSequence(genus, min(least(*t) for t in unreached)))
    summaries = tuple(
        ComponentSummary(
            size,
            RSequence(genus, smallest).ascii(),
            (RSequence(genus, root).ascii(),),
            _q_mask(root, odd),
            root.bit_count() & 1,
        )
        for smallest, root, size in sorted(found)
    )
    return ComponentsReport(genus=g, components=summaries)


# ---------------------------------------------------------------------------
# index-shift reduction of three-index circles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaTriple:
    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.i < self.j < self.k:
            raise ValueError("triple indices must be strictly ascending from 1")

    @property
    def as_tuple(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.k)


@dataclass(frozen=True)
class AlphaStep:
    rule_id: str
    before: tuple[int, int, int]
    after: tuple[int, int, int]
    certificate: str


@dataclass(frozen=True)
class AlphaReduction:
    start: tuple[int, int, int]
    terminal: tuple[int, int, int]
    label: str  # "alpha_1" or "alpha_2"
    steps: tuple[AlphaStep, ...]
    word: str
    verified: bool

    def to_json(self) -> dict:
        return {
            "start": list(self.start),
            "terminal": list(self.terminal),
            "label": self.label,
            "steps": [
                {
                    "rule": s.rule_id,
                    "before": list(s.before),
                    "after": list(s.after),
                    "certificate": s.certificate,
                }
                for s in self.steps
            ],
            "word": self.word,
            "verified": self.verified,
        }


def _not_terminal(start, end) -> FalsificationError:
    """The outcome for a triple whose shifts stop off the terminal list."""
    return FalsificationError(f"triple {start} stopped at {end}, which is not a listed terminal")


def reduce_alpha(genus: Genus, triple: AlphaTriple) -> AlphaReduction:
    """Shift the triple down, each step by the first rule that applies, until
    one of the eight terminals is reached; certificate replay-verified.  A
    shift lowers one entry by two and entries stay at least 1, so the path
    ends.  AL.p moves only entry p, which AL.1..AL.p-1 do not read, so once
    they stop applying they stay inapplicable: the path applies AL.1 while it
    applies, then AL.2, then AL.3."""
    if triple.k > genus.g:
        raise ValueError(f"triple {triple.as_tuple} does not fit genus {genus.g}")
    start = cur = triple.as_tuple
    steps: list[AlphaStep] = []
    step_words: list[MCGWord] = []
    for p, rule in enumerate(_SHIFT_RULES, 1):
        while (shift := _alpha_shift(p, cur)) is not None:
            shifted, slot = shift
            word = _shift_certificate(genus.g, slot)
            steps.append(AlphaStep(rule.rule_id, cur, shifted, word.text))
            step_words.append(word)
            cur = shifted
    if cur not in ALPHA_TERMINALS:
        raise _not_terminal(start, cur)
    what = "index-shift certificate failed to replay"
    word = certify(genus, step_words, [_mask(start)], [_mask(cur)], what)
    return AlphaReduction(
        start=start,
        terminal=cur,
        label=ALPHA_TERMINALS[cur],
        steps=tuple(steps),
        word=word,
        verified=True,
    )


def alpha_terminals(genus: Genus) -> tuple[dict, tuple[RuleVerdict, ...]]:
    """Each triple of the genus mapped to its `reduce_alpha` terminal, in
    `combinations` order, and the verdicts of AL.1-AL.3, from one pass over
    the triples.  Each shift that applies to a triple is an instance of its
    rule, counted up to the rule's first failure; the first is the walk's
    edge, to a target walked earlier, whose terminal the triple takes.  A
    dead end must be listed, or FalsificationError is raised as
    `reduce_alpha` raises it.  The slot-n word is checked once, at its first
    instance: its axes must lie inside x_{n-2}+x_n, in every slot-n window
    (else InternalCheckError names that instance), and it must fold x_n onto
    x_{n-2}.  By window locality that fold replays every slot-n instance,
    whose other classes pair to 0 with every axis."""
    g = genus.g
    terminals: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    checked = [0] * len(_SHIFT_RULES)
    failures: list[RuleFailure | None] = [None] * len(_SHIFT_RULES)
    images: dict[int, int] = {}  # slot n: the image of x_n under its word
    for triple in combinations(range(1, g + 1), 3):
        targets = []
        for p, rule in enumerate(_SHIFT_RULES, 1):
            if (shift := _alpha_shift(p, triple)) is None:
                continue
            shifted, n = shift
            x_n, x_low = 1 << (n - 1), 1 << (n - 3)
            if n not in images:
                # the slot's first instance, narrowed to the two classes it moves
                word = _shift_certificate(g, n)
                _check_window_local(word, x_n | x_low, f"{rule.rule_id} at {triple}")
                [images[n]] = _fold(word.axes, [x_n])
            if failures[p - 1] is None:
                checked[p - 1] += 1
                if images[n] != x_low:
                    expected = H1Vector(genus, _mask(shifted)).to_text()
                    got = H1Vector(genus, _mask(triple) ^ x_n ^ images[n]).to_text()
                    failures[p - 1] = RuleFailure(triple, expected, got)
            targets.append(shifted)
        if targets:
            terminals[triple] = terminals[targets[0]]
        elif triple in ALPHA_TERMINALS:
            terminals[triple] = triple
        else:
            raise _not_terminal(triple, triple)
    verdicts = tuple(
        RuleVerdict(rule.rule_id, failure is None, count, failure)
        for rule, count, failure in zip(_SHIFT_RULES, checked, failures)
    )
    return terminals, verdicts
