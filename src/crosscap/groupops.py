"""Finite isometry-group machinery for the mod-4 form.

Four kinds of work live here:

* column-backtracking enumeration of every invertible matrix preserving the
  form (budgeted by genus);
* breadth-first subgroup closure with shortest-word certificates, and the
  generation check: a complete closure of isometries whose order meets the
  counting bound `level_counts` (enumeration stays the tests' oracle);
* bidirectional meet-in-the-middle factorization of a matrix over a labeled
  generating set, whose forward wave is one breadth-first tree per set,
  shared by every search over it, and whose backward wave each search
  derives from that tree, one move per element, with no tree of its own,
  probing each key as it is made and stopping at the first meet;
* the constructive normal-form reductions: any class of form value 2 is
  driven to x1+x3, and any isotropic pair to [x1+x2, x3+x4] or to an
  explicitly flagged full-support configuration.

Closure, enumeration and both factorization waves key every element by one
packed int, column j in bit block j (`_pack`); a search tree maps each to
the signed letter that reached it, and undoing that letter's move recomputes
the parent (the shared forward tree also records each element's letter and
parent position, so a search's backward wave and both half-words are read
off positions).  Every tree gains levels only through `_SearchTree.grow`, which
adds the next level whole or not at all, so a tree cut off by its cap holds
whole levels.  From a key that letter s reached, `grow` tries the letters
in listed order but those whose child the tree provably holds already: the
one undoing s, and each letter listed before s that commutes with it (its
child tK = s(tP) was reached from tP, held ahead of K; a partially
commutative monoid's lexicographic normal form, after Cartier and Foata), so
the tree is the one that trying every letter builds.  Matrices and words are
built only when an element leaves this module.  Each signed letter is
compiled into a few shift-and-multiply terms on the packed int, one compile
step per generating set (`_moves`, a small bounded cache, which also keeps
each letter's plan and the set's forward tree).  The standard
generating set is one table per genus (`_label_table`): each standard
label's parsed word, twist axes and matrix.  The reductions take their moves from its axes; a reducer tracks
plain class masks and builds classes only for its result.

Certificates and reduction words always replay: the product of the recorded
generators is re-applied and compared before a result is returned.  A
closure's certificates are checked edge by edge (`verify_certificates`):
each element's parent, by the one undo step of its tree, must be checked
before it, so no word is replayed from the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice
from math import comb, prod
from threading import Lock

from .f2core import (
    BudgetExceededError,
    Genus,
    GenusMismatchError,
    H1Matrix,
    H1Vector,
    InternalCheckError,
    MAX_GENUS,
    _check,
    _odd_mask,
    _require_genus_budget,
    apply_mask,
    compose,
    transvection,
)
from .gmform import _q_mask, basis_value, preserves_q, q_eval
from .words import MCGWord, _fold, certify, induced_matrix, parse_word

DEFAULT_NODE_CAP = 1 << 24
ENUMERATION_GENUS_CAP = 8
# a compiled letter is at most g terms of O(g) shifts, so compiling costs
# O(g^2) per letter, plus an n^2 commutation table over the n generators
# (two products of column tuples per pair) for the forward plans; the cap
# bounds the breadth-first search itself, at most one backward move per
# element of the forward levels a search reaches, whose levels grow with the
# group (40320 elements at genus 7, 2580480 at genus 8) until a sifting
# factorization replaces it
FACTORIZE_GENUS_CAP = 16


# ---------------------------------------------------------------------------
# words, and the breadth-first search shared by closure and factorization
# ---------------------------------------------------------------------------


def _labels(labels, n: int) -> tuple[str, ...]:
    """The labels of n generators, g1..gn unless given; one per generator."""
    labels = tuple(f"g{k}" for k in range(1, n + 1)) if labels is None else tuple(labels)
    if len(labels) != n:
        raise ValueError("one label per generator required")
    return labels


def _spell(labels, word: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(labels[abs(s) - 1] + ("" if s > 0 else "^{-1}") for s in word)


def _replay(genus: Genus, generators, word: tuple[int, ...]) -> H1Matrix:
    """The product a signed word names, rightmost letter acting first.

    Composes column masks directly, apart from the search's packed moves, so
    it checks them; one matrix is built and validated, at the end.
    """
    acc = tuple(1 << j for j in range(genus.g))
    for signed in word:
        m = generators[abs(signed) - 1]
        cols = m.cols if signed > 0 else m.inverse().cols
        acc = tuple(apply_mask(acc, c) for c in cols)
    return H1Matrix(genus, acc)


def _pack(cols, g: int) -> int:
    """One int for a matrix of genus g: column j in bits g*j .. g*j+g-1."""
    return sum(c << (g * j) for j, c in enumerate(cols))


def _unpack(key: int, g: int) -> tuple[int, ...]:
    low = (1 << g) - 1
    return tuple((key >> (g * j)) & low for j in range(g))


class _SearchTree:
    """One breadth-first search over packed ints, growing by its plans.

    `index` maps each reached key, in discovery order, to the signed letter
    whose move reached it (the root to 0).  Undoing that move, by the
    opposite letter's move or, for an involution, its own, gives the parent;
    a word is read off up to the root, first letter first.  The tree gains
    levels only through `grow`, which adds a level whole or not at all, so
    `frontier` is always the deepest whole level.

    `plans[s]` lists, as (letter, move) pairs in listed order, the moves
    `grow` tries from a key that letter s reached: every letter but the
    ones whose child is provably held (`_moves`).  The root's plan, 0, is
    every letter, and `moves` maps each letter to its move, for undoing.
    """

    def __init__(self, root: int, plans: dict):
        self.index = {root: 0}
        self.frontier = [root]
        self.plans = plans
        self.moves = dict(plans[0])

    def grow(self, room: int) -> bool:
        """Add the next level whole: children of the frontier in discovery
        order, each key's plan in listed order, unseen children only.  When
        the level has more than `room` keys, or a move or `_record_level`
        raises, the keys added are removed and `index` and `frontier` stay
        as they were; returns whether the level was added.

        A plan leaves out only letters whose child the tree already holds
        when its check would come, so trying every letter adds the same
        keys in the same order: for K = sP, the undo letter of s gives P;
        for t listed before s with ts = st, tK = s(tP), and (P, t) was
        checked before (P, s), so tP is held ahead of K, shallower or
        expanded first, and s(tP) with it (by induction over the order of
        checks, a skipped check counts as one that found its child held).
        """
        index, plans, new = self.index, self.plans, []
        try:
            for key in self.frontier:
                for signed, move in plans[index[key]]:
                    child = move(key)
                    if child in index:
                        continue
                    if len(new) >= room:
                        return False
                    index[child] = signed
                    new.append(child)
            self._record_level(new)
            self.frontier = new
            return True
        finally:
            if self.frontier is not new:
                for key in new:
                    del index[key]

    def _record_level(self, new: list[int]) -> None:
        """`grow` hands a subclass each whole new level here, before it
        becomes the frontier; if this raises, the level is not added."""

    def parent(self, key: int, signed: int) -> int:
        """The key that `signed` moved to `key`: the opposite letter's move,
        or for an involution its own, applied to `key`."""
        return self.moves.get(-signed, self.moves[signed])(key)

    def word(self, key: int) -> tuple[int, ...]:
        out = []
        # a key at depth d is d undo steps from the root
        for _ in range(len(self.index)):
            signed = self.index.get(key)
            _check(signed is not None, "search tree: an undone move left the tree")
            if not signed:
                return tuple(out)
            out.append(signed)
            key = self.parent(key, signed)
        raise InternalCheckError("search tree: undoing moves never reached the root")


def _packed_move(m: H1Matrix, left: bool):
    """X -> m X (left) or X -> X m on packed ints.

    With n_j = cols[j] ^ (1 << j) for each column where m differs from the
    identity, and J the columns sharing one n, each distinct n is one term:
    left, block j of X gains n times the parity of its bits J, read as
    ((XOR of X >> j, j in J) & ONES) * n; right, every block of J gains the
    sum of X's blocks in the support of n, read as
    ((XOR of X >> g*i, i in supp n) & LOW) * E_J, E_J = sum of 1 << g*j.
    Shift lists are padded to even length with g*g, which reads zero, so a
    t_{d_i} is one two-shift term and a triple two; those run straight-line.
    """
    g = m.genus.g
    mask = sum(1 << (g * j) for j in range(g)) if left else (1 << g) - 1
    groups: dict[int, list[int]] = {}
    for j, c in enumerate(m.cols):
        if c != 1 << j:
            groups.setdefault(c ^ (1 << j), []).append(j)
    terms = []
    for n, js in groups.items():
        if left:
            shifts, mult = js, n
        else:
            shifts = [g * i for i in range(g) if (n >> i) & 1]
            mult = sum(1 << (g * j) for j in js)
        terms.append((shifts + [g * g] * (len(shifts) % 2), mult))
    if all(len(shifts) == 2 for shifts, _ in terms):
        if len(terms) == 1:
            ((a, b), p) = terms[0]
            return lambda x: x ^ (((x >> a) ^ (x >> b)) & mask) * p
        if len(terms) == 2:
            ((a, b), p), ((c, d), q) = terms
            return lambda x: (
                x ^ (((x >> a) ^ (x >> b)) & mask) * p ^ (((x >> c) ^ (x >> d)) & mask) * q
            )

    def move(x: int) -> int:
        out = x
        for shifts, mult in terms:
            acc = 0
            for s in shifts:
                acc ^= x >> s
            out ^= (acc & mask) * mult
        return out

    return move


class _ForwardTree(_SearchTree):
    """The forward wave of every factorization over one generating set: the
    breadth-first tree from the identity by left moves.

    It only gains whole levels, one at a time under `lock`, and only when a
    search first needs one; what it holds never changes.  `position` maps
    each key to its discovery index and `ends[k]` counts the keys of depth
    at most k, so level k is the positions ends[k-1] .. ends[k]-1.  The
    element at position p was reached by letter `letters[p]` from the one at
    position `parents[p]`, found once by the undo step and checked to be
    held before p's level (the root's entries are 0).  A new level is indexed in
    `position`, `letters` and `parents` before `ends` counts it, so a search
    reading the levels it was shown never sees part of another.
    """

    def __init__(self, g: int, plans: dict):
        root = _pack([1 << j for j in range(g)], g)
        super().__init__(root, plans)
        self.position = {root: 0}
        self.letters = [0]
        self.parents = [0]
        self.ends = [1]
        self.lock = Lock()

    def _record_level(self, new: list[int]) -> None:
        index, position = self.index, self.position
        parents = []
        for key in new:
            parent = self.parent(key, index[key])
            p = position.get(parent)
            if p is None:
                # an undo step that stays in the new level never climbs
                _check(parent not in index, "search tree: undoing moves never reached the root")
                raise InternalCheckError("search tree: an undone move left the tree")
            parents.append(p)
        position.update(zip(new, count(self.ends[-1])))
        self.letters += [index[key] for key in new]
        self.parents += parents
        self.ends.append(len(index))

    def reveal(self, k: int, room: int) -> bool:
        """Whether level k, at most one past the deepest level held, has at
        most `room` keys; grows it when missing and it fits."""
        ends = self.ends
        if k == len(ends):
            with self.lock:
                if k == len(ends) and not self.grow(room):
                    return False
        return ends[k] - ends[k - 1] <= room

    def word_at(self, p: int) -> tuple[int, ...]:
        """The letters from position p up to the root, p's letter first: the
        word of the element at p, and of the backward key at p too."""
        out = []
        while p:
            out.append(self.letters[p])
            p = self.parents[p]
        return tuple(out)

    def derive(self, keys: list[int], backward: dict, end: int) -> tuple[int, int] | None:
        """Extend the backward wave `keys` from T = keys[0] towards position
        end - 1, whose parents it holds: keys[q] = T f^-1 for the element f
        at q, the backward move of q's letter applied to q's parent's key.
        Each new key is probed in `position` as it is appended, and the
        first one held below `end`, at position p, stops the derivation:
        returns (p, q), with `keys` ending at q.  Returns None when `keys`
        reached `end` with no such key; a call on a stopped wave resumes it
        at q + 1."""
        letters, parents, held = self.letters, self.parents, self.position.get
        append = keys.append
        for q in range(len(keys), end):
            key = backward[letters[q]](keys[parents[q]])
            append(key)
            p = held(key, end)
            if p < end:
                return p, q
        return None


@lru_cache(maxsize=4)
def _moves(generators: tuple[H1Matrix, ...], g: int):
    """Compile a generating set of genus g, in order, into its signed
    alphabet: the forward tree of its factorizations, whose moves are the
    forward moves X -> a X, and the backward moves X -> X a^-1, by letter,
    that a search derives its backward wave with (`_ForwardTree.derive`).
    Letter k is generator k and -k its inverse; an inverse equal to the
    generator itself (an involution) is not listed twice.  Each generator
    is inverted once.  The genus is part of the key, as the empty set's
    tree is rooted at the identity of one genus.  The last four sets
    compiled stay cached, with their trees, so repeated searches over one
    set skip this step and share the forward wave.

    The plan of letter s lists every letter in listed order but s's undo
    letter (-s, or s for an involution) and each letter listed before s
    whose generator commutes with s's: from a key that s reached, the tree
    already holds those letters' children (`_SearchTree.grow`).  Two left
    moves commute exactly when their generators do, tested once per pair
    of generators on their columns.
    """
    letters = [(k, m, m.inverse()) for k, m in enumerate(generators, start=1)]
    letters += [(-k, inv, m) for k, m, inv in letters if inv.cols != m.cols]
    forward = {signed: _packed_move(m, True) for signed, m, _ in letters}
    backward = {signed: _packed_move(inv, False) for signed, _, inv in letters}
    commuting = set()
    for a, x in enumerate(generators, start=1):
        for b, y in enumerate(generators[:a], start=1):
            if [apply_mask(x.cols, c) for c in y.cols] == [apply_mask(y.cols, c) for c in x.cols]:
                commuting |= {(a, b), (b, a)}
    order = list(forward)
    plans = {0: tuple(forward.items())}
    for k, s in enumerate(order):
        skip = [-s if -s in forward else s]
        skip += [t for t in order[:k] if (abs(s), abs(t)) in commuting]
        plans[s] = tuple((t, forward[t]) for t in order if t not in skip)
    return _ForwardTree(g, plans), backward


# ---------------------------------------------------------------------------
# tables of group elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElementRecord:
    """A matrix with a word over the generating set that replays to it.

    The word is a tuple of signed 1-based generator indices in product order
    (rightmost acts first); negative means the formal inverse.  Enumerated
    tables carry empty words.
    """

    matrix: H1Matrix
    word: tuple[int, ...]


@dataclass
class GroupTable:
    """A set of matrices, closed under the generators when complete.

    `elements` holds each packed matrix (`_pack`) in discovery order.  A
    closure's is its search tree's dict, which the tree reads words off;
    enumerated tables map every matrix to 0 and have no tree.  A matrix of
    another genus is never a member: packed at this genus, a smaller one has
    a zero top column and a larger one reaches past bit g*g.
    """

    genus: Genus
    labels: tuple[str, ...]
    generators: tuple[H1Matrix, ...]
    elements: dict[int, int]
    complete: bool
    diameter: int
    tree: _SearchTree | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, m: H1Matrix) -> bool:
        return _pack(m.cols, self.genus.g) in self.elements

    def _record(self, key: int) -> GroupElementRecord:
        word = self.tree.word(key) if self.tree is not None else ()
        return GroupElementRecord(H1Matrix(self.genus, _unpack(key, self.genus.g)), word)

    def records(self):
        """Every element with its word, in discovery order."""
        for key in self.elements:
            yield self._record(key)

    def word_labels(self, word: tuple[int, ...]) -> list[str]:
        return list(_spell(self.labels, word))

    def verify_certificates(self, limit: int | None = None) -> bool:
        """Check the stored words (or the first `limit`) edge by edge.

        In discovery order: the root must be the identity, and undoing any
        other element's letter must give an element checked before it,
        whose columns the letter's generator carries onto the element's.
        Apart from the packed moves that found the parent, that step is
        `apply_mask` on columns, so by induction every word replays to its
        matrix, and a tree whose undo walk loops fails.  An enumerated
        table has no tree and raises ValueError.
        """
        if self.tree is None:
            raise ValueError("an enumerated table has no certificates to check")
        g = self.genus.g
        cols = {k: m.cols for k, m in enumerate(self.generators, start=1)}
        cols.update({-k: m.inverse().cols for k, m in enumerate(self.generators, start=1)})
        identity = _pack([1 << j for j in range(g)], g)
        checked = set()
        for key, signed in islice(self.elements.items(), limit):
            if signed:
                parent = self.tree.parent(key, signed)
                if parent not in checked:
                    return False
                step = cols[signed]
                if _pack([apply_mask(step, c) for c in _unpack(parent, g)], g) != key:
                    return False
            elif key != identity:
                return False
            checked.add(key)
        return True

    def to_json(self, include_elements: bool = False) -> dict:
        out = {
            "genus": self.genus.g,
            "generators": list(self.labels),
            "order": self.order,
            "diameter": self.diameter,
            "complete": self.complete,
        }
        if include_elements:
            out["elements"] = [
                {
                    "matrix": rec.matrix.to_col_bitstrings(),
                    "word": self.word_labels(rec.word),
                }
                for rec in self.records()
            ]
        return out


# ---------------------------------------------------------------------------
# enumeration by column backtracking
# ---------------------------------------------------------------------------


def _complete_columns(g: int, prefix: int, shift: int, want, then, out: dict) -> None:
    """Extend the packed `prefix` by each column of `want` at bit `shift`, the
    next by one of `then`, and so on alternately; both lists hold only
    candidates orthogonal to every column already chosen."""
    if shift == g * g:
        out[prefix] = 0
        return
    for c in want:
        _complete_columns(
            g,
            prefix | c << shift,
            shift + g,
            [v for v in then if not (v & c).bit_count() & 1],
            [v for v in want if not (v & c).bit_count() & 1],
            out,
        )


def enumerate_orthogonal(genus: Genus) -> GroupTable:
    """All invertible matrices preserving the form, by column backtracking.

    Column j must take the form value of x_{j+1} (1 for odd j+1, 3 for even)
    and be orthogonal to the earlier columns; orthonormal columns over F2
    are independent, so every completed assignment is invertible.
    Budgeted: genus above ENUMERATION_GENUS_CAP is refused.
    """
    g = genus.g
    _require_genus_budget("orthogonal enumeration", g, ENUMERATION_GENUS_CAP)
    odd = _odd_mask(g)
    ones, threes = ([v for v in range(1 << g) if _q_mask(v, odd) == q] for q in (1, 3))
    elements: dict[int, int] = {}
    _complete_columns(g, 0, 0, ones, threes, elements)
    return GroupTable(genus, (), (), elements, True, 0)


# ---------------------------------------------------------------------------
# subgroup closure
# ---------------------------------------------------------------------------


def subgroup_closure(
    generators,
    cap: int = DEFAULT_NODE_CAP,
    labels=None,
    genus: Genus | None = None,
) -> GroupTable:
    """Breadth-first closure under left multiplication by the generators and
    their inverses, with shortest-word certificates.

    Expansion order is fixed (frontier in discovery order, letters in listed
    order), so certificates are reproducible.  Letters whose child is
    provably in the table already, the one undoing the letter that reached
    an element and earlier letters commuting with it, are not tried from
    that element (`_SearchTree.grow`); the table is the same as when every
    letter is tried.  The table holds whole levels only: when the next
    level would take the element count past `cap`, the levels before it
    are returned with complete=False, and `diameter` counts the whole
    levels held.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, since the identity counts; got {cap}")
    gens = list(generators)
    if genus is None:
        if not gens:
            raise ValueError("empty generating set needs an explicit genus")
        genus = gens[0].genus
    for m in gens:
        if m.genus != genus:
            raise GenusMismatchError("generators must share one genus")
    labels = _labels(labels, len(gens))

    forward, _ = _moves(tuple(gens), genus.g)
    tree = _SearchTree(_pack(H1Matrix.identity(genus).cols, genus.g), forward.plans)
    diameter = 0
    complete = True
    while tree.frontier:
        if not tree.grow(cap - len(tree.index)):
            complete = False
            break
        if tree.frontier:
            diameter += 1
    return GroupTable(
        genus, labels, tuple(gens), tree.index, complete, diameter, tree=tree
    )


# ---------------------------------------------------------------------------
# the standard generating set and the generation check
# ---------------------------------------------------------------------------


def two_index_label(i: int) -> str:
    return f"t_{{d_{i}}}"


def triple_label(i: int) -> str:
    return f"t_{{a_{i}}} t_{{a_{i+2}}} t_{{c_{i}}}"


def standard_generators(genus: Genus) -> list[tuple[str, H1Matrix]]:
    """The standard transvection generating set for the isometry group.

    Two-index transvections about x_i + x_{i+2} (i = 1..g-2) and commuting
    triples about x_i+x_{i+1}, x_{i+2}+x_{i+3} and their sum (i = 1..g-3).
    Each label is the twist word inducing the matrix, so factorization output
    is itself a parseable word.  Built once per genus; each call returns a
    fresh list.
    """
    return [(label, matrix) for label, (_, _, matrix) in _label_table(genus).items()]


# every standard label at every genus, by its index i, so that a reducer's
# move looks its label up instead of formatting it
_TWO_INDEX_LABELS = {i: two_index_label(i) for i in range(1, MAX_GENUS - 1)}
_TRIPLE_LABELS = {i: triple_label(i) for i in range(1, MAX_GENUS - 2)}


@lru_cache(maxsize=MAX_GENUS)
def _label_table(genus: Genus) -> dict[str, tuple[MCGWord, tuple[int, ...], H1Matrix]]:
    """The standard labels of a genus, in generator order, each with its
    parsed word, that word's twist axes (the reducers' moves) and the
    matrix the word keeps (the generator)."""
    labels = [two_index_label(i) for i in range(1, genus.g - 1)]
    labels += [triple_label(i) for i in range(1, genus.g - 2)]
    table = {}
    for label in labels:
        word = parse_word(label, genus)
        table[label] = (word, word.axes, induced_matrix(word))
    return table


@dataclass(frozen=True)
class GenerationReport:
    """The generation check.  `enumerated_order` keeps its name, so the
    output stays byte-identical, but carries |O(q)| as `level_counts`
    proves it; no enumeration is made.  A report is only built for a
    complete closure, so its JSON says `complete` true."""

    genus: int
    labels: tuple[str, ...]
    closure_order: int
    enumerated_order: int
    equal: bool
    diameter: int

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "generators": list(self.labels),
            "closure_order": self.closure_order,
            "enumerated_order": self.enumerated_order,
            "equal": self.equal,
            "diameter": self.diameter,
            "complete": True,
        }


def level_counts(genus: Genus) -> tuple[int, ...]:
    """|B_1| .. |B_g|, whose product bounds |O(q)| by orbit-stabilizer.

    Every isometry fixes w = x1+...+xg (v.w = v.v), so one fixing x_<j
    sends x_j into B_j: the classes c with q(c) = q(x_j), c orthogonal to
    x_<j (support in j..g) and c outside span(x_<j, w), that is c neither
    0 nor the tail x_j+...+x_g.  B_g = {x_g}, as x_g lies in that span.
    """
    g, counts = genus.g, []
    for j in range(1, g):
        odd = (g + 1) // 2 - j // 2  # odd indices in j..g
        even, value = g - j + 1 - odd, basis_value(j)
        # supports with a odd and b even indices take the value a - b
        total = sum(comb(odd, a) * comb(even, b) for a in range(odd + 1)
                    for b in range(even + 1) if (a - b) % 4 == value)
        counts.append(total - ((odd - even) % 4 == value))
    return (*counts, 1)


def verify_generation(genus: Genus, cap: int = DEFAULT_NODE_CAP) -> GenerationReport:
    """Prove that the standard generating set generates O(q), by counting.

    When every generator passes `preserves_q` the closure lies in O(q), and
    a complete closure of order prod(level_counts) is then all of it.  A
    closure cut off at `cap` nodes proves nothing and raises
    BudgetExceededError.
    """
    g = genus.g
    _require_genus_budget("generation check", g, ENUMERATION_GENUS_CAP)
    gens = standard_generators(genus)
    closure = subgroup_closure(
        [m for _, m in gens],
        cap=cap,
        labels=[label for label, _ in gens],
        genus=genus,
    )
    if not closure.complete:
        raise BudgetExceededError("closure hit the node cap; raise --cap")
    _check(closure.verify_certificates(limit=4096), "closure certificate failed to replay")
    order = prod(level_counts(genus))
    isometries = all(preserves_q(m) for _, m in gens)
    return GenerationReport(
        genus=g,
        labels=closure.labels,
        closure_order=closure.order,
        enumerated_order=order,
        equal=isometries and closure.order == order,
        diameter=closure.diameter,
    )


# ---------------------------------------------------------------------------
# factorization (bidirectional breadth-first search)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorizationResult:
    """Outcome of a factorization attempt.

    status is "found", "not_member" (one search side closed without meeting,
    a proof of non-membership) or "budget_exhausted" (node cap hit; nothing
    is claimed).  The word is in product order, rightmost letter first.
    """

    status: str
    word: tuple[int, ...] | None
    word_labels: tuple[str, ...] | None
    explored: int

    @property
    def found(self) -> bool:
        return self.status == "found"

    def to_json(self) -> dict:
        out = {"status": self.status, "explored": self.explored}
        if self.word is not None:
            out["word"] = list(self.word_labels)
            out["length"] = len(self.word)
        return out


def factorize(
    target: H1Matrix,
    generators,
    labels=None,
    cap: int = DEFAULT_NODE_CAP,
) -> FactorizationResult:
    """Shortest word over the generators whose product equals the target.

    Bidirectional search: one wave grows from the identity by left
    multiplication, the other from the target by right multiplication with
    letter inverses; a common element splices the two half-words.  Levels
    alternate strictly and every meet of a level is collected, so the
    reported word has minimal length and is deterministic.

    The forward wave does not depend on the target, so it is not regrown:
    the search reveals the levels of the generating set's shared forward
    tree one at a time, growing the tree by a whole level only when no
    earlier search needed that level (`_SearchTree.grow`, which skips only
    letters whose child the tree provably holds already).  Nor is the
    backward wave grown: the tree grown from T by the moves X -> X a^-1 is
    T f^-1 over the forward elements f, in their order and with their
    letters (X -> T X^-1 turns X -> a X into X -> X a^-1 and is a
    bijection, so both trees find the same children held).  The search
    derives each backward level from the one above, one backward move per
    element (`_ForwardTree.derive`), and reads both half-words off the
    forward tree's parent positions.  Once no word of length at most n
    exists, a meet of the next step has length n + 1, so each step probes
    one pair of levels: revealing forward level k probes backward level
    k - 1 and keeps the meet first in forward discovery order; backward
    level k, derived against the forward levels revealed so far, can meet
    forward level k only, and its derivation stops at its first meet in
    frontier order, the one kept.  The result, `explored` included (a level
    counts whole, derived or not), is that of a search with a private
    forward wave and a backward wave grown from T.

    The cap bounds the elements of both waves together, their two starting
    elements included, each level counted whole; a level past it ends the
    search as "budget_exhausted" with `explored` equal to the cap, never as
    non-membership, and a forward level past it is not kept in the shared
    tree.  Non-membership is only claimed when a whole side closed, so the
    cap must be at least 2.

    Budgeted: genus above FACTORIZE_GENUS_CAP raises BudgetExceededError
    before any letter is compiled.
    """
    gens = list(generators)
    genus = target.genus
    _require_genus_budget("factorization", genus.g, FACTORIZE_GENUS_CAP)
    if cap < 2:
        raise ValueError(
            f"cap must be at least 2, since both starting elements count; got {cap}"
        )
    for m in gens:
        if m.genus != genus:
            raise GenusMismatchError("generators must share the target's genus")
    labels = _labels(labels, len(gens))

    fwd, backward = _moves(tuple(gens), genus.g)
    position, ends = fwd.position, fwd.ends
    # the backward wave: keys[q] = T f^-1 for the forward element f at
    # position q; its last level derived is the positions lo .. hi - 1
    keys = [_pack(target.cols, genus.g)]
    lo, hi = 0, 1
    # the meet as (forward position, backward position)
    meet = (0, 0) if position.get(keys[0]) == 0 else None
    depth = 0  # forward levels revealed to this search
    forward = True
    while meet is None:
        explored = ends[depth] + hi
        if forward:
            if depth and ends[depth] == ends[depth - 1]:
                # the last level revealed was empty: the forward side closed
                # (a backward level is as large as the forward one, so the
                # backward side closes no earlier)
                return FactorizationResult("not_member", None, None, explored)
            if not fwd.reveal(depth + 1, cap - explored):
                return FactorizationResult("budget_exhausted", None, None, cap)
            depth += 1
            # only the last backward level, depth - 1, can meet forward level
            # depth: a key of level j < depth - 1 held there would give a word
            # of length depth + j <= 2(depth - 1), which the backward step
            # that derived level depth - 1 ruled out, and none of level
            # depth - 1 is held in a shallower forward level; so every meet
            # has the same length and the first in forward order is kept
            end = ends[depth]
            meet = min(
                ((p, q) for q in range(lo, hi) if (p := position.get(keys[q], end)) < end),
                default=None,
            )
        else:
            # backward level `depth` takes the positions hi .. ends[depth] - 1,
            # and its meets are with forward level `depth` alone (a shallower
            # one would give a word of length at most 2 depth - 1, which the
            # forward step ruled out), all of length 2 depth; the first in
            # frontier order is kept, so the derivation stops there
            lo, hi = hi, ends[depth]
            if hi - lo > cap - explored:
                return FactorizationResult("budget_exhausted", None, None, cap)
            meet = fwd.derive(keys, backward, hi)
        forward = not forward
    p, q = meet
    word = fwd.word_at(p) + fwd.word_at(q)
    _check(_replay(genus, gens, word) == target, "factorization word failed to replay")
    # a level counts whole in `explored`, though the derivation stopped at q
    return FactorizationResult("found", word, _spell(labels, word), ends[depth] + hi)


# ---------------------------------------------------------------------------
# constructive reductions over the standard generators
# ---------------------------------------------------------------------------


class _Reducer:
    """Applies standard generators to tracked class masks, recording the moves.

    A run of moves folds the cached axes of its labels over the masks in
    one pass.  Moves are recorded in application order; `certify` joins
    their label words with the first move rightmost, matching word
    composition order.
    """

    def __init__(self, genus: Genus, tracked: list[H1Vector]):
        self.genus = genus
        self.tracked = [v.bits for v in tracked]
        self.moves: list[str] = []
        self._table = _label_table(genus)

    def d(self, i: int) -> None:
        self._apply((_TWO_INDEX_LABELS[i],))

    def swaps(self, plan: list[int]) -> None:
        """The two-index moves of a swap plan, in order."""
        self._apply([_TWO_INDEX_LABELS[j] for j in plan])

    def e(self, i: int) -> None:
        self._apply((_TRIPLE_LABELS[i],))

    def _apply(self, labels) -> None:
        table = self._table
        self.tracked = _fold([a for label in labels for a in table[label][1]], self.tracked)
        self.moves.extend(labels)

    def vector(self, idx: int) -> H1Vector:
        return H1Vector(self.genus, self.tracked[idx])

    def word(self, sources: list[int], what: str) -> str:
        """The text of the moves as one word, replayed from the source masks
        onto the tracked masks."""
        steps = [self._table[label][0] for label in self.moves]
        return certify(self.genus, steps, sources, self.tracked, what)


def _support(bits: int) -> list[int]:
    """1-based indices of a class mask, ascending."""
    return [i + 1 for i in range(bits.bit_length()) if (bits >> i) & 1]


def _swap_plan(current: list[int], targets: list[int]) -> list[int]:
    """Adjacent-transposition plan inside one parity class.

    Both lists are ascending positions of the same parity and length; the
    rank-aligned matching never crosses.  Down-movers run first in ascending
    rank, then up-movers in descending rank; this order keeps every
    intermediate slot free (asserted against `occupied`, the set of `cur`).
    """
    _check(len(current) == len(targets), "swap plan: position lists differ in length")
    cur = list(current)
    occupied = set(cur)
    plan: list[int] = []
    for r in range(len(cur)):
        while cur[r] > targets[r]:
            j = cur[r] - 2
            _check(j not in occupied, "swap plan: downward slot occupied")
            plan.append(j)
            occupied.remove(cur[r])
            occupied.add(j)
            cur[r] = j
    for r in range(len(cur) - 1, -1, -1):
        while cur[r] < targets[r]:
            j = cur[r]
            _check(j + 2 not in occupied, "swap plan: upward slot occupied")
            plan.append(j)
            occupied.remove(j)
            occupied.add(j + 2)
            cur[r] = j + 2
    _check(cur == list(targets), "swap plan: targets not reached")
    return plan


def _rearrange(red: _Reducer, idx: int, odd_targets, even_targets) -> None:
    """Drive the support of tracked[idx] onto the ascending target slots
    with swaps."""
    support = _support(red.tracked[idx])
    odds = [i for i in support if i % 2]
    evens = [i for i in support if i % 2 == 0]
    # a swap moves one parity class only, so both plans read the same support
    red.swaps(_swap_plan(odds, odd_targets) + _swap_plan(evens, even_targets))


def _parities(red: _Reducer, idx: int, residue: int, what: str) -> tuple[int, int]:
    """Odd and even support counts of tracked[idx]; their difference is
    invariant mod 4 under every move."""
    bits = red.tracked[idx]
    lo = (bits & _odd_mask(red.genus.g)).bit_count()
    le = bits.bit_count() - lo
    _check((lo - le) % 4 == residue, f"{what}: support parity broken")
    return lo, le


def _pair_slots(offset: int, n: int) -> tuple[list[int], list[int]]:
    """Odd and even slots of n consecutive (odd, even) pairs from offset+1."""
    return (
        list(range(offset + 1, offset + 2 * n, 2)),
        list(range(offset + 2, offset + 2 * n + 1, 2)),
    )


def _lift_evens(red: _Reducer, idx: int, offset: int, lo: int, le: int) -> None:
    """Even-heavy support: park the odds from offset+5 and line the evens
    up from offset+2; the triple move at offset+1 then turns the first two
    evens into two odds."""
    _rearrange(
        red,
        idx,
        list(range(offset + 5, offset + 5 + 2 * lo, 2)),
        list(range(offset + 2, offset + 2 + 2 * le, 2)),
    )
    red.e(offset + 1)


def _collapse_block(red: _Reducer, idx: int, odds, evens, base: int, t: int) -> None:
    """Lay the surplus out as t blocks of four odd slots from `base`, after
    `odds`, and collapse the last block to two indices with two triple
    moves."""
    _rearrange(red, idx, odds + list(range(base, base + 8 * t, 2)), evens)
    last = base + 8 * (t - 1)
    red.e(last + 3)
    red.e(last + 2)


def _normalize_q2(red: _Reducer, idx: int) -> None:
    """Drive a form-value-2 class to x1+x3.

    Loop invariantly sorts the support, then either converts an even-heavy
    support with one triple move, erases one (even, odd) pair, or collapses
    a block of four odd slots with two triple moves, until only x1+x3 is
    left.
    """
    for _ in range(6 * red.genus.g + 6):
        lo, le = _parities(red, idx, 2, "q=2 normal form")
        if (lo, le) == (2, 0):
            _rearrange(red, idx, [1, 3], [])
            _check(red.tracked[idx] == 0b101, "q=2 normal form: x1+x3 not reached")
            return
        if le > lo:
            _lift_evens(red, idx, 0, lo, le)
            continue
        # (x1+x3) then consecutive (even, odd) pairs from slot 4
        odds = list(range(1, 2 * le + 4, 2))
        evens = list(range(4, 2 * le + 3, 2))
        if lo - le == 2:
            # the triple move erases x3+x4
            _rearrange(red, idx, odds, evens)
            red.e(1)
        else:
            # lo - le = 4t + 2, t >= 1
            _collapse_block(red, idx, odds, evens, 2 * le + 5, (lo - le - 2) // 4)
    raise InternalCheckError("normal-form loop failed to terminate")


def _normalize_q0_to_pairs(red: _Reducer, idx: int, offset: int) -> int:
    """Drive an isotropic class supported above `offset` to consecutive
    (odd, even) pairs starting at offset+1; returns the pair count."""
    for _ in range(6 * red.genus.g + 6):
        _check(
            not red.tracked[idx] & ((1 << offset) - 1),
            "pair normal form: support below offset",
        )
        lo, le = _parities(red, idx, 0, "pair normal form")
        if lo == le:
            _rearrange(red, idx, *_pair_slots(offset, lo))
            return lo
        if le > lo:
            _lift_evens(red, idx, offset, lo, le)
        else:
            odds, evens = _pair_slots(offset, le)
            _collapse_block(red, idx, odds, evens, offset + 2 * le + 1, (lo - le) // 4)
    raise InternalCheckError("pair normal-form loop failed to terminate")


def _peel_pairs(red: _Reducer, offset: int, n: int) -> int:
    """Erase trailing pairs one at a time while room above remains."""
    g = red.genus.g
    while n > 1 and offset + 2 * n != g:
        top = offset + 2 * n
        red.e(top - 2)
        red.d(top - 2)
        n -= 1
    return n


@dataclass(frozen=True)
class VectorReduction:
    start: H1Vector
    end: H1Vector
    moves: tuple[str, ...]
    word: str
    verified: bool

    def to_json(self) -> dict:
        return {
            "genus": self.start.genus.g,
            "start": self.start.to_text(),
            "end": self.end.to_text(),
            "word": self.word,
            "length": len(self.moves),
            "verified": self.verified,
        }


def reduce_q2_vector(a: H1Vector) -> VectorReduction:
    """Word over the standard generators carrying a form-value-2 class to
    x1+x3; replay-verified before return."""
    val = q_eval(a)
    if val != 2:
        raise ValueError(f"form value of {a.to_text()} is {val}, need 2")
    red = _Reducer(a.genus, [a])
    _normalize_q2(red, 0)
    word = red.word([a.bits], "q=2 reduction failed to replay")
    return VectorReduction(a, red.vector(0), tuple(red.moves), word, True)


def full_support_factorization(genus: Genus) -> tuple[H1Matrix, H1Matrix]:
    """The two sides of the full-support triple split, for even genus >= 6:

    T[x1+x2] T[x3+...+xg] T[x1+...+xg]
      = (T[x1+x2] T[x3+x4] T[x1+x2+x3+x4])
        (T[x1+x2] T[x5+...+xg] T[x1+x2+x5+...+xg])
    """
    g = genus.g
    if g % 2 or g < 6:
        raise ValueError(f"the split applies for even genus >= 6, got {g}")

    def triple(u: H1Vector, w: H1Vector) -> H1Matrix:
        return compose(compose(transvection(u), transvection(w)), transvection(u + w))

    x12 = H1Vector.from_indices(genus, (1, 2))
    rest = H1Vector.from_indices(genus, range(3, g + 1))
    lhs = triple(x12, rest)
    x34 = H1Vector.from_indices(genus, (3, 4))
    tail = H1Vector.from_indices(genus, range(5, g + 1))
    rhs = compose(triple(x12, x34), triple(x12, tail))
    return lhs, rhs


@dataclass(frozen=True)
class PairReduction:
    """Outcome of reducing an isotropic pair.

    branch is "generic" (pair reaches [x1+x2, x3+x4]), "full_support" (the
    flagged special configuration [x1+x2, x3+...+xg], whose triple product
    splits over the generators; the matrix identity is checked when it
    applies) or "degenerate_pair" (the two classes agree, so the third class
    of the triple vanishes).  tracked_pair names which two of a, b, a+b the
    word conjugates; the triple product is the same for any of them since
    the three transvections commute.
    """

    a: H1Vector
    b: H1Vector
    branch: str
    tracked_pair: tuple[str, str]
    moves: tuple[str, ...]
    word: str
    final_pair: tuple[H1Vector, H1Vector]
    identity_applicable: bool
    identity_holds: bool | None
    note: str
    verified: bool

    def to_json(self) -> dict:
        out = {
            "genus": self.a.genus.g,
            "a": self.a.to_text(),
            "b": self.b.to_text(),
            "branch": self.branch,
            "tracked_pair": list(self.tracked_pair),
            "word": self.word,
            "length": len(self.moves),
            "final_pair": [v.to_text() for v in self.final_pair],
            "verified": self.verified,
        }
        if self.identity_applicable:
            out["identity_holds"] = self.identity_holds
        if self.note:
            out["note"] = self.note
        return out


def reduce_isotropic_pair(a: H1Vector, b: H1Vector) -> PairReduction:
    """Conjugate an isotropic pair toward [x1+x2, x3+x4] over the standard
    generators, or flag the special branch taken.  Replay-verified."""
    if a.genus != b.genus:
        raise GenusMismatchError("pair classes must share one genus")
    if a.is_zero() or b.is_zero():
        raise ValueError("pair classes must be nonzero")
    values = (q_eval(a), q_eval(b), q_eval(a + b))
    if values != (0, 0, 0):
        raise ValueError(
            f"pair needs form values (0, 0, 0) on a, b, a+b; got {values}"
        )
    g = a.genus.g
    red = _Reducer(a.genus, [a, b])
    tracked_pair = ("a", "b")
    note = ""

    n = _normalize_q0_to_pairs(red, 0, 0)
    n = _peel_pairs(red, 0, n)
    if 2 * n == g:
        # the first class is pinned at the all-ones vector, which every
        # generator fixes; reduce the second alone, then switch to the
        # complementary pair of the triple
        all_ones = red.tracked[0]
        m = _normalize_q0_to_pairs(red, 1, 0)
        _check(red.tracked[0] == all_ones, "pair reduction: all-ones class moved")
        if m == g // 2:
            branch = "degenerate_pair"
            note = "both classes reduce to the all-ones vector"
        else:
            i = g // 2 - m
            _rearrange(red, 1, *_pair_slots(2 * i, m))
            red.tracked[0] ^= red.tracked[1]
            tracked_pair = ("a+b", "b")
            _peel_pairs(red, 0, i)
            _check(red.tracked[0] == 0b11, "pair reduction: first class is not x1+x2")
            _check(
                red.tracked[1] == (1 << g) - 4,
                "pair reduction: second class is not x3+...+xg",
            )
            branch = "full_support"
    else:
        _check(red.tracked[0] == 0b11, "pair reduction: first class is not x1+x2")
        low = red.tracked[1] & 0b11
        if low:
            # the pair classes pair to 0, so the second contains both of
            # x1, x2; swap in the third class of the triple instead
            _check(low == 0b11, "pair reduction: second class meets x1, x2 once")
            red.tracked[1] ^= red.tracked[0]
            tracked_pair = ("a", "a+b")
        if not red.tracked[1]:
            branch = "degenerate_pair"
            note = "the classes agree; the triple collapses to one transvection squared"
        else:
            k = _normalize_q0_to_pairs(red, 1, 2)
            k = _peel_pairs(red, 2, k)
            if 2 + 2 * k == g and k >= 2:
                branch = "full_support"
            else:
                branch = "generic"
                _check(red.tracked[1] == 0b1100, "pair reduction: second class is not x3+x4")

    end_pair = (red.vector(0), red.vector(1))
    src0 = a if tracked_pair[0] == "a" else a + b
    src1 = b if tracked_pair[1] == "b" else a + b
    word = red.word([src0.bits, src1.bits], "pair reduction failed to replay")

    identity_applicable = branch == "full_support" and g % 2 == 0 and g >= 6
    identity_holds = None
    if identity_applicable:
        lhs, rhs = full_support_factorization(a.genus)
        identity_holds = lhs.cols == rhs.cols
    if branch == "full_support" and g == 4:
        note = "the triple product here is itself a listed generator"
    return PairReduction(
        a=a,
        b=b,
        branch=branch,
        tracked_pair=tracked_pair,
        moves=tuple(red.moves),
        word=word,
        final_pair=end_pair,
        identity_applicable=identity_applicable,
        identity_holds=identity_holds,
        note=note,
        verified=True,
    )
