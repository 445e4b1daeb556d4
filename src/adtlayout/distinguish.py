"""Runtime distinguishability of variants: checking, tag interval search
and decision-tree derivation over per-variant bit patterns.

A pattern is the content of one scalar in one variant, held as a
`BitPattern` of integer masks in which bit i stands for 2**i, counted from
the LSB: constant bits with their values, and field bits, which hold data
and never discriminate. Every other bit is free: its value is chosen here
or by the solver. Bit positions in trees and tag intervals count from the
LSB.

Patterns print as strings, MSB first, over '0', '1', 'x' (field) and 'u'
(free). The JSON report and this module's public functions that take
`Patterns` use that view, through `parse_pattern` and `print_pattern`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple, Optional, Union

Patterns = list[list[str]]  # [variant][scalar] -> MSB-first pattern string


class BitPattern(NamedTuple):
    width: int
    const: int = 0  # bits with a fixed value
    ones: int = 0  # the constant bits that are 1
    field: int = 0  # field data bits

    @property
    def free(self) -> int:
        return ((1 << self.width) - 1) & ~(self.const | self.field)

    @property
    def nonzero(self) -> int:
        """Bits that are not constant 0."""
        return ((1 << self.width) - 1) & ~(self.const & ~self.ones)

    def fix(self, mask: int, value: int) -> BitPattern:
        """The bits in `mask` made constant, with their values from `value`."""
        return BitPattern(
            self.width, self.const | mask, (self.ones & ~mask) | (value & mask), self.field
        )


def parse_pattern(text: str) -> BitPattern:
    const = ones = field = 0
    for ch in text:
        const, ones, field = const << 1, ones << 1, field << 1
        if ch in "01":
            const |= 1
            if ch == "1":
                ones |= 1
        elif ch == "x":
            field |= 1
    return BitPattern(len(text), const, ones, field)


_DIGITS = str.maketrans("0123", "ux01")


def print_pattern(p: BitPattern) -> str:
    """Binary digits read as decimal keep their places, so each position's
    digit of 2·const + (ones | field) is 0 free, 1 field, 2 or 3 constant."""
    if not p.width:
        return ""
    digits = 2 * int(f"{p.const:b}") + int(f"{p.ones | p.field:b}")
    return str(digits).zfill(p.width).translate(_DIGITS)


class Leaf(NamedTuple):
    variant: int

    def to_json(self) -> dict:
        return {"variant": self.variant}


class Node(NamedTuple):
    scalar: int
    bit: int  # position from the LSB
    zero: "DecisionTree"
    one: "DecisionTree"

    def to_json(self) -> dict:
        return {
            "scalar": self.scalar,
            "bit": self.bit,
            "zero": self.zero.to_json(),
            "one": self.one.to_json(),
        }


DecisionTree = Union[Leaf, Node]


def tree_depth(tree: DecisionTree) -> int:
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(tree_depth(tree.zero), tree_depth(tree.one))


def classify(tree: DecisionTree, scalars: list[int]) -> int:
    """Recover the variant index from encoded scalar values."""
    node = tree
    while isinstance(node, Node):
        bit = (scalars[node.scalar] >> node.bit) & 1
        node = node.one if bit else node.zero
    return node.variant


def _parse_rows(patterns: Patterns) -> list[list[BitPattern]]:
    rows = [[parse_pattern(s) for s in p] for p in patterns]
    for row in rows:
        assert [p.width for p in row] == [p.width for p in rows[0]], (
            "patterns must share one shape"
        )
    return rows


def join_patterns(row: list[BitPattern]) -> BitPattern:
    """The patterns of `row` as one, the first lowest: a variant's scalars
    joined so that ascending bit index is (scalar, bit) order."""
    width = const = ones = field = 0
    for p in row:
        const |= p.const << width
        ones |= p.ones << width
        field |= p.field << width
        width += p.width
    return BitPattern(width, const, ones, field)


def _split(p: BitPattern, widths: list[int]) -> list[BitPattern]:
    out = []
    for w in widths:
        mask = (1 << w) - 1
        out.append(BitPattern(w, p.const & mask, p.ones & mask, p.field & mask))
        p = BitPattern(p.width - w, p.const >> w, p.ones >> w, p.field >> w)
    return out


def _viable(a: BitPattern, c: BitPattern) -> Optional[int]:
    """The positions where `a` and `c` could still be made to differ, held
    by no field and not equal constants in both; None when they already
    differ at a constant."""
    if (a.ones ^ c.ones) & a.const & c.const:
        return None
    return (a.free | c.free) & ~(a.field | c.field)


def _resolve_free_bits(
    rows: list[BitPattern], charge: Optional[Callable[[], bool]] = None
) -> Optional[bool]:
    """Complete search for an assignment of free bits making every pair of
    variants differ at a position that is constant in both. Fixes the chosen
    bits in `rows` (one joined pattern per variant) and returns True, or
    returns False when no assignment exists. Each node taken after the first
    backtrack calls `charge`; when it returns False the search stops and
    returns None.

    Branches on the unseparated pair with the fewest viable positions, the
    first such pair in (u, v) order; a pair with none is unsatisfiable
    outright, which keeps refutations from re-enumerating the other pairs'
    choices. The search is depth-first over an explicit stack, and a table
    holds every pair's viable positions: a step that fixes rows u and v
    recomputes only the pairs that touch u or v, and backtracking restores
    them."""
    n = len(rows)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    touching: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        touching[u].append(i)
        touching[v].append(i)

    def choices(a: BitPattern, c: BitPattern, cands: int):
        """The (a, c) pairs that separate them at one viable position, in
        ascending bit order, a's 0 first."""
        while cands:
            bit = cands & -cands
            cands ^= bit
            for bit_u, bit_v in ((0, bit), (bit, 0)):
                if a.const & bit and a.ones & bit != bit_u:
                    continue
                if c.const & bit and c.ones & bit != bit_v:
                    continue
                yield a.fix(bit, bit_u), c.fix(bit, bit_v)

    table = [_viable(rows[u], rows[v]) for u, v in pairs]
    # one frame per branching pair: [u, v, its rows before the step, the
    # remaining choices, the table entries the current step replaced]
    stack: list[list] = []
    first = True  # on the first descent, which is free
    while True:
        tightest: Optional[tuple[int, int]] = None  # (count, pair index)
        dead = False
        for i, cands in enumerate(table):
            if cands is None:
                continue
            if not cands:
                dead = True
                break
            count = cands.bit_count()
            if tightest is None or count < tightest[0]:
                tightest = (count, i)
        if not dead:
            if tightest is None:
                return True
            u, v = pairs[tightest[1]]
            a, c = rows[u], rows[v]
            stack.append([u, v, a, c, choices(a, c, table[tightest[1]]), None])
        # take the next choice, backtracking out of exhausted frames
        while True:
            if not stack:
                return False
            frame = stack[-1]
            u, v, a, c, pending, saved = frame
            if saved is not None:
                first = False
                rows[u], rows[v] = a, c
                for i, cands in saved:
                    table[i] = cands
            step = next(pending, None)
            if step is None:
                stack.pop()
                continue
            if not first and charge is not None and not charge():
                return None
            rows[u], rows[v] = step
            affected = touching[u] + [i for i in touching[v] if pairs[i][0] != u]
            frame[5] = [(i, table[i]) for i in affected]
            for i in affected:
                table[i] = _viable(rows[pairs[i][0]], rows[pairs[i][1]])
            break


def _inseparable_pair(rows: list[BitPattern]) -> bool:
    """True when some pair of rows has no position where they can differ:
    at each one a row holds a field or both hold the same constant. Equal
    rows are compared once; a row that occurs twice needs a free bit."""
    counts = Counter(rows)
    distinct = list(counts)
    for i, a in enumerate(distinct):
        for c in distinct[i if counts[a] > 1 else i + 1 :]:
            if _viable(a, c) == 0:
                return True
    return False


def check_distinguishable(patterns: Patterns) -> bool:
    """True iff the unassigned bits can be chosen so that every pair of
    variants differs at a bit that is constant within each: iff
    `derive_tree` finds a tree."""
    return not patterns or derive_tree(_parse_rows(patterns)) is not None


def derive_decision_tree(patterns: Patterns) -> Optional[tuple[DecisionTree, Patterns]]:
    """Choose values for unassigned bits and build a classifying tree.

    Returns (tree, patterns with the chosen bits made constant), or None
    exactly when check_distinguishable is false. Field ('x') bits route to
    both branches and are never tested while present in the live set.
    """
    derived = derive_tree(_parse_rows(patterns))
    if derived is None:
        return None
    tree, rows = derived
    return tree, [[print_pattern(p) for p in row] for row in rows]


def derive_tree(
    rows: list[list[BitPattern]], charge: Optional[Callable[[], bool]] = None
) -> Optional[tuple[DecisionTree, list[list[BitPattern]]]]:
    """`derive_decision_tree` over patterns held as masks: (tree, the rows
    with the chosen free bits made constant), or None.

    One top-down pass splits the variants and fixes free bits as it goes
    (`_build`). Where it finds no admissible split, the complete free-bit
    search runs, charging `charge` as `_resolve_free_bits` says, and the
    same pass builds the tree over its assignment; a refused charge gives
    None as well."""
    widths = [p.width for p in rows[0]]
    joined = [join_patterns(row) for row in rows]
    if _inseparable_pair(joined):
        return None
    tree = _build(joined, widths)
    if tree is None:
        if not _resolve_free_bits(joined, charge):
            return None
        tree = _build(joined, widths)
        assert tree is not None, "no admissible split despite resolved free bits"
    return tree, [_split(row, widths) for row in joined]


def _build(rows: list[BitPattern], widths: list[int]) -> Optional[DecisionTree]:
    """A tree separating `rows` (joined patterns), built top down, fixing
    in `rows` the free bits it routes; None, leaving `rows` as they were,
    when some node has no admissible split.

    At each node the untested positions fall into columns, positions of
    one scalar that look the same in every live member, and only the
    lowest position of each column is tried. A member goes where its
    constant sends it, to both sides where it holds a field, and where it
    is free, to whichever side balances the split; a 1 goes only to a
    member that it costs nothing, and members holding fields take 0 first.
    A member with no other untested position left where it can differ must
    end up alone on its side, and takes a 1 at any cost if it must. A split
    is admissible when each side is smaller than the node; the chosen one
    has the smallest larger side, then the fewest members on both sides,
    then the lowest position."""
    scalars = []  # (first position, mask) per scalar
    scalar_at: list[int] = []  # scalar index per position
    lo = 0
    for s, w in enumerate(widths):
        scalars.append((lo, ((1 << w) - 1) << lo))
        scalar_at += [s] * w
        lo += w
    full = (1 << lo) - 1
    # the rows as masks, fixed in place and written back once a tree is found
    const = [p.const for p in rows]
    ones = [p.ones for p in rows]
    field = [p.field for p in rows]

    def cheap_one(m: int, bit: int) -> bool:
        """Whether a 1 at `bit` leaves the access cost of member `m` unchanged:
        its field at offset 0 of that scalar, if any, has set bits above it."""
        lo, mask = scalars[scalar_at[bit.bit_length() - 1]]
        here = (field[m] & mask) >> lo
        run = (here ^ (here + 1)).bit_length() - 1  # the offset-0 field run
        return not here & 1 or bool(((ones[m] | field[m]) & mask) >> lo >> run)

    def route(members: list[int], bit: int, lone: list[int]) -> Optional[tuple]:
        """(key, the free members routed to 1) of the best routing at
        `bit`, or None when no routing there is admissible. `lone` lists
        the members whose last usable position is `bit`."""
        const_zeros = const_ones = dup = 0
        free: list[int] = []
        for m in members:
            if const[m] & bit:
                if ones[m] & bit:
                    const_ones += 1
                else:
                    const_zeros += 1
            elif field[m] & bit:
                dup += 1
            else:
                free.append(m)
        if lone:
            # the first lone member alone on the zero side, or on the one side
            m = lone[0]
            options = [[f for f in free if f != m], [] if const[m] & bit else [m]]
        else:
            take = (const_zeros + len(free) - const_ones) // 2
            cheap = [f for f in free if not field[f] or cheap_one(f, bit)] if take > 0 else []
            cheap.sort(key=lambda f: field[f] != 0)  # stable
            options = [cheap[:take]]
        for to_one in options:
            zero_n = const_zeros + dup + len(free) - len(to_one)
            one_n = const_ones + dup + len(to_one)
            larger = max(zero_n, one_n)
            if larger < len(members) and all(
                (one_n if ones[l] & bit or l in to_one else zero_n) == 1 for l in lone
            ) and (not lone or all(f in lone or cheap_one(f, bit) for f in to_one)):
                return (larger, dup, bit), to_one
        return None

    def node(members: list[int], used: int) -> Optional[DecisionTree]:
        if len(members) == 1:
            return Leaf(members[0])
        avail = full & ~used
        # among the untested positions, each member's constants and fields,
        # its ones and its fields cut the columns into its four kinds of
        # position; a cut made twice changes nothing
        cuts = set()
        lone: dict[int, list[int]] = {}
        for m in members:
            fixed = (const[m] | field[m]) & avail
            if fixed:
                cuts.update((fixed, ones[m] & avail, field[m] & avail))
            left = avail & ~field[m]
            if not left & (left - 1):
                lone.setdefault(left, []).append(m)
        columns = [c for c in (mask & avail for _, mask in scalars) if c]
        for cut in cuts:
            if cut:
                columns = [c for col in columns for c in (col & cut, col & ~cut) if c]
        best = None
        for col in columns:
            bit = col & -col
            found = route(members, bit, lone.get(bit, []))
            if found is not None and (best is None or found[0] < best[0]):
                best = found
        if best is None:
            return None
        (_, _, bit), to_one = best
        to_one = set(to_one)
        zero_side, one_side = [], []
        for m in members:
            if field[m] & bit:
                zero_side.append(m)
                one_side.append(m)
            elif ones[m] & bit:
                one_side.append(m)
            else:
                const[m] |= bit
                if m in to_one:
                    ones[m] |= bit
                    one_side.append(m)
                else:
                    zero_side.append(m)
        zero = node(zero_side, used | bit)
        one = node(one_side, used | bit) if zero is not None else None
        if one is None:
            return None
        s = scalar_at[bit.bit_length() - 1]
        return Node(s, bit.bit_length() - 1 - scalars[s][0], zero, one)

    tree = node(list(range(len(rows))), 0)
    if tree is not None:
        rows[:] = [BitPattern(p.width, c, o, p.field) for p, c, o in zip(rows, const, ones)]
    return tree


def shared_free_run(rows: list[list[BitPattern]], s: int, width: int) -> Optional[int]:
    """LSB offset of the lowest run of `width` bits of scalar `s` that is free
    in every variant, or None."""
    runs = -1
    for row in rows:
        runs &= row[s].free
    for _ in range(width - 1):
        runs &= runs >> 1
    return (runs & -runs).bit_length() - 1 if runs else None


def tag_width_for(n_variants: int) -> int:
    """The bits that number `n_variants` variants: ceil(log2 n), or 0."""
    return max(0, n_variants - 1).bit_length()
