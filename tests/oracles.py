"""Independent reference implementations used as oracles by the tests.

Each one deliberately re-derives its answer by a different route than the
library: flattening by textual inlining and a linear scan, distinguishability
by brute-force enumeration of every free-bit assignment, the least tree
depth by every split over every such assignment, layout scoring by
exhaustive enumeration over placement equivalence classes, dominators by a
fixed point over a full set of dominators per block, the solver's search
tables by one comprehension per table, the decision-tree pass by its
first form, which walks every live case at every node, the codec by
shifting and masking every read, whatever its read plan leaves out, and
the score by charging each read over the read plan it builds.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Optional

from adtlayout.distinguish import (
    BitPattern,
    DecisionTree,
    Leaf,
    Node,
    _inseparable_pair,
    _resolve_free_bits,
    _split,
    join_patterns,
)
from adtlayout.syntax import (
    Apply,
    BitLayout,
    Concat,
    Empty,
    FieldRef,
    PackingDecl,
    PackingExpr,
)
from adtlayout.targets import REF_PLAIN
from adtlayout.verify import SizeContext

# ---------------------------------------------------------------------------
# Reference flattening: inline applications textually, then scan the flat
# token string. Tokens: '0', '1', 'u', or (field, bit-index-from-msb).


def reference_flatten(expr: PackingExpr, ctx: SizeContext):
    tokens = _tokens(expr, ctx)
    width = len(tokens)
    assignments: dict[str, int] = {}
    pattern = []
    runs: dict[str, list[int]] = {}
    for pos, tok in enumerate(tokens):
        if isinstance(tok, tuple):
            runs.setdefault(tok[0], []).append(pos)
            pattern.append("x")
        else:
            pattern.append(tok)
    for name, positions in runs.items():
        assert positions == list(range(positions[0], positions[0] + len(positions))), (
            f"field {name} is not contiguous in the reference scan"
        )
        assignments[name] = width - positions[-1] - 1
    return assignments, "".join(pattern), width


def _resolve_letter(ch: str, gamma: dict[str, int]) -> str:
    matches = [f for f in gamma if f.startswith(ch)]
    assert len(matches) == 1, f"letter {ch} resolves to {matches}"
    return matches[0]


def _tokens(expr: PackingExpr, ctx: SizeContext):
    if isinstance(expr, Empty):
        return []
    if isinstance(expr, FieldRef):
        w = ctx.gamma[expr.name]
        return [(expr.name, i) for i in range(w)]
    if isinstance(expr, BitLayout):
        out = []
        k = 0
        bits = expr.bits
        while k < len(bits):
            ch = bits[k]
            if ch == "0" or ch == "1":
                out.append(ch)
                k += 1
            elif ch == "?":
                out.append("u")
                k += 1
            else:
                j = k
                while j < len(bits) and bits[j] == ch:
                    j += 1
                fname = _resolve_letter(ch, ctx.gamma)
                out.extend((fname, i) for i in range(j - k))
                k = j
        return out
    if isinstance(expr, Concat):
        out = []
        for p in expr.parts:
            out.extend(_tokens(p, ctx))
        return out
    if isinstance(expr, Apply):
        decl = ctx.delta[expr.name]
        body_ctx = ctx.with_gamma({n: w for n, w in decl.params})
        body = _tokens(decl.body, body_ctx)
        body = ["0"] * (decl.width - len(body)) + body
        for arg, (pname, pwidth) in zip(expr.args, decl.params):
            arg_tokens = _tokens(arg, ctx)
            arg_tokens = ["0"] * (pwidth - len(arg_tokens)) + arg_tokens
            replaced = []
            for tok in body:
                if isinstance(tok, tuple) and tok[0] == pname:
                    replaced.append(arg_tokens[tok[1]])
                else:
                    replaced.append(tok)
            body = replaced
        return body
    raise TypeError(f"unexpected expression {expr!r}")


# ---------------------------------------------------------------------------
# Random well-formed packing expressions (depth <= 4, width <= 64)

_LETTERS = "abcdefgh"


def random_context(rng: random.Random, delta: dict[str, PackingDecl]) -> SizeContext:
    n = rng.randint(1, 5)
    letters = rng.sample(_LETTERS, n)
    gamma = {ch + rng.choice(["lpha", "eta", "val", "x"]): rng.randint(1, 8) for ch in letters}
    return SizeContext(gamma=gamma, delta=delta)


def random_decls(rng: random.Random) -> dict[str, PackingDecl]:
    from adtlayout.syntax import parse_program

    decls = {}
    for i in range(rng.randint(0, 2)):
        widths = [rng.randint(1, 6) for _ in range(rng.randint(1, 2))]
        params = ", ".join(f"{_LETTERS[k]}: {w}" for k, w in enumerate(widths))
        body_bits = "".join(_LETTERS[k] * w for k, w in enumerate(widths))
        pad = rng.randint(0, 3)
        total = len(body_bits) + pad
        src = f"packing P{i}({params}): {total} = 0b_{'0' * pad}{body_bits};"
        d = parse_program(src)[0]
        decls[d.name] = d
    return decls


def random_expr(
    rng: random.Random, ctx: SizeContext, depth: int, used: set, max_width: int
) -> Optional[PackingExpr]:
    """A well-formed expression; every field is used at most once."""
    choices = ["literal", "field", "empty"]
    if depth > 0:
        choices += ["concat", "concat"]
        if ctx.delta:
            choices.append("apply")
    kind = rng.choice(choices)
    if kind == "empty":
        return Empty()
    if kind == "field":
        avail = [f for f, w in sorted(ctx.gamma.items()) if f not in used and w <= max_width]
        if not avail:
            return Empty()
        f = rng.choice(avail)
        used.add(f)
        return FieldRef(f)
    if kind == "literal":
        bits: list[str] = []
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            if r < 0.4:
                seg = [rng.choice("01?") for _ in range(rng.randint(1, 6))]
                if len(bits) + len(seg) <= max_width:
                    bits.extend(seg)
            else:
                avail = [
                    f
                    for f, w in sorted(ctx.gamma.items())
                    if f not in used and w + len(bits) <= max_width
                ]
                if avail:
                    f = rng.choice(avail)
                    used.add(f)
                    bits.extend(f[0] * ctx.gamma[f])
        if not bits:
            return Empty()
        return BitLayout(tuple(bits))
    if kind == "concat":
        parts = []
        width = 0
        for _ in range(rng.randint(1, 3)):
            p = random_expr(rng, ctx, depth - 1, used, max_width - width)
            if p is None:
                continue
            w = _width_of(p, ctx)
            if width + w > max_width:
                continue
            parts.append(p)
            width += w
        return Concat(tuple(parts))
    # apply
    name = rng.choice(sorted(ctx.delta))
    decl = ctx.delta[name]
    if decl.width > max_width:
        return Empty()
    args = []
    for pname, pwidth in decl.params:
        a = random_expr(rng, ctx, 0, used, pwidth)
        args.append(a if a is not None else Empty())
    return Apply(name, tuple(args))


def _width_of(e: PackingExpr, ctx: SizeContext) -> int:
    return reference_flatten(e, ctx)[2]


# ---------------------------------------------------------------------------
# Brute-force distinguishability


def brute_force_distinguishable(patterns: list[list[str]]) -> bool:
    """Try every assignment of 'u' bits; true iff some assignment makes all
    pairs differ at a position that is constant in both."""
    grids = [[list(s) for s in p] for p in patterns]
    free = [
        (v, s, b)
        for v in range(len(grids))
        for s in range(len(grids[v]))
        for b in range(len(grids[v][s]))
        if grids[v][s][b] == "u"
    ]
    n = len(grids)

    def separated_all() -> bool:
        for u in range(n):
            for v in range(u + 1, n):
                if not any(
                    grids[u][s][b] in "01"
                    and grids[v][s][b] in "01"
                    and grids[u][s][b] != grids[v][s][b]
                    for s in range(len(grids[u]))
                    for b in range(len(grids[u][s]))
                ):
                    return False
        return True

    for combo in itertools.product("01", repeat=len(free)):
        for (v, s, b), bit in zip(free, combo):
            grids[v][s][b] = bit
        if separated_all():
            return True
        for v, s, b in free:
            grids[v][s][b] = "u"
    return separated_all() if not free else False


def oracle_min_tree_depth(patterns: list[list[str]]) -> Optional[int]:
    """The least depth of a tree that classifies `patterns`, or None when
    none does: every assignment of the 'u' bits is tried, and for each, the
    least depth over every split at an untested position that leaves each
    side smaller, field bits going to both sides. For at most 4 variants and
    10 free bits."""
    rows = ["".join(row) for row in patterns]
    n, width = len(rows), len(rows[0])
    free = [(v, i) for v in range(n) for i in range(width) if rows[v][i] == "u"]
    assert n <= 4 and len(free) <= 10, "too large for the depth oracle"
    floor = math.ceil(math.log2(n)) if n > 1 else 0
    best: Optional[int] = None
    for combo in itertools.product("01", repeat=len(free)):
        grid = [list(r) for r in rows]
        for (v, i), bit in zip(free, combo):
            grid[v][i] = bit
        memo: dict[tuple[tuple[int, ...], int], Optional[int]] = {}

        def depth(members: tuple[int, ...], used: int) -> Optional[int]:
            if len(members) == 1:
                return 0
            if (members, used) not in memo:
                least = None
                for i in range(width):
                    if used >> i & 1:
                        continue
                    zero = tuple(m for m in members if grid[m][i] in "0x")
                    one = tuple(m for m in members if grid[m][i] in "1x")
                    if len(zero) == len(members) or len(one) == len(members):
                        continue
                    below = [depth(side, used | 1 << i) for side in (zero, one)]
                    if None not in below and (least is None or 1 + max(below) < least):
                        least = 1 + max(below)
                memo[members, used] = least
            return memo[members, used]

        got = depth(tuple(range(n)), 0)
        if got is not None and (best is None or got < best):
            best = got
            if best == floor:
                break
    return best


def enumerate_pattern_sets(max_total_bits: int = 6):
    """All pattern sets with <= 3 variants whose variant count times total
    pattern width stays within the bit budget; includes two-scalar shapes."""
    shapes = [[1], [2], [3], [1, 1], [1, 2], [2, 1]]
    for n in (1, 2, 3):
        for shape in shapes:
            width = sum(shape)
            if n * width > max_total_bits:
                continue
            cells = n * width
            for combo in itertools.product("01xu", repeat=cells):
                patterns = []
                pos = 0
                for _ in range(n):
                    row = []
                    for w in shape:
                        row.append("".join(combo[pos : pos + w]))
                        pos += w
                    patterns.append(row)
                yield patterns


# ---------------------------------------------------------------------------
# Reference decision-tree pass: the rule of `distinguish._build` over lists
# of member indices, every node walking every live member


def reference_derive_tree(
    rows: list[list[BitPattern]], charge: Optional[Callable[[], bool]] = None
) -> Optional[tuple[DecisionTree, list[list[BitPattern]]]]:
    """`distinguish.derive_tree` with `reference_build` as its pass, every
    row joined and split again whatever its scalar count."""
    widths = [p.width for p in rows[0]]
    joined = [join_patterns(row) for row in rows]
    if _inseparable_pair(joined):
        return None
    tree = reference_build(joined, widths)
    if tree is None:
        if not _resolve_free_bits(joined, charge):
            return None
        tree = reference_build(joined, widths)
        assert tree is not None, "no admissible split despite resolved free bits"
    return tree, [_split(row, widths) for row in joined]


def reference_build(rows: list[BitPattern], widths: list[int]) -> Optional[DecisionTree]:
    """`distinguish._build` as first written, over lists of member indices
    and per-row masks: a tree separating `rows` (joined patterns), built
    top down, fixing in `rows` the free bits it routes; None, leaving
    `rows` as they were, when some node has no admissible split.

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


# ---------------------------------------------------------------------------
# Exhaustive layout-score oracle (no annotations, no references, widths <= 8)
#
# Interval placements collapse into score-equivalence classes: a field's
# access cost depends only on (a) whether it sits at offset 0 and (b) whether
# any other bit of its variant's scalar word is nonzero (other fields are
# never guaranteed zero; tag bits are zero exactly for variants whose index
# is zero in the tested interval). Placing a field above offset 0 always
# costs 2 regardless of position, and stacking fields contiguously never
# fragments (sum of widths <= 64 here), so enumerating slot assignments plus
# the tag options covers every achievable score. Decision trees are omitted.
# A tree needs at least one masked-and-shifted test per level, so wherever an
# in-place explicit tag fits, it (cost <= 2, same masking effect) scores at
# least as well. Where no tag interval is free, a tree may still separate the
# variants at fewer scalars, so the oracle is exact only on shapes where no
# tree does that.


def oracle_best_score(widths_per_variant: list[list[int]]) -> tuple[int, int]:
    """Minimal (num_scalars, access + explicit-tag cost) over <= 2 data slots."""
    n = len(widths_per_variant)
    fields = [(v, w) for v, ws in enumerate(widths_per_variant) for w in ws]
    tagw = 0 if n <= 1 else max(1, math.ceil(math.log2(n)))
    best: Optional[tuple[int, int]] = None

    def consider(score: tuple[int, int]) -> None:
        nonlocal best
        if best is None or score < best:
            best = score

    if not fields:
        if n <= 1:
            return (0, 0)  # single nullary variant: no scalars at all
        return (1, 1)  # bare tag scalar: access 0, dedicated-tag cost 1

    for k in (1, 2):
        if k > len(fields):
            continue
        for assign in itertools.product(range(k), repeat=len(fields)):
            if set(assign) != set(range(k)):
                continue  # every slot used
            by_slot: dict[tuple[int, int], list[int]] = {}
            for (fv, fw), slot in zip(fields, assign):
                by_slot.setdefault((slot, fv), []).append(fw)
            if any(sum(ws) > 64 for ws in by_slot.values()):
                continue

            def field_cost(tag_slot: Optional[int], tag_at_zero: bool) -> int:
                total = 0
                for (slot, fv), ws in sorted(by_slot.items()):
                    co = len(ws)
                    tag_here = tag_slot == slot and n > 1
                    tag_bits_nonzero = tag_here and fv != 0
                    # one field can sit at offset 0 unless the tag does
                    for i, w in enumerate(sorted(ws, reverse=True)):
                        at_zero = (i == 0) and not (tag_here and tag_at_zero)
                        if not at_zero:
                            total += 2
                        elif co > 1 or tag_bits_nonzero:
                            total += 1
                return total

            if n == 1:
                consider((k, field_cost(None, False)))
                continue
            # tag inside slot s, above the fields
            for s in range(k):
                if any(sum(ws) + tagw > 64 for (slot, _), ws in by_slot.items() if slot == s):
                    continue
                cost = field_cost(s, False) + 2
                consider((k, cost))
                # tag at offset 0 of slot s (all fields there shifted up)
                cost0 = field_cost(s, True)
                tag_access = 1  # fields above are never guaranteed zero
                consider((k, cost0 + tag_access))
            # appended dedicated tag scalar
            consider((k + 1, field_cost(None, False) + 0 + 1))
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Per-variant layout-score oracle (plain unsigned fields, any scalar count)
#
# A field of `width` bits or less takes a scalar of `width` bits, a wider one
# a 64-bit scalar (x86-32's logical B64). Every field of a variant is
# assigned to a scalar of its class, independently of the other variants;
# in one scalar the fields stack from bit 0, so a variant with k fields
# there pays 0 for k = 1 and 2k - 1 for more. An in-place tag sits above the
# fields of one scalar that some variant uses, in every variant: it costs 2,
# leaves `width - tag width` bits to each variant there, and a lone field of
# a case whose index is not 0 pays 1 below it. An appended tag costs one
# scalar and 1. Trees are omitted (see oracle_best_score).


def oracle_per_variant_score(
    widths_per_variant: list[list[int]], width: int
) -> tuple[int, int]:
    """Minimal (num_scalars, access + explicit-tag cost) without trees, by
    brute force over every field-to-scalar assignment of each variant."""
    n = len(widths_per_variant)
    tagw = 0 if n <= 1 else max(1, math.ceil(math.log2(n)))
    classes = [width, 64] if width < 64 else [64]  # scalar widths; class 1 for w > width
    need = [
        max(sum(1 for w in ws if (w > width) == c) for ws in widths_per_variant)
        for c in range(len(classes))
    ]
    best: Optional[tuple[int, int]] = None
    for counts in sorted(itertools.product(*(range(k + 1) for k in need)), key=sum):
        if best is not None and sum(counts) > best[0]:
            break  # more scalars cannot score better
        kinds = [c for c, k in enumerate(counts) for _ in range(k)]
        scalars = [classes[c] for c in kinds]
        m = len(scalars)
        # per variant and tag option (None or a scalar): the least cost, and
        # the least cost among assignments that use the tag's scalar
        any_cost = [dict() for _ in range(n)]
        uses_cost = [dict() for _ in range(n)]
        for v, ws in enumerate(widths_per_variant):
            choices = [
                [s for s, c in enumerate(kinds) if (w > width) == c] for w in ws
            ]
            for assign in itertools.product(*choices):
                groups: dict[int, list[int]] = {}
                for w, s in zip(ws, assign):
                    groups.setdefault(s, []).append(w)
                if any(sum(g) > scalars[s] for s, g in groups.items()):
                    continue
                shared = sum(2 * len(g) - 1 for g in groups.values() if len(g) > 1)
                for tag in [None] + list(range(m)):
                    if tag in groups and sum(groups[tag]) > scalars[tag] - tagw:
                        continue
                    cost = shared + (v > 0 and tag in groups and len(groups[tag]) == 1)
                    for table, ok in ((any_cost, True), (uses_cost, tag in groups)):
                        if ok and cost < table[v].get(tag, math.inf):
                            table[v][tag] = cost
        if any(None not in any_cost[v] for v in range(n)):
            continue
        plain = sum(any_cost[v][None] for v in range(n))
        keys = [(m, plain) if n == 1 else (m + 1, plain + 1)]
        for tag in range(m if n > 1 else 0):
            if all(tag in any_cost[v] for v in range(n)):
                rest = sum(any_cost[v][tag] for v in range(n))
                keys += [
                    (m, rest - any_cost[v][tag] + uses_cost[v][tag] + 2)
                    for v in range(n) if tag in uses_cost[v]
                ]
        best = min([best] + keys if best else keys)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Reference dominators: every reachable block starts with all blocks as its
# dominators, and each pass intersects its predecessors' sets until nothing
# changes.


def reference_dominators(entry: str, succs: dict[str, list[str]]) -> dict[str, set[str]]:
    """The dominators of each block that `entry` reaches over `succs`, keyed
    in breadth-first order."""
    reached = [entry]
    for b in reached:
        for s in succs[b]:
            if s not in reached:
                reached.append(s)
    preds = {b: [p for p in reached if b in succs[p]] for b in reached}
    dom = {b: set(reached) for b in reached}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for b in reached[1:]:
            new = set(reached)
            for p in preds[b]:
                new &= dom[p]
            new |= {b}
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


# ---------------------------------------------------------------------------
# Reference search tables: the per-variant tables of `solver._Search`, built
# by one comprehension each over the annotated base state, with the search
# items sorted by a key and each compared with the one before it.


def reference_search_tables(adt, target) -> tuple:
    """(refs, items, free_widths, lows, highs) as `solver._Search` builds
    them for `adt` on `target`."""
    from adtlayout.solver import _apply_annotations, _bins_lower_bound, _State, _Unit

    base = _State(adt, target)
    units = _apply_annotations(base)
    entries, widths = len(base.slots), target.class_widths
    placed = set(base.placements()) | {(v, f.name) for v, _, u in units for _, f in u.fields}
    all_refs, items, free_widths = [], [], []
    lows, highs = [0] * len(widths), [0] * len(widths)
    low_bits = target.ref_tagging.free_low_bits if target.ref_tagging else 0
    for i, variant in enumerate(adt.variants):
        free = [_Unit.of(f) for f in variant.fields if (i, f.name) not in placed]
        refs = [u for u in free if u.ref]
        all_refs += [(i, u) for u in refs]
        row = [(u, j) for v, j, u in units if v == i] + [(u, None) for u in free if not u.ref]
        row.sort(key=lambda uj: (uj[1] is None, -uj[0].pattern.width))
        items.append([
            (u, j, j is None and j0 is None and (u.pattern, u.kinds) == (u0.pattern, u0.kinds))
            for (u, j), (u0, j0) in zip(row, [(None, 0)] + row)])
        plain = [u for u, j in row if j is None]
        free_widths.append([u.pattern.width for u in plain])
        by_class: dict[int, list[int]] = {}
        for u in plain + refs:
            low = low_bits if u.ref and u.ref.ref_mode == REF_PLAIN else 0
            by_class.setdefault(target.class_of[u.kinds], []).append(u.pattern.width - low)
        for c, ws in by_class.items():
            lows[c] = max(lows[c], _bins_lower_bound(ws, widths[c]) - entries)
            highs[c] += len(ws)
    return all_refs, items, free_widths, lows, highs


def read_charge(offset: int, plan) -> int:
    """A read's access cost over its read plan: 2 at an `offset` above 0 (a
    plain reference, read in place, too), 1 at offset 0 when `plan` masks,
    else 0."""
    return 2 if offset else 1 if plan.mask else 0


def reference_case_cost(search, state, v: int) -> int:
    """`solver._Search.cost` as a scan of every field of case `v`: the
    `read_charge` of the `read_plan` of each one placed so far, with the tag
    value `v` in the top bits of the search's reserved scalar."""
    from adtlayout.solver import read_plan

    total, placements = 0, state.placements()
    for f in state.adt.variants[v].fields:
        pl = placements.get((v, f.name))
        if pl is not None:
            s = state.slots[pl.slot]
            bits = s.field[v] | s.ones[v]
            if pl.slot == search.reserve:
                bits |= v << (s.width - search.tw)
            total += read_charge(pl.offset, read_plan(pl, bits))
    return total


def reference_access_cost(placements, patterns, scheme) -> int:
    """`solver._access_cost` by its plan-building form: the `read_charge` of
    the `read_plan` of every field, with an explicit tag's value bits set in
    its scalar, plus the charge of the tag's `tag_plan`, or 2 per level of
    a decision tree."""
    from adtlayout.distinguish import tree_depth
    from adtlayout.solver import ExplicitTag, TreeTag, read_plan, tag_plan

    tag = scheme if isinstance(scheme, ExplicitTag) else None
    total = 0
    for (v, _), pl in placements.items():
        p = patterns[v][pl.slot]
        bits = p.ones | p.field
        if tag is not None and pl.slot == tag.slot:
            bits |= v << tag.offset
        total += read_charge(pl.offset, read_plan(pl, bits))
    if tag is not None:
        total += read_charge(tag.offset, tag_plan(patterns, tag))
    elif isinstance(scheme, TreeTag):
        total += 2 * tree_depth(scheme.tree)
    return total


# The codec as it was before read plans: every read shifts and masks to the
# field's width, whatever the case's other bits are, so it checks each plan's
# choice to leave a shift, a mask or a sign extension out.


def reference_encode(layout, case: int, values: dict[str, int]) -> list[int]:
    """The scalar words of case `case` with field `values`, from its
    pattern's constant ones and its placements alone: each field masked to
    its width and shifted to its offset, a plain reference (an address
    aligned to its offset) stored as it is."""
    words = [p.ones for p in layout.patterns[case]]
    for f in layout.adt.variants[case].fields:
        slot, offset, width, _ = layout.placements[(case, f.name)]
        bits = values[f.name] >> offset if f.ref_mode == REF_PLAIN else values[f.name]
        words[slot] |= (bits & ((1 << width) - 1)) << offset
    return words


def reference_decode(layout, case: int, name: str, words: list[int]) -> int:
    """Field `name` of case `case` from its placement alone: shifted down,
    masked to its width, sign-extended when signed, and a plain reference's
    offset restored."""
    slot, offset, width, f = layout.placements[(case, name)]
    raw = (words[slot] >> offset) & ((1 << width) - 1)
    if f.ref_mode == REF_PLAIN:
        return raw << offset
    if f.signed and raw >> (width - 1):
        raw -= 1 << width
    return raw


def reference_tag(layout, words: list[int]) -> int:
    """An explicit tag, shifted down and masked to its width."""
    tag = layout.tag_scheme
    return (words[tag.slot] >> tag.offset) & ((1 << tag.width) - 1)
