"""Scalar and interval assignment for unboxed ADTs.

Each search item is a unit: fields at fixed offsets from its LSB plus
constant and wildcard bits; a plain field is a unit of one field, a #solve
item a unit of its own. One routine places a unit in a slot, at the offset
its #packing pins or else at the lowest offset where it fits, so fields
never split across scalars. Scoring is lexicographic: fewer scalars first,
then summed access cost plus the dedicated-tag penalty. Variants share only
the scalar vector, reference tagging and the tag, so each variant is
packed on its own by an exact search, for each scalar vector and tag option
in turn (see `solve_layout`).

Patterns are `distinguish.BitPattern` mask values, one per variant and
scalar; a solution's patterns have every free bit made constant 0. During
the search each slot keeps, per variant, masks of constant bits, of their
one bits and of annotation wildcards: bits that may hold tag bits or chosen
constants but never field data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product
from typing import Callable, NamedTuple, Optional, Union

from . import distinguish
from .distinguish import (
    BitPattern,
    DecisionTree,
    print_pattern,
    shared_free_run,
    tag_width_for,
    tree_depth,
)
from .flatten import FlattenedPacking
from .targets import (
    REF_NONE,
    REF_PLAIN,
    REF_TAGGED_WORD,
    FieldSlot,
    KindSet,
    MonoAdt,
    ScalarKind,
    Target,
)

_KIND_PREFERENCE = [
    ScalarKind.B32,
    ScalarKind.B64,
    ScalarKind.F32,
    ScalarKind.F64,
    ScalarKind.R32,
    ScalarKind.R64,
    ScalarKind.REF,
]


class AnnotationInfeasible(Exception):
    def __init__(self, adt_name: str, fields: list[str], detail: str = ""):
        msg = f"packing annotation on {adt_name} admits no layout"
        if fields:
            msg += ": conflicting fields " + ", ".join(sorted(set(fields)))
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.fields = sorted(set(fields))


# ---------------------------------------------------------------------------
# Solution model


class Score(NamedTuple):
    num_scalars: int
    access_cost: int
    explicit_tag_cost: int

    def key(self) -> tuple[int, int]:
        return (self.num_scalars, self.access_cost + self.explicit_tag_cost)


class SingleVariant(NamedTuple):
    """No tag: one case. An empty tuple, so never tested for truth."""

    kind_name = "single-variant"
    dedicated = False


class ExplicitTag(NamedTuple):
    slot: int
    offset: int
    width: int
    dedicated: bool

    @property
    def kind_name(self) -> str:
        """"bare-tag" for a dedicated tag in scalar 0, the only scalar when
        every variant is nullary; "explicit-tag" otherwise."""
        return "bare-tag" if self.dedicated and self.slot == 0 else "explicit-tag"


class TreeTag(NamedTuple):
    tree: DecisionTree
    kind_name = "decision-tree"
    dedicated = False


TagScheme = Union[SingleVariant, ExplicitTag, TreeTag]


class ScalarSlot(NamedTuple):
    kind: ScalarKind
    kinds: KindSet
    width: int
    ref_bearing: bool = False

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "width": self.width, "ref": self.ref_bearing}


class Placement(NamedTuple):
    slot: int
    offset: int
    width: int  # occupied interval width; a tagged reference spans word-free bits
    field: FieldSlot


# a dataclass: the search sets `steps_used` and `finished` after construction
@dataclass
class LayoutSolution:
    adt: MonoAdt
    target: Target
    slots: list[ScalarSlot]
    placements: dict[tuple[int, str], Placement]  # (variant, field name)
    patterns: list[list[BitPattern]]  # [variant][slot]
    tag_scheme: TagScheme
    score: Score
    steps_used: int = 0
    # False when the step budget cut a search short, so a better layout
    # may exist; True when every search ran out of nodes or met its bound
    finished: bool = True

    def used_width(self, slot_index: int) -> int:
        return max([1] + [row[slot_index].nonzero.bit_length() for row in self.patterns])

    def placement_of(self, variant: int, name: str) -> Placement:
        return self.placements[(variant, name)]

    def to_json(self) -> dict:
        variants = []
        for i, v in enumerate(self.adt.variants):
            fields = {}
            for f in v.fields:
                pl = self.placements[(i, f.name)]
                fields[f.name] = {"scalar": pl.slot, "offset": pl.offset, "width": pl.width}
            patterns = [print_pattern(p) for p in self.patterns[i]]
            variants.append({"name": v.name, "patterns": patterns, "fields": fields})
        scheme: dict[str, object] = {"kind": self.tag_scheme.kind_name}
        if isinstance(self.tag_scheme, ExplicitTag):
            scheme["scalar"] = self.tag_scheme.slot
            scheme["width"] = self.tag_scheme.width
            scheme["offset"] = self.tag_scheme.offset
        if isinstance(self.tag_scheme, TreeTag):
            scheme["tree"] = self.tag_scheme.tree.to_json()
        return {
            "adt": self.adt.name,
            "scalars": [s.to_json() for s in self.slots],
            "variants": variants,
            "tag_scheme": scheme,
            "score": {
                "scalars": self.score.num_scalars,
                "access_cost": self.score.access_cost,
                "explicit_tag_cost": self.score.explicit_tag_cost,
            },
            "steps": self.steps_used,
        }


# ---------------------------------------------------------------------------
# Mutable search state


class _Slot:
    def __init__(
        self,
        index: int,
        width: int,
        kinds: Optional[KindSet],
        n_variants: int,
        tags: Optional[tuple[BitPattern, BitPattern]],
    ):
        self.index = index
        self.width = width
        self.kinds = kinds  # None until the first field constrains it
        # per variant: constant bits, their one bits, annotation wildcards
        # and field bits
        self.const = [0] * n_variants
        self.ones = [0] * n_variants
        self.wild = [0] * n_variants
        self.field = [0] * n_variants
        self.ref_variants: set[int] = set()
        self.tags = tags  # (reference, value) low-bit patterns, or None
        self.tagged = False

    def copy(self) -> _Slot:
        """A copy that shares no mutable part with this slot."""
        out = object.__new__(_Slot)
        out.__dict__ = {
            **self.__dict__, "const": self.const[:], "ones": self.ones[:], "wild": self.wild[:],
            "field": self.field[:], "ref_variants": set(self.ref_variants),
        }
        return out

    def reserved(self, v: int) -> int:
        out = self.const[v] | self.wild[v] | self.field[v]
        if self.tagged:
            ref, value = self.tags
            out |= (ref if v in self.ref_variants else value).const
        return out

    def clashes(self, v: int, const: int, ones: int) -> bool:
        """True when a bit of `const` holds a field or a different constant."""
        return bool(const & (self.field[v] | (self.const[v] & (self.ones[v] ^ ones))))

    def add_consts(self, v: int, const: int, ones: int, wild: int = 0) -> None:
        """Make the bits of `const` constant, valued as in `ones`, and mark
        the bits of `wild` that are not constant as wildcards."""
        self.const[v] |= const
        self.ones[v] = (self.ones[v] & ~const) | ones
        self.wild[v] = (self.wild[v] | wild) & ~self.const[v]

    def offsets(self, v: int, unit: _Unit) -> int:
        """The offsets at which `unit` fits variant `v`, as a mask with bit i
        set for offset i: its field bits meet no reserved bit, its wildcards
        no field bit, and its constants no field bit and no constant of the
        other value."""
        room = self.width - unit.pattern.width
        if room < 0:
            return 0
        blocked = _overlaps(self.reserved(v), unit.field_runs)
        if unit.other_runs is not None:
            wild_runs, one_runs, zero_runs = unit.other_runs
            field, const = self.field[v], self.const[v]
            ones = self.ones[v] & const
            blocked |= (
                _overlaps(field, wild_runs)
                | _overlaps(field | (const & ~ones), one_runs)
                | _overlaps(field | ones, zero_runs)
            )
        return ~blocked & ((2 << room) - 1)


def _runs(bits: int) -> tuple[tuple[int, int], ...]:
    """The (lsb, length) of each run of set bits, from the LSB."""
    out = []
    while bits:
        low = (bits & -bits).bit_length() - 1
        run = bits >> low
        n = (run ^ (run + 1)).bit_length() - 1
        out.append((low, n))
        bits ^= ((1 << n) - 1) << low
    return tuple(out)


def _overlaps(mask: int, runs: tuple[tuple[int, int], ...]) -> int:
    """The offsets, as a mask, at which bits in `runs` shifted left meet
    `mask`: the OR of `mask >> b` over the bits b, by doubling shifts."""
    out = 0
    for low, n in runs:
        smear, covered = mask, 1
        while covered * 2 <= n:
            smear |= smear >> covered
            covered *= 2
        if covered < n:
            smear |= smear >> (n - covered)
        out |= smear >> low
    return out


# What one placement can change, as it was before: the slot, the variant,
# the slot's kinds, the variant's masks (const, ones, wild, field), whether
# the variant held a reference there and whether the slot was tagged; and
# the placements it added.
_Undo = tuple[_Slot, int, Optional[KindSet], tuple[int, ...], bool, bool, list[Placement]]


class _Unit(NamedTuple):
    """One search item, placed contiguously in one slot: fields at fixed
    relative offsets plus constant and wildcard bits. A #solve item may
    hold several fields or none; a plain field is a unit of its own. The
    offset search shifts the runs of the pattern's field bits, and of its
    wildcards, constant ones and constant zeros (`other_runs`, None when it
    has neither wildcards nor constants)."""

    fields: tuple[tuple[int, FieldSlot], ...]  # (relative offset, field)
    pattern: BitPattern  # its free bits are wildcards
    kinds: KindSet
    ref: Optional[FieldSlot]  # the field, when a lone reference
    field_runs: tuple[tuple[int, int], ...]
    other_runs: Optional[tuple[tuple[tuple[int, int], ...], ...]]

    @staticmethod
    def of(f: FieldSlot) -> _Unit:
        ref, w = (None if f.ref_mode == REF_NONE else f), f.width
        return _Unit(((0, f),), BitPattern(w, 0, 0, (1 << w) - 1), f.kinds, ref, ((0, w),), None)

    @staticmethod
    def item(fields: tuple[tuple[int, FieldSlot], ...], p: BitPattern, kinds: KindSet) -> _Unit:
        other = (_runs(p.free), _runs(p.ones), _runs(p.const & ~p.ones)) if (
            p.const or p.free) else None
        return _Unit(fields, p, kinds, None, _runs(p.field), other)

    def names(self) -> list[str]:
        return [f.name for _, f in self.fields]


class _State:
    def __init__(self, adt: MonoAdt, target: Target):
        self.adt = adt
        self.target = target
        self.n = len(adt.variants)
        self.slots: list[_Slot] = []
        self.placements: dict[tuple[int, str], Placement] = {}
        tagging = target.ref_tagging
        self.tags = None if tagging is None else (tagging.ref_pattern, tagging.value_pattern)

    def copy(self) -> _State:
        """A copy whose slots and placements this state does not share."""
        out = object.__new__(_State)
        out.__dict__ = {
            **self.__dict__, "slots": list(map(_Slot.copy, self.slots)),
            "placements": dict(self.placements),
        }
        return out

    def new_slot(self, width: int, kinds: Optional[KindSet]) -> _Slot:
        s = _Slot(len(self.slots), width, kinds, self.n, self.tags)
        self.slots.append(s)
        return s

    def place(
        self, v: int, unit: _Unit, slot: _Slot, offset: Optional[int] = None
    ) -> Optional[_Undo]:
        """Place `unit` for variant `v` in `slot`, at `offset` when given and
        else at the lowest offset where it fits. A lone reference goes where
        the target's tagging puts references, whatever `offset` says. Returns
        how to undo it, or None when it does not fit."""
        if slot.kinds is None:
            new_kinds = unit.kinds
            if self.target.kind_width(new_kinds) != slot.width:
                return None
        else:
            new_kinds = slot.kinds & unit.kinds
            if not new_kinds:
                return None
        added: list[Placement] = []
        masks = (slot.const[v], slot.ones[v], slot.wild[v], slot.field[v])
        undo = (slot, v, slot.kinds, masks, v in slot.ref_variants, slot.tagged, added)
        if unit.ref is not None:
            # the tagging fixes a reference's offset and width
            placed = self._place_ref(slot, v, unit.ref)
            if placed is None:
                return None
            offset, ref_width = placed
        else:
            if slot.ref_variants and self.tags is None:
                return None  # a reference-only scalar
            fits = slot.offsets(v, unit)
            if offset is not None:
                fits &= 1 << offset
            if not fits:
                return None
            offset, ref_width = (fits & -fits).bit_length() - 1, None
            if unit.other_runs is not None:
                p = unit.pattern
                slot.add_consts(v, p.const << offset, p.ones << offset, p.free << offset)
        for rel, f in unit.fields:
            pl = Placement(slot.index, offset + rel, ref_width or f.width, f)
            slot.field[v] |= ((1 << pl.width) - 1) << pl.offset
            self.placements[(v, f.name)] = pl
            added.append(pl)
        slot.kinds = new_kinds
        return undo

    def _place_ref(self, slot: _Slot, v: int, f: FieldSlot) -> Optional[tuple[int, int]]:
        tagging = self.target.ref_tagging
        if v in slot.ref_variants or f.width != slot.width:
            return None
        if tagging is None:
            # a reference-only scalar: no constants, wildcards or fields
            # outside the variants that already hold a reference here
            if any(slot.const) or any(slot.wild) or any(
                m for w, m in enumerate(slot.field) if w not in slot.ref_variants
            ):
                return None
            slot.ref_variants.add(v)
            return (0, slot.width)
        ref, value = self.tags
        free = tagging.free_low_bits
        if f.ref_mode == REF_TAGGED_WORD:
            offset, width = 0, slot.width
        else:
            offset, width = free, slot.width - free
        if slot.reserved(v) & (((1 << width) - 1) << offset):
            return None
        if f.ref_mode == REF_PLAIN and slot.clashes(v, ref.const, ref.ones):
            return None
        # other variants' content must stay value-tagged
        for w in range(self.n):
            if w == v or w in slot.ref_variants:
                continue
            if slot.clashes(w, value.const, value.ones):
                return None
        slot.tagged = True
        slot.ref_variants.add(v)
        if f.ref_mode == REF_PLAIN:
            slot.add_consts(v, ref.const, ref.ones)
        return (offset, width)

    def unplace(self, undo: _Undo) -> None:
        slot, v, kinds, masks, is_ref, tagged, added = undo
        for pl in added:
            del self.placements[(v, pl.field.name)]
        slot.kinds = kinds
        slot.const[v], slot.ones[v], slot.wild[v], slot.field[v] = masks
        if not is_ref:
            slot.ref_variants.discard(v)
        slot.tagged = tagged

    # -- pattern assembly --

    def build_patterns(self) -> list[list[BitPattern]]:
        out: list[list[BitPattern]] = []
        for v in range(self.n):
            row: list[BitPattern] = []
            for slot in self.slots:
                if slot.ref_variants and self.tags is None:
                    # reference-only scalar: opaque pointer or null
                    full = (1 << slot.width) - 1
                    if v in slot.ref_variants:
                        row.append(BitPattern(slot.width, field=full))
                    else:
                        row.append(BitPattern(slot.width, const=full))
                    continue
                p = BitPattern(slot.width, slot.const[v], slot.ones[v], slot.field[v])
                if slot.tagged and v not in slot.ref_variants:
                    value = self.tags[1]
                    p = p.fix(value.const, value.ones)
                row.append(p)
            out.append(row)
        return out


# ---------------------------------------------------------------------------
# Completion and scoring


@lru_cache(maxsize=256)  # one entry per set of scalar kinds and flag
def _pick_kind(kinds: KindSet, ref_bearing: bool) -> ScalarKind:
    order = [k for k in _KIND_PREFERENCE if k in kinds]
    if ref_bearing:
        refs = [k for k in order if k.ref_capable]
        if refs:
            return refs[0]
    return order[0]


def _freeze_slots(state: _State) -> list[ScalarSlot]:
    out = []
    for s in state.slots:
        kinds = s.kinds if s.kinds is not None else state.target.kinds_for_int(32)
        ref = bool(s.ref_variants)
        out.append(ScalarSlot(_pick_kind(kinds, ref), kinds, s.width, ref))
    return out


def read_mask(bits: int, offset: int, width: int, plain_ref: bool = False) -> int:
    """The mask that reading `width` bits at `offset` needs, or 0, given the
    scalar's set bits (constant ones, field bits) in each case the read may
    see: a field, shifted down, needs one when a bit above it is set, and a
    plain reference, read in place, when one outside it is (alike at offset 0)."""
    field = (1 << width) - 1
    if plain_ref:
        return field << offset if bits & ~(field << offset) else 0
    return field if bits >> (offset + width) else 0


def read_cost(bits: int, offset: int, width: int) -> int:
    """The access cost of reading `width` bits at `offset` of a scalar with
    `bits` set: 2 for a shifted read, 1 for a read at offset 0 that
    `read_mask` masks, 0 for a read that is the scalar itself."""
    return 2 if offset else 1 if read_mask(bits, 0, width) else 0


def _tag_bits(patterns: list[list[BitPattern]], tag: ExplicitTag) -> int:
    """The set bits of an explicit tag's scalar in every case."""
    bits = 0
    for row in patterns:
        bits |= row[tag.slot].ones | row[tag.slot].field
    return bits


def tag_read_mask(patterns: list[list[BitPattern]], tag: ExplicitTag) -> int:
    """`read_mask` of an explicit tag, which reads every case."""
    return read_mask(_tag_bits(patterns, tag), tag.offset, tag.width)


def _access_cost(
    placements: dict[tuple[int, str], Placement],
    patterns: list[list[BitPattern]],
    scheme: TagScheme,
) -> int:
    """Summed `read_cost` of every field and of an explicit tag, plus 2 per
    decision-tree level. Free bits read as 0, so the patterns may be taken
    before or after their free bits are fixed; an explicit tag's value bits
    count as set, so they may also be taken before the tag is written, and a
    dedicated tag's scalar, which holds nothing else, before it is added."""
    tag = scheme if isinstance(scheme, ExplicitTag) else None
    access = 0
    for (v, _), pl in placements.items():
        p = patterns[v][pl.slot]
        bits = p.ones | p.field
        if tag is not None and pl.slot == tag.slot:
            bits |= v << tag.offset
        access += read_cost(bits, pl.offset, pl.width)
    if tag is not None:
        bits = 0 if tag.dedicated else _tag_bits(patterns, tag)
        access += read_cost(bits, tag.offset, tag.width)
    elif isinstance(scheme, TreeTag):
        access += 2 * tree_depth(scheme.tree)
    return access


def score_layout(
    n_scalars: int,
    placements: dict[tuple[int, str], Placement],
    patterns: list[list[BitPattern]],
    scheme: TagScheme,
) -> Score:
    """The score of `placements` in `patterns` tagged by `scheme`, over
    `n_scalars` scalars, a dedicated tag's own scalar included."""
    access = _access_cost(placements, patterns, scheme)
    return Score(n_scalars, access, int(scheme.dedicated))


def _tag_in_place(rows: list[list[BitPattern]], s: int, offset: int, width: int):
    """The rows with the variant index written into `width` bits of scalar
    `s` at `offset`."""
    mask = ((1 << width) - 1) << offset
    return [row[:s] + [row[s].fix(mask, v << offset)] + row[s + 1 :] for v, row in enumerate(rows)]


# a tagging completion: (score, scheme, patterns), the patterns before an
# explicit tag is written and with a tree's free bits resolved
Candidate = tuple[Score, TagScheme, list[list[BitPattern]]]


def _candidate(state: _State, rows: list[list[BitPattern]], scheme: TagScheme) -> Candidate:
    """`state` completed by `scheme` over `rows`, with its score."""
    n_scalars = len(state.slots) + scheme.dedicated
    return score_layout(n_scalars, state.placements, rows, scheme), scheme, rows


def _solution(state: _State, cand: Candidate) -> LayoutSolution:
    """The solution of `state` completed by `cand`, with its score, plus the
    tag scalar when the tag is dedicated. Its free bits are made constant 0."""
    score, scheme, patterns = cand
    slots = _freeze_slots(state)
    if scheme.dedicated:
        kinds = state.target.kinds_for_int(scheme.width)
        slots.append(ScalarSlot(_pick_kind(kinds, False), kinds, scheme.width))
        patterns = [row + [BitPattern(scheme.width)] for row in patterns]
    if isinstance(scheme, ExplicitTag):
        patterns = _tag_in_place(patterns, scheme.slot, scheme.offset, scheme.width)
    return LayoutSolution(
        adt=state.adt,
        target=state.target,
        slots=slots,
        placements=dict(state.placements),
        patterns=[[p.fix(p.free, 0) for p in row] for row in patterns],
        tag_scheme=scheme,
        score=score,
    )


def _candidates(
    state: _State, best_key=None, charge: Optional[Callable[[], bool]] = None
) -> list[Candidate]:
    """The tagging completions of a fully-assigned state, each with its
    score, ordered by preference: in-place explicit tag, decision tree,
    appended tag scalar. Candidates provably unable to beat `best_key` may
    be omitted. A tree's complete free-bit search is charged to `charge`
    (see `distinguish.derive_tree`); when the charge is refused the state
    gets no tree."""
    n, m = state.n, len(state.slots)
    base = state.build_patterns()
    if n == 1:
        return [_candidate(state, base, SingleVariant())]
    results: list[Candidate] = []

    tw = tag_width_for(n)
    for s in range(m):
        found = shared_free_run(base, s, tw)
        if found is not None:
            results.append(_candidate(state, base, ExplicitTag(s, found, tw, dedicated=False)))

    # the field cost before tagging, which the tree and appended-tag bounds
    # read: taken once, and only when one of them is compared
    untagged = cache(lambda: _access_cost(state.placements, base, SingleVariant()))

    # A classification tree costs at least 2 per level and needs ceil(log2 n)
    # levels. With two variants a tree is not tried once an in-place tag was
    # found, though it can be cheaper: a one-node tree may set its bit in
    # case 0 rather than above case 1's offset-0 field, saving one access
    # unit. The tag is kept so that case 0 has its tag bits 0, and an
    # all-zero value is case 0 (an option's nullary case).
    have = min(
        [score.key() for score, _, _ in results] + ([best_key] if best_key is not None else []),
        default=None,
    )
    dominated = (n == 2 and results) or (have is not None and have <= (m, untagged() + 2 * tw))
    if not dominated:
        derived = distinguish.derive_tree(base, charge)
        if derived is not None:
            tree, resolved = derived
            results.append(_candidate(state, resolved, TreeTag(tree)))

    # an appended tag costs an extra scalar, so any same-slot-count candidate
    # beats it; offer it only as the fallback
    if not results and (best_key is None or best_key > (m + 1, untagged() + 1)):
        scheme = ExplicitTag(m, 0, tw, True)
        results.append(_candidate(state, base, scheme))
    return results


def _complete(
    state: _State, best_key=None, charge: Optional[Callable[[], bool]] = None
) -> Optional[LayoutSolution]:
    """The solution for the first candidate with the smallest key, or None
    when no candidate's key is below `best_key`. Only that candidate is
    built; the others are judged by key alone."""
    pick: Optional[Candidate] = None
    for cand in _candidates(state, best_key, charge):
        key = cand[0].key()
        if best_key is None or key < best_key:
            best_key, pick = key, cand
    return None if pick is None else _solution(state, pick)


# ---------------------------------------------------------------------------
# Annotation preprocessing


def _annotation_width_class(target: Target, pattern_width: int) -> int:
    if pattern_width <= 32 and target.kind_width(target.kinds_for_int(32)) == 32:
        return 32
    return 64


def _apply_annotations(state: _State) -> list[tuple[int, int, _Unit]]:
    """Open a slot per #packing entry, write the entries' constants and
    wildcards, and place the fields they pin. Returns the #solve units as
    (variant, slot index, unit)."""
    adt = state.adt
    units: list[tuple[int, int, _Unit]] = []
    if adt.packing is None:
        return units
    pins: dict[tuple[int, str], tuple[int, int]] = {}  # field -> (slot, offset)
    n_entries = max(
        (len(entries) for entries in adt.packing if entries is not None), default=0
    )
    widths = [32] * n_entries
    for entries in adt.packing:
        if entries is None:
            continue
        for j, e in enumerate(entries):
            widths[j] = max(widths[j], _annotation_width_class(state.target, e.width))
    for j in range(n_entries):
        state.new_slot(widths[j], None)
    for v, entries in enumerate(adt.packing):
        if entries is None:
            continue
        variant = adt.variants[v]
        for j, entry in enumerate(entries):
            slot = state.slots[j]
            if isinstance(entry, FlattenedPacking):
                p = entry.pattern
                slot.add_consts(v, p.const, p.ones, p.free)
                for fname, off in entry.assignments.items():
                    pins[(v, fname)] = (j, off)
            else:
                for item in entry.items:
                    fields = [(rel, variant.field_named(name)) for name, rel in item.assignments.items()]
                    kinds = None if fields else state.target.kinds_for_int(32)
                    for _, f in fields:
                        if f.ref_mode != REF_NONE:
                            raise AnnotationInfeasible(
                                adt.name, [f.name], "reference fields cannot be packed by #solve"
                            )
                        kinds = f.kinds if kinds is None else (kinds & f.kinds)
                    if not kinds:
                        raise AnnotationInfeasible(
                            adt.name, list(item.assignments), "no common scalar kind"
                        )
                    fields.sort(key=lambda rf: rf[0])
                    units.append((v, j, _Unit.item(tuple(fields), item.pattern, kinds)))
    for i, variant in enumerate(adt.variants):
        for f in variant.fields:
            pin = pins.get((i, f.name))
            if pin is None:
                continue
            j, off = pin
            if state.place(i, _Unit.of(f), state.slots[j], off) is None:
                raise AnnotationInfeasible(adt.name, [f.name], f"pinned at scalar {j} bit {off}")
    return units


# ---------------------------------------------------------------------------
# Entry points


def trivial_layout(adt: MonoAdt, target: Target) -> LayoutSolution:
    """One scalar per field per variant plus a dedicated tag scalar (for
    more than one variant). A score baseline; ignores packings."""
    bare = adt._replace(packing=None)
    state = _State(bare, target)
    for i, variant in enumerate(bare.variants):
        for f in variant.fields:
            slot = state.new_slot(target.kind_width(f.kinds), None)
            undo = state.place(i, _Unit.of(f), slot)
            assert undo is not None, f"trivial placement failed for {f.name}"
    m = len(state.slots)
    scheme = SingleVariant() if state.n == 1 else ExplicitTag(m, 0, tag_width_for(state.n), True)
    return _solution(state, _candidate(state, state.build_patterns(), scheme))


def solve_layout(adt: MonoAdt, target: Target, budget: int = 10_000) -> LayoutSolution:
    """Best-scoring layout found within the step budget.

    For each scalar count from a bin-packing lower bound up, each split of
    the fresh scalars among kind classes, and each tag option (none, or the
    top tag bits of one scalar kept free in every variant), references go
    first fit, each variant is packed by a depth-first search cut by a
    lower bound on its cost, and the state is completed with an in-place
    tag, a decision tree or an appended tag. The first count that admits a
    layout ends the search, and so does a layout whose key is the least any
    layout at the current count can have. A step is a placement made after
    a variant's search first backtracks, or a node of a tree's complete
    free-bit search after it first backtracks, so every budget gives at
    least a first-fit layout; `finished` is False when the budget cut a
    search. Deterministic in (adt, target, budget). An annotated ADT with
    no feasible layout raises AnnotationInfeasible.
    """
    return _Search(adt, target, budget).run()


def _bins_lower_bound(widths: list[int], width: int) -> int:
    """Scalars of `width` bits that `widths` need at least (Martello and
    Toth's L2 at k = 1): one per item wider than half a scalar, and whole
    scalars for the bits beyond the room those leave."""
    big = [w for w in widths if 2 * w > width]
    return len(big) + max(0, -(-(sum(widths) - width * len(big)) // width))


class _Search:
    """An attempt fixes how many fresh scalars each kind class may open
    (`quota`) and the scalar whose top tag bits stay free (`reserve`). The
    #packing scalars, their constants and the fields they pin are set up
    once, in `base`, which each attempt copies."""

    def __init__(self, adt: MonoAdt, target: Target, budget: int):
        self.adt, self.target, self.budget, self.n = adt, target, budget, len(adt.variants)
        self.tw = tag_width_for(self.n)
        self.steps, self.finished = 0, True
        self.failures: set[str] = set()  # #solve units that did not fit their scalar
        self.widths = target.class_widths
        self.base = _State(adt, target)
        units = _apply_annotations(self.base)
        self.entries = len(self.base.slots)
        placed = set(self.base.placements) | {(v, name) for v, _, u in units for name in u.names()}
        # the free references as (variant, unit); per variant: the keys of
        # its placements, its search items (unit, restricted scalar, whether
        # it is a free field equal to the one before, which then starts at
        # that one's scalar so that equal fields are tried in one order):
        # #solve units, then free fields, each in descending width; and the
        # free fields' widths, which end its items
        self.keys, self.refs, self.items, self.free_widths = [], [], [], []
        self.lows, self.highs = [0] * len(self.widths), [0] * len(self.widths)
        low_bits = target.ref_tagging.free_low_bits if target.ref_tagging else 0
        for i, variant in enumerate(adt.variants):
            self.keys.append([(i, f.name) for f in variant.fields])
            free = [_Unit.of(f) for f in variant.fields if (i, f.name) not in placed]
            refs = [u for u in free if u.ref]
            self.refs += [(i, u) for u in refs]
            row = [(u, j) for v, j, u in units if v == i] + [(u, None) for u in free if not u.ref]
            row.sort(key=lambda uj: (uj[1] is None, -uj[0].pattern.width))  # stable
            self.items.append([
                (u, j, j is None and j0 is None and (u.pattern, u.kinds) == (u0.pattern, u0.kinds))
                for (u, j), (u0, j0) in zip(row, [(None, 0)] + row)])  # (u0, j0) is the one before
            plain = [u for u, j in row if j is None]
            self.free_widths.append([u.pattern.width for u in plain])
            by_class: dict[int, list[int]] = {}
            for u in plain + refs:
                # a plain reference leaves the tagging's low bits to others
                low = low_bits if u.ref and u.ref.ref_mode == REF_PLAIN else 0
                by_class.setdefault(target.class_of[u.kinds], []).append(u.pattern.width - low)
            for c, ws in by_class.items():
                self.lows[c] = max(self.lows[c], _bins_lower_bound(ws, self.widths[c]) - self.entries)
                # a reference needs a scalar whose bit 0 holds no field of
                # another variant, so only one scalar per item surely suffices
                self.highs[c] += len(ws)

    def run(self) -> LayoutSolution:
        best = self.search()
        if best is None:
            cut = "" if self.finished else "the step budget ran out first"
            raise AnnotationInfeasible(self.adt.name, list(self.failures), cut)
        best.steps_used, best.finished = self.steps, self.finished
        return best

    def search(self) -> Optional[LayoutSolution]:
        """The best layout of the attempts, or None when none fits."""
        best: Optional[LayoutSolution] = None
        key = None  # best's score key
        # a tag's least cost: in an unannotated ADT some variant holds a field
        # or a reference tag at bit 0 of every scalar, so a tag is shifted
        tag_cost = 0 if self.n == 1 else 1 if self.adt.packing is not None else 2
        ranges = [range(lo, hi + 1) for lo, hi in zip(self.lows, self.highs)]
        for m in range(self.entries + sum(self.lows), self.entries + sum(self.highs) + 1):
            for quota in product(*ranges):
                if sum(quota) != m - self.entries:
                    continue
                floor = None  # the cost with no reservation, which no reservation beats
                for reserve in [None] + list(range(m if self.n > 1 else 0)):
                    if key is not None and key <= (m, tag_cost):
                        return best  # no layout from count m on has a smaller key
                    if floor is not None and key is not None and (m, floor + tag_cost) >= key:
                        break
                    state, cost = self.attempt(quota, reserve)
                    if state is None and reserve is None:
                        break  # a reservation only narrows the packings
                    if reserve is None:
                        floor = cost
                    # a state with fewer scalars was tried at its own count
                    if state is not None and len(state.slots) == m and (
                            key is None or (m, cost + tag_cost) < key):
                        best = _complete(state, key, self.charge) or best
                        key = best.score.key() if best is not None else None
        return best

    def charge(self) -> bool:
        """Take one step of the budget for the free-bit search of a tree;
        False, and the search not finished, once the budget is spent."""
        if self.steps < self.budget:
            self.steps += 1
            return True
        self.finished = False
        return False

    def attempt(self, quota: list[int], reserve: Optional[int]) -> tuple[Optional[_State], int]:
        """Every variant's references placed first fit, then each variant
        packed: (state, summed cost), or (None, 0) when one does not fit."""
        self.quota, self.reserve, self.opened = quota, reserve, [0] * len(quota)
        state = self.base.copy()
        if reserve is not None and reserve < len(state.slots):
            self.keep_tag_free(state.slots[reserve])
        if self.refs and not all(self.fit(state, v, u, None, 0) for v, u in self.refs):
            return None, 0
        total = 0
        for v in range(self.n):
            cost = self.pack(state, v)
            if cost is None:
                return None, 0
            total += cost
        return state, total

    def keep_tag_free(self, slot: _Slot) -> None:
        for v in range(self.n):
            slot.add_consts(v, 0, 0, ((1 << self.tw) - 1) << (slot.width - self.tw))

    def cost(self, state: _State, v: int) -> int:
        """`_access_cost` of `v`'s placements so far, with the tag value `v`
        in the top bits of the reserved scalar."""
        total = 0
        for key in self.keys[v]:
            pl = state.placements.get(key)
            if pl is not None:
                s = state.slots[pl.slot]
                bits = s.field[v] | s.ones[v]
                if pl.slot == self.reserve:
                    bits |= v << (s.width - self.tw)
                total += read_cost(bits, pl.offset, pl.width)
        return total

    def bound(self, state: _State, v: int, i: int) -> Optional[int]:
        """A lower bound on the cost of variant `v` once all its items are
        placed, given the first `i`; None when its free fields cannot fit. A
        free field costs 0 alone in a scalar whose bit 0 `v` leaves free, 1
        at the bottom of one it shares, and 2 elsewhere; as many of the
        largest stay alone as leave the others room (Martello and Toth's L1
        over the room left)."""
        free = self.free_widths[v]
        widths = free[max(0, i - len(self.items[v]) + len(free)):]
        if not widths:
            return self.cost(state, v)
        used, empty = 0, []
        for s in state.slots:
            if not (s.ref_variants and state.tags is None):  # not a reference-only scalar
                reserved = s.reserved(v)
                room = s.width - reserved.bit_count()
                if reserved & 1:
                    used += room
                else:
                    empty.append(room)
        fresh = [self.widths[c] for c, q in enumerate(self.quota) for _ in range(q - self.opened[c])]
        if fresh and self.reserve is not None and self.reserve >= len(state.slots):
            # the reserved scalar is a fresh one: a state that never opens it is not kept
            fresh[fresh.index(min(fresh))] -= self.tw
        empty = sorted(empty + fresh)
        lone = min(len(widths), len(empty))
        while sum(widths[lone:]) > used + sum(empty[lone:]):
            if not lone:
                return None
            lone -= 1
        rest = len(widths) - lone
        # with a lone field in every such scalar, one is below the tag
        tag_scalar_empty = self.reserve is not None and (
            self.reserve >= len(state.slots) or not state.slots[self.reserve].reserved(v) & 1)
        below_tag = v > 0 and tag_scalar_empty and lone == len(empty) > 0
        return self.cost(state, v) + 2 * rest - min(len(empty) - lone, rest // 2) + below_tag

    def fit(self, state: _State, v: int, unit: _Unit, restriction: Optional[int], k: int):
        """Place `unit` of variant `v` in its restricted scalar, or else in
        the first scalar from index `k` on that takes it, a fresh one last:
        (index, undo, class of a fresh scalar or None), or None. Of the
        scalars that hold nothing of `v`, a plain field tries only the first
        of each width and kind set: the others would place it alike. A
        #packing entry's scalar is never one of those, for its units need it."""
        slots = state.slots
        if restriction is not None:
            undo = state.place(v, unit, slots[restriction]) if k <= restriction else None
            if undo is None and k <= restriction:
                self.failures.update(unit.names())
            return None if undo is None else (restriction, undo, None)
        blanks = set()  # (width, kinds) of the blank scalars met
        for idx, s in enumerate(slots):
            blank = idx >= self.entries and unit.ref is None and not s.ref_variants and not s.reserved(v)
            if blank and (s.width, s.kinds) in blanks:
                continue
            if blank:
                blanks.add((s.width, s.kinds))
            undo = state.place(v, unit, s) if idx >= k else None
            if undo is not None:
                return idx, undo, None
        c = self.target.class_of[unit.kinds]
        if k > len(slots) or self.opened[c] >= self.quota[c] or blanks and any(
                width == self.widths[c] and (kinds is None or kinds & unit.kinds)
                for width, kinds in blanks):
            return None
        slot = state.new_slot(self.widths[c], None)
        if slot.index == self.reserve:
            self.keep_tag_free(slot)
        undo = state.place(v, unit, slot)
        if undo is None:
            slots.pop()
            return None
        self.opened[c] += 1
        return slot.index, undo, c

    def pack(self, state: _State, v: int) -> Optional[int]:
        """Place the items of variant `v` as the first packing, in
        depth-first order, of least cost for `v`, and return that cost; None
        when none fits. The search stops at a packing that meets the bound
        of its root, and at the budget with the best so far."""
        items = self.items[v]
        if not items:
            return self.cost(state, v)
        target = self.bound(state, v, 0)
        path: list = []  # (scalar index, undo, class of a fresh scalar) per placed item
        best: Optional[tuple[int, list[int]]] = None  # (cost, scalar indexes)
        first, k = True, 0  # on the first descent; the next scalar to try
        while target is not None:
            i = len(path)
            if i == len(items):
                cost = self.cost(state, v)
                if cost <= target:
                    return cost  # the packing in place is optimal
                if best is None or cost < best[0]:
                    best = (cost, [idx for idx, _, _ in path])
            elif first or self.steps < self.budget:
                found = self.fit(state, v, items[i][0], items[i][1], k)
                if found is not None:
                    path.append(found)
                    self.steps += not first
                    lower = None if first else self.bound(state, v, i + 1)
                    if first or lower is not None and (best is None or lower < best[0]):
                        k = found[0] if i + 1 < len(items) and items[i + 1][2] else 0
                        continue
            else:
                self.finished = False
                break
            first = False
            if not path:
                break
            k = self.backtrack(state, path) + 1
        while path:
            self.backtrack(state, path)
        for (unit, restriction, _), idx in zip(items, best[1] if best else []):
            self.fit(state, v, unit, restriction, idx)  # replays the placement at idx
        return None if best is None else best[0]

    def backtrack(self, state: _State, path: list) -> int:
        """Undo the last placement on `path` and return its scalar index."""
        idx, undo, c = path.pop()
        state.unplace(undo)
        if c is not None:
            state.slots.pop()
            self.opened[c] -= 1
        return idx
