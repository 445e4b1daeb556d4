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
one bits, of annotation wildcards (bits that may hold tag bits or chosen
constants but never field data) and of field bits, and the width of the
variant's field at offset 0; the state keeps, per variant, how many of its
fields sit above offset 0. A placement's undo record restores all of them,
so a search node reads a variant's access cost in one pass over the
scalars: a read costs 2 above offset 0, and 1 at offset 0 when a bit above
it is set. The state also logs each placed unit, and undo pops its entry,
so a completion builds the field placements from the log once
(`_State.placements`). Scoring builds no read plan, and the search keeps
the best state and completion by key, so one layout is built per solve.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
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
    TIntRep,
    UnboxOptions,
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

    @property
    def type(self) -> TIntRep:
        """The IR type of the scalar's value after normalization."""
        return TIntRep(self.width, self.kind.value)

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "width": self.width, "ref": self.ref_bearing}


class Placement(NamedTuple):
    slot: int
    offset: int
    width: int  # occupied interval width; a tagged reference spans word-free bits
    field: FieldSlot


class LayoutSolution:
    """A laid-out ADT; the search sets `steps_used` and `finished` later."""

    __slots__ = ("adt", "target", "slots", "placements", "patterns", "tag_scheme", "score",
                 "plans", "tag_plan", "steps_used", "finished")

    def __init__(self, adt: MonoAdt, target: Target, slots: list[ScalarSlot],
                 placements: dict[tuple[int, str], Placement],
                 patterns: list[list[BitPattern]], tag_scheme: TagScheme, score: Score,
                 plans: dict[tuple[int, str], ReadPlan], tag_plan: Optional[ReadPlan],
                 steps_used: int = 0, finished: bool = True):
        self.adt = adt
        self.target = target
        self.slots = slots
        self.placements = placements  # (variant, field name)
        self.patterns = patterns  # [variant][slot]
        self.tag_scheme = tag_scheme
        self.score = score
        # each field's read plan, keyed like `placements`, and an explicit tag's
        self.plans = plans
        self.tag_plan = tag_plan
        self.steps_used = steps_used
        # False when the step budget cut a search short, so a better layout
        # may exist; True when every search ran out of nodes or met its bound
        self.finished = finished

    def used_width(self, slot_index: int) -> int:
        return max([1] + [row[slot_index].nonzero.bit_length() for row in self.patterns])

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
    def __init__(self, index: int, width: int, kinds: Optional[KindSet], n_variants: int):
        self.index = index
        self.width = width
        self.kinds = kinds  # None until the first field constrains it
        # per variant: constant bits, their one bits, annotation wildcards
        # and field bits
        self.const = [0] * n_variants
        self.ones = [0] * n_variants
        self.wild = [0] * n_variants
        self.field = [0] * n_variants
        # per variant: the width of its field at offset 0, or 0 when none is
        self.low = [0] * n_variants
        self.ref_variants: set[int] = set()
        self.tagged: Optional[tuple] = None  # (reference, value) low-bit patterns once tagged

    def copy(self) -> _Slot:
        """A copy that shares no mutable part with this slot."""
        out = object.__new__(_Slot)
        out.__dict__ = {
            **self.__dict__, "const": self.const[:], "ones": self.ones[:], "wild": self.wild[:],
            "field": self.field[:], "low": self.low[:], "ref_variants": set(self.ref_variants),
        }
        return out

    def reserved(self, v: int) -> int:
        out = self.const[v] | self.wild[v] | self.field[v]
        if self.tagged is not None:
            ref, value = self.tagged
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
# the slot's kinds, the variant's masks (const, ones, wild, field) and
# offset-0 width there, whether the variant held a reference there, the
# slot's tagging patterns and the variant's count of shifted fields. Undo
# also pops the placement's log entry: undo is last in, first out.
_Undo = tuple[_Slot, int, Optional[KindSet], tuple[int, ...], bool, Optional[tuple], int]


@lru_cache(maxsize=None)  # one entry per field width
def _field_shape(width: int) -> tuple[BitPattern, tuple[tuple[int, int], ...]]:
    """The pattern and field runs of a plain field `width` bits wide."""
    return BitPattern(width, 0, 0, (1 << width) - 1), ((0, width),)


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
        ref = None if f.ref_mode == REF_NONE else f
        pattern, runs = _field_shape(f.width)
        return _Unit(((0, f),), pattern, f.kinds, ref, runs, None)

    @staticmethod
    def item(fields: tuple[tuple[int, FieldSlot], ...], p: BitPattern, kinds: KindSet) -> _Unit:
        other = (_runs(p.free), _runs(p.ones), _runs(p.const & ~p.ones)) if (
            p.const or p.free) else None
        return _Unit(fields, p, kinds, None, _runs(p.field), other)


class _State:
    def __init__(self, adt: MonoAdt, target: Target):
        self.adt = adt
        self.target = target
        self.n = len(adt.variants)
        self.slots: list[_Slot] = []
        # per placed unit: (variant, unit, slot index, offset, reference width or None)
        self.log: list[tuple[int, _Unit, int, int, Optional[int]]] = []
        self.shifted = [0] * self.n  # per variant: its fields above offset 0
        tagging = target.ref_tagging
        self.tags = None if tagging is None else (tagging.ref_pattern, tagging.value_pattern)

    def copy(self) -> _State:
        """A copy whose slots and log this state does not share."""
        out = object.__new__(_State)
        out.__dict__ = {
            **self.__dict__, "slots": list(map(_Slot.copy, self.slots)),
            "log": self.log[:], "shifted": self.shifted[:],
        }
        return out

    def placements(self) -> dict[tuple[int, str], Placement]:
        """Each logged field's placement by (variant, name), in log order."""
        return {
            (v, f.name): Placement(s, offset + rel, ref_width or f.width, f)
            for v, unit, s, offset, ref_width in self.log for rel, f in unit.fields
        }

    def new_slot(self, width: int, kinds: Optional[KindSet]) -> _Slot:
        s = _Slot(len(self.slots), width, kinds, self.n)
        self.slots.append(s)
        return s

    def place(
        self, v: int, unit: _Unit, slot: _Slot, offset: Optional[int] = None
    ) -> Optional[_Undo]:
        """Place `unit` for variant `v` in `slot`, at `offset` when given and
        else at the lowest offset where it fits. A lone reference goes where
        the target's tagging puts references, whatever `offset` says. Returns
        how to undo it, or None when it does not fit."""
        new_kinds = slot.kinds
        if new_kinds is None:
            new_kinds = unit.kinds
            if self.target.kind_width(new_kinds) != slot.width:
                return None
        elif new_kinds is not unit.kinds:  # fields of one class share one kind set
            new_kinds &= unit.kinds
            if not new_kinds:
                return None
        ref = unit.ref
        if ref is not None:
            # the tagging fixes a reference's offset and width
            placed = self._ref_fit(slot, v, ref)
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
        masks = (slot.const[v], slot.ones[v], slot.wild[v], slot.field[v], slot.low[v])
        is_ref, shifted = v in slot.ref_variants, self.shifted[v]
        undo = (slot, v, slot.kinds, masks, is_ref, slot.tagged, shifted)
        if ref is not None:
            slot.ref_variants.add(v)
            if self.tags is not None:
                slot.tagged = self.tags
                if ref.ref_mode == REF_PLAIN:
                    slot.add_consts(v, self.tags[0].const, self.tags[0].ones)
        elif unit.other_runs is not None:
            p = unit.pattern
            slot.add_consts(v, p.const << offset, p.ones << offset, p.free << offset)
        for rel, f in unit.fields:
            at, width = offset + rel, ref_width or f.width
            slot.field[v] |= ((1 << width) - 1) << at
            if at:
                self.shifted[v] += 1
            else:
                slot.low[v] = width
        self.log.append((v, unit, slot.index, offset, ref_width))
        slot.kinds = new_kinds
        return undo

    def _ref_fit(self, slot: _Slot, v: int, f: FieldSlot) -> Optional[tuple[int, int]]:
        """The (offset, width) at which reference `f` of variant `v` fits
        `slot`, or None; `place` then marks it a reference there."""
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
        return (offset, width)

    def unplace(self, undo: _Undo) -> None:
        slot, v, kinds, masks, is_ref, tagged, shifted = undo
        self.log.pop()
        slot.kinds = kinds
        slot.const[v], slot.ones[v], slot.wild[v], slot.field[v], slot.low[v] = masks
        if not is_ref:
            slot.ref_variants.discard(v)
        slot.tagged = tagged
        self.shifted[v] = shifted

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
                if slot.tagged is not None and v not in slot.ref_variants:
                    value = slot.tagged[1]
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


class ReadPlan(NamedTuple):
    """A read of scalar `slot`: shift right by `shift`, AND with `mask`, then
    sign-extend the low `sext` bits, each step only when nonzero. A write is
    its inverse: the low `sext` bits (all when 0), shifted left by `shift`.
    `read_plan` and `tag_plan` make every plan that the codec and the
    normalizer apply, and the score charges reads by their mask rule."""

    slot: int
    shift: int
    mask: int
    sext: int

    def read(self, word: int) -> int:
        value = word >> self.shift
        if self.mask:
            value &= self.mask
        if self.sext:
            value &= (1 << self.sext) - 1
            if value >> (self.sext - 1):
                value -= 1 << self.sext
        return value

    def write(self, value: int) -> int:
        if self.sext:
            value &= (1 << self.sext) - 1
        return value << self.shift


def _masked(bits: int, top: int) -> bool:
    """The mask rule of every read plan and charge: a read of the bits below
    `top`, shifted down, masks when `bits` sets a bit at or above `top`."""
    return bits >> top != 0


def read_plan(pl: Placement, bits: int) -> ReadPlan:
    """The read plan of placement `pl` in a case whose scalar has `bits` set
    (constant ones, field bits). A field is shifted down, masked when a bit
    above it is set, and sign-extended when signed; a plain reference is
    read in place, masked when a bit above or below it is set."""
    slot, offset, width, f = pl
    field, masked = (1 << width) - 1, _masked(bits, offset + width)
    if f.ref_mode == REF_PLAIN:
        masked = masked or bits & ((1 << offset) - 1) != 0
        return ReadPlan(slot, 0, field << offset if masked else 0, 0)
    return ReadPlan(slot, offset, field if masked else 0, width if f.signed else 0)


def _tag_masked(patterns: list[list[BitPattern]], tag: ExplicitTag) -> bool:
    """Whether a read of an explicit tag, which reads every case, masks: some
    case sets a bit above it. A dedicated tag's scalar holds nothing else, so
    `patterns` may lack it."""
    s, top = tag.slot, tag.offset + tag.width
    return not tag.dedicated and any(_masked(row[s].ones | row[s].field, top) for row in patterns)


def tag_plan(patterns: list[list[BitPattern]], tag: ExplicitTag) -> ReadPlan:
    """The read plan of an explicit tag: shifted down, masked as `_tag_masked` says."""
    masked = _tag_masked(patterns, tag)
    return ReadPlan(tag.slot, tag.offset, (1 << tag.width) - 1 if masked else 0, 0)


def _access_cost(
    placements: dict[tuple[int, str], Placement],
    patterns: list[list[BitPattern]],
    scheme: TagScheme,
) -> int:
    """The cost of every field read and an explicit tag's, plus 2 per tree
    level, with no read plan built: 2 above offset 0 (a plain reference too),
    1 at offset 0 when its plan would mask (`_masked`), else 0. Free bits read
    as 0, so the patterns may be taken before or after their free bits are
    fixed; an explicit tag's value bits count as set, so they may also be
    taken before the tag is written, and a dedicated tag's scalar, which
    holds nothing else, before it is added."""
    tag = scheme if isinstance(scheme, ExplicitTag) else None
    access = 0
    for (v, _), pl in placements.items():
        if pl.offset:
            access += 2
            continue
        p = patterns[v][pl.slot]
        bits = p.ones | p.field
        if tag is not None and pl.slot == tag.slot:
            bits |= v << tag.offset
        access += _masked(bits, pl.width)
    if tag is not None:
        access += 2 if tag.offset else _tag_masked(patterns, tag)
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


# a tagging completion: (score, scheme, patterns, placements), the patterns
# before an explicit tag is written and with a tree's free bits resolved; the
# candidates of one state share its placements
Candidate = tuple[Score, TagScheme, list[list[BitPattern]], dict[tuple[int, str], Placement]]


def _candidate(state: _State, placements: dict, rows: list, scheme: TagScheme) -> Candidate:
    """`state`, placed as `placements`, completed by `scheme` over `rows`,
    with its score."""
    n_scalars = len(state.slots) + scheme.dedicated
    return score_layout(n_scalars, placements, rows, scheme), scheme, rows, placements


def _solution(state: _State, cand: Candidate) -> LayoutSolution:
    """The solution of `state` completed by `cand`, with its score and read
    plans, plus the tag scalar when the tag is dedicated. Its free bits are
    made constant 0 and the tag is written as each pattern is built."""
    score, scheme, rows, placements = cand
    slots = _freeze_slots(state)
    tag_slot, tag_offset, tag_mask = -1, 0, 0
    if isinstance(scheme, ExplicitTag):
        tag_slot, tag_offset = scheme.slot, scheme.offset
        tag_mask = ((1 << scheme.width) - 1) << tag_offset
    if scheme.dedicated:
        kinds = state.target.kinds_for_int(scheme.width)
        slots.append(ScalarSlot(_pick_kind(kinds, False), kinds, scheme.width))
    patterns = []
    for v, row in enumerate(rows):
        out = []
        for s, (width, const, ones, field) in enumerate(row):
            if s == tag_slot:  # the variant index written into the tag bits
                const, ones = const | tag_mask, ones & ~tag_mask | v << tag_offset
            out.append(BitPattern(width, const | ((1 << width) - 1) & ~field, ones, field))
        if scheme.dedicated:
            out.append(BitPattern(scheme.width, tag_mask, v))
        patterns.append(out)
    plans = {}
    for key, pl in placements.items():
        p = patterns[key[0]][pl.slot]
        plans[key] = read_plan(pl, p.ones | p.field)
    return LayoutSolution(
        adt=state.adt,
        target=state.target,
        slots=slots,
        placements=placements,
        patterns=patterns,
        tag_scheme=scheme,
        score=score,
        plans=plans,
        tag_plan=tag_plan(patterns, scheme) if isinstance(scheme, ExplicitTag) else None,
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
    base, placements = state.build_patterns(), state.placements()
    if n == 1:
        return [_candidate(state, placements, base, SingleVariant())]
    results: list[Candidate] = []

    tw = tag_width_for(n)
    for s in range(m):
        found = shared_free_run(base, s, tw)
        if found is not None:
            results.append(_candidate(state, placements, base, ExplicitTag(s, found, tw, False)))

    # A classification tree costs at least 2 per level and needs ceil(log2 n)
    # levels. With two variants a tree is not tried once an in-place tag was
    # found, though it can be cheaper: a one-node tree may set its bit in
    # case 0 rather than above case 1's offset-0 field, saving one access
    # unit. The tag is kept so that case 0 has its tag bits 0, and an
    # all-zero value is case 0 (an option's nullary case).
    have = min(
        [cand[0].key() for cand in results] + ([best_key] if best_key is not None else []),
        default=None,
    )
    # the field cost before tagging, which the tree and appended-tag bounds
    # read: taken only when one of them is compared, and then here, since
    # the appended-tag bound is compared only when the tree bound was
    untagged = None
    dominated = n == 2 and results
    if not dominated and have is not None:
        untagged = _access_cost(placements, base, SingleVariant())
        dominated = have <= (m, untagged + 2 * tw)
    if not dominated:
        derived = distinguish.derive_tree(base, charge)
        if derived is not None:
            tree, resolved = derived
            results.append(_candidate(state, placements, resolved, TreeTag(tree)))

    # an appended tag costs an extra scalar, so any same-slot-count candidate
    # beats it; offer it only as the fallback
    if not results and (best_key is None or best_key > (m + 1, untagged + 1)):
        results.append(_candidate(state, placements, base, ExplicitTag(m, 0, tw, True)))
    return results


def _complete(
    state: _State, best_key=None, charge: Optional[Callable[[], bool]] = None
) -> Optional[Candidate]:
    """The first candidate with the smallest key, or None when no
    candidate's key is below `best_key`."""
    pick: Optional[Candidate] = None
    for cand in _candidates(state, best_key, charge):
        key = cand[0].key()
        if best_key is None or key < best_key:
            best_key, pick = key, cand
    return pick


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
    return _solution(state, _candidate(state, state.placements(), state.build_patterns(), scheme))


def solve_layout(adt: MonoAdt, target: Target, budget: int = UnboxOptions().budget) -> LayoutSolution:
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
        pinned = [(v, u) for v, u, *_ in self.base.log] + [(v, u) for v, _, u in units]
        placed = () if adt.packing is None else {(v, f.name) for v, u in pinned for _, f in u.fields}
        # the free references as (variant, unit); per variant: its search
        # items (unit, restricted scalar, whether it is a free field equal to
        # the one before, which then starts at that one's scalar so that
        # equal fields are tried in one order): #solve units, then free
        # fields, each in descending width; and the free fields' widths,
        # which end its items
        refs, items, free_widths = [], [], []
        lows, highs = [0] * len(self.widths), [0] * len(self.widths)
        low_bits = target.ref_tagging.free_low_bits if target.ref_tagging else 0
        class_of = target.class_of
        for i, variant in enumerate(adt.variants):
            plain, by_class = [], {}
            for f in variant.fields:
                if (i, f.name) in placed:
                    continue
                width = f.width
                if f.ref_mode == REF_NONE:
                    plain.append(f)
                else:
                    refs.append((i, _Unit.of(f)))
                    # a plain reference leaves the tagging's low bits to others
                    width -= low_bits if f.ref_mode == REF_PLAIN else 0
                by_class.setdefault(class_of[f.kinds], []).append(width)
            row = sorted([(u, j, False) for v, j, u in units if v == i],
                         key=lambda item: -item[0].pattern.width) if units else []  # stable
            if len(plain) > 1:
                plain.sort(key=lambda f: -f.width)
            widths, before = [], None
            for f in plain:
                row.append((_Unit.of(f), None, before == (f.width, f.kinds)))
                before = (f.width, f.kinds)
                widths.append(f.width)
            items.append(row)
            free_widths.append(widths)
            for c, ws in by_class.items():
                lows[c] = max(lows[c], _bins_lower_bound(ws, self.widths[c]) - self.entries)
                # a reference needs a scalar whose bit 0 holds no field of
                # another variant, so only one scalar per item surely suffices
                highs[c] += len(ws)
        self.refs, self.items, self.free_widths = refs, items, free_widths
        self.lows, self.highs = lows, highs

    def run(self) -> LayoutSolution:
        best = self.search()
        if best is None:
            cut = "" if self.finished else "the step budget ran out first"
            raise AnnotationInfeasible(self.adt.name, list(self.failures), cut)
        sol = _solution(*best)
        sol.steps_used, sol.finished = self.steps, self.finished
        return sol

    def search(self) -> Optional[tuple[_State, Candidate]]:
        """The state and completion of the best layout of the attempts, or
        None when none fits. Each attempt copies `base`, so no kept state changes."""
        best: Optional[tuple[_State, Candidate]] = None
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
                        cand = _complete(state, key, self.charge)
                        if cand is not None:
                            best, key = (state, cand), cand[0].key()
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
        # the widths of the fresh scalars not yet opened, ascending
        self.fresh = sorted(self.widths[c] for c, q in enumerate(quota) for _ in range(q))
        state = self.base.copy()
        if reserve is not None and reserve < len(state.slots) and not self.keep_tag_free(
                state.slots[reserve]):
            return None, 0
        if self.refs and not all(self.fit(state, v, u, None, 0) for v, u in self.refs):
            return None, 0
        total = 0
        for v in range(self.n):
            cost = self.pack(state, v)
            if cost is None:
                return None, 0
            total += cost
        return state, total

    def keep_tag_free(self, slot: _Slot) -> bool:
        """Keep the top tag bits of the reserved scalar free in every
        variant; False, and nothing kept, when the scalar is narrower than
        the tag (a reference scalar of a narrow word)."""
        if slot.width < self.tw:
            return False
        for v in range(self.n):
            slot.add_consts(v, 0, 0, ((1 << self.tw) - 1) << (slot.width - self.tw))
        return True

    def cost(self, state: _State, v: int) -> int:
        """`_access_cost` of `v`'s placements so far, with the tag value `v`
        in the top bits of the reserved scalar, read from what the state
        keeps: 2 per field above offset 0, and 1 for a field at offset 0
        when a bit above it is set."""
        total = 2 * state.shifted[v]
        for s in state.slots:
            width = s.low[v]
            if width:
                bits = s.field[v] | s.ones[v]
                if s.index == self.reserve:
                    bits |= v << (s.width - self.tw)
                total += bits >> width != 0
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
            if s.ref_variants and state.tags is None:
                continue  # a reference-only scalar
            reserved = s.reserved(v) if s.tagged else s.const[v] | s.wild[v] | s.field[v]
            room = s.width - reserved.bit_count()
            if reserved & 1:
                used += room
            else:
                empty.append(room)
        fresh = self.fresh
        if fresh and self.reserve is not None and self.reserve >= len(state.slots):
            # the reserved scalar is a fresh one: a state that never opens it is not kept
            fresh = [fresh[0] - self.tw] + fresh[1:]
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
                self.failures.update(f.name for _, f in unit.fields)
            return None if undo is None else (restriction, undo, None)
        blanks = set()  # (width, kinds) of the blank scalars met
        plain = unit.ref is None
        for idx, s in enumerate(slots):
            # a scalar that holds no reference holds no tag bits either
            if plain and idx >= self.entries and not s.ref_variants and not (
                    s.const[v] | s.wild[v] | s.field[v]):
                shape = (s.width, s.kinds)
                if shape in blanks:
                    continue
                blanks.add(shape)
            if idx >= k:
                undo = state.place(v, unit, s)
                if undo is not None:
                    return idx, undo, None
        c = self.target.class_of[unit.kinds]
        if k > len(slots) or self.opened[c] >= self.quota[c] or blanks and any(
                width == self.widths[c] and (kinds is None or kinds & unit.kinds)
                for width, kinds in blanks):
            return None
        slot = state.new_slot(self.widths[c], None)
        undo = None
        if slot.index != self.reserve or self.keep_tag_free(slot):
            undo = state.place(v, unit, slot)
        if undo is None:
            slots.pop()
            return None
        self.opened[c] += 1
        self.fresh.remove(slot.width)
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
            insort(self.fresh, state.slots.pop().width)
            self.opened[c] -= 1
        return idx
