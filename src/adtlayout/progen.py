"""Random well-typed source programs over randomly declared ADTs.

Drives the boxed-versus-normalized equivalence check: programs allocate,
project, tag-read, compare and branch over up to three ADTs; loops never
occur, so every run terminates by construction."""

from __future__ import annotations

import random
from typing import Optional

from .ir import (
    BOOL,
    Alloc,
    Block,
    Branch,
    Const,
    Eq,
    Function,
    GetContents,
    GetField,
    GetTag,
    IrType,
    Program,
    ReplaceNull,
    Return,
    Switch,
    TAdt,
    TFloat,
    TInt,
)
from .pipeline import process_adts
from .syntax import (
    AdtDecl,
    BoolType,
    FloatType,
    IntType,
    NamedType,
    TypeExpr,
    Variant,
)
from .targets import Target

MAX_INSTRS = 30
_INT_WIDTHS = [1, 2, 5, 8, 16, 31, 32, 33, 48, 64]


def gen_decls(rng: random.Random) -> list[AdtDecl]:
    count = rng.randint(1, 3)
    decls: list[AdtDecl] = []
    for i in range(count):
        name = f"T{i}"
        recursive = rng.random() < 0.18
        variants = []
        n_variants = rng.randint(1, 3)
        for j in range(n_variants):
            # a recursive ADT keeps its first variant nullary so the default
            # value is finite
            n_fields = 0 if (recursive and j == 0) else rng.randint(0, 3)
            fields = []
            for k in range(n_fields):
                self_ok = recursive and j > 0
                fields.append((f"f{j}{k}", _field_type(rng, decls, name if self_ok else None)))
            variants.append(Variant(f"C{j}", tuple(fields)))
        decls.append(
            AdtDecl(
                name,
                (),
                tuple(variants),
                unboxed=rng.random() < 0.45,
                captured=rng.random() < 0.08,
            )
        )
    return decls


def _field_type(
    rng: random.Random, earlier: list[AdtDecl], self_name: Optional[str]
) -> TypeExpr:
    r = rng.random()
    if self_name is not None and r < 0.25:
        return NamedType(self_name)
    if r < 0.45:
        return IntType(rng.choice(_INT_WIDTHS), rng.random() < 0.4)
    if r < 0.55:
        return BoolType()
    if r < 0.70:
        return FloatType(rng.choice([32, 64]))
    if earlier:
        return NamedType(rng.choice(earlier).name)
    return IntType(8, False)


class _Gen:
    def __init__(self, rng: random.Random, program: Program):
        self.rng = rng
        self.program = program
        self.fn = Function("main", (), TInt(64, False), "b0", {})
        self.names = 0
        self.labels = 0
        self.budget = MAX_INSTRS
        self.alloc_case: dict[str, tuple[str, int]] = {}

    def fresh(self) -> str:
        self.names += 1
        return f"v{self.names}"

    def fresh_label(self) -> str:
        self.labels += 1
        return f"b{self.labels}"

    def run(self) -> Function:
        adts = list(self.program.adts)
        ret_choices: list[IrType] = [TInt(64, False), TInt(32, True), BOOL, TFloat(64)]
        ret_choices += [TAdt(k) for k in adts]
        self.fn.ret = self.rng.choice(ret_choices)
        entry = Block("b0")
        self.fn.blocks["b0"] = entry
        self.fill(entry, {}, depth=0)
        return self.fn

    # -- block construction --

    def fill(self, blk: Block, pool: dict, depth: int) -> None:
        """Emit a few instructions then end the block; branch/switch recurse
        into child blocks, every path ending in ret or trap."""
        rng = self.rng
        steps = rng.randint(1, 6)
        for _ in range(steps):
            if self.budget <= 0:
                break
            self.random_instr(blk, pool)
        if self.budget > 0 and depth < 2 and rng.random() < 0.35:
            if self.split(blk, pool, depth):
                return
        ret = self.value_of(blk, pool, self.fn.ret)
        blk.term = Return(ret)

    def split(self, blk: Block, pool: dict, depth: int) -> bool:
        rng = self.rng
        adts = [t for t in pool if isinstance(t, TAdt) and pool[t]]
        if adts and rng.random() < 0.5:
            key = rng.choice(sorted(adts, key=str)).key
            src = rng.choice(pool[TAdt(key)])
            tag = self.fresh()
            blk.instrs.append(GetTag(tag, key, src))
            self.budget -= 1
            n = len(self.program.adts[key].variants)
            labels = [self.fresh_label() for _ in range(n)]
            default = labels[0]
            blk.term = Switch(tag, tuple((i, l) for i, l in enumerate(labels)), default)
            for l in labels:
                child = Block(l)
                self.fn.blocks[l] = child
                self.fill(child, {t: list(v) for t, v in pool.items()}, depth + 1)
            return True
        cond = self.value_of(blk, pool, BOOL)
        then_l, else_l = self.fresh_label(), self.fresh_label()
        blk.term = Branch(cond, then_l, else_l)
        for l in (then_l, else_l):
            child = Block(l)
            self.fn.blocks[l] = child
            self.fill(child, {t: list(v) for t, v in pool.items()}, depth + 1)
        return True

    # -- instruction emission --

    def random_instr(self, blk: Block, pool: dict) -> None:
        rng = self.rng
        ops = ["const", "alloc", "getfield", "gettag", "eq", "replacenull", "contents"]
        op = rng.choice(ops)
        if op == "const":
            t = rng.choice([TInt(rng.choice(_INT_WIDTHS), rng.random() < 0.4), BOOL, TFloat(rng.choice([32, 64]))])
            self.const_of(blk, pool, t)
            return
        if op == "alloc":
            key = rng.choice(sorted(self.program.adts))
            self.alloc_of(blk, pool, key, depth=0)
            return
        adt_vals = [(t.key, n) for t in pool if isinstance(t, TAdt) for n in pool[t]]
        if not adt_vals:
            key = rng.choice(sorted(self.program.adts))
            self.alloc_of(blk, pool, key, depth=0)
            return
        key, src = rng.choice(adt_vals)
        mono = self.program.adts[key]
        if op == "gettag":
            dst = self.fresh()
            blk.instrs.append(GetTag(dst, key, src))
            self.budget -= 1
            self.add(pool, TInt(32, False), dst)
            return
        if op == "replacenull":
            dst = self.fresh()
            blk.instrs.append(ReplaceNull(dst, key, src))
            self.budget -= 1
            self.add(pool, TAdt(key), dst)
            return
        if op == "eq":
            ts = [t for t in pool if pool[t]]
            t = rng.choice(sorted(ts, key=str))
            a = rng.choice(pool[t])
            b = rng.choice(pool[t])
            dst = self.fresh()
            blk.instrs.append(Eq(dst, t, a, b))
            self.budget -= 1
            self.add(pool, BOOL, dst)
            return
        # field access: usually at the allocation's own case, sometimes a
        # random one (which may trap: traps are observable outcomes)
        known = self.alloc_case.get(src)
        if known is not None and rng.random() < 0.8:
            case = known[1]
        else:
            case = rng.randrange(len(mono.variants))
        variant = mono.variants[case]
        if op == "contents" and variant.source_fields:
            dst = self.fresh()
            blk.instrs.append(GetContents(dst, key, case, src))
            self.budget -= 1
            self.add(pool, self.program.contents_type(key, case), dst)
            return
        if variant.source_fields:
            fidx = rng.randrange(len(variant.source_fields))
            dst = self.fresh()
            blk.instrs.append(GetField(dst, key, case, fidx, src))
            self.budget -= 1
            self.add(pool, variant.source_fields[fidx][1], dst)

    def add(self, pool: dict, t: IrType, name: str) -> None:
        pool.setdefault(t, []).append(name)

    # -- value construction --

    def value_of(self, blk: Block, pool: dict, t: IrType, depth: int = 0) -> str:
        existing = pool.get(t)
        if existing and self.rng.random() < 0.7:
            return self.rng.choice(existing)
        if isinstance(t, TAdt):
            return self.adt_value(blk, pool, t.key, depth)
        return self.const_of(blk, pool, t)

    def const_of(self, blk: Block, pool: dict, t: IrType) -> str:
        rng = self.rng
        if isinstance(t, TInt):
            if t.signed:
                v = rng.randint(-(1 << (t.width - 1)), (1 << (t.width - 1)) - 1)
            else:
                v = rng.randint(0, (1 << t.width) - 1)
        elif isinstance(t, TFloat):
            v = rng.randint(0, (1 << t.width) - 1)
        else:
            existing = pool.get(t)
            if existing:
                return rng.choice(existing)
            raise AssertionError(f"cannot make a constant of {t!r}")
        dst = self.fresh()
        blk.instrs.append(Const(dst, t, v))
        self.budget -= 1
        self.add(pool, t, dst)
        return dst

    def adt_value(self, blk: Block, pool: dict, key: str, depth: int) -> str:
        if depth >= 2 or self.budget <= 1:
            return self.default_of(blk, pool, key)
        return self.alloc_of(blk, pool, key, depth)

    def default_of(self, blk: Block, pool: dict, key: str) -> str:
        null = self.fresh()
        blk.instrs.append(Const(null, TAdt(key), None))
        dst = self.fresh()
        blk.instrs.append(ReplaceNull(dst, key, null))
        self.budget -= 2
        self.add(pool, TAdt(key), dst)
        return dst

    def alloc_of(self, blk: Block, pool: dict, key: str, depth: int) -> str:
        mono = self.program.adts[key]
        case = self.rng.randrange(len(mono.variants))
        variant = mono.variants[case]
        args = []
        for _, t in variant.source_fields:
            args.append(self.value_of(blk, pool, t, depth + 1))
        dst = self.fresh()
        blk.instrs.append(Alloc(dst, key, case, tuple(args)))
        self.budget -= 1
        self.add(pool, TAdt(key), dst)
        self.alloc_case[dst] = (key, case)
        return dst


def generate_program(seed: str, target: Target) -> tuple[Program, list[AdtDecl]]:
    """Deterministically generate one program (declarations plus main)."""
    rng = random.Random(seed)
    decls = gen_decls(rng)
    program = Program.of_layouts(process_adts(decls, target), target)
    gen = _Gen(rng, program)
    program.functions["main"] = gen.run()
    return program, decls
