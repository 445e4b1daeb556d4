"""The 25-type corpus used by round-trip and acceptance tests: 1-4 variants,
0-4 fields, integer/float/reference/tuple fields, annotated and not; and a
program bundle over nested tuple and ADT fields for boxed-against-normalized
runs."""

from __future__ import annotations

import random

from adtlayout.pipeline import ProgramLayouts, process_adts
from adtlayout.progen import gen_decls
from adtlayout.syntax import parse_program
from adtlayout.targets import BUILTIN_TARGETS, REF_PLAIN, Target

# the built-in targets, in their fixed order (x64, jvm, x86-32), and their names
TARGETS = tuple(BUILTIN_TARGETS.values())
TARGET_NAMES = tuple(BUILTIN_TARGETS)

CORPUS_SRC = """
packing Float16(sign: 1, exp: 5, frac: 10): 16 = 0b_seeeeeff_ffffffff;

type C01 { case Only; }
type C02 { case One(a: u8); }
type C03 #unboxed { case A(x: u32, y: u32); }
type C04 { case P(t: (u4, bool)); }
type C05 #unboxed { case N; case S(v: u32); }
type C06 #unboxed { case A(x: int); case B(y: float); }
type C07 { case R; case G; case B; }
type C08 { case A; case B; case C; case D; }
type C09 #unboxed { case A(x: u1); case B(y: u2); case C(z: u3); }
type C10 #unboxed { case W(w: u64); case N; }
type C11 #unboxed { case F(f: f64); case G(g: u64); }
type C12 #unboxed { case T(p: (u8, u8), q: u4); case U; }
type C13 { case Big(a: u64, b: u64, c: u64, d: u64); }
type C14 #unboxed { case N; case S(r: C13); }
type C15 #unboxed { case A(r: C13); case B(s: C13); }
type C16 #unboxed { case A(r: C13, extra: bool); case B; }
type C17 #unboxed { case X(o: C05); case Y; }
type C18 { case H(o: C05, n: u8); }
type C19 #unboxed { case C(sign: u1, exp: u5, frac: u10) #packing Float16(sign, exp, frac); }
type C20 { case C(a: u2, b: u2) #packing 0b_00aabb11; }
type C21 #unboxed { case C(x: u8, y: u8) #packing #solve(x, y); }
type C22 #unboxed { case A(a: u2) #packing 0b_??aa; case B(b: u2) #packing 0b_bb00; }
type C23 #unboxed { case A(x: i8); case B(y: i32); }
type C24 #unboxed { case M(m: f32, n: bool); case N(k: u33); }
type C25 { case Z(s: string, t: u16); }
"""

CORPUS_SIZE = 25


def build_corpus(target: Target) -> ProgramLayouts:
    return process_adts(parse_program(CORPUS_SRC), target)


def solve_corpus_and_progen(targets: tuple[Target, ...] = TARGETS) -> list[ProgramLayouts]:
    """The corpus and `progen.gen_decls(random.Random(s))`, s in 0..299,
    each processed on each of `targets` (by default x64, jvm and x86-32)."""
    sources = [parse_program(CORPUS_SRC)] + [gen_decls(random.Random(s)) for s in range(300)]
    return [process_adts(decls, target) for target in targets for decls in sources]


def random_field_values(layout, variant_index: int, rng: random.Random) -> dict[str, int]:
    """A random in-range value per normalized field; references get aligned
    word-sized addresses."""
    values: dict[str, int] = {}
    for f in layout.adt.variants[variant_index].fields:
        if f.ref_mode == REF_PLAIN:
            values[f.name] = rng.randrange(0, 1 << (f.width - 4)) * 8
        elif f.signed:
            values[f.name] = rng.randint(-(1 << (f.width - 1)), (1 << (f.width - 1)) - 1)
        else:
            values[f.name] = rng.randrange(0, 1 << f.width)
    return values


# Source values that spread over several normalized fields: tuple fields,
# unboxed ADTs embedded in unboxed and boxed ones (Unit needs no scalar) and
# a boxed ADT inside unboxed ones. `contents` of Src's two-field case is the
# only producer of a tuple value. A bundle without its `target` line.
NESTED_BUNDLE = """
type Opt #unboxed { case N; case S(v: u8); }
type Unit #unboxed { case U; }
type Src #unboxed { case E(a: u8, o: Opt); }
type Pair #unboxed { case P(t: (u8, Opt), u: Unit, w: i8); case Q; }
type Box { case B(t: (u8, Opt), p: Pair, q: u64); case C; }
type Holder #unboxed { case H(b: Box, t: (u8, Opt)); case Z; }
type Outer #unboxed { case O(h: Holder, x: u4); case Y; }
fn mk_src() -> Src {
entry:
  %a = const<u8> 7
  %v = const<u8> 9
  %o = alloc<Opt#1>(%v)
  %s = alloc<Src#0>(%a, %o)
  ret %s
}
fn mk_pair() -> Pair {
entry:
  %s = call mk_src()
  %t = contents<Src#0>(%s)
  %u = alloc<Unit#0>()
  %w = const<i8> -5
  %p = alloc<Pair#0>(%t, %u, %w)
  ret %p
}
fn mk_box() -> Box {
entry:
  %a = const<u8> 1
  %n = alloc<Opt#0>()
  %s = alloc<Src#0>(%a, %n)
  %t = contents<Src#0>(%s)
  %p = call mk_pair()
  %q = const<u64> 18446744073709551615
  %b = alloc<Box#0>(%t, %p, %q)
  ret %b
}
fn mk_holder() -> Holder {
entry:
  %b = call mk_box()
  %a = const<u8> 2
  %v = const<u8> 255
  %o = alloc<Opt#1>(%v)
  %s = alloc<Src#0>(%a, %o)
  %t = contents<Src#0>(%s)
  %h = alloc<Holder#0>(%b, %t)
  ret %h
}
fn mk_outer() -> Outer {
entry:
  %h = call mk_holder()
  %x = const<u4> 9
  %o = alloc<Outer#0>(%h, %x)
  ret %o
}
fn get() -> (u8, Opt) {
entry:
  %o = call mk_outer()
  %h = getfield<Outer#0.0>(%o)
  %b = getfield<Holder#0.0>(%h)
  %p = getfield<Box#0.1>(%b)
  %t = getfield<Pair#0.0>(%p)
  ret %t
}
fn eq() -> u32 {
entry:
  %o1 = call mk_outer()
  %o2 = call mk_outer()
  %y = alloc<Outer#1>()
  %e1 = eq<Outer>(%o1, %o2)
  br %e1, c2, bad1
c2:
  %e2 = eq<Outer>(%o1, %y)
  br %e2, bad2, c3
c3:
  %h1 = getfield<Outer#0.0>(%o1)
  %h2 = call mk_holder()
  %z = alloc<Holder#1>()
  %e3 = eq<Holder>(%h1, %h2)
  br %e3, c4, bad3
c4:
  %e4 = eq<Holder>(%h1, %z)
  br %e4, bad4, c5
c5:
  %b1 = getfield<Holder#0.0>(%h1)
  %b2 = call mk_box()
  %c = alloc<Box#1>()
  %e5 = eq<Box>(%b1, %b2)
  br %e5, c6, bad5
c6:
  %e6 = eq<Box>(%b1, %c)
  br %e6, bad6, c7
c7:
  %p1 = getfield<Box#0.1>(%b1)
  %p2 = call mk_pair()
  %q = alloc<Pair#1>()
  %e7 = eq<Pair>(%p1, %p2)
  br %e7, c8, bad7
c8:
  %e8 = eq<Pair>(%p1, %q)
  br %e8, bad8, c9
c9:
  %u1 = getfield<Pair#0.1>(%p1)
  %u2 = alloc<Unit#0>()
  %e9 = eq<Unit>(%u1, %u2)
  br %e9, c10, bad9
c10:
  %s1 = call mk_src()
  %s2 = call mk_src()
  %e10 = eq<Src>(%s1, %s2)
  br %e10, c11, bad10
c11:
  %t1 = getfield<Pair#0.0>(%p1)
  %t2 = contents<Src#0>(%s1)
  %e11 = eq<(u8, Opt)>(%t1, %t2)
  br %e11, c12, bad11
c12:
  %t3 = getfield<Box#0.0>(%b1)
  %e12 = eq<(u8, Opt)>(%t1, %t3)
  br %e12, bad12, c13
c13:
  %v1 = getfield<Src#0.1>(%s1)
  %n = alloc<Opt#0>()
  %e13 = eq<Opt>(%v1, %n)
  br %e13, bad13, c14
c14:
  %t4 = getfield<Holder#0.1>(%h1)
  %e14 = eq<(u8, Opt)>(%t4, %t3)
  br %e14, bad14, ok
ok:
  %r0 = const<u32> 0
  ret %r0
bad1:
  %r1 = const<u32> 1
  ret %r1
bad2:
  %r2 = const<u32> 2
  ret %r2
bad3:
  %r3 = const<u32> 3
  ret %r3
bad4:
  %r4 = const<u32> 4
  ret %r4
bad5:
  %r5 = const<u32> 5
  ret %r5
bad6:
  %r6 = const<u32> 6
  ret %r6
bad7:
  %r7 = const<u32> 7
  ret %r7
bad8:
  %r8 = const<u32> 8
  ret %r8
bad9:
  %r9 = const<u32> 9
  ret %r9
bad10:
  %r10 = const<u32> 10
  ret %r10
bad11:
  %r11 = const<u32> 11
  ret %r11
bad12:
  %r12 = const<u32> 12
  ret %r12
bad13:
  %r13 = const<u32> 13
  ret %r13
bad14:
  %r14 = const<u32> 14
  ret %r14
}
fn defaults() -> Outer {
entry:
  %n1 = const<Outer> null
  %od = replacenull<Outer>(%n1)
  %n2 = const<Box> null
  %bd = replacenull<Box>(%n2)
  %n3 = const<Pair> null
  %pd = replacenull<Pair>(%n3)
  %h = getfield<Outer#0.0>(%od)
  %b = getfield<Holder#0.0>(%h)
  %e1 = eq<Box>(%b, %bd)
  br %e1, c2, bad
c2:
  %p = getfield<Box#0.1>(%bd)
  %e2 = eq<Pair>(%p, %pd)
  br %e2, ok, bad
ok:
  ret %od
bad:
  %y = alloc<Outer#1>()
  ret %y
}
"""

# the functions of NESTED_BUNDLE that run as entries, each with no argument
NESTED_ENTRIES = (
    "mk_src", "mk_pair", "mk_box", "mk_holder", "mk_outer", "get", "eq", "defaults",
)
