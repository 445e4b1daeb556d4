"""AST and parser for the bit-level packing language and a small ADT declaration subset.

Parsing performs no semantic checks; verification is a separate pass.
Bit literals are written most-significant bit first, e.g. ``0b_seeeeeff_ffffffff``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

# the deepest nesting of brackets in a type or packing expression
MAX_NESTING = 64


def is_field_bit(ch: str) -> bool:
    return ch.isalpha() and ch.isascii()


def _is_digits(text: str) -> bool:
    """True for a non-empty run of ASCII digits; `str.isdigit` also takes
    superscripts and other scripts' digits."""
    return text.isascii() and text.isdigit()


class PackingSyntaxError(Exception):
    """Raised on malformed input; carries a stable code and source position."""

    def __init__(self, message: str, line: int, col: int, code: str = "E001"):
        super().__init__(f"{code} at {line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.code = code


# ---------------------------------------------------------------------------
# Packing expressions


@dataclass(frozen=True)
class BitLayout:
    bits: tuple[str, ...]  # MSB first; each one of 0, 1, ?, or a letter
    pos: tuple[int, int] = field(default=(0, 0), compare=False)

    @property
    def width(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class FieldRef:
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Apply:
    name: str
    args: tuple["PackingExpr", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Concat:
    parts: tuple["PackingExpr", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Solve:
    parts: tuple["PackingExpr", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Empty:
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


PackingExpr = Union[BitLayout, FieldRef, Apply, Concat, Solve, Empty]


@dataclass(frozen=True)
class PackingDecl:
    name: str
    params: tuple[tuple[str, int], ...]  # (name, width in bits)
    width: int  # declared width
    body: PackingExpr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


# ---------------------------------------------------------------------------
# Field types for the ADT subset


@dataclass(frozen=True)
class IntType:
    width: int
    signed: bool


@dataclass(frozen=True)
class BoolType:
    pass


@dataclass(frozen=True)
class FloatType:
    width: int  # 32 or 64


@dataclass(frozen=True)
class TupleType:
    elems: tuple["TypeExpr", ...]


@dataclass(frozen=True)
class NamedType:
    """A type parameter, a declared ADT instantiation, or an opaque reference type."""

    name: str
    args: tuple["TypeExpr", ...] = ()


TypeExpr = Union[IntType, BoolType, FloatType, TupleType, NamedType]


@dataclass(frozen=True)
class Variant:
    name: str
    fields: tuple[tuple[str, TypeExpr], ...]
    packing: Optional[tuple[PackingExpr, ...]] = None  # one entry per scalar
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class AdtDecl:
    name: str
    type_params: tuple[str, ...]
    variants: tuple[Variant, ...]
    unboxed: bool = False
    captured: bool = False
    # ADT-level packing: exactly one expression per variant, in declaration order.
    packing: Optional[tuple[PackingExpr, ...]] = None
    pos: tuple[int, int] = field(default=(0, 0), compare=False)

    def packing_for_variant(self, index: int) -> Optional[tuple[PackingExpr, ...]]:
        """The per-scalar packing expression list for one variant, from either
        the ADT-level annotation or the case-level one."""
        case = self.variants[index].packing
        if case is not None:
            return case
        if self.packing is not None:
            return (self.packing[index],)
        return None

    @property
    def has_packing(self) -> bool:
        return self.packing is not None or any(v.packing is not None for v in self.variants)


Decl = Union[PackingDecl, AdtDecl]


# ---------------------------------------------------------------------------
# Lexer

_PUNCT = "(){}<>,:;="

_INT_ALIASES = {
    "int": (32, True),
    "byte": (8, False),
    "long": (64, True),
    "short": (16, True),
}
_FLOAT_ALIASES = {"float": 32, "double": 64, "f32": 32, "f64": 64}


@dataclass
class _Tok:
    kind: str  # ident | num | bits | hash | punct | eof
    text: str
    line: int
    col: int


_BIT_ALPHABET = set("01?_") | {chr(c) for c in range(ord("a"), ord("z") + 1)} | {
    chr(c) for c in range(ord("A"), ord("Z") + 1)
}


def _lex(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and src[i + 1] == "/":
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if src.startswith("0b", i):
            j = i + 2
            while j < n and src[j] in _BIT_ALPHABET:
                j += 1
            toks.append(_Tok("bits", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if _is_digits(ch):
            j = i
            while j < n and _is_digits(src[j]):
                j += 1
            toks.append(_Tok("num", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == "#":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            if j == i + 1:
                raise PackingSyntaxError("dangling '#'", line, col)
            toks.append(_Tok("hash", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            # dotted names are allowed so packings can refer to flattened
            # sub-fields like p.0
            while j < n and (src[j].isalnum() or src[j] in "_."):
                j += 1
            toks.append(_Tok("ident", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(_Tok("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise PackingSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, src: str):
        self.toks = _lex(src)
        self.i = 0
        self.depth = 0  # brackets open in the expression being parsed

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def err(self, msg: str, tok: Optional[_Tok] = None) -> PackingSyntaxError:
        t = tok or self.peek()
        return PackingSyntaxError(msg, t.line, t.col)

    def expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise self.err(f"expected {want!r}, found {t.text or t.kind!r}")
        return self.next()

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def open(self, text: str) -> None:
        """Consume the opening bracket `text`, one nesting level deeper."""
        if self.depth == MAX_NESTING and self.at_punct(text):
            raise self.err(f"nesting deeper than {MAX_NESTING} levels")
        self.expect("punct", text)
        self.depth += 1

    def close(self, text: str) -> None:
        self.expect("punct", text)
        self.depth -= 1

    # -- programs ----------------------------------------------------------

    def program(self) -> list[Decl]:
        decls: list[Decl] = []
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind == "ident" and t.text == "packing":
                decls.append(self.packing_decl())
            elif t.kind == "ident" and t.text == "type":
                decls.append(self.adt_decl())
            else:
                raise self.err("expected 'packing' or 'type' declaration")
        return decls

    def packing_decl(self) -> PackingDecl:
        start = self.expect("ident", "packing")
        name = self.expect("ident").text
        self.expect("punct", "(")
        params: list[tuple[str, int]] = []
        seen: set[str] = set()
        while not self.at_punct(")"):
            pname_tok = self.expect("ident")
            if pname_tok.text in seen:
                raise self.err(f"duplicate parameter {pname_tok.text!r}", pname_tok)
            seen.add(pname_tok.text)
            self.expect("punct", ":")
            width = int(self.expect("num").text)
            params.append((pname_tok.text, width))
            if not self.at_punct(")"):
                self.expect("punct", ",")
        self.expect("punct", ")")
        self.expect("punct", ":")
        width = int(self.expect("num").text)
        self.expect("punct", "=")
        body = self.packing_expr()
        self.expect("punct", ";")
        return PackingDecl(name, tuple(params), width, body, pos=(start.line, start.col))

    # -- packing expressions -----------------------------------------------

    def packing_expr(self) -> PackingExpr:
        t = self.peek()
        if t.kind == "bits":
            self.next()
            return _bit_layout_from_token(t)
        if t.kind == "hash":
            if t.text == "#concat":
                self.next()
                parts = self.expr_list_parens()
                return Concat(parts, pos=(t.line, t.col))
            if t.text == "#solve":
                self.next()
                parts = self.expr_list_parens()
                return Solve(parts, pos=(t.line, t.col))
            raise PackingSyntaxError(
                f"unknown packing operator {t.text!r}", t.line, t.col, code="E002"
            )
        if t.kind == "ident":
            self.next()
            if self.at_punct("("):
                args = self.expr_list_parens()
                return Apply(t.text, args, pos=(t.line, t.col))
            return FieldRef(t.text, pos=(t.line, t.col))
        # empty production
        return Empty(pos=(t.line, t.col))

    def expr_list_parens(self) -> tuple[PackingExpr, ...]:
        self.open("(")
        parts: list[PackingExpr] = []
        if not self.at_punct(")"):
            parts.append(self.packing_expr())
            while self.at_punct(","):
                self.next()
                parts.append(self.packing_expr())
        self.close(")")
        return tuple(parts)

    # -- ADT declarations ----------------------------------------------------

    def adt_decl(self) -> AdtDecl:
        start = self.expect("ident", "type")
        name = self.expect("ident").text
        type_params: list[str] = []
        if self.at_punct("<"):
            self.next()
            type_params.append(self.expect("ident").text)
            while self.at_punct(","):
                self.next()
                type_params.append(self.expect("ident").text)
            self.expect("punct", ">")
        unboxed, captured, packing = self.annotations(allow_marks=True)
        self.expect("punct", "{")
        variants: list[Variant] = []
        while not self.at_punct("}"):
            variants.append(self.case_decl())
        self.expect("punct", "}")
        decl = AdtDecl(
            name,
            tuple(type_params),
            tuple(variants),
            unboxed=unboxed,
            captured=captured,
            packing=packing,
            pos=(start.line, start.col),
        )
        if not variants:
            raise self.err(f"type {name} has no cases", start)
        case_names: set[str] = set()
        for v in variants:
            if v.name in case_names:
                raise PackingSyntaxError(f"type {name} has two cases named {v.name}", *v.pos)
            case_names.add(v.name)
            field_names: set[str] = set()
            for f, _ in v.fields:
                if f in field_names:
                    raise PackingSyntaxError(f"case {v.name} has two fields named {f}", *v.pos)
                field_names.add(f)
        if packing is not None:
            if any(v.packing is not None for v in variants):
                raise self.err("cannot mix type-level and case-level #packing", start)
            if len(packing) != len(variants):
                raise self.err(
                    f"type-level #packing has {len(packing)} entries "
                    f"for {len(variants)} cases",
                    start,
                )
        return decl

    def annotations(self, allow_marks: bool) -> tuple[bool, bool, Optional[tuple[PackingExpr, ...]]]:
        unboxed = captured = False
        packing: Optional[tuple[PackingExpr, ...]] = None
        while self.peek().kind == "hash":
            t = self.peek()
            if t.text == "#unboxed" and allow_marks:
                self.next()
                unboxed = True
            elif t.text == "#captured" and allow_marks:
                self.next()
                captured = True
            elif t.text in ("#packing", "#packed"):
                self.next()
                if packing is not None:
                    raise self.err("duplicate #packing annotation", t)
                if self.at_punct("("):
                    packing = self.expr_list_parens()
                else:
                    packing = (self.packing_expr(),)
            else:
                raise PackingSyntaxError(
                    f"unknown annotation {t.text!r}", t.line, t.col, code="E002"
                )
        return unboxed, captured, packing

    def case_decl(self) -> Variant:
        start = self.expect("ident", "case")
        name = self.expect("ident").text
        fields: list[tuple[str, TypeExpr]] = []
        if self.at_punct("("):
            self.next()
            while not self.at_punct(")"):
                fname = self.expect("ident").text
                self.expect("punct", ":")
                fields.append((fname, self.type_expr()))
                if not self.at_punct(")"):
                    self.expect("punct", ",")
            self.expect("punct", ")")
        _, _, packing = self.annotations(allow_marks=False)
        self.expect("punct", ";")
        return Variant(name, tuple(fields), packing=packing, pos=(start.line, start.col))

    def type_expr(self) -> TypeExpr:
        if self.at_punct("("):
            self.open("(")
            elems = [self.type_expr()]
            while self.at_punct(","):
                self.next()
                elems.append(self.type_expr())
            self.close(")")
            if len(elems) == 1:
                return elems[0]
            return TupleType(tuple(elems))
        t = self.expect("ident")
        name = t.text
        if name == "bool":
            return BoolType()
        if name in _FLOAT_ALIASES:
            return FloatType(_FLOAT_ALIASES[name])
        if name in _INT_ALIASES:
            w, s = _INT_ALIASES[name]
            return IntType(w, s)
        if len(name) > 1 and name[0] in "ui" and _is_digits(name[1:]):
            width = int(name[1:])
            if not 1 <= width <= 64:
                raise self.err(f"integer width {width} out of range 1..64", t)
            return IntType(width, name[0] == "i")
        args: tuple[TypeExpr, ...] = ()
        if self.at_punct("<"):
            self.open("<")
            elems = [self.type_expr()]
            while self.at_punct(","):
                self.next()
                elems.append(self.type_expr())
            self.close(">")
            args = tuple(elems)
        return NamedType(name, args)


def _bit_layout_from_token(t: _Tok) -> PackingExpr:
    bits: list[str] = []
    for off, ch in enumerate(t.text[2:]):
        if ch == "_":
            continue
        if ch in "01?" or is_field_bit(ch):
            bits.append(ch)
        else:
            raise PackingSyntaxError(f"bad bit character {ch!r}", t.line, t.col + 2 + off)
    if not bits:
        return Empty(pos=(t.line, t.col))
    return BitLayout(tuple(bits), pos=(t.line, t.col))


# ---------------------------------------------------------------------------
# Entry points


def parse_program(source: str) -> list[Decl]:
    """Parse packing and type declarations; returns ASTs in source order."""
    return _Parser(source).program()


def parse_packing_expr(source: str) -> PackingExpr:
    p = _Parser(source)
    e = p.packing_expr()
    if p.peek().kind != "eof":
        raise p.err("trailing input after packing expression")
    return e


def parse_type(source: str) -> TypeExpr:
    p = _Parser(source)
    t = p.type_expr()
    if p.peek().kind != "eof":
        raise p.err("trailing input after type")
    return t


# ---------------------------------------------------------------------------
# Printing (canonical form; re-parsing yields a structurally identical AST)


def print_expr(e: PackingExpr) -> str:
    if isinstance(e, Empty):
        return "0b"
    if isinstance(e, BitLayout):
        groups = []
        bits = "".join(e.bits)
        for k in range(0, len(bits), 8):
            groups.append(bits[k : k + 8])
        return "0b_" + "_".join(groups)
    if isinstance(e, FieldRef):
        return e.name
    if isinstance(e, Apply):
        return f"{e.name}({', '.join(print_expr(a) for a in e.args)})"
    if isinstance(e, Concat):
        return f"#concat({', '.join(print_expr(a) for a in e.parts)})"
    if isinstance(e, Solve):
        return f"#solve({', '.join(print_expr(a) for a in e.parts)})"
    raise TypeError(f"not a packing expression: {e!r}")


def print_type(t: TypeExpr) -> str:
    if isinstance(t, BoolType):
        return "bool"
    if isinstance(t, IntType):
        return f"{'i' if t.signed else 'u'}{t.width}"
    if isinstance(t, FloatType):
        return f"f{t.width}"
    if isinstance(t, TupleType):
        return "(" + ", ".join(print_type(e) for e in t.elems) + ")"
    if isinstance(t, NamedType):
        if t.args:
            return f"{t.name}<{', '.join(print_type(a) for a in t.args)}>"
        return t.name
    raise TypeError(f"not a type: {t!r}")


def print_decl(d: Decl) -> str:
    if isinstance(d, PackingDecl):
        params = ", ".join(f"{n}: {w}" for n, w in d.params)
        return f"packing {d.name}({params}): {d.width} = {print_expr(d.body)};"
    lines = [f"type {d.name}"]
    if d.type_params:
        lines[0] += f"<{', '.join(d.type_params)}>"
    if d.unboxed:
        lines[0] += " #unboxed"
    if d.captured:
        lines[0] += " #captured"
    if d.packing is not None:
        lines[0] += f" #packing({', '.join(print_expr(e) for e in d.packing)})"
    lines[0] += " {"
    for v in d.variants:
        row = f"  case {v.name}"
        if v.fields:
            row += "(" + ", ".join(f"{n}: {print_type(t)}" for n, t in v.fields) + ")"
        if v.packing is not None:
            row += f" #packing({', '.join(print_expr(e) for e in v.packing)})"
        row += ";"
        lines.append(row)
    lines.append("}")
    return "\n".join(lines)


def print_program(decls: list[Decl]) -> str:
    return "\n".join(print_decl(d) for d in decls) + "\n"
