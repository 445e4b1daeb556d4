import random

import pytest

from adtlayout import codec
from adtlayout.pipeline import process_adts
from adtlayout.solver import ExplicitTag, read_mask, tag_read_mask
from adtlayout.syntax import parse_program
from adtlayout.targets import BUILTIN_TARGETS, REF_PLAIN, X64

from corpus import TARGET_NAMES, build_corpus, random_field_values, solve_corpus_and_progen


def test_float16_packed_encode():
    out = build_corpus(X64)
    lay = out.resolved["C19"].layout
    scalars = codec.encode_variant(lay, 0, {"sign": 1, "exp": 0b10000, "frac": 0})
    assert scalars[0] & 0xFFFF == 0xC000
    assert codec.decode_field(lay, 0, "frac", scalars) == 0
    assert codec.decode_field(lay, 0, "exp", scalars) == 0b10000
    assert codec.decode_field(lay, 0, "sign", scalars) == 1


def test_option_none_is_zero_scalar():
    out = build_corpus(X64)
    lay = out.resolved["C05"].layout
    assert codec.encode_variant(lay, 0, {}) == [0]
    assert codec.variant_of(lay, [0]) == 0


def test_decode_full_width_field_is_identity():
    out = build_corpus(X64)
    lay = out.resolved["C10"].layout
    scalars = codec.encode_variant(lay, 0, {"w": 0xDEAD_BEEF_0BAD_F00D})
    assert codec.decode_field(lay, 0, "w", scalars) == 0xDEAD_BEEF_0BAD_F00D


def test_signed_fields_sign_extend():
    out = build_corpus(X64)
    lay = out.resolved["C23"].layout
    scalars = codec.encode_variant(lay, 0, {"x": -5})
    assert codec.decode_field(lay, 0, "x", scalars) == -5
    scalars = codec.encode_variant(lay, 1, {"y": -(1 << 31)})
    assert codec.decode_field(lay, 1, "y", scalars) == -(1 << 31)


def test_out_of_range_rejected():
    out = build_corpus(X64)
    lay = out.resolved["C05"].layout
    with pytest.raises(codec.EncodeError):
        codec.encode_variant(lay, 1, {"val": 1 << 32})
    with pytest.raises(codec.EncodeError):
        codec.encode_variant(lay, 1, {})


def test_unaligned_reference_rejected():
    out = build_corpus(X64)
    lay = out.resolved["C14"].layout
    with pytest.raises(codec.EncodeError):
        codec.encode_variant(lay, 1, {"r": 0x1001})


@pytest.mark.parametrize("target_name", TARGET_NAMES)
def test_roundtrip_corpus_quick(target_name):
    """decode(encode(v)) is the identity for every field of every variant;
    the full 10^4-vector sweep lives in the acceptance suite."""
    target = BUILTIN_TARGETS[target_name]
    out = build_corpus(target)
    rng = random.Random(f"codec:{target_name}")
    for key in out.order:
        lay = out.resolved[key].layout
        if lay is None:
            continue
        for vi, variant in enumerate(lay.adt.variants):
            for _ in range(200):
                values = random_field_values(lay, vi, rng)
                scalars = codec.encode_variant(lay, vi, values)
                assert codec.variant_of(lay, scalars) == vi, (key, vi, values)
                for f in variant.fields:
                    got = codec.decode_field(lay, vi, f.name, scalars)
                    assert got == values[f.name], (key, vi, f.name, values)


def test_classify_matches_tag_extraction_when_explicit():
    from adtlayout.solver import ExplicitTag

    out = build_corpus(X64)
    rng = random.Random(5)
    for key in out.order:
        lay = out.resolved[key].layout
        if lay is None or not isinstance(lay.tag_scheme, ExplicitTag):
            continue
        s = lay.tag_scheme
        for vi in range(len(lay.adt.variants)):
            values = random_field_values(lay, vi, rng)
            scalars = codec.encode_variant(lay, vi, values)
            raw = (scalars[s.slot] >> s.offset) & ((1 << s.width) - 1)
            assert raw == vi == codec.variant_of(lay, scalars)


def test_reads_by_read_mask_agree_with_the_codec():
    """A field read as `read_mask` has it (a plain reference masked in place,
    any other field shifted down, masked only when its case sets a bit above
    it, then sign-extended when signed) gives `codec.decode_field`, and an
    explicit tag read alike gives `codec.variant_of`, on random encodings of
    every case of the corpus and the progen declarations on three targets."""
    rng = random.Random("read-mask")
    masked = unmasked = 0
    for out in solve_corpus_and_progen():
        for key in out.order:
            lay = out.resolved[key].layout
            if lay is None:
                continue
            scheme = lay.tag_scheme
            for v, variant in enumerate(lay.adt.variants):
                for _ in range(3):
                    scalars = codec.encode_variant(lay, v, random_field_values(lay, v, rng))
                    if isinstance(scheme, ExplicitTag):
                        tag = scalars[scheme.slot] >> scheme.offset
                        mask = tag_read_mask(lay.patterns, scheme)
                        assert (tag & mask if mask else tag) == codec.variant_of(lay, scalars) == v
                    for f in variant.fields:
                        pl = lay.placements[(v, f.name)]
                        p = lay.patterns[v][pl.slot]
                        plain = f.ref_mode == REF_PLAIN
                        mask = read_mask(p.ones | p.field, pl.offset, pl.width, plain)
                        got = scalars[pl.slot] >> (0 if plain else pl.offset)
                        if mask:
                            got &= mask
                        if f.signed and got & (1 << (pl.width - 1)):
                            got -= 1 << pl.width
                        assert got == codec.decode_field(lay, v, f.name, scalars), (key, v, f.name)
                        masked += bool(mask)
                        unmasked += not mask
    assert masked and unmasked
