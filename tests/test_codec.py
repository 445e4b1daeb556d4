import pathlib
import random

import pytest

from adtlayout import codec
from adtlayout.pipeline import process_adts
from adtlayout.solver import ExplicitTag
from adtlayout.syntax import parse_program
from adtlayout.targets import BUILTIN_TARGETS, X64, load_target

from corpus import TARGET_NAMES, TARGETS, build_corpus, random_field_values, solve_corpus_and_progen
from oracles import reference_decode, reference_encode, reference_tag

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


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


def test_the_codec_agrees_with_the_reference_codec():
    """The codec, which writes and reads each field and explicit tag by its
    read plan, agrees with `oracles.reference_encode`/`reference_decode`/
    `reference_tag`, which shift and mask every read, on random encodings of
    every case of the corpus and the progen declarations on the three
    built-in targets and the two Wasm targets; some plans mask and some do
    not."""
    wasm = tuple(load_target(str(EXAMPLES / f"{name}.json")) for name in ("wasm32", "wasm-gc"))
    rng = random.Random("read-plan")
    masked = unmasked = 0
    for out in solve_corpus_and_progen(TARGETS + wasm):
        for key, lay in out.layouts().items():
            for v, variant in enumerate(lay.adt.variants):
                for _ in range(3):
                    values = random_field_values(lay, v, rng)
                    scalars = codec.encode_variant(lay, v, values)
                    assert scalars == reference_encode(lay, v, values), (key, v, values)
                    assert codec.variant_of(lay, scalars) == v
                    if isinstance(lay.tag_scheme, ExplicitTag):
                        assert reference_tag(lay, scalars) == v
                    for f in variant.fields:
                        got = codec.decode_field(lay, v, f.name, scalars)
                        assert got == reference_decode(lay, v, f.name, scalars) == values[f.name]
                        mask = lay.plans[(v, f.name)].mask
                        masked += bool(mask)
                        unmasked += not mask
    assert masked and unmasked
