"""Exact arithmetic, encoding, and enumeration for the three group kinds."""

import copy
import pickle
import random
import sys
from collections import Counter

import pytest

from lampwalk.errors import GroupMismatchError, ParseError, SizeCapError
from lampwalk.groups import (
    AbelianControlElement,
    LAMP_A,
    LAMP_S,
    LAMP_S_INV,
    LamplighterElement,
    ProductElement,
    abelian_control_group,
    decode,
    encode,
    enumerate_elements,
    inverse,
    is_identity,
    lamplighter_group,
    multiply,
    product_group,
    word_ball,
)

LAMP = lamplighter_group()
CONTROL = abelian_control_group()
PRODUCT = product_group(LAMP, LAMP)


def random_lamp(rng, span=6):
    lamps = tuple(sorted(rng.sample(range(-span, span + 1), rng.randrange(0, 4))))
    return LamplighterElement(lamps, rng.randrange(-span, span + 1))


def random_element(group, rng):
    if group.kind == "lamplighter":
        return random_lamp(rng)
    if group.kind == "abelian-control":
        return AbelianControlElement(rng.randrange(-9, 10), rng.randrange(-9, 10))
    return ProductElement(random_lamp(rng), random_lamp(rng))


# -- multiplication ------------------------------------------------------------


def test_wreath_law_hand_example():
    # ({0},1) * ({0},1) = ({0,1},2)
    g = LamplighterElement((0,), 1)
    assert multiply(g, g) == LamplighterElement((0, 1), 2)


def test_cayley_table_oracle():
    # 4-element table over {e, a, s, s^-1} recomputed by hand from the wreath law
    e = LAMP.identity()
    table = {
        (e, e): e, (e, LAMP_A): LAMP_A, (e, LAMP_S): LAMP_S, (e, LAMP_S_INV): LAMP_S_INV,
        (LAMP_A, e): LAMP_A, (LAMP_A, LAMP_A): e,
        (LAMP_A, LAMP_S): LamplighterElement((0,), 1),
        (LAMP_A, LAMP_S_INV): LamplighterElement((0,), -1),
        (LAMP_S, e): LAMP_S, (LAMP_S, LAMP_A): LamplighterElement((1,), 1),
        (LAMP_S, LAMP_S): LamplighterElement((), 2), (LAMP_S, LAMP_S_INV): e,
        (LAMP_S_INV, e): LAMP_S_INV, (LAMP_S_INV, LAMP_A): LamplighterElement((-1,), -1),
        (LAMP_S_INV, LAMP_S): e, (LAMP_S_INV, LAMP_S_INV): LamplighterElement((), -2),
    }
    for (x, y), want in table.items():
        assert multiply(x, y) == want


def test_identity_law_random():
    rng = random.Random(1)
    e = LAMP.identity()
    for _ in range(100):
        g = random_lamp(rng)
        assert multiply(e, g) == g
        assert multiply(g, e) == g


def test_inverse_cancels():
    g = LamplighterElement((0, 3), 2)
    assert is_identity(multiply(g, inverse(g)))
    assert is_identity(multiply(inverse(g), g))


def test_mismatched_kinds_raise():
    with pytest.raises(GroupMismatchError):
        multiply(LAMP_A, AbelianControlElement(1, 0))


@pytest.mark.parametrize("group", [LAMP, CONTROL, PRODUCT], ids=lambda g: g.kind)
def test_group_laws_random_triples(group):
    rng = random.Random(hash(group.kind) & 0xFFFF)
    e = group.identity()
    for _ in range(10_000):
        a = random_element(group, rng)
        b = random_element(group, rng)
        c = random_element(group, rng)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, e) == a and multiply(e, a) == a
        assert is_identity(multiply(a, inverse(a)))


def test_products_and_inverses_match_validated_wreath_law():
    # multiply and inverse build their results without validation; rebuild each
    # one through the validating constructor from the wreath law written out
    rng = random.Random(4)
    for _ in range(10_000):
        a, b = random_lamp(rng), random_lamp(rng)
        t = a.cursor
        for got, want in (
            (
                multiply(a, b),
                LamplighterElement(
                    tuple(sorted(set(a.lamps) ^ {p + t for p in b.lamps})), t + b.cursor
                ),
            ),
            (inverse(a), LamplighterElement(tuple(sorted(p - t for p in a.lamps)), -t)),
        ):
            assert got == want and hash(got) == hash(want)
            assert type(got.lamps) is tuple
            assert all(x < y for x, y in zip(got.lamps, got.lamps[1:]))


def reference_product(a, b):
    """The wreath law written with sets: (L1 xor (L2 + t1), t1 + t2)."""
    t = a.cursor
    return tuple(sorted(set(a.lamps) ^ {p + t for p in b.lamps})), t + b.cursor


def lamp_relation(a, b):
    """How a's lamps meet b's lamps shifted by a's cursor."""
    mine, theirs = a.lamps, [p + a.cursor for p in b.lamps]
    if not mine or not theirs:
        return "empty"
    if mine[-1] < theirs[0] or theirs[-1] < mine[0]:
        gap = max(theirs[0] - mine[-1], mine[0] - theirs[-1])
        return "adjacent" if gap == 1 else "disjoint"
    if mine[-1] == theirs[0] or theirs[-1] == mine[0]:
        return "touching"
    return "overlapping"


def spread_lamp(rng):
    """A lamplighter element with lamps anywhere in a window of random offset."""
    span = rng.choice((1, 3, 8))
    offset = rng.randrange(-12, 13)
    lamps = sorted(rng.sample(range(offset, offset + span + 1), rng.randrange(0, min(span, 4) + 1)))
    return LamplighterElement(lamps, rng.randrange(-12, 13))


def test_multiply_matches_the_set_formula_on_every_lamp_relation():
    rng = random.Random(9)
    e = LAMP.identity()
    seen = Counter()
    for _ in range(20_000):
        a, b, c = spread_lamp(rng), spread_lamp(rng), spread_lamp(rng)
        seen[lamp_relation(a, b)] += 1
        seen["negative cursor"] += a.cursor < 0
        got = multiply(a, b)
        assert (got.lamps, got.cursor) == reference_product(a, b)
        assert type(got) is LamplighterElement and type(got.lamps) is tuple
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, inverse(a)) == e == multiply(inverse(a), a)
        p, q = ProductElement(a, b), ProductElement(c, a)
        pq = multiply(p, q)
        assert type(pq) is ProductElement
        assert (pq.left, pq.right) == (multiply(a, c), multiply(b, a))
        assert is_identity(multiply(p, inverse(p)))
    for relation in ("empty", "disjoint", "adjacent", "touching", "overlapping", "negative cursor"):
        assert seen[relation] >= 200, (relation, seen)


def test_hash_and_equality_are_those_of_the_field_tuple():
    # set iteration orders, and so every seeded artifact, rest on these hashes
    rng = random.Random(10)
    pool = [random_lamp(rng, span=1) for _ in range(300)]
    products = [ProductElement(rng.choice(pool), rng.choice(pool)) for _ in range(300)]
    for g in pool:
        assert hash(g) == hash((g.lamps, g.cursor))
        assert g == (g.lamps, g.cursor)
    for p in products:
        assert hash(p) == hash((p.left, p.right))
    controls = [random_element(CONTROL, rng) for _ in range(300)]
    for a in controls:
        assert hash(a) == hash((a.x, a.y))
        assert a == (a.x, a.y)
    for elems in (pool, products, controls):
        for _ in range(5000):
            g, h = rng.choice(elems), rng.choice(elems)
            assert (g == h) == (encode(g) == encode(h))
            assert (g != h) == (encode(g) != encode(h))
    assert len({encode(g) for g in pool}) < len(pool)  # equal pairs occurred
    assert all(g != p for g in pool for p in products[:20])


ONE_OF_EACH_KIND = [
    LamplighterElement((0, 3), -2), ProductElement(LAMP_A, LAMP_S_INV), AbelianControlElement(-3, 7),
]


@pytest.mark.parametrize("g", ONE_OF_EACH_KIND, ids=["lamplighter", "product", "control"])
def test_tuple_operations_stay_closed(g):
    with pytest.raises(TypeError, match="unsupported operand"):
        2 * g
    with pytest.raises(GroupMismatchError):
        g * 2
    with pytest.raises(TypeError, match="unsupported operand"):
        g + g


@pytest.mark.parametrize("g", ONE_OF_EACH_KIND, ids=["lamplighter", "product", "control"])
def test_copy_deepcopy_and_pickle_keep_the_element(g):
    copies = [copy.copy(g), copy.deepcopy(g)]
    copies += [pickle.loads(pickle.dumps(g, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is type(g) and twin == g and hash(twin) == hash(g)
        assert encode(twin) == encode(g)


def test_repr_names_the_fields():
    assert repr(LamplighterElement((0, 3), -2)) == "LamplighterElement(lamps=(0, 3), cursor=-2)"
    assert repr(ProductElement(LAMP_A, LAMP_S)) == (
        "ProductElement(left=LamplighterElement(lamps=(0,), cursor=0),"
        " right=LamplighterElement(lamps=(), cursor=1))"
    )
    assert repr(AbelianControlElement(-3, 7)) == "AbelianControlElement(x=-3, y=7)"


def test_inverse_examples():
    g = LamplighterElement((0, 3), 2)
    assert inverse(g) == LamplighterElement((-2, 1), -2)
    assert inverse(LAMP.identity()) == LAMP.identity()


def test_inverse_involution_random():
    rng = random.Random(2)
    for _ in range(100):
        g = random_element(PRODUCT, rng)
        assert inverse(inverse(g)) == g


# -- encoding -------------------------------------------------------------------


def test_encode_examples():
    assert encode(LamplighterElement((0, 3), 2)) == "2|0,3"
    assert encode(LamplighterElement((), -1)) == "-1|"
    assert encode(ProductElement(LAMP_A, LAMP_S)) == "(0|0;1|)"
    assert encode(AbelianControlElement(-3, 7)) == "-3,7"


def test_encode_past_digit_limit_is_a_lampwalk_error():
    # a cursor of 4*limit bits has about 1.2*limit decimal digits
    big = LamplighterElement((), 1 << (4 * sys.get_int_max_str_digits()))
    with pytest.raises(SizeCapError, match="decimal digits"):
        encode(big)
    with pytest.raises(SizeCapError):
        encode(ProductElement(LAMP_A, big))


@pytest.mark.parametrize("lamps", [(1, 0), (0, 0)])
def test_constructor_rejects_noncanonical_lamps(lamps):
    with pytest.raises(ValueError):
        LamplighterElement(lamps, 0)


def test_decode_rejects_unsorted_lamps():
    for bad in ["2|3,0", "2|0,0", "0|1,0", "0|0,0", "(0|1,0;0|)"]:
        with pytest.raises(ParseError):
            decode(bad)


def test_decode_reports_position():
    with pytest.raises(ParseError) as err:
        decode("2|x")
    assert "position" in str(err.value)


def test_decode_rejects_garbage():
    for bad in ["", "zorp", "(1|;2|", "(1|2|)"]:
        with pytest.raises(ParseError):
            decode(bad)


@pytest.mark.parametrize("bad", ["1_0|", "+3|", "007|", " 5|", "1|2, 3", "-0|", "1|\u0663", "3,-0"])
def test_decode_rejects_noncanonical_integers(bad):
    # int() accepts each of these, so encode(decode(bad)) would differ from bad
    with pytest.raises(ParseError) as err:
        decode(bad)
    assert err.value.position is not None


def test_decode_past_digit_limit_reports_position():
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError) as err:
        decode(f"(0|;1|0,{digits})")
    assert err.value.position == 8


def test_integer_tables_change_no_text_or_element():
    rng = random.Random(5)
    pool = [random_element(group, rng) for group in (LAMP, CONTROL, PRODUCT) for _ in range(300)]
    big = 1 << 5000
    pool.append(ProductElement(LamplighterElement((-big, big), big), LamplighterElement((big,), -big)))
    to_text, to_int = {}, {}
    texts = [encode(g, to_text) for g in pool]
    assert texts == [encode(g) for g in pool]
    assert [decode(t, table=to_int) for t in texts] == pool
    assert to_text == {n: t for t, n in to_int.items()}


def random_nested(rng):
    """An element of (L x L) x L, or of L x (L x L), the fast split's two cases."""
    pair = ProductElement(random_lamp(rng), random_lamp(rng))
    if rng.random() < 0.5:
        return ProductElement(pair, random_lamp(rng))
    return ProductElement(random_lamp(rng), pair)


def test_nested_products_roundtrip():
    rng = random.Random(4)
    table = {}
    for _ in range(2000):
        g = random_nested(rng)
        assert decode(encode(g)) == g
        assert decode(encode(g), table=table) == g


@pytest.mark.parametrize(
    "bad, message",
    [
        ("(1|);2|)", "product element needs a top-level ';' (at position 0)"),
        ("((1|;2|)", "product element needs a top-level ';' (at position 0)"),
        ("(;)", "unrecognized element grammar (at position 1)"),
        ("(1|;)", "unrecognized element grammar (at position 4)"),
    ],
)
def test_product_split_errors_keep_their_messages(bad, message):
    with pytest.raises(ParseError) as err:
        decode(bad)
    assert str(err.value) == message


@pytest.mark.parametrize("group", [LAMP, CONTROL, PRODUCT], ids=lambda g: g.kind)
def test_roundtrip_random(group):
    rng = random.Random(3)
    for _ in range(10_000):
        g = random_element(group, rng)
        assert decode(encode(g)) == g


# -- enumeration ------------------------------------------------------------------


def test_enumerate_starts_at_identity():
    assert enumerate_elements(LAMP, 1) == [LAMP.identity()]


def test_enumerate_first_layer_in_encoding_order():
    got = [encode(g) for g in enumerate_elements(LAMP, 4)]
    assert got == ["0|", "-1|", "0|0", "1|"]


def test_enumerate_deterministic_and_injective():
    a = enumerate_elements(PRODUCT, 200)
    b = enumerate_elements(PRODUCT, 200)
    assert a == b
    assert len(set(a)) == 200


def test_enumerate_rejects_bad_count():
    with pytest.raises(ValueError):
        enumerate_elements(LAMP, 0)


def test_abelian_enumeration_layer_closure():
    # the union of complete BFS layers is closed under inverse
    elems = enumerate_elements(CONTROL, 25)
    layer_sizes = [1, 4, 8, 12]
    start = 0
    for size in layer_sizes:
        if start + size > len(elems):
            break
        layer = set(elems[start : start + size])
        assert {inverse(g) for g in layer} == layer
        start += size


# -- word balls --------------------------------------------------------------------


def test_ball_zero_is_identity():
    assert word_ball(LAMP, 0) == {LAMP.identity()}


def test_lamplighter_ball_one():
    assert word_ball(LAMP, 1) == {LAMP.identity(), LAMP_A, LAMP_S, LAMP_S_INV}


def test_ball_monotone():
    sizes = [len(word_ball(LAMP, r)) for r in range(5)]
    assert sizes == sorted(sizes)


def test_ball_cap_refusal():
    with pytest.raises(SizeCapError) as err:
        word_ball(LAMP, 12, size_cap=100)
    assert err.value.predicted > 100


def test_abelian_ball_is_diamond():
    ball = word_ball(CONTROL, 2)
    assert ball == {
        AbelianControlElement(x, y)
        for x in range(-2, 3)
        for y in range(-2, 3)
        if abs(x) + abs(y) <= 2
    }


def test_abelian_commutativity_on_ball():
    ball = word_ball(CONTROL, 3)
    for x in ball:
        for y in ball:
            assert multiply(x, y) == multiply(y, x)
