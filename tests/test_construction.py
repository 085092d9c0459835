"""Level schedules: building, certificates, persistence, membership."""

from fractions import Fraction

import pytest

from lampwalk.construction import Config, Construction
from lampwalk.errors import CorruptFileError, ScheduleLimitError
from lampwalk.groups import (
    LAMP_A,
    LAMP_S,
    LAMP_S_INV,
    LamplighterElement,
    encode,
    inverse,
    lamplighter_group,
)
from lampwalk.setalg import SkewBox, explicit, power_set
from lampwalk.switchers import is_superswitcher, is_switcher

LAMP = lamplighter_group()
E = LAMP.identity()


def test_level_one_starts_at_identity(mini_asym, paper_asym):
    for c in (mini_asym, paper_asym):
        lv = c.level(1)
        for j in (1, 2):
            assert c.a_core(j, 1) == (E,)
            assert lv.factor(j).a_card == 1


def test_level_one_box_is_width_one(paper_asym):
    lv = paper_asym.level(1)
    assert lv.n == 1
    box = lv.box()
    assert box.size() == 2
    assert set(box.iter_elements()) == {E, LAMP_A}
    assert lv.folner_ratio == 0


def test_paper_level_two_box_and_ratio(paper_asym):
    lv = paper_asym.level(2)
    # subadditive bound over the 85 elements of A^3 with delta = 1/2
    assert lv.n == 46513
    assert lv.folner_certified
    assert lv.folner_ratio is not None and lv.folner_ratio < Fraction(1, 2)


def test_paper_level_one_switchers(paper_asym):
    fl = paper_asym.level(1).factor(1)
    assert fl.b1 == LamplighterElement((1,), 2)
    assert fl.b2 == LamplighterElement((40,), 100)


def test_paper_level_four_refused(paper_asym):
    with pytest.raises(ScheduleLimitError):
        paper_asym.build_level(4)


def test_c_pair_sequence(mini_asym):
    pairs = [encode(mini_asym.c_pair(i)) for i in range(1, 8)]
    assert pairs == [
        "(0|;0|)", "(-1|;0|)", "(0|0;0|)", "(0|;-1|)", "(0|;0|0)", "(0|;1|)", "(1|;0|)",
    ]


def test_mini_brute_verification_at_build(mini_asym, mini_sym):
    # build_to(2) in the fixtures already ran the brute checks; re-run level 1
    for c, check in ((mini_asym, is_switcher), (mini_sym, is_superswitcher)):
        lv = c.level(1)
        box = lv.box().as_explicit(LAMP)
        for j in (1, 2):
            base = explicit(LAMP, set(c.a_core(j, 1)) | box.elements
                            | {inverse(g) for g in box.elements})
            step3 = power_set(base, 2)
            assert check(lv.factor(j).b1, step3).passed


def test_core_nesting_and_exactness(mini_asym):
    for j in (1, 2):
        c1 = set(mini_asym.a_core(j, 1))
        c2 = set(mini_asym.a_core(j, 2))
        assert c1 <= c2
        assert mini_asym.level(2).factor(j).a_exact


def test_symmetric_cores_are_symmetric(mini_sym):
    for i in (1, 2):
        for j in (1, 2):
            core = set(mini_sym.a_core(j, i))
            assert {inverse(g) for g in core} == core


def test_membership_examples(mini_asym):
    c = mini_asym
    assert c.membership_a(1, 1, E) == "yes"
    assert c.membership_a(1, 2, E) == "yes"
    # c(1,1) = identity enters A(1,2); c(1,2) = s^-1 enters A(1,3)
    assert c.membership_a(1, 3, LAMP_S_INV) == "yes"
    far = LamplighterElement((), 10**6)
    assert c.membership_a(1, 2, far) == "no"


def test_membership_levels_of_generators(mini_asym):
    c = mini_asym
    assert c.membership_level(1, E) == 1
    assert c.membership_level(1, LAMP_S_INV) == 3
    assert c.membership_level(1, LAMP_A) == 4
    assert c.membership_level(1, LAMP_S) == 8
    assert c.membership_level(2, LAMP_S_INV) == 5
    assert c.membership_level(2, LAMP_A) == 6
    assert c.membership_level(2, LAMP_S) == 7


def test_psi_is_rank_preserving_bijection(mini_asym):
    c = mini_asym
    box = c.box(2)
    seen = set()
    for f in box.iter_elements():
        s = c.psi_apply(1, 2, f)
        assert c.psi_invert(1, 2, s) == f
        assert s == box.unrank(box.rank(f))
        seen.add(s)
    assert len(seen) == box.size()


def test_determinism_two_builds():
    a = Construction("asymmetric", "mini", Config(brute_verify=False))
    b = Construction("asymmetric", "mini", Config(brute_verify=False))
    a.build_to(2)
    b.build_to(2)
    assert a.serialize() == b.serialize()


def test_save_load_roundtrip(tmp_path, mini_asym):
    path = tmp_path / "c.lwc"
    mini_asym.save(path)
    loaded = Construction.load(path)
    assert loaded.serialize() == mini_asym.serialize()
    path2 = tmp_path / "c2.lwc"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_loaded_construction_extends_identically(tmp_path):
    cfg = Config(brute_verify=False)
    a = Construction("asymmetric", "mini", cfg)
    a.build_to(3)
    b = Construction("asymmetric", "mini", cfg)
    b.build_to(2)
    path = tmp_path / "partial.lwc"
    b.save(path)
    loaded = Construction.load(path)
    loaded.build_to(3)
    assert loaded.serialize() == a.serialize()


def test_truncated_file_rejected(tmp_path, mini_asym):
    path = tmp_path / "c.lwc"
    mini_asym.save(path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CorruptFileError):
        Construction.load(path)


def test_corrupt_field_rejected(tmp_path, mini_asym):
    path = tmp_path / "c.lwc"
    mini_asym.save(path)
    text = path.read_text().replace("b1: 2|1", "b1: 3|1", 1)
    path.write_text(text)
    with pytest.raises(CorruptFileError):
        Construction.load(path)


def test_paper_serialize_roundtrip(tmp_path, paper_asym):
    # level-3 window parameters are hundreds of kilobits, written as exact
    # decimal integers; save writes exactly serialize(), so comparing with the
    # file spares serializing the original a second time
    path = tmp_path / "paper.lwc"
    paper_asym.save(path)
    loaded = Construction.load(path)
    assert loaded.level(3).n == paper_asym.level(3).n
    assert loaded.serialize() == path.read_text()


def test_shared_box_keeps_pairing_sizes(mini_sym):
    # |S(j,i)| = |F(3-j,i)| holds because both factors share one box per level
    for i in (1, 2):
        lv = mini_sym.level(i)
        assert lv.box().size() == SkewBox(lv.n).size()
