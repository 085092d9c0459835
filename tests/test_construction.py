"""Level schedules: building, certificates, persistence, membership."""

import hashlib
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from references import membership_a

from lampwalk.construction import BRUTE_POWER, Config, Construction
from lampwalk.errors import CorruptFileError, LampwalkError, ScheduleLimitError
from lampwalk.groups import (
    LAMP_A,
    LAMP_S,
    LAMP_S_INV,
    LamplighterElement,
    encode,
    inverse,
    lamplighter_group,
)
from lampwalk.setalg import (
    BoundCertificate,
    SkewBox,
    certify,
    certify_power,
    certify_product,
    certify_symmetrize,
    certify_union,
    explicit,
    power_set,
    symmetrize,
)
from lampwalk.switchers import analytic_switcher, is_superswitcher, is_switcher

LAMP = lamplighter_group()
E = LAMP.identity()


def test_level_one_starts_at_identity(mini_asym, paper_asym):
    for c in (mini_asym, paper_asym):
        for j in (1, 2):
            assert c.a_core(j, 1) == (E,)
            assert c.a_state(j, 1).card == 1


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


def test_level_reads_only_built_levels(mini_asym):
    c = mini_asym
    top = c.max_built
    for i in (0, -1, top + 1):
        with pytest.raises(LampwalkError, match=f"level {i} is not built \\(built: {top}\\)"):
            c.level(i)
    assert c.level(top) is c.levels[-1]
    # A(j, i) is known one level further: the next level's input
    assert c.a_state(1, top + 1).core_len == len(c.a_core(1, top + 1))
    for i in (0, top + 2):
        with pytest.raises(LampwalkError, match=f"A\\(1,{i}\\) is not known"):
            c.a_state(1, i)
    assert c.max_built == top


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


def _reference_scans(c, level):
    """``switcher_scans`` with one power set and one scan per row."""
    sym = c.mode == "symmetric"
    check = is_superswitcher if sym else is_switcher
    box = level.box().as_explicit(LAMP)
    fbox = symmetrize(box) if sym else box
    for j in (1, 2):
        fl = level.factor(j)
        base = set(c.a_core(j, level.index)) | fbox.elements
        with_b1 = {fl.b1, inverse(fl.b1)} if sym else {fl.b1}
        for kind, b, elements in (("inner", fl.b1, base), ("outer", fl.b2, base | with_b1)):
            req = power_set(explicit(LAMP, elements), BRUTE_POWER)
            yield f"switcher-{kind}-L{level.index}j{j}", req, check(b, req)


def _scan_rows(scans):
    return [(name, len(req), rep.passed, rep.witness, rep.reason) for name, req, rep in scans]


@pytest.mark.parametrize("fixture", ["mini_asym", "mini_sym", "mini_asym_small", "mini_sym_small"])
def test_shared_switcher_scans_match_a_scan_per_factor(fixture, request):
    c = request.getfixturevalue(fixture)
    for lv in c.levels:
        shared = list(c.switcher_scans(lv))
        assert _scan_rows(shared) == _scan_rows(_reference_scans(c, lv))
        assert all(rep.passed for _, _, rep in shared)
        # both factors ask for the same (b, set) pairs here: factor 2 reuses
        # factor 1's requirement sets and reports
        for (_, req1, rep1), (_, req2, rep2) in zip(shared[:2], shared[2:]):
            assert req2 is req1 and rep2 is rep1


def test_a_factor_with_its_own_switcher_is_scanned_alone():
    c = Construction("asymmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
    c.build_to(1)
    level = c.levels[0]
    # the identity is no switcher: e * b1 * e lands back in A
    level.factors = (level.factor(1), replace(level.factor(2), b1=c.identity))
    shared = list(c.switcher_scans(level))
    assert _scan_rows(shared) == _scan_rows(_reference_scans(c, level))
    rows = {name: rep for name, _, rep in shared}
    assert rows["switcher-inner-L1j1"].passed and rows["switcher-outer-L1j1"].passed
    assert not rows["switcher-inner-L1j2"].passed
    assert rows["switcher-inner-L1j2"].candidate == c.identity
    assert "lands back in A" in rows["switcher-inner-L1j2"].reason
    assert len({id(rep) for rep in rows.values()}) == 4


def test_switcher_scans_footprint():
    # symmetric mini level 2 scans 2*290^2 and 2*402^2 triples.  A collision
    # table over a whole scan holds a product and a dict entry per triple,
    # about 240 bytes: it peaked at 78.5 MB.  One product-cursor bucket holds
    # at most 9,256 triples; the scan also keeps each bucket's members and the
    # row kernels' shifted lamps, and the rows keep the requirement sets.
    # 50 bytes per triple of the largest scan leaves room for those, not for
    # a table over the scan.
    c = Construction("symmetric", "mini", Config(brute_verify=False))
    c.build_to(2)
    level = c.level(2)
    tracemalloc.start()
    try:
        rows = list(c.switcher_scans(level))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep.passed for _, _, rep in rows)
    largest = max(len(req) for _, req, _ in rows)
    assert largest == 402
    assert peak <= 50 * 2 * largest ** 2


@pytest.mark.parametrize("cap", [0, 3])
def test_mini_box_cap_out_of_range_rejected(cap):
    with pytest.raises(ValueError, match="mini box cap"):
        Construction("asymmetric", "mini", Config(mini_box_cap=cap))


def test_core_nesting_and_exactness(mini_asym):
    for j in (1, 2):
        c1 = set(mini_asym.a_core(j, 1))
        c2 = set(mini_asym.a_core(j, 2))
        assert c1 <= c2
        assert mini_asym.a_state(j, 2).exact


def test_symmetric_cores_are_symmetric(mini_sym):
    for i in (1, 2):
        for j in (1, 2):
            core = set(mini_sym.a_core(j, i))
            assert {inverse(g) for g in core} == core


def test_membership_examples(mini_asym):
    c = mini_asym
    assert membership_a(c, 1, 1, E) == "yes"
    assert membership_a(c, 1, 2, E) == "yes"
    # c(1,1) = identity enters A(1,2); c(1,2) = s^-1 enters A(1,3)
    assert membership_a(c, 1, 3, LAMP_S_INV) == "yes"
    far = LamplighterElement((), 10**6)
    assert membership_a(c, 1, 2, far) == "no"


def test_membership_levels_of_generators(mini_asym):
    c = mini_asym
    assert c.membership_level(1, E) == 1
    assert c.membership_level(1, LAMP_S_INV) == 3
    assert c.membership_level(1, LAMP_A) == 4
    assert c.membership_level(1, LAMP_S) == 8
    assert c.membership_level(2, LAMP_S_INV) == 5
    assert c.membership_level(2, LAMP_A) == 6
    assert c.membership_level(2, LAMP_S) == 7


def _scanned_membership_level(c, j, g):
    """The level-by-level reference: the first A(j,i) whose built core holds g."""
    for i in range(1, c.max_built + 2):
        if membership_a(c, j, i, g) == "yes":
            return i
    return None


@pytest.mark.parametrize(
    "mode, depth, cap", [("asymmetric", 600, 1), ("symmetric", 40, 2)],
)
def test_membership_bisect_matches_the_level_scan(mode, depth, cap):
    c = Construction(mode, "mini", Config(brute_verify=False, mini_box_cap=cap))
    c.build_to(depth)
    _assert_bisect_matches_the_scan(c)


def test_membership_bisect_matches_the_level_scan_on_paper(paper_asym):
    _assert_bisect_matches_the_scan(paper_asym)


def _assert_bisect_matches_the_scan(c):
    for j in (1, 2):
        core = c.a_core(j, c.max_built + 1)
        assert len(core) > c.max_built // 10
        for g in core:
            assert c.membership_level(j, g) == _scanned_membership_level(c, j, g), encode(g)


def test_membership_past_the_cores_is_the_first_enumeration_index():
    # components of the first 3,000 enumerated pairs, most of them in no
    # built core: their level comes from the first pair that has them
    c = Construction("asymmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
    c.build_to(30)
    pairs = [c.c_pair(i) for i in range(1, 3001)]
    past = 0
    for j in (1, 2):
        for g in dict.fromkeys(pair[j - 1] for pair in pairs):
            level = _scanned_membership_level(c, j, g)
            if level is None:
                level = next(i for i, pair in enumerate(pairs) if pair[j - 1] == g) + 2
                past += 1
            assert c.membership_level(j, g) == level, encode(g)
    assert past > 100


def test_red_increment_is_the_pair_of_enumeration_components(mini_asym, mini_sym):
    for c in (mini_asym, mini_sym):
        for lv in c.levels:
            red = (lv.factor(1).c, lv.factor(2).c)
            assert lv.red_increment() == red
            assert lv.red_increment(-1) == (inverse(red[0]), inverse(red[1]))


def test_determinism_two_builds():
    a = Construction("asymmetric", "mini", Config(brute_verify=False))
    b = Construction("asymmetric", "mini", Config(brute_verify=False))
    a.build_to(2)
    b.build_to(2)
    assert a.serialize() == b.serialize()


def test_save_load_roundtrip(tmp_path, mini_asym):
    path = tmp_path / "c.lwc"
    digest = mini_asym.save(path)
    loaded = Construction.load(path)
    assert loaded.file_digest == digest
    assert loaded.serialize() == mini_asym.serialize()
    assert loaded.config == mini_asym.config  # brute-verify: yes survives the rebuild
    path2 = tmp_path / "c2.lwc"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


# mini_asym is test_save_load_roundtrip's, paper_asym test_paper_serialize_roundtrip's
@pytest.mark.parametrize("name", ["mini_sym", "mini_asym_small", "mini_sym_small"])
def test_load_rebuilds_the_saved_digest(tmp_path, request, name):
    c = request.getfixturevalue(name)
    path = tmp_path / "c.lwc"
    digest = c.save(path)
    loaded = Construction.load(path)
    assert loaded.file_digest == digest
    assert loaded.digest() == digest
    assert (loaded.max_built, loaded.config) == (c.max_built, c.config)


def test_paper_symmetric_level_3_saves(tmp_path):
    # level 3's cursors and lamps have about 10^8 bits, so its body holds them in
    # hex: some 337 MB of text, hashed line by line and never held whole
    c = Construction("symmetric", "paper")
    c.build_to(3)
    path = tmp_path / "paper-sym.lwc"
    digest = c.save(path)
    assert digest == "6f1326e5d175ee5bcaf307d7ea885d1e10e237e7ea794a4f5ae103d7e09208ec"
    del c
    loaded = Construction.load(path)
    assert loaded.max_built == 3
    assert loaded.file_digest == digest
    assert loaded.digest() == digest


def test_saved_file_is_a_recipe(tmp_path):
    # a file holds the header and a digest, whatever the level count
    c = Construction("asymmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
    c.build_to(2000)
    path = tmp_path / "deep.lwc"
    c.save(path)
    assert path.stat().st_size < 1024
    assert path.read_text().splitlines()[0] == "lampwalk-construction v3"


def test_loaded_construction_extends_identically(tmp_path):
    cfg = Config(brute_verify=False)
    a = Construction("asymmetric", "mini", cfg)
    a.build_to(3)
    b = Construction("asymmetric", "mini", cfg)
    b.build_to(2)
    path = tmp_path / "partial.lwc"
    digest = b.save(path)
    assert f"construction-sha256: {digest}" in path.read_text().splitlines()
    assert b.file_digest is None  # built, not loaded
    loaded = Construction.load(path)
    assert loaded.file_digest == digest
    loaded.build_to(3)
    assert loaded.serialize() == a.serialize()
    assert loaded.file_digest == digest  # still names the file it was read from


def test_truncated_file_rejected(tmp_path, mini_asym):
    path = tmp_path / "c.lwc"
    mini_asym.save(path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CorruptFileError):
        Construction.load(path)


def test_corrupt_field_rejected(tmp_path, mini_asym):
    # an edited line without a recomputed integrity line
    path = tmp_path / "c.lwc"
    mini_asym.save(path)
    text = path.read_text().replace("levels: 2", "levels: 3", 1)
    path.write_text(text)
    with pytest.raises(CorruptFileError, match="sha256 mismatch"):
        Construction.load(path)


def test_v1_file_rejected(tmp_path, mini_asym):
    # a v1 file is the canonical body itself, integrity line included
    path = tmp_path / "c.lwc"
    path.write_text(mini_asym.serialize())
    with pytest.raises(CorruptFileError, match="unsupported format"):
        Construction.load(path)


def test_v2_file_rejected(tmp_path, mini_asym):
    # a v2 file is a recipe too, but its digest took every integer in decimal
    path = tmp_path / "c.lwc"
    mini_asym.save(path)
    lines = path.read_text().split("\n")[:-2]
    assert lines[0] == "lampwalk-construction v3"
    head = "\n".join(["lampwalk-construction v2", *lines[1:]]) + "\n"
    path.write_text(f"{head}sha256: {hashlib.sha256(head.encode()).hexdigest()}\n")
    with pytest.raises(CorruptFileError, match="unsupported format"):
        Construction.load(path)


@pytest.mark.parametrize("old, new", [
    ("mini-box-cap: 2", "mini-box-cap: 3"),
    ("size-cap: 1000000", "size-cap: many"),
    ("core-level-cap: 4", "core-level-cap: 5"),
    ("brute-verify: yes", "brute-verify: maybe"),
    ("schedule: mini", "schedule: tiny"),
    ("levels: 2", "levels: -1"),
    ("levels: 2", "levels: x"),
])
def test_bad_header_value_rejected(tmp_path, mini_asym, old, new):
    # the integrity line is recomputed, so only the header check can object
    path = tmp_path / "c.lwc"
    mini_asym.save(path)
    body = path.read_text().rsplit("sha256: ", 1)[0].replace(old, new, 1)
    path.write_text(body + f"sha256: {hashlib.sha256(body.encode()).hexdigest()}\n")
    with pytest.raises(CorruptFileError, match="bad header"):
        Construction.load(path)


def test_paper_digest_ignores_the_mini_settings():
    # the paper build reads neither Config field, so its recipe names the defaults
    digests = set()
    for cfg in (Config(), Config(brute_verify=False), Config(mini_box_cap=7)):
        c = Construction("asymmetric", "paper", cfg)
        c.build_to(1)
        assert c.config == Config()
        digests.add(c.digest())
    assert len(digests) == 1


@pytest.mark.parametrize("old, new", [
    ("brute-verify: yes", "brute-verify: no"),
    ("mini-box-cap: 2", "mini-box-cap: 1"),
    ("mini-box-cap: 2", "mini-box-cap: 7"),
    ("mini-box-cap: 2", "mini-box-cap: x"),
])
def test_paper_file_with_other_mini_settings_rejected(tmp_path, old, new):
    c = Construction("asymmetric", "paper")
    c.build_to(1)
    path = tmp_path / "p.lwc"
    c.save(path)
    assert Construction.load(path).config == Config()
    body = path.read_text().rsplit("sha256: ", 1)[0].replace(old, new, 1)
    path.write_text(body + f"sha256: {hashlib.sha256(body.encode()).hexdigest()}\n")
    with pytest.raises(CorruptFileError, match="bad header"):
        Construction.load(path)


# sha256 of the canonical body of each build, keyed (mode, schedule, mini box
# cap, brute verify, levels); the benchmark pins only its own build, so these
# make a change to the body writer or to any build step fail here
PINNED_DIGESTS = {
    ("asymmetric", "mini", 1, True, 2):
        "961bd37dbf777219072b804656c7e16ea1cc80f10cb3790b2aa7c91c1ccd7e33",
    ("asymmetric", "mini", 1, False, 2):
        "033afe6caf5f35b2b05139399ed5f47dfe803e40b9004c4fe55092d0824f26f6",
    ("asymmetric", "mini", 2, True, 2):
        "ab6c240bc2149250f536c7df9f73dadd9049fbea00600757041f8e9d5600a6c3",
    ("asymmetric", "mini", 2, False, 2):
        "560a83534484d4c092f412ae71bbfa67f08b36812533bb3a35f850c31612e309",
    ("asymmetric", "mini", 1, False, 40):
        "cb85b9ef8cc5c5acbb3725758921e86ac66c7ec82a6f2b7424fd639b8272a148",
    ("asymmetric", "mini", 1, True, 600):
        "a47e9049eb1c8fde84d487b3416a424358e21367484e7592efa865dd3288f795",
    ("symmetric", "mini", 2, True, 2):
        "b4f4fa06e3d2c6f43f14b2c6673495316b5cd2cfbe3af0ded8eb4664bde3a5e9",
    ("symmetric", "mini", 1, False, 2):
        "862475ba655ae2ffd85172e81f31fa2ba9e33fc2df6d060577dd35bcdb6f7866",
    ("symmetric", "mini", 1, False, 40):
        "e59f0feac55fa1215220fb7dea6cf1bc3b2bf064c22265abe52a4b7551589afb",
    ("asymmetric", "paper", 2, True, 3):
        "a40bb47add644a8ec88a6c253f1b45eb31df52c078c402f1c2c95239d19fb0fc",
    ("symmetric", "paper", 2, True, 2):
        "939fbb6067c4c87d3a9678aeeb1ddc9624d087aca952cc74ac2e97833cfe42f4",
}

# the pinned builds a session fixture already holds
FIXTURE_BUILDS = {
    ("asymmetric", "mini", 1, False, 2): "mini_asym_small",
    ("asymmetric", "mini", 2, True, 2): "mini_asym",
    ("symmetric", "mini", 2, True, 2): "mini_sym",
    ("symmetric", "mini", 1, False, 2): "mini_sym_small",
    ("asymmetric", "paper", 2, True, 3): "paper_asym",
}


@pytest.mark.parametrize("recipe", list(PINNED_DIGESTS), ids=lambda r: "-".join(map(str, r)))
def test_digest_pinned(request, recipe):
    if recipe in FIXTURE_BUILDS:
        c = request.getfixturevalue(FIXTURE_BUILDS[recipe])
    else:
        mode, schedule, cap, brute, depth = recipe
        c = Construction(mode, schedule, Config(brute_verify=brute, mini_box_cap=cap))
        c.build_to(depth)
    assert c.digest() == PINNED_DIGESTS[recipe]


def test_paper_serialize_roundtrip(tmp_path, paper_asym):
    # level-3 window parameters are hundreds of kilobits; the file keeps only
    # the digest of their exact hex text, and the rebuild reproduces it
    path = tmp_path / "paper.lwc"
    digest = paper_asym.save(path)
    loaded = Construction.load(path)
    assert loaded.level(3).n == paper_asym.level(3).n
    assert loaded.file_digest == digest
    assert loaded.digest() == digest


def test_shared_box_keeps_pairing_sizes(mini_sym):
    # |S(j,i)| = |F(3-j,i)| holds because both factors share one box per level
    for i in (1, 2):
        lv = mini_sym.level(i)
        assert lv.box().size() == SkewBox(lv.n).size()


def _reference_factor(c, i, a_cert, fl_c):
    """Level i's b1, b2 and the certificate of A(j,i+1), derived for one
    factor from its own A(j,i) certificate alone: the reference that the
    shared derivation must match."""
    sym = c.mode == "symmetric"
    e = c.exponent_level(i)
    box_cert = certify(SkewBox(c.level(i).n))
    box_cert_pm = certify_symmetrize(box_cert) if sym else box_cert
    alphabet = certify_union(a_cert, box_cert_pm)
    b1 = analytic_switcher(certify_power(alphabet, e + 2))
    b1_cert = certify(explicit(LAMP, [b1]))
    if sym:
        b1_cert = certify_symmetrize(b1_cert)
    b2 = analytic_switcher(certify_power(certify_union(alphabet, b1_cert), 2 * e + 8))
    block_cert = certify_product(
        certify_product(certify_product(box_cert, certify(explicit(LAMP, [b1]))), box_cert),
        certify(explicit(LAMP, [b2])),
    )
    if sym:
        block_cert = certify_symmetrize(certify_product(block_cert, box_cert))
    c_cert = certify(explicit(LAMP, [fl_c]))
    if sym:
        c_cert = certify_symmetrize(c_cert)
    return b1, b2, certify_union(a_cert, block_cert, c_cert)


def _assert_matches_reference(c, i):
    for j in (1, 2):
        fl = c.level(i).factor(j)
        want = _reference_factor(c, i, c.a_state(j, i).cert, fl.c)
        assert (fl.b1, fl.b2, c.a_state(j, i + 1).cert) == want, (i, j)


def test_factors_with_equal_certificates_share_switchers(mini_asym, mini_sym, paper_asym):
    for c in (mini_asym, mini_sym, paper_asym):
        for lv in c.levels:
            assert c.a_state(1, lv.index).cert == c.a_state(2, lv.index).cert
            assert lv.factor(1).b1 is lv.factor(2).b1
            assert lv.factor(1).b2 is lv.factor(2).b2
            _assert_matches_reference(c, lv.index)


@pytest.mark.parametrize("mode", ["asymmetric", "symmetric"])
def test_factors_with_unequal_certificates_derive_their_own(mode):
    c = Construction(mode, "mini", Config(brute_verify=False))
    c.build_to(3)
    # plant a factor-2 A(2,4) under a larger certificate than A(1,4)'s
    st1, st2 = c._a_states[-1]
    big = BoundCertificate(st2.cert.cursor_radius + 7, st2.cert.lamp_radius + 3)
    c._a_states[-1] = (st1, replace(st2, cert=big))
    lv = c.build_level(4)
    assert lv.factor(1).b1 != lv.factor(2).b1
    assert lv.factor(1).b2 != lv.factor(2).b2
    _assert_matches_reference(c, 4)
    c.build_level(5)
    _assert_matches_reference(c, 5)


def test_shared_radii_halve_what_a_deep_build_retains():
    # both factors hold one copy of each b1, b2 and A-certificate radius;
    # two copies of these ints, which grow ~9.4 bits a level, retained 9.7 MB
    tracemalloc.start()
    try:
        c = Construction("asymmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
        c.build_to(1000)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 7.5e6
    st1, st2 = c.a_state(1, 1001), c.a_state(2, 1001)
    assert st1.cert.cursor_radius is st2.cert.cursor_radius
    assert st1.cert.lamp_radius is st2.cert.lamp_radius


def test_digest_streams_the_body():
    # the 600-level body is 2.1 MB of text; hashing it whole peaked at 19.6 MB
    c = Construction("asymmetric", "mini", Config(mini_box_cap=1))
    c.build_to(600)
    tracemalloc.start()
    try:
        digest = c.digest()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert digest == PINNED_DIGESTS[("asymmetric", "mini", 1, True, 600)]
    body, seal = c.serialize().rsplit("sha256: ", 1)
    assert seal == f"{digest}\n"
    assert hashlib.sha256(body.encode()).hexdigest() == digest
