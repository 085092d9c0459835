"""Record analytics, window-form decompositions, tail extraction, freeness.

Definitions (over a level sequence k_1, k_2, ...):

* i is a record time if k_i > k_j for all j < i, a non-strict record time if
  k_i >= k_j for all j < i, and a record is simple if every later non-strict
  record strictly exceeds it.
* a trajectory is "stable so far" at i if the maximum over k_1..k_i is
  attained exactly once, exceeds i, and its step is blue.  The detected
  stabilization time is the last index that is not stable so far, provided
  the horizon itself is stable (otherwise the trajectory is censored).

Window forms: at level i, W is the set of pairs q1 X q2 with X the blue
increment (``Level.blue_increment``), that is

    ( q1_1 (f1 b1 f2 b2)^sigma q2_1,  q1_2 (f2 b1' f1 b2')^sigma q2_2 )

with q1_j in A(j,i)^p1, f_j in the level box, q2_j in A(j,i)^p2 (sigma only
in symmetric mode); W' lowers the q1 power.  On the mini schedule both are
indexed exhaustively through per-factor maps, which supports decomposition
queries, uniqueness certification, and disjointness checks without ever
materializing the joint set.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .construction import Construction
from .errors import GroupMismatchError, MembershipError, OracleRangeError
from .groups import (PRODUCT_IDENTITY, LamplighterElement, ProductElement, _lamp, _product_row,
                     encode, is_identity, multiply)
from .sampling import Trajectory
from .setalg import BRUTE_BOX_CAP, certify_power

# -- records -------------------------------------------------------------------


@dataclass(frozen=True)
class RecordReport:
    record_times: tuple
    non_strict_record_times: tuple
    simple_record_times: tuple


def _non_strict_records(ks) -> list:
    """The non-strict record times: steps at least as high as every earlier one."""
    out = []
    best = ks[0]
    for i, k in enumerate(ks, start=1):
        if k >= best:
            best = k
            out.append(i)
    return out


def analyze_records(ks) -> RecordReport:
    """Exact classification of record, non-strict record, and simple times.

    Non-strict record values never decrease, so a record is simple exactly
    when the next non-strict record after it (if any) is strictly higher.
    """
    if not ks:
        raise ValueError("empty level sequence")
    non_strict = _non_strict_records(ks)
    values = [ks[i - 1] for i in non_strict]
    records, simple = [], []
    for j, i in enumerate(non_strict):
        if j == 0 or values[j] > values[j - 1]:
            records.append(i)
            if j + 1 == len(values) or values[j + 1] > values[j]:
                simple.append(i)
    return RecordReport(tuple(records), tuple(non_strict), tuple(simple))


def _record_scan(ks, red) -> tuple:
    """(stable-so-far flags, dominant record times, last unstable index).

    Between consecutive non-strict records the maximum, its multiplicity and
    its step are fixed, so each such run of steps is filled at once: stable
    while the step index stays below the maximum.
    """
    flags, dom = [], []
    non_strict = _non_strict_records(ks)
    best, count, argmax, last_bad = None, 0, 0, 0
    for start, end in zip(non_strict, non_strict[1:] + [len(ks) + 1]):
        if ks[start - 1] == best:
            count += 1
        else:
            best, count, argmax = ks[start - 1], 1, start
        stable = 0
        if count == 1 and not red[argmax - 1]:
            stable = max(0, min(end, best) - start)
        flags += [True] * stable + [False] * (end - start - stable)
        dom += [argmax] * (end - start)
        if start + stable < end:
            last_bad = end - 1
    return flags, dom, last_bad


def _scan(traj: Trajectory) -> tuple:
    """The record scan of ``traj``, computed once and kept on the trajectory."""
    if traj._scan is None:
        traj._scan = _record_scan(traj.k, traj.red)
    return traj._scan


def stable_so_far_flags(traj: Trajectory) -> list[bool]:
    """Per step i: max over 1..i unique, exceeding i, and blue."""
    return list(_scan(traj)[0])


def dominant_record_times(traj: Trajectory) -> list[int]:
    """argmax of k_1..k_i for each i (first attainment)."""
    return list(_scan(traj)[1])


def detect_stabilization(traj: Trajectory) -> Optional[int]:
    """Smallest i0 with every later step stable so far; None when censored.

    Such an i0 exists iff the final step is stable so far, in which case it
    is the last unstable index (0 when every step qualifies).  The flag is
    "stable so far": data beyond the horizon could still revoke it.
    """
    flags, _, last_bad = _scan(traj)
    return last_bad if flags[-1] else None


# -- tracked decompositions ------------------------------------------------------


@dataclass
class Decomposition:
    level: int
    record_time: Optional[int]
    q1: Optional[ProductElement]
    f1: Optional[object]
    f2: Optional[object]
    q2: Optional[ProductElement]
    sigma: int = 1


def p_map(d: Decomposition) -> ProductElement:
    """The level-drop map: a window form is sent to its left coset factor."""
    if d.q1 is None:
        raise MembershipError("decomposition does not carry a materialized q1")
    return d.q1


def rank_tracked(traj: Trajectory, n: int) -> int:
    """Level of the window the tracked walk inhabits at step n (0 if none)."""
    flags, dom, _ = _scan(traj)
    if not (1 <= n <= traj.horizon) or not flags[n - 1]:
        return 0
    return traj.k[dom[n - 1] - 1]


def decompose_tracked(traj: Trajectory, n: int, c: Optional[Construction] = None) -> Optional[Decomposition]:
    """Decomposition of z_n implied by the coupled metadata, when stable.

    q1 = z_{m-1}, f from the record step m, q2 = x_{m+1} ... x_n.  Every
    prior step has level strictly below k_m, so its increment lies in the
    matching absorbing set and q1 lands in A^(m-1); stabilization gives
    k_m > n >= m, so the power fits the window's coset factor.  When the
    elements are materialized the window certificates are asserted too.
    q1 is read off the stored partial products; q2 costs n - m multiplies.
    """
    level = rank_tracked(traj, n)
    if level == 0:
        return None
    m = _scan(traj)[1][n - 1]
    q1 = traj.z(m - 1) if traj.z_materialized(m - 1) else None
    if c is not None and q1 is not None and m > 1:
        _assert_window_membership(c, level, q1, m)
    step = traj.step(m - 1)
    q2 = None
    if all(i in traj.elements for i in range(m, n)):
        q2 = _product_tail(traj, m, n)
    return Decomposition(level, m, q1, step.f1, step.f2, q2, step.sigma)


def _product_tail(traj: Trajectory, m: int, n: int) -> ProductElement:
    if m == n:
        return PRODUCT_IDENTITY
    out = None
    for i in range(m, n):
        x = traj.elements[i][2]
        out = x if out is None else multiply(out, x)
    return out


def _assert_window_membership(c: Construction, level: int, q1, m: int) -> None:
    """Sound certificate check that q1 (a product of m - 1 >= 1 increments)
    fits the window's left coset power, where the construction knows A."""
    if level > c.max_built + 1:
        return
    for j, comp in ((1, q1.left), (2, q1.right)):
        if not certify_power(c.a_state(j, level).cert, m - 1).covers(comp):
            raise MembershipError(f"tracked q1 escapes the A({j},{level})^{m - 1} certificate")


# -- exhaustive window index (mini schedule) ---------------------------------------


@dataclass
class _FactorMap:
    """One factor's forms, each stored once.

    ``values`` interns the distinct forms, as form -> id with ids in order of
    first occurrence; a form is the plain (lamps, cursor) tuple the row
    kernel made, and leaves the index only rebuilt as an element.
    ``ids[code]`` is the form id of entry code (sid * |qa| + ia) * |qb| + ib.
    """

    values: dict
    ids: array
    qa_list: list
    qb_list: list

    @classmethod
    def interned(cls, forms, qa_list: list, qb_list: list) -> "_FactorMap":
        """The map of ``forms``, listed in code order."""
        values = {}
        intern, size = values.setdefault, values.__len__
        return cls(values, array("i", [intern(form, size()) for form in forms]), qa_list, qb_list)

    @cached_property
    def _grouped(self) -> tuple:
        """(by_form, starts): the codes grouped by form id, ascending within
        a form, and where each form's codes start.  Built by the first query
        that reads codes by form; ``certify_unique`` reads slices instead."""
        keys = self.ids.tolist()
        counts = [0] * len(self.values)
        for f in keys:
            counts[f] += 1
        by_form = array("i", sorted(range(len(keys)), key=keys.__getitem__))
        return by_form, array("i", itertools.accumulate(counts, initial=0))

    @property
    def block(self) -> int:
        """Entries per slice: one per (qa, qb) choice."""
        return len(self.qa_list) * len(self.qb_list)

    def codes(self, f: int) -> array:
        """The codes of form id f, ascending."""
        by_form, starts = self._grouped
        return by_form[starts[f]:starts[f + 1]]

    def decode(self, code: int) -> tuple:
        """The (slice id, qa index, qb index) of an entry code."""
        rest, ib = divmod(code, len(self.qb_list))
        sid, ia = divmod(rest, len(self.qa_list))
        return sid, ia, ib

    def read_slices(self) -> tuple:
        """(slices in which a form repeats, pairs s < t of slices that share a form).

        Each slice is read as the set of its form ids, and ``first`` maps a
        form to the first slice that holds it, so a slice meets the first
        slice of every form it shares with an earlier slice.  Two later
        slices of one form both meet that form's first slice; such pairs are
        checked set against set.
        """
        block = self.block

        def forms(sid):
            return self.ids[sid * block:(sid + 1) * block]

        repeats, meets, first = [], set(), {}
        for sid in range(len(self.ids) // block):
            seen = set(forms(sid))
            if len(seen) < block:
                repeats.append(sid)
            common = first.keys() & seen
            meets.update(zip(map(first.__getitem__, common), itertools.repeat(sid)))
            first.update(dict.fromkeys(seen - common, sid))
        partners = {}  # slice -> the later slices that meet it
        for s, t in sorted(meets):
            partners.setdefault(s, []).append(t)
        for later in partners.values():
            for pair in itertools.combinations(later, 2):
                if pair not in meets and not set(forms(pair[0])).isdisjoint(forms(pair[1])):
                    meets.add(pair)
        return repeats, meets

    def repeat_witnesses(self, sids: list) -> list:
        """(form, slice id, its first two (qa, qb) choices) for each form that
        repeats inside one of the slices ``sids``, in order of form id (that
        is, of the form's first occurrence), then by slice."""
        block = self.block
        found = []
        for sid in sids:
            per_form = {}
            for code in range(sid * block, (sid + 1) * block):
                per_form.setdefault(self.ids[code], []).append(code)
            found += [(f, sid, [self.decode(code)[1:] for code in codes[:2]])
                      for f, codes in per_form.items() if len(codes) > 1]
        forms = list(self.values)
        return [(_lamp(*forms[f]), sid, qs) for f, sid, qs in sorted(found)]


class WindowIndex:
    """Exhaustive per-factor index of the level-i window forms.

    Each factor stores every distinct form once and one int per entry code
    (see ``_FactorMap``).  A slice's forms depend only on its part of the
    blue increment and on the factor's q lists.  ``own_slice[sid]`` is the
    factor-2 slice whose part is factor 1's part of slice sid.  When factor
    2 has factor 1's q lists and ``own_slice`` is a permutation, factor 2's
    forms are factor 1's, slice sid's under slice ``own_slice[sid]``, so
    both entries of ``factors`` hold factor 1's map and factor 2's codes are
    read through ``own_slice``.  This is the usual case at the mini levels:
    the factors share b1, b2 and their A cores, so the right part of slice
    (i1, i2, s) is the left part of (i2, i1, s).  Otherwise factor 2 is
    built directly and ``own_slice`` is the identity.
    """

    def __init__(self, c: Construction, i: int, prime: bool = False):
        self.level = i
        e = c.exponent_level(i)
        lv = c.level(i)
        box = lv.box()
        if not box.fits(BRUTE_BOX_CAP):
            raise OracleRangeError(f"level {i} box too large for window enumeration")
        self.fs = list(box.iter_elements())
        self.slices = [
            (i1, i2, s)
            for i1 in range(len(self.fs))
            for i2 in range(len(self.fs))
            for s in c.signs
        ]
        mids = [lv.blue_increment(self.fs[i1], self.fs[i2], s) for i1, i2, s in self.slices]
        lefts = [x.left for x in mids]
        rights = [x.right for x in mids]
        qa1, qb1, qa2, qb2 = (
            c.a_power(j, i, p).sorted_elements() for j in (1, 2) for p in (e if prime else e + 1, e)
        )
        first = self._build_factor(lefts, qa1, qb1)
        slice_of = {part: sid for sid, part in enumerate(rights)}
        own_slice = [slice_of.get(part) for part in lefts]
        if (qa2, qb2) == (qa1, qb1) and set(own_slice) == set(range(len(mids))):
            self.factors, self.own_slice = [first, first], own_slice
        else:
            self.factors = [first, self._build_factor(rights, qa2, qb2)]
            self.own_slice = range(len(mids))

    @staticmethod
    def _build_factor(mids, qa_list, qb_list) -> _FactorMap:
        """Index q1 * mid * q2 of one factor by slice id and q-choices.

        ``left = qa * mid`` is formed once per (slice, qa); groups' row kernel
        multiplies it by every qb, shifting qb's lamps once per distinct left
        cursor.
        """
        row = _product_row(qb_list)
        rows = (row(multiply(qa, mid)) for mid in mids for qa in qa_list)
        return _FactorMap.interned(itertools.chain.from_iterable(rows), qa_list, qb_list)

    # -- queries --

    def decompositions(self, g: ProductElement) -> list[Decomposition]:
        """Every decomposition of g, in order of factor 2's entry code."""
        if not isinstance(g, ProductElement):
            return []
        f1, f2 = self.factors
        id1 = f1.values.get(g.left)
        id2 = f2.values.get(g.right)
        if id1 is None or id2 is None:
            return []
        by_slice = {}
        for code in f1.codes(id1):
            sid, ia, ib = f1.decode(code)
            by_slice.setdefault(sid, []).append((ia, ib))
        # factor 2's entries under its own slice ids, in its code order
        own = sorted((self.own_slice[sid], ia, ib) for sid, ia, ib in map(f2.decode, f2.codes(id2)))
        out = []
        for sid, ia2, ib2 in own:
            for ia1, ib1 in by_slice.get(sid, ()):
                i1, i2, s = self.slices[sid]
                out.append(
                    Decomposition(
                        self.level,
                        None,
                        ProductElement(f1.qa_list[ia1], f2.qa_list[ia2]),
                        self.fs[i1],
                        self.fs[i2],
                        ProductElement(f1.qb_list[ib1], f2.qb_list[ib2]),
                        s,
                    )
                )
        return out

    def __contains__(self, g) -> bool:
        return bool(self.decompositions(g))

    def certify_unique(self):
        """Prove every window form decomposes uniquely, or return witnesses.

        Joint multiplicity arises either from a same-slice collision inside
        one factor, or from a pair of slices whose factor-1 images and
        factor-2 images both intersect.  Both are checked exhaustively, over
        each factor's slices read as sets of form ids; the joint set itself
        is never materialized.  A map both factors hold is read once, and
        factor 2's meeting pairs are its pairs renamed through ``own_slice``.
        """
        f1, f2 = self.factors
        cross = []
        for fm in (f1,) if f2 is f1 else (f1, f2):
            repeats, meets = fm.read_slices()
            if repeats:
                return False, fm.repeat_witnesses(repeats)
            cross.append(meets)
        own = self.own_slice
        both = cross[0] & {tuple(sorted((own[s], own[t]))) for s, t in cross[-1]}
        if both:
            return False, sorted(both)
        return True, []

    def iter_elements(self):
        """Joint window forms, one per (slice, q-choice) tuple combination,
        slice by slice: joint slice t pairs factor 1's block t of ``ids``
        with the factor-2 block that holds slice t under ``own_slice``.
        Each slice's forms are rebuilt as elements when it is reached, so the
        first form costs one slice, not the whole index."""
        f1, f2 = self.factors
        block1, block2 = f1.block, f2.block
        forms1, forms2 = list(f1.values), list(f2.values)
        holder = {own: sid for sid, own in enumerate(self.own_slice)}
        for t in range(len(self.slices)):
            s = holder[t]
            g2s = [_lamp(*forms2[f]) for f in f2.ids[s * block2:(s + 1) * block2]]
            for f in f1.ids[t * block1:(t + 1) * block1]:
                g1 = _lamp(*forms1[f])
                for g2 in g2s:
                    yield ProductElement(g1, g2)


class WindowOracle:
    """Cache of window indexes per (level, prime) for one construction."""

    def __init__(self, c: Construction):
        self.construction = c
        self._cache = {}

    def index(self, i: int, prime: bool = False) -> WindowIndex:
        key = (i, prime)
        if key not in self._cache:
            self._cache[key] = WindowIndex(self.construction, i, prime)
        return self._cache[key]


MULTIPLE = "multiple"


def decompose_oracle(c_or_oracle, g: ProductElement, i: int):
    """Exhaustive decomposition at level i: Decomposition, None, or 'multiple'."""
    oracle = c_or_oracle if isinstance(c_or_oracle, WindowOracle) else WindowOracle(c_or_oracle)
    decs = oracle.index(i).decompositions(g)
    if not decs:
        return None
    if len(decs) > 1:
        return MULTIPLE
    return decs[0]


# -- tail sequences and freeness ----------------------------------------------------


@dataclass(frozen=True)
class TailEntry:
    level: int
    time: int
    element: Optional[ProductElement]


@dataclass
class TailSequence:
    entries: tuple
    stabilization_time: Optional[int]

    @property
    def censored(self) -> bool:
        return self.stabilization_time is None


def tau_extract(traj: Trajectory) -> TailSequence:
    """Deposited prefix of the tail map: z_{m-1} at post-stabilization records."""
    i0 = detect_stabilization(traj)
    if i0 is None:
        return TailSequence((), None)
    dom = _scan(traj)[1]
    times = sorted({dom[i - 1] for i in range(i0 + 1, traj.horizon + 1)})
    entries = []
    for m in times:
        element = traj.z(m - 1) if traj.z_materialized(m - 1) else None
        entries.append(TailEntry(traj.k[m - 1], m, element))
    return TailSequence(tuple(entries), i0)


def is_lamp_pair(h) -> bool:
    return isinstance(h, ProductElement) and all(isinstance(p, LamplighterElement) for p in h)


def freeness_test(traj: Trajectory, h: ProductElement, c: Construction) -> str:
    """'distinct' | 'identical' | 'censored' for the translated tail.

    Translation by h acts on the deposited entries from h's membership level
    onward, matching each z_{m-1} with h*z_{m-1}.  In a group h*z = z holds
    exactly when h = e (cancel z on the right), so once one entry is matched
    the comparison is decided by the group law and no product is formed.
    The verdict's content is the gating: it is 'censored' unless the tail
    reaches h's membership level with an element the report can show (a
    materialized z_{m-1}).  Any other kind of ``h`` raises ``GroupMismatchError``.
    """
    if not is_lamp_pair(h):
        raise GroupMismatchError(f"not a pair of lamplighter elements: {type(h).__name__}")
    tail = tau_extract(traj)
    if tail.censored or not tail.entries:
        return "censored"
    level_needed = max(
        c.membership_level(1, h.left), c.membership_level(2, h.right)
    )
    if not any(e.level >= level_needed and e.element is not None for e in tail.entries):
        return "censored"
    return "identical" if is_identity(h) else "distinct"


# -- non-triviality conditions -------------------------------------------------------


@dataclass
class ConditionStatus:
    status: str  # "pass" | "fail" | "censored"
    detail: str = ""
    first_index: Optional[int] = None


@dataclass
class ConditionReport:
    stabilization_time: Optional[int]
    window_membership: ConditionStatus      # eventually z_i in some W'
    p_dynamics: ConditionStatus             # p(z_{i+1}) in {p(z_i), z_i}
    rank_growth: ConditionStatus            # max rank keeps growing
    checked_steps: int = 0


def check_nontriviality_conditions(traj: Trajectory, c: Optional[Construction] = None) -> ConditionReport:
    """The paper's trajectory conditions, read off the record scan.

    After stabilization at i0 two laws hold by construction of the tracked
    decomposition, so both report ``pass`` from step i0 + 1 on:

    * window membership: every later step is stable so far (i0 is the last
      step that is not), so z_i lies in the window of its dominant record;
    * the level-drop law p(z_{i+1}) in {p(z_i), z_i}: the dominant record is
      the first argmax, so it either stays (same q1) or moves to the fresh
      step i + 1 (q1 = z_i).

    What can fail is the certificate: with ``c`` given, each tail record m
    > 1 whose q1 = z_{m-1} is materialized is checked to lie in
    A(j, k_m)^(m-1) for both factors, once per record; an escape raises
    ``MembershipError``.  ``checked_steps`` counts the post-stabilization
    transitions the two laws cover.
    """
    i0 = detect_stabilization(traj)
    rank_growth = _rank_growth_status(traj)
    if i0 is None:
        censored = ConditionStatus("censored", "no stabilization within horizon")
        return ConditionReport(None, censored, censored, rank_growth, 0)
    if c is not None:
        for entry in tau_extract(traj).entries:
            if entry.time > 1 and entry.element is not None:
                _assert_window_membership(c, entry.level, entry.element, entry.time)
    membership = ConditionStatus(
        "pass", "tracked window membership holds at every post-stabilization step", i0 + 1
    )
    p_dyn = ConditionStatus(
        "pass", "level-drop map moved by a step or stayed fixed at every transition", i0 + 1
    )
    return ConditionReport(i0, membership, p_dyn, rank_growth, traj.horizon - i0 - 1)


def _rank_growth_status(traj: Trajectory) -> ConditionStatus:
    horizon = traj.horizon
    early = rank_tracked(traj, max(1, horizon // 10))
    late = rank_tracked(traj, horizon)
    if late > early:
        return ConditionStatus(
            "pass", f"max rank grew {early} -> {late} over the last decade of steps"
        )
    return ConditionStatus(
        "censored" if late == early and late > 0 else "fail",
        f"max rank {early} -> {late}; growth exhausted (truncated levels rank out)",
    )


# -- report serialization ---------------------------------------------------------------


ENCODE_CAP = 4096


def element_json(g) -> object:
    if g is None:
        return None
    text = encode(g)
    if len(text) <= ENCODE_CAP:
        return text
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "encoded_length": len(text),
    }


def trajectory_report(traj: Trajectory, c: Optional[Construction] = None,
                      freeness_elements=()) -> dict:
    report = analyze_records(traj.ks())
    conditions = check_nontriviality_conditions(traj, c)
    tail = tau_extract(traj)
    out = {
        "horizon": traj.horizon,
        "record_times": list(report.record_times),
        "non_strict_record_times": list(report.non_strict_record_times),
        "simple_record_times": list(report.simple_record_times),
        "stabilization_time": conditions.stabilization_time,
        "conditions": {
            "window_membership": vars(conditions.window_membership),
            "p_dynamics": vars(conditions.p_dynamics),
            "rank_growth": vars(conditions.rank_growth),
        },
        "tail": [
            {
                "level": e.level,
                "time": e.time,
                "element": element_json(e.element),
                "materialized": e.element is not None,
            }
            for e in tail.entries
        ],
        "tail_censored": tail.censored,
    }
    if c is not None and freeness_elements:
        out["freeness"] = {
            encode(h): freeness_test(traj, h, c) for h in freeness_elements
        }
    return out


def write_analysis_json(path, reports: list, manifest_digest: str = "") -> None:
    payload = {"manifest": manifest_digest, "trajectories": reports}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
