"""Level schedules over a product of two lamplighter groups.

Each level i carries, per factor j: the absorbing set A(j,i) (window
certificate, cardinality bound, and an explicit core while it fits), a shared
skew box F to be nearly invariant under powers of A, S := F, two switchers
b1 (inner) and b2 (outer), and the i-th element c(j,i) of a fixed
breadth-first enumeration of the product group.  The recursion is

    A(j,i+1) = A(j,i)  U  F b1 S b2  U  {c(j,i)}            (asymmetric)
    A(j,i+1) = A(j,i)  U  (F b1 S b2 F)^+-  U  {c(j,i)}^+-  (symmetric)

Two schedules exist:

* ``paper``: exponents grow with the level (invariance set A^(i+1) with
  delta = 1/i, switcher sets to powers i+2 and 2i+8).  Boxes are certified by
  the subadditive union bound, switchers analytically; nothing large is ever
  materialized.  Cardinality bounds become unrepresentable past level 3, at
  which point building refuses (desk-scale ceiling).
* ``mini``: exponents frozen at their level-1 values (2, 3, 10), boxes capped
  at window size 2, everything small enough to materialize and brute-verify.
  The mini schedule exists to cross-validate the certificate machinery the
  paper schedule trusts; its boxes are NOT delta-invariant (a box that small
  cannot absorb the outer switcher's cursor), so the achieved invariance
  ratio is recorded instead of enforced.

Levels are deterministic given the recipe: the mode, the schedule, the two
``Config`` fields a caller sets (the mini box cap and whether to brute-verify;
a paper construction, whose build reads neither, holds their defaults) and the
fixed caps below.  Two builds agree byte for byte, so a saved file
holds only that recipe, the level count and the sha256 of the canonical body,
and loading rebuilds the levels.  What the construction knows of each A(j,i)
is stored once, as the ``AState`` that ``a_state(j, i)`` returns.

The two factors run the same recursion and differ only in c(j,i), which
their window certificates absorb, so their A certificates are usually
equal.  A level derives b1, b2 and the block certificate once per distinct
A certificate; factors with equal certificates share those objects, and so
the radii of the next certificates too.  ``digest()`` hashes the canonical
body line by line as ``serialize()`` would write it, never holding it
whole, and each level's lines convert their integers to text through one
table, so an integer both factors hold is converted once.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import (
    CorruptFileError,
    LampwalkError,
    MembershipError,
    OracleRangeError,
    ScheduleLimitError,
)
from .groups import (
    DEFAULT_SIZE_CAP,
    LamplighterElement,
    LazyEnumeration,
    ProductElement,
    _int_text,
    encode,
    inverse,
    lamplighter_group,
    multiply,
    product_group,
)
from .setalg import (
    ORACLE_BOX_CAP,
    BoundCertificate,
    ExplicitSet,
    SkewBox,
    certify,
    certify_power,
    certify_product,
    certify_symmetrize,
    certify_union,
    exact_union_loss,
    explicit,
    folner_for,
    power_set,
    symmetrize,
)
from .switchers import analytic_switcher, is_superswitcher, is_switcher

# the canonical body keeps its v1 first line: integers within groups.DECIMAL_BITS
# bits print in decimal as they did, so a body with no larger one keeps its digest;
# a v3 file holds the recipe and that digest, and v2 files, all decimal, are refused
BODY_VERSION = "lampwalk-construction v1"
FORMAT_VERSION = "lampwalk-construction v3"

# past this window-size bit length, n*2^n and set cardinalities stop being
# representable and the schedule is at its desk-scale ceiling
REPRESENTABLE_BOX_BITS = 24

# the fixed caps of every build, which the recipe records together with the
# size cap groups.DEFAULT_SIZE_CAP; load refuses a file that names other values
CORE_BLOCK_CAP = 4096       # materialize F b1 S b2 [F] when this small
CORE_LEVEL_CAP = 4          # ... and the level is at most this
FOLNER_POWER_CAP = 1000     # materialize A^p for exact sums when under
BRUTE_LEVEL_CAP = 2         # mini: brute-check switchers up to this level
BRUTE_POWER = 2             # mini: power of the materialized check set
MEMBERSHIP_SCAN_CAP = 100_000

# mini boxes stay small enough to materialize and brute-verify
MINI_BOX_MAX = 2


def folner_delta(i: int) -> Fraction:
    """The invariance tolerance the paper schedule certifies at level i."""
    return Fraction(1, i)


@dataclass
class Config:
    """The two build settings a caller chooses."""

    brute_verify: bool = True       # mini: brute-check switchers at build time
    mini_box_cap: int = 2           # mini: window size grows min(i, cap), cap in 1..2


@dataclass
class FactorLevel:
    """Per-factor data of one level: the switchers and the enumeration
    component.  The level's input set A(j,i) is ``Construction.a_state(j, i)``.
    """

    b1: LamplighterElement
    b2: LamplighterElement
    c: LamplighterElement

    def blue(self, own: LamplighterElement, other: LamplighterElement) -> LamplighterElement:
        """own b1 psi(other) b2, this factor's share of the blue increment.

        The paper's psi is a fixed bijection from the other factor's box F
        onto S; here S := F is the one shared skew box, so psi is the
        identity and the other factor's draw enters as it is.
        """
        return multiply(multiply(multiply(own, self.b1), other), self.b2)

    def solve_other(self, own: LamplighterElement, target: LamplighterElement) -> LamplighterElement:
        """The one other with ``blue(own, other) == target``: b1^-1 own^-1 target b2^-1."""
        return multiply(multiply(inverse(multiply(own, self.b1)), target), inverse(self.b2))


@dataclass
class Level:
    index: int
    n: int                          # shared skew-box window size
    factors: tuple                  # (FactorLevel, FactorLevel)
    folner_certified: bool
    folner_ratio: Optional[Fraction]

    def factor(self, j: int) -> FactorLevel:
        return self.factors[j - 1]

    def box(self) -> SkewBox:
        return SkewBox(self.n)

    def oracle_box(self) -> SkewBox:
        """The box an exact oracle enumerates; ``OracleRangeError`` past ``ORACLE_BOX_CAP``."""
        box = self.box()
        if not box.fits(ORACLE_BOX_CAP):
            raise OracleRangeError(f"level {self.index} box too large for the exact oracle")
        return box

    def blue_increment(self, f1, f2, sigma: int = 1) -> ProductElement:
        """X = (f1 b1 f2 b2, f2 b1' f1 b2')^sigma for box draws f1, f2."""
        x = ProductElement(self.factors[0].blue(f1, f2), self.factors[1].blue(f2, f1))
        return inverse(x) if sigma == -1 else x

    def red_increment(self, sigma: int = 1) -> ProductElement:
        """X = (c1, c2)^sigma, the increment of a red step."""
        x = ProductElement(self.factors[0].c, self.factors[1].c)
        return inverse(x) if sigma == -1 else x


@dataclass
class AState:
    """What the construction knows of A(j,i): a window certificate, a
    cardinality bound, the prefix of the core list that lies in it, and
    whether that core is the whole set.

    Cores are nested across levels, so each state only records how many
    entries of the construction's shared append-only core list belong to it.
    """

    cert: BoundCertificate
    card: Optional[int]             # sound upper bound; None once unrepresentable
    core_len: int
    exact: bool                     # core IS the whole set


class Construction:
    """Deterministic level data for one (mode, schedule) pair.

    The mini schedule is the paper schedule with its exponents frozen at
    level 1: every power is a function of ``exponent_level(i)``, which is i
    on the paper schedule and 1 on mini.  At exponent level e a level uses
    A^(e+1) for box invariance, switcher sets to powers e+2 and 2e+8, and
    window cosets A^(e+1) F b1 S b2 A^e (W' lowers the left power to e).
    Only the paper schedule certifies its boxes, at delta = 1/i.

    Only ``build_to`` (with ``build_level`` and ``load``) adds levels; every
    other method, and every reader elsewhere in the package, only reads the
    levels already built.
    """

    def __init__(self, mode: str = "asymmetric", schedule: str = "paper",
                 config: Optional[Config] = None):
        if mode not in ("asymmetric", "symmetric"):
            raise ValueError(f"unknown mode {mode!r}")
        if schedule not in ("paper", "mini"):
            raise ValueError(f"unknown schedule {schedule!r}")
        self.mode = mode
        self.schedule = schedule
        # the paper build reads neither field, so its recipe records the defaults
        self.config = (config or Config()) if schedule == "mini" else Config()
        if schedule == "mini" and not 1 <= self.config.mini_box_cap <= MINI_BOX_MAX:
            raise ValueError(f"mini box cap must be in 1..{MINI_BOX_MAX}")
        self.factor_group = lamplighter_group()
        self.identity = self.factor_group.identity()
        self.levels: list[Level] = []
        self._enum = LazyEnumeration(product_group(self.factor_group, self.factor_group))
        self._core_lists = ([self.identity], [self.identity])
        self._core_index = ({self.identity: 0}, {self.identity: 0})
        start = AState(cert=BoundCertificate(0, 0), card=1, core_len=1, exact=True)
        # per-factor A(j,i) for i = 1..max_built + 1; the last pair feeds the next level
        self._a_states = [(start, AState(**vars(start)))]
        # the canonical digest recorded in the file this was read from;
        # growing the construction later leaves it naming that file
        self.file_digest: Optional[str] = None

    # -- building -------------------------------------------------------------

    def exponent_level(self, i: int) -> int:
        return i if self.schedule == "paper" else 1

    @property
    def signs(self) -> tuple:
        """The equally likely signs of a step: (1, -1) in symmetric mode, else (1,)."""
        return (1, -1) if self.mode == "symmetric" else (1,)

    @property
    def max_built(self) -> int:
        return len(self.levels)

    def build_to(self, i: int) -> None:
        while self.max_built < i:
            self.build_level(self.max_built + 1)

    def level(self, i: int) -> Level:
        """Level i, for 1 <= i <= max_built."""
        if not 1 <= i <= self.max_built:
            raise LampwalkError(f"level {i} is not built (built: {self.max_built}); call build_to")
        return self.levels[i - 1]

    def a_state(self, j: int, i: int) -> AState:
        """A(j,i) for 1 <= i <= max_built + 1.

        A(j, max_built + 1) is the input of the next level, which building the
        last level already computed.
        """
        if not 1 <= i <= self.max_built + 1:
            raise LampwalkError(f"A({j},{i}) is not known (built: {self.max_built}); call build_to")
        return self._a_states[i - 1][j - 1]

    def c_pair(self, i: int) -> ProductElement:
        """The i-th element of the product-group enumeration (1-based)."""
        return self._enum.element(i - 1)

    def build_level(self, i: int) -> Level:
        if i != self.max_built + 1:
            raise ValueError(f"levels build sequentially; next is {self.max_built + 1}")
        sym = self.mode == "symmetric"
        states = self._a_states[-1]
        e = self.exponent_level(i)

        powers = self._a_powers(i, states)
        n = self._choose_box(i, states, powers)
        if self.max_built:
            n = max(n, self.levels[-1].n)
        box = SkewBox(n)
        box_cert = certify(box)
        box_cert_pm = certify_symmetrize(box_cert) if sym else box_cert

        pair = self.c_pair(i)
        cs = (pair.left, pair.right)

        # b1, b2 and the block certificate depend on A(j,i) only through its
        # certificate, so factors with equal certificates share one derivation
        derived = {}
        factors = []
        next_states = []
        for idx, st in enumerate(states):
            shared = derived.get(st.cert)
            if shared is None:
                shared = derived[st.cert] = self._switchers(e, st.cert, box_cert, box_cert_pm)
            b1, b2, block_cert = shared
            fl = FactorLevel(b1=b1, b2=b2, c=cs[idx])
            factors.append(fl)
            next_states.append(self._advance_state(i, idx + 1, st, fl, box, block_cert))

        # the exact invariance ratio, when every A^p materializes
        ratio = None if None in powers else max(exact_union_loss(a, box) for a in powers)
        level = Level(
            index=i,
            n=n,
            factors=tuple(factors),
            folner_certified=self.schedule == "paper",
            folner_ratio=ratio,
        )
        if self.config.brute_verify and self.schedule == "mini" and i <= BRUTE_LEVEL_CAP:
            self._brute_verify(level)
        self.levels.append(level)
        self._a_states.append(tuple(next_states))
        return level

    def _a_powers(self, i: int, states) -> list:
        """A(j,i)^p per factor, p = e + 1, where the core is exact and the
        power small enough to materialize; None for the other factors."""
        p = self.exponent_level(i) + 1
        return [
            power_set(self._core_set(j, st.core_len), p)
            if st.exact and st.core_len ** p <= FOLNER_POWER_CAP else None
            for j, st in enumerate(states, start=1)
        ]

    def _choose_box(self, i: int, states, powers) -> int:
        if self.schedule == "mini":
            return min(i, self.config.mini_box_cap)
        p = self.exponent_level(i) + 1
        n = 1
        for st, elements in zip(states, powers):
            if st.card is None:
                raise ScheduleLimitError(
                    f"level {i}: cardinality bound no longer representable; "
                    f"the paper schedule tops out at level {self.max_built}"
                )
            cert_p = certify_power(st.cert, p)
            card = None if elements is not None else st.card ** p
            nj = folner_for(cert_p, folner_delta(i), card_bound=card, elements=elements).n
            n = max(n, nj)
        return n

    def _core_set(self, j: int, core_len: int) -> ExplicitSet:
        return explicit(self.factor_group, self._core_lists[j - 1][:core_len])

    def _core_append(self, j: int, g) -> None:
        index = self._core_index[j - 1]
        if g not in index:
            index[g] = len(self._core_lists[j - 1])
            self._core_lists[j - 1].append(g)

    def _switchers(self, e: int, a_cert: BoundCertificate, box_cert, box_cert_pm) -> tuple:
        """(b1, b2, certificate of F b1 S b2 [F]^+-) for an A under ``a_cert``."""
        sym = self.mode == "symmetric"
        alphabet = certify_union(a_cert, box_cert_pm)  # A u S(+-) u F(+-)
        b1 = analytic_switcher(certify_power(alphabet, e + 2))
        b1_cert = certify([b1])
        b1_cert_pm = certify_symmetrize(b1_cert) if sym else b1_cert
        b2 = analytic_switcher(certify_power(certify_union(alphabet, b1_cert_pm), 2 * e + 8))
        block_cert = certify_product(
            certify_product(certify_product(box_cert, b1_cert), box_cert), certify([b2])
        )
        if sym:
            block_cert = certify_symmetrize(certify_product(block_cert, box_cert))
        return b1, b2, block_cert

    def _advance_state(self, i, j, st: AState, fl: FactorLevel,
                       box: SkewBox, block_cert: BoundCertificate) -> AState:
        sym = self.mode == "symmetric"
        c_cert = certify([fl.c])
        if sym:
            c_cert = certify_symmetrize(c_cert)
        cert = certify_union(st.cert, block_cert, c_cert)

        card = None
        if st.card is not None and box.n.bit_length() <= REPRESENTABLE_BOX_BITS:
            f_size = box.size()
            block_card = f_size * f_size * (f_size if sym else 1) * (2 if sym else 1)
            card = st.card + block_card + (2 if sym else 1)
        else:
            block_card = None

        exact = st.exact
        if (
            block_card is not None
            and block_card <= CORE_BLOCK_CAP
            and i <= CORE_LEVEL_CAP
        ):
            for g in sorted(self._materialize_block(fl, box), key=encode):
                self._core_append(j, g)
        else:
            exact = False
        self._core_append(j, fl.c)
        if sym:
            self._core_append(j, inverse(fl.c))
        core_len = len(self._core_lists[j - 1])
        if exact and card is not None:
            card = core_len
        return AState(cert=cert, card=card, core_len=core_len, exact=exact)

    def _materialize_block(self, fl: FactorLevel, box: SkewBox):
        out = set()
        fs = list(box.iter_elements())
        sym = self.mode == "symmetric"
        for f in fs:
            for s in fs:
                g = fl.blue(f, s)
                if sym:
                    for tail in fs:
                        gg = multiply(g, tail)
                        out.add(gg)
                        out.add(inverse(gg))
                else:
                    out.add(g)
        return out

    def switcher_scans(self, level: Level):
        """Brute switcher scans of one level against materialized sets.

        Yields (name, requirement set, report) per factor j: the inner
        switcher b1 against (core(A) u F)^p, then the outer switcher b2
        against (core(A) u F u {b1})^p, with F and b1 symmetrized in
        symmetric mode and p = ``BRUTE_POWER``.  Lazy, so a caller can stop
        at the first failure.

        Each scan checks one product-cursor bucket at a time and drops its
        collision table before the next (see ``switchers``), so it holds one
        bucket's products, not the whole scan's.  A report depends only on
        b and on the set whose p-th power b is checked against, so each
        distinct (b, set) is scanned once per call.  A factor that asks for
        a pair an earlier factor asked for yields its own row name with that
        factor's requirement set and report.  At brute levels the two
        factors usually share b1, b2 and their A cores, which halves the
        scans; a factor that differs in either is scanned alone.
        """
        sym = self.mode == "symmetric"
        check = is_superswitcher if sym else is_switcher
        fbox = level.box().as_explicit(self.factor_group)
        if sym:
            fbox = symmetrize(fbox)
        scans = {}  # (b, set) -> (requirement set, report)
        for j in (1, 2):
            fl = level.factor(j)
            base = fbox.elements.union(self.a_core(j, level.index))
            with_b1 = {fl.b1, inverse(fl.b1)} if sym else {fl.b1}
            for kind, b, elements in (("inner", fl.b1, base), ("outer", fl.b2, base | with_b1)):
                scan = scans.get((b, elements))
                if scan is None:
                    req = power_set(explicit(self.factor_group, elements), BRUTE_POWER)
                    scan = scans[b, elements] = req, check(b, req)
                yield (f"switcher-{kind}-L{level.index}j{j}", *scan)

    def _brute_verify(self, level: Level) -> None:
        """Mini-schedule cross-check: analytic switchers vs materialized sets."""
        for name, _, rep in self.switcher_scans(level):
            if not rep.passed:
                raise ScheduleLimitError(
                    f"level {level.index}: {name} failed brute verification: "
                    f"{rep.reason}; witness {rep.witness}"
                )

    # -- queries ----------------------------------------------------------------

    def a_core(self, j: int, i: int) -> tuple:
        """Explicit known members of A(j,i), in deterministic build order."""
        return tuple(self._core_lists[j - 1][: self.a_state(j, i).core_len])

    def a_core_added(self, j: int, i: int) -> list:
        """The core entries A(j,i) adds to A(j,i-1), in build order; level 1
        adds to {identity}, the list's first entry."""
        start = self.a_state(j, i - 1).core_len if i > 1 else 1
        return self._core_lists[j - 1][start:self.a_state(j, i).core_len]

    def a_set(self, j: int, i: int) -> ExplicitSet:
        """Materialized A(j,i); requires the core to be exact."""
        st = self.a_state(j, i)
        if not st.exact:
            raise MembershipError(f"A({j},{i}) is not fully materialized")
        return self._core_set(j, st.core_len)

    def a_power(self, j: int, i: int, p: int) -> ExplicitSet:
        return power_set(self.a_set(j, i), p)

    def membership_level(self, j: int, g: LamplighterElement) -> int:
        """Smallest i with g in A(j,i) that this construction can certify.

        Uses built cores first, then the enumeration chain: the component
        c(j,i) enters A(j,i+1), so membership is known far beyond the built
        levels without any box data.  The enumeration keeps each component's
        first index as it grows, so the chain is read by lookup, not scan.
        """
        pos = self._core_index[j - 1].get(g)
        if pos is not None:
            # cores are nested prefixes of one list: g lies in A(j,i) from the
            # first i whose core is longer than g's position on
            i = bisect_right(self._a_states, pos, key=lambda st: st[j - 1].core_len)
            if i < len(self._a_states):
                return i + 1
        idx = self._enum.first_component_index(j, g, MEMBERSHIP_SCAN_CAP)
        if idx is not None:
            return idx + 2  # pair index idx+1 feeds level idx+1 -> A(j, idx+2)
        raise MembershipError(
            f"{encode(g)} not located in any A({j},i) within the scan cap"
        )

    # -- persistence --------------------------------------------------------------

    def digest(self) -> str:
        """sha256 of the canonical body ``serialize()`` writes; it names the construction.

        The body is hashed line by line as it is written, never held whole.
        """
        h = hashlib.sha256()
        for line in self._body_lines():
            h.update(f"{line}\n".encode())
        return h.hexdigest()

    def save(self, path) -> str:
        """Write the recipe and the canonical digest to ``path``; return the digest."""
        digest = self.digest()
        recipe = _recipe(self.mode, self.schedule, self.config, self.max_built)
        with open(path, "w") as fh:
            fh.write(_sealed([FORMAT_VERSION, *recipe, f"construction-sha256: {digest}"]))
        return digest

    def serialize(self) -> str:
        """Canonical text of the recipe and every built level, sealed by its sha256."""
        return _sealed(self._body_lines())

    def _body_lines(self):
        """Yield the lines of the canonical body, level by level.

        Each level converts its integers to text through one table, so an
        integer both factors hold is written out once.
        """
        yield BODY_VERSION
        yield from _recipe(self.mode, self.schedule, self.config, self.max_built)
        for level in self.levels:
            table = {}
            yield f"[level {level.index}]"
            yield f"box: skewbox:{hex(level.n)}"
            yield f"folner-certified: {'yes' if level.folner_certified else 'no'}"
            r = level.folner_ratio
            yield f"folner-ratio: {'none' if r is None else f'{r.numerator}/{r.denominator}'}"
            for j in (1, 2):
                fl = level.factor(j)
                yield from self._a_lines(j, level.index, table, [
                    f"b1: {encode(fl.b1, table)}", f"b2: {encode(fl.b2, table)}",
                    f"c: {encode(fl.c, table)}",
                ])
        yield "[next]"
        table = {}
        for j in (1, 2):
            yield from self._a_lines(j, self.max_built + 1, table)

    def _a_lines(self, j: int, i: int, table: dict, extra=()) -> list:
        """The body's block of A(j,i): its state, ``extra``, then the core
        entries it adds to A(j,i-1) (level 1 starts from {identity}).
        ``table`` caches the integer texts, as for ``encode``."""
        st = self.a_state(j, i)
        added = self.a_core_added(j, i)
        radii = (_int_text(st.cert.cursor_radius, table), _int_text(st.cert.lamp_radius, table))
        return [
            f"[factor {j}]",
            f"a-cert: certificate:{radii[0]},{radii[1]}",
            f"a-card: {'none' if st.card is None else hex(st.card)}",
            f"a-exact: {'yes' if st.exact else 'no'}",
            *extra,
            f"a-core-added: {len(added)}",
            *(encode(g, table) for g in added),
        ]

    @classmethod
    def load(cls, path) -> "Construction":
        """Rebuild, without brute checks, the levels a recipe written by ``save`` names."""
        try:
            with open(path) as fh:
                head, sep, digest = fh.read().rpartition("\nsha256: ")
        except UnicodeDecodeError:
            raise CorruptFileError(f"{path}: not UTF-8 text") from None
        if not sep:
            raise CorruptFileError("missing integrity line (file truncated?)")
        if hashlib.sha256(f"{head}\n".encode()).hexdigest() != digest.strip():
            raise CorruptFileError("sha256 mismatch: file corrupt or truncated")
        lines = head.split("\n")
        if lines[0] != FORMAT_VERSION:
            raise CorruptFileError(f"unsupported format (want {FORMAT_VERSION!r})")
        header = dict(line.partition(": ")[::2] for line in lines[1:])
        try:
            cfg = Config(brute_verify=header["brute-verify"] == "yes",
                         mini_box_cap=int(header["mini-box-cap"]))
            out = cls(header["mode"], header["schedule"], replace(cfg, brute_verify=False))
            if out.schedule == "paper":
                cfg = out.config  # a paper recipe names the defaults; other values are refused below
            levels, recorded = int(header["levels"]), header["construction-sha256"]
        except KeyError as exc:
            raise CorruptFileError(f"bad header: missing field {exc}") from None
        except ValueError as exc:
            # a rehashed file can still carry a header value no build writes
            raise CorruptFileError(f"bad header: {exc}") from None
        recipe = _recipe(out.mode, out.schedule, cfg, levels)
        if levels < 0 or lines != [FORMAT_VERSION, *recipe, f"construction-sha256: {recorded}"]:
            raise CorruptFileError("bad header: not a recipe that save writes")
        out.build_to(levels)
        out.config = cfg  # the recorded config is part of the digest
        out.file_digest = recorded
        return out


def _recipe(mode: str, schedule: str, config: Config, levels: int) -> list:
    return [
        f"mode: {mode}",
        f"schedule: {schedule}",
        f"size-cap: {DEFAULT_SIZE_CAP}",
        f"core-block-cap: {CORE_BLOCK_CAP}",
        f"core-level-cap: {CORE_LEVEL_CAP}",
        f"folner-power-cap: {FOLNER_POWER_CAP}",
        f"brute-verify: {'yes' if config.brute_verify else 'no'}",
        f"brute-level-cap: {BRUTE_LEVEL_CAP}",
        f"brute-power: {BRUTE_POWER}",
        f"mini-box-cap: {config.mini_box_cap}",
        f"membership-scan-cap: {MEMBERSHIP_SCAN_CAP}",
        f"levels: {levels}",
    ]


def _sealed(lines) -> str:
    """The lines, closed by the sha256 integrity line of everything above it."""
    body = "\n".join(lines) + "\n"
    return body + f"sha256: {hashlib.sha256(body.encode()).hexdigest()}\n"
