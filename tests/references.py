"""Reference answers that the tests hold the package's fast paths to.

The package answers these questions another way (``membership_level``,
tracked ranks, window-index queries, ``unrank``, ``_loss_numer``), so none
of these helpers has a caller in ``lampwalk``.  Each reads public state only.
"""

from fractions import Fraction

from lampwalk.errors import MembershipError
from lampwalk.groups import encode, multiply
from lampwalk.setalg import skewbox_overlap


def membership_a(c, j: int, i: int, g) -> str:
    """'yes' | 'no' | 'unknown-sound' membership of g in A(j,i), one level at
    a time: the reference for ``Construction.membership_level``."""
    st = c.a_state(j, i)
    if g in c.a_core(j, i):
        return "yes"
    if st.exact or not st.cert.covers(g):
        return "no"
    return "unknown-sound"


def window_rank(oracle, g, max_level: int) -> int:
    """Smallest level i <= max_level whose window holds g, else 0: the
    reference for the tracked ranks."""
    for i in range(1, max_level + 1):
        if g in oracle.index(i):
            return i
    return 0


def recompose(c, d):
    """The element q1 * X_blue(f1, f2, sigma) * q2 that decomposition d names."""
    mid = c.level(d.level).blue_increment(d.f1, d.f2, d.sigma)
    return multiply(multiply(d.q1, mid), d.q2)


def skewbox_loss(g, box) -> Fraction:
    """Exact |gF \\ F| / |F| for F = box."""
    return 1 - Fraction(skewbox_overlap(g, box), box.size())


def skewbox_rank(box, f) -> int:
    """Index of f in [0, n*2^n): (t+n-1)*2^n + binary lamp-window encoding;
    the inverse of ``SkewBox.unrank``."""
    if f not in box:
        raise MembershipError(f"{encode(f)} is not in skewbox:{box.n}")
    n, t = box.n, f.cursor
    mask = 0
    for p in f.lamps:
        mask |= 1 << (p - t)
    return (t + n - 1) * (1 << n) + mask
