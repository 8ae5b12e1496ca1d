"""Levenshtein edit distance over characters or token sequences.

Used by features 49-54 of Table I: per-hunk edit distance between the
removed and added sides, before and after token abstraction.  Inputs may be
strings (character distance) or lists of token strings (token distance).

The distance is computed with Myers' bit-vector recurrence (G. Myers, "A
fast bit-vector algorithm for approximate string matching based on dynamic
programming", JACM 1999) in H. Hyyrö's form for global edit distance
(2001).  One column of the DP matrix is held as two bit vectors of +1/-1
vertical deltas, one Python int each, so a column costs a handful of
big-int operations instead of one Python-level step per cell.  The result
is exactly the classic DP's.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["levenshtein", "normalized_levenshtein"]

#: Inputs longer than this are truncated — enormous hunks (vendored files,
#: generated code) would otherwise dominate extraction time while adding no
#: discriminative signal beyond "very large".
_MAX_LEN = 2000


def levenshtein(a: Sequence, b: Sequence, max_len: int = _MAX_LEN) -> int:
    """Edit distance between sequences *a* and *b*.

    Equal inputs return 0 immediately, and a shared prefix/suffix is
    stripped before the recurrence — both standard identities that leave
    every distance unchanged while skipping most of the work on the
    near-identical hunk sides that dominate real diffs.

    Args:
        a, b: strings or sequences of hashable items.
        max_len: truncation bound applied to both inputs.

    Returns:
        The minimum number of insertions, deletions, and substitutions.
    """
    a = a[:max_len]
    b = b[:max_len]
    if a == b:
        return 0
    # Strip the common prefix and suffix: neither contributes edits.
    lo, hi_a, hi_b = 0, len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a = a[lo:hi_a]
    b = b[lo:hi_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a  # keep the bit vectors short
    # Match masks: bit i of peq[x] is set iff a[i] == x.
    peq: dict = {}
    bit = 1
    for item in a:
        peq[item] = peq.get(item, 0) | bit
        bit <<= 1
    mask = bit - 1
    top = bit >> 1  # the last row, whose cell is the running distance
    pv, mv, dist = mask, 0, len(a)
    for item in b:
        eq = peq.get(item, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            dist += 1
        elif mh & top:
            dist -= 1
        # Row 0 of the DP grows by one per column: shift in a +1 delta.
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def normalized_levenshtein(a: Sequence, b: Sequence) -> float:
    """Edit distance scaled to [0, 1] by the longer input's length."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / min(longest, _MAX_LEN)
