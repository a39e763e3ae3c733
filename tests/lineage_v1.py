"""Rebuild the v1 lineage report from a v2 one.

Lineage report v2 keeps in each session entry only the session's own
facts: whether it was attacked, whether its message came out exact (and was
released), and its check's error count.  v1 also wrote the session's number,
the pad lengths before and after it, its verdict and its error rate, all of
which follow from the row index, ``initial_pad_bits``, ``n_sample`` and
``halted_at_session``: each session keys ``n_sample`` fresh pad pairs past
the first session's, and a passed check drops the ``2 * n_sample`` announced
bits.  This rebuilds every v1 field, so tests can read a session's derived
fields by name, and so the two formats can be compared byte for byte.
"""

from __future__ import annotations


def lineage_v1(doc: dict) -> dict:
    """The v1 report of the lineage whose v2 report is ``doc``."""
    n_sample, halted = doc["n_sample"], doc["halted_at_session"]
    sessions = []
    for k, entry in enumerate(doc["sessions"], start=1):
        before = doc["initial_pad_bits"] - 2 * n_sample * (k - 1)
        accepted = halted is None or k < halted
        sessions.append({
            "session": k,
            "pad_bits_before": before,
            "pad_bits_after": before - 2 * n_sample * accepted,
            "accepted": accepted,
            "error_rate": entry["n_errors"] / n_sample,
            "message_exact": entry["message_exact"],
            "attacked": entry["attacked"],
        })
    return {
        "sessions": sessions,
        "halted_at_session": halted,
        "final_pad_bits": doc["final_pad_bits"],
        "audit": doc["audit"],
    }
