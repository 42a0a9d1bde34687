"""Ablation transforms for the design-choice benchmarks.

* :func:`fold_all_skew` — undo the separate skew field of section 2.8 on a
  set of waveforms, reproducing the false minimum-pulse-width errors the
  field exists to prevent.

The bit-blast ablation of Table 3-2 is :func:`repro.netlist.bit_blast`.
"""

from __future__ import annotations

__all__ = ["fold_all_skew"]


def fold_all_skew(waveforms: dict[str, object]) -> dict[str, object]:
    """Materialize every waveform — the no-separate-skew-field ablation."""
    return {name: wf.materialized() for name, wf in waveforms.items()}
