"""Interleaved plain/treated blocks: the measurement behind ratio gates.

A ratio gate compares a plain configuration with a treated one on a
shared, noisy host.  Timing each side once lets a slow spell of the host
land on one side only.  Here the two sides run in alternating blocks, in
ABBA order so that neither side always goes first, and the gate reads
the blocks of each side together.

The cyclic GC stays on by default, as in production: a treatment that
allocates more pays for its collections.  ``gc_enabled=False`` pauses
the collector inside each block, for the labelled secondary number that
shows what the same treatment costs without collections.  Each block
starts from a fully collected heap either way.
"""

from __future__ import annotations

import gc


def interleaved(plain, treated, repeats: int, gc_enabled: bool = True):
    """Run the zero-argument callables ``plain`` and ``treated``
    ``repeats`` times each, alternating in ABBA order.

    Returns ``(plain_outputs, treated_outputs)``, each in run order.
    """
    outputs = ([], [])
    blocks = (plain, treated)
    for repeat in range(repeats):
        for side in (0, 1) if repeat % 2 == 0 else (1, 0):
            gc.collect()
            if not gc_enabled:
                gc.disable()
            try:
                outputs[side].append(blocks[side]())
            finally:
                gc.enable()
    return outputs
