"""Hot numeric kernels: the stochastic slot walk and the exact-throughput
enumeration.

``simulate_slots`` and ``exact_network_throughput`` are numpy kernels.  The
slot walk is vectorized across slots and the enumeration across primary
patterns; both keep a Python loop over mini-slots only.  The scalar walks
``simulate_slots_py`` and ``exact_network_throughput_py`` are kept as test
oracles: the vectorized kernels reproduce them bit for bit, because every
floating-point sum is formed in the same order as in the scalar walk.

The two walks deliberately do not share their code: the exact enumeration
acts as an independent oracle for the simulator, so agreement between them
under error-free settings is a real cross-check.
"""

from __future__ import annotations

import numpy as np

# searcher states inside a slot
_SEARCHING = 0
_TRANSMITTING = 1
_DEAD = 2


def simulate_slots_py(
    matrices,      # (n_variants, n_su, n_ch) int64
    variant_idx,   # (n_slots,) int64
    p0,            # (n_ch,) float64
    p_fa, p_d, persistence,
    b,             # (n_ch,) float64  per-slot rate by mini-slot
    pu_u,          # (n_slots, n_ch) uniforms for the primary states
    persist_u,     # (n_slots, n_su, n_ch) uniforms for the persistence draws
    sense_u,       # (n_slots, n_su, n_ch) uniforms for the sensing outcomes
    tp_out,        # (n_slots, n_su) float64
    sens_out,      # (n_slots, n_su) int64
    ho_out,        # (n_slots, n_su) int64
    coll_out,      # (n_slots, n_su) int64 0/1
    intf_out,      # (n_slots, n_su) int64 0/1
    chan_out,      # (n_slots, n_su) int64, -1 = never transmitted
    mslot_out,     # (n_slots, n_su) int64, -1 = never transmitted
    events_out,    # (n_slots,) int64 collision events
):
    n_slots = variant_idx.shape[0]
    n_su = matrices.shape[1]
    n_ch = matrices.shape[2]

    state = np.empty(n_su, np.int64)
    txc = np.empty(n_su, np.int64)
    txm = np.empty(n_su, np.int64)
    last_att = np.empty(n_su, np.int64)
    newc = np.empty(n_su, np.int64)
    pu_busy = np.empty(n_ch, np.bool_)
    su_occ = np.empty(n_ch + 1, np.bool_)
    starts = np.empty(n_ch + 1, np.int64)

    for s in range(n_slots):
        sm = matrices[variant_idx[s]]
        for c in range(n_ch):
            pu_busy[c] = pu_u[s, c] < (1.0 - p0[c])
        for i in range(n_su):
            state[i] = _SEARCHING
            txc[i] = -1
            txm[i] = -1
            last_att[i] = -1
        for c in range(n_ch + 1):
            su_occ[c] = False
        events = 0

        for m in range(n_ch):
            # phase 1: everyone still searching senses simultaneously,
            # against the channel occupancy as of the previous mini-slot
            for i in range(n_su):
                newc[i] = -1
                if state[i] != _SEARCHING:
                    continue
                c = sm[i, m]
                if c == 0:
                    continue
                if persist_u[s, i, m] >= persistence:
                    continue
                sens_out[s, i] += 1
                if last_att[i] >= 0:
                    ho_out[s, i] += 1
                last_att[i] = m
                truly_busy = pu_busy[c - 1] or su_occ[c]
                u = sense_u[s, i, m]
                reads_busy = (u < p_d) if truly_busy else (u < p_fa)
                if not reads_busy:
                    newc[i] = c

            # phase 2: resolve simultaneous transmission starts per channel
            for c in range(n_ch + 1):
                starts[c] = 0
            for i in range(n_su):
                if newc[i] > 0:
                    starts[newc[i]] += 1
            for c in range(1, n_ch + 1):
                if starts[c] == 0:
                    continue
                if starts[c] >= 2 or su_occ[c]:
                    events += 1
                    for i in range(n_su):
                        if newc[i] == c:
                            state[i] = _DEAD
                            coll_out[s, i] = 1
                            txc[i] = c
                            txm[i] = m
                        elif state[i] == _TRANSMITTING and txc[i] == c:
                            state[i] = _DEAD
                            coll_out[s, i] = 1
                    su_occ[c] = True
                else:
                    for i in range(n_su):
                        if newc[i] == c:
                            state[i] = _TRANSMITTING
                            txc[i] = c
                            txm[i] = m
                    su_occ[c] = True

        for i in range(n_su):
            if txc[i] >= 1:
                chan_out[s, i] = txc[i]
                mslot_out[s, i] = txm[i]
                if pu_busy[txc[i] - 1]:
                    intf_out[s, i] = 1
                if state[i] == _TRANSMITTING and not pu_busy[txc[i] - 1]:
                    tp_out[s, i] = b[txm[i]]
        events_out[s] = events


def exact_network_throughput_py(sm, p0, b):
    """Expected error-free network throughput by enumerating the 2^n_ch
    joint primary states and walking all users deterministically."""
    n_su = sm.shape[0]
    n_ch = sm.shape[1]
    state = np.empty(n_su, np.int64)
    txm = np.empty(n_su, np.int64)
    txc = np.empty(n_su, np.int64)
    newc = np.empty(n_su, np.int64)
    pu_busy = np.empty(n_ch, np.bool_)
    su_occ = np.empty(n_ch + 1, np.bool_)
    starts = np.empty(n_ch + 1, np.int64)

    total = 0.0
    for pattern in range(1 << n_ch):
        w = 1.0
        for c in range(n_ch):
            if (pattern >> c) & 1:
                pu_busy[c] = True
                w *= 1.0 - p0[c]
            else:
                pu_busy[c] = False
                w *= p0[c]
        if w == 0.0:
            continue

        for i in range(n_su):
            state[i] = _SEARCHING
            txm[i] = -1
            txc[i] = -1
        for c in range(n_ch + 1):
            su_occ[c] = False

        value = 0.0
        for m in range(n_ch):
            for i in range(n_su):
                newc[i] = -1
                if state[i] != _SEARCHING:
                    continue
                c = sm[i, m]
                if c == 0:
                    continue
                if not pu_busy[c - 1] and not su_occ[c]:
                    newc[i] = c
            for c in range(n_ch + 1):
                starts[c] = 0
            for i in range(n_su):
                if newc[i] > 0:
                    starts[newc[i]] += 1
            for c in range(1, n_ch + 1):
                if starts[c] == 0:
                    continue
                if starts[c] >= 2:
                    for i in range(n_su):
                        if newc[i] == c:
                            state[i] = _DEAD
                else:
                    for i in range(n_su):
                        if newc[i] == c:
                            state[i] = _TRANSMITTING
                            txm[i] = m
                            value += b[m]
                su_occ[c] = True

        total += w * value
    return total


#: slots walked together; bounds the temporaries of a long run
_SLOT_BLOCK = 2048


def simulate_slots(
    matrices, variant_idx, p0, p_fa, p_d, persistence, b,
    pu_u, persist_u, sense_u,
    tp_out, sens_out, ho_out, coll_out, intf_out, chan_out, mslot_out, events_out,
):
    """``simulate_slots_py`` with up to ``_SLOT_BLOCK`` slots walked at
    once: same arguments, same outputs, bit for bit."""
    outputs = (tp_out, sens_out, ho_out, coll_out, intf_out, chan_out, mslot_out, events_out)
    for start in range(0, variant_idx.shape[0], _SLOT_BLOCK):
        block = slice(start, start + _SLOT_BLOCK)
        _walk_slots(
            matrices, variant_idx[block], p0, p_fa, p_d, persistence, b,
            pu_u[block], persist_u[block], sense_u[block],
            *(out[block] for out in outputs),
        )


def _walk_slots(
    matrices, variant_idx, p0, p_fa, p_d, persistence, b,
    pu_u, persist_u, sense_u,
    tp_out, sens_out, ho_out, coll_out, intf_out, chan_out, mslot_out, events_out,
):
    n_slots = variant_idx.shape[0]
    n_su = matrices.shape[1]
    n_ch = matrices.shape[2]
    rows = np.arange(n_slots)[:, np.newaxis]

    # column 0 stands for "no channel": never busy, never occupied
    pu_busy = np.zeros((n_slots, n_ch + 1), np.bool_)
    pu_busy[:, 1:] = pu_u < (1.0 - p0)
    su_occ = np.zeros((n_slots, n_ch + 1), np.bool_)
    searching = np.ones((n_slots, n_su), np.bool_)
    transmitting = np.zeros((n_slots, n_su), np.bool_)
    attended = np.zeros((n_slots, n_su), np.bool_)
    txc = np.zeros((n_slots, n_su), np.int64)
    txm = np.zeros((n_slots, n_su), np.int64)
    events = np.zeros(n_slots, np.int64)
    cell = rows * (n_ch + 1)             # flat (slot, channel) index base

    for m in range(n_ch):
        c = matrices[:, :, m][variant_idx]
        senses = searching & (c != 0) & (persist_u[:, :, m] < persistence)
        if not senses.any():
            continue
        sens_out += senses
        ho_out += senses & attended
        attended |= senses

        truly_busy = pu_busy[rows, c] | su_occ[rows, c]
        u = sense_u[:, :, m]
        reads_busy = np.where(truly_busy, u < p_d, u < p_fa)
        starts_now = senses & ~reads_busy
        if not starts_now.any():
            continue

        starts = np.bincount((cell + c)[starts_now], minlength=n_slots * (n_ch + 1))
        starts = starts.reshape(n_slots, n_ch + 1)
        clash = (starts >= 2) | ((starts == 1) & su_occ)
        events += clash.sum(axis=1)
        lost = starts_now & clash[rows, c]
        killed = transmitting & clash[rows, txc]
        coll_out[lost | killed] = 1
        np.copyto(txc, c, where=starts_now)
        txm[starts_now] = m
        searching ^= starts_now
        transmitting = (transmitting & ~killed) | (starts_now & ~lost)
        su_occ |= starts > 0

    has_tx = txc >= 1
    chan_out[has_tx] = txc[has_tx]
    mslot_out[has_tx] = txm[has_tx]
    tx_busy = pu_busy[rows, txc]
    intf_out[has_tx & tx_busy] = 1
    won = transmitting & ~tx_busy
    tp_out[won] = b[txm[won]]
    events_out[:] = events


#: patterns evaluated together; the running sum is carried across blocks
#: so the working set stays fixed however many channels there are
_BLOCK_BITS = 12
_BLOCK = 1 << _BLOCK_BITS


def _pattern_bits(n_bits):
    """``bits[c, k]``: bit ``c`` of pattern ``k``, for every ``k`` below
    ``2**n_bits``; built row by row to keep the temporaries small."""
    bits = np.empty((n_bits, 1 << n_bits), np.bool_)
    patterns = np.arange(1 << n_bits, dtype=np.uint16)
    for c in range(n_bits):
        bits[c] = (patterns >> c) & 1
    return bits


#: the channels that vary inside a block; higher ones are constant in it
_LOW_BITS = _pattern_bits(_BLOCK_BITS)


def exact_network_throughput(sm, p0, b):
    """``exact_network_throughput_py`` with the primary patterns walked in
    blocks of at most ``_BLOCK``: same arguments, same value, bit for bit.

    The sum is accumulated strictly in pattern order; the zero-weight
    patterns the scalar walk skips add +0.0 here, which changes nothing."""
    n_ch = sm.shape[1]
    # per mini-slot, the users sensing each channel, in ascending channel order
    columns = []
    for m, column in enumerate(sm.T.tolist()):
        groups = {}
        for i, c in enumerate(column):
            if c != 0:
                groups.setdefault(c, []).append(i)
        columns.append((b[m], sorted(groups.items())))
    size = 1 << min(n_ch, _BLOCK_BITS)

    total = 0.0
    for high in range(0, 1 << n_ch, size):
        value = _block_values(columns, sm.shape[0], n_ch, high, size)
        value *= _block_weights(p0, n_ch, high, size)
        value[0] = total + value[0]
        total = np.cumsum(value)[-1]
        del value                        # before the next block allocates
    return float(total)


def _block_values(columns, n_su, n_ch, high, size):
    """Error-free throughput of patterns ``high .. high + size - 1``."""
    # blocked[c - 1]: channel c carries a primary or a transmitting user
    n_low = min(n_ch, _BLOCK_BITS)
    blocked = np.empty((n_ch, size), np.bool_)
    blocked[:n_low] = _LOW_BITS[:n_low, :size]
    for c in range(n_low, n_ch):
        blocked[c] = (high >> c) & 1
    searching = np.ones((n_su, size), np.bool_)
    value = np.zeros(size)
    for rate, groups in columns:
        for c, users in groups:
            free = ~blocked[c - 1]
            if len(users) == 1:
                took = searching[users[0]] & free
                wins = took
                searching[users[0]] ^= took
            else:
                took = np.zeros(size, np.bool_)
                clash = np.zeros(size, np.bool_)
                for i in users:
                    tried = searching[i] & free
                    clash |= took & tried
                    took |= tried
                    searching[i] ^= tried
                wins = took & ~clash
            np.add(value, rate, out=value, where=wins)
            blocked[c - 1] |= took
    return value


def _block_weights(p0, n_ch, high, size):
    """Probability of every pattern in the block, built channel by channel
    in the scalar walk's order."""
    w = np.ones(size)
    for c in range(n_ch):
        if c < _BLOCK_BITS:
            w *= np.where(_LOW_BITS[c, :size], 1.0 - p0[c], p0[c])
        else:
            w *= 1.0 - p0[c] if (high >> c) & 1 else p0[c]
    return w
