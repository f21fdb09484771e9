"""Flat-array reference kernels for the compiled backend registry.

This module is the *semantic source of truth* for every compiled kernel
in :mod:`repro.backends`: each function is a self-contained, loop-level
translation of the corresponding numpy/Python hot path — the fused FM
move/gain/ledger pass of :mod:`repro.core.engine`, the matching
proposal/selection and contraction/net-dedup kernels of
:mod:`repro.multilevel`, and the bootstrap shuffle/cumsum/prefix-min of
:class:`repro.evaluation.bsf.BootstrapKernel` — written against flat
numpy arrays only, with no Python containers, helper calls, or
allocations beyond ``np.empty``/``np.zeros``.

Three consumers:

* the **numba** backend JIT-compiles these functions verbatim
  (``numba.njit`` of the exact objects below), so the compiled kernels
  cannot drift from the audited reference;
* the **cnative** backend (C via the system compiler + ctypes) leaves
  every output bit-identical to these functions: its matching,
  contraction and bootstrap kernels translate this file line for line,
  and its ``fm_pass`` computes the same pass on a packed 32-bit working
  set.  The registry self-check, the cross-backend fuzz suite and the
  oracle-equivalence suites pin the bit-identity;
* the equivalence/fuzz suites execute this module *uncompiled* so the
  kernel semantics stay testable on a numpy-only install where neither
  numba nor a C toolchain is present.

Bit-identity ground rules observed throughout:

* All cut/gain arithmetic is ``int64`` (the compiled path is only
  eligible in the integral-weight regime the FM kernel already
  requires), so results are exact and order-independent.
* Float accumulations (matching connectivity, cluster weights, bootstrap
  cumsum) run in the *same order* as the Python kernels — IEEE doubles
  add identically in C, numba and CPython when the order matches.
* Random draws replicate CPython's Mersenne Twister exactly:
  ``random()`` is ``genrand_res53`` (two 32-bit draws), ``shuffle`` is
  Fisher-Yates over ``_randbelow``'s rejection-sampled ``getrandbits``.
  Callers pass the 624-word MT state in/out via ``Random.getstate()`` /
  ``setstate()``, so a compiled kernel consumes exactly the draws the
  Python code would have.
"""

from __future__ import annotations

import numpy as np

# MT19937 constants (CPython _randommodule.c).
_MT_N = 624
_MT_M = 397
_MT_MATRIX_A = 0x9908B0DF
_MT_UPPER = 0x80000000
_MT_LOWER = 0x7FFFFFFF
_U32 = 0xFFFFFFFF


# ----------------------------------------------------------------------
# FM pass kernel
# ----------------------------------------------------------------------
def fm_pass(
    net_ptr,
    net_pins,
    vtx_ptr,
    vtx_nets,
    net_w,
    vwt,
    assign,
    fixed,
    pins0,
    pins1,
    pw,
    cut_io,
    lo,
    hi,
    slack,
    initial_legal,
    initial_distance,
    clip,
    update_all,
    tie_bias,
    order_code,
    best_choice,
    illegal_code,
    guard,
    max_abs,
    mt,
    mti_io,
    move_log,
    out,
):
    """One FM/CLIP pass on flat arrays; mirrors ``FMEngine._run_pass``.

    Mutates ``assign``/``pins0``/``pins1``/``pw``/``cut_io`` to the
    post-rollback state (the kept prefix), fills ``move_log[:mcount]``
    with the speculative move sequence, advances the MT state by exactly
    the draws the Python pass would consume (RANDOM insertion order
    only), and reports counters through ``out``:

    ``out = [mcount, best_k, ecount, selects, updates, zero_skips,
    net_skips, error]`` — ``error`` is 1 when a gain key left the
    ``[-max_abs, max_abs]`` window (the Python path raises there); the
    pass state is then restored to its entry snapshot so the caller can
    re-run the faithful Python pass and surface the identical error.

    Codes: ``tie_bias`` 0=away 1=part0 2=toward; ``order_code`` 0=LIFO
    1=FIFO 2=RANDOM; ``best_choice`` 0=first 1=last 2=balance;
    ``illegal_code`` 0=skip-bucket 1=skip-partition 2=scan-bucket.
    """
    n = assign.shape[0]
    m = pins0.shape[0]
    offset = max_abs
    span = 2 * offset + 1
    mti = mti_io[0]

    # Entry snapshot: backs both the restore-and-replay rollback and the
    # error path (which must leave the partition untouched).
    snap_assign = assign.copy()
    snap_pins0 = pins0.copy()
    snap_pins1 = pins1.copy()
    snap_pw0 = pw[0]
    snap_pw1 = pw[1]
    cut_before = cut_io[0]
    cut = cut_before

    # Bucket pair on intrusive flat arrays (cleared every pass, exactly
    # like GainBuckets.clear()).
    heads0 = np.full(span, -1, dtype=np.int64)
    tails0 = np.full(span, -1, dtype=np.int64)
    heads1 = np.full(span, -1, dtype=np.int64)
    tails1 = np.full(span, -1, dtype=np.int64)
    prev0 = np.full(n, -1, dtype=np.int64)
    next0 = np.full(n, -1, dtype=np.int64)
    prev1 = np.full(n, -1, dtype=np.int64)
    next1 = np.full(n, -1, dtype=np.int64)
    key0 = np.zeros(n, dtype=np.int64)
    key1 = np.zeros(n, dtype=np.int64)
    pres0 = np.zeros(n, dtype=np.uint8)
    pres1 = np.zeros(n, dtype=np.uint8)
    gain = np.zeros(n, dtype=np.int64)
    elig = np.zeros(n, dtype=np.int64)
    cut_log = np.zeros(n, dtype=np.int64)
    dist_log = np.zeros(n, dtype=np.float64)
    maxi0 = -1
    maxi1 = -1

    rnd_order = order_code == 2
    head_order = order_code == 0

    # ----- seed gains and collect eligible vertices -------------------
    ecount = 0
    for v in range(n):
        if fixed[v] != 0:
            continue
        if guard != 0 and float(vwt[v]) > slack:
            continue
        if assign[v] == 0:
            g = np.int64(0)
            for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
                e = vtx_nets[i]
                if pins0[e] == 1:
                    g += net_w[e]
                if pins1[e] == 0:
                    g -= net_w[e]
        else:
            g = np.int64(0)
            for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
                e = vtx_nets[i]
                if pins1[e] == 1:
                    g += net_w[e]
                if pins0[e] == 0:
                    g -= net_w[e]
        gain[v] = g
        elig[ecount] = v
        ecount += 1

    if clip != 0:
        # Stable ascending sort of the eligible vertices by initial gain
        # (counting sort over the bounded key range; ``elig`` is already
        # in ascending-vertex order, so stability reproduces Python's
        # ``sorted(..., key=gain.__getitem__)`` exactly), then head
        # insertion into each side's zero bucket — highest initial gain
        # ends up at the head, CLIP's definition.
        cnt = np.zeros(span + 1, dtype=np.int64)
        for i in range(ecount):
            cnt[gain[elig[i]] + offset] += 1
        acc = np.int64(0)
        for k in range(span):
            c = cnt[k]
            cnt[k] = acc
            acc += c
        sorted_elig = np.zeros(n, dtype=np.int64)
        for i in range(ecount):
            v = elig[i]
            idx = gain[v] + offset
            sorted_elig[cnt[idx]] = v
            cnt[idx] += 1
        idx = offset
        for i in range(ecount):
            v = sorted_elig[i]
            if assign[v] == 0:
                old = heads0[idx]
                if old == -1:
                    heads0[idx] = v
                    tails0[idx] = v
                    prev0[v] = -1
                    next0[v] = -1
                else:
                    next0[v] = old
                    prev0[v] = -1
                    prev0[old] = v
                    heads0[idx] = v
                key0[v] = 0
                pres0[v] = 1
                maxi0 = idx
            else:
                old = heads1[idx]
                if old == -1:
                    heads1[idx] = v
                    tails1[idx] = v
                    prev1[v] = -1
                    next1[v] = -1
                else:
                    next1[v] = old
                    prev1[v] = -1
                    prev1[old] = v
                    heads1[idx] = v
                key1[v] = 0
                pres1[v] = 1
                maxi1 = idx
    else:
        for i in range(ecount):
            v = elig[i]
            k = gain[v]
            idx = k + offset
            if idx < 0 or idx >= span:
                out[7] = 1
                mti_io[0] = mti
                assign[:] = snap_assign
                pins0[:] = snap_pins0
                pins1[:] = snap_pins1
                pw[0] = snap_pw0
                pw[1] = snap_pw1
                cut_io[0] = cut_before
                return
            # Coin drawn before the empty-bucket branch, exactly as
            # GainBuckets.insert does.
            if rnd_order:
                if mti >= _MT_N:
                    for t in range(_MT_N):
                        y = (mt[t] & _MT_UPPER) | (
                            mt[(t + 1) % _MT_N] & _MT_LOWER
                        )
                        vv = mt[(t + _MT_M) % _MT_N] ^ (y >> 1)
                        if y & 1:
                            vv ^= _MT_MATRIX_A
                        mt[t] = vv
                    mti = 0
                y = mt[mti]
                mti += 1
                y ^= y >> 11
                y ^= (y << 7) & 0x9D2C5680
                y ^= (y << 15) & 0xEFC60000
                y &= _U32
                y ^= y >> 18
                a = y >> 5
                if mti >= _MT_N:
                    for t in range(_MT_N):
                        y = (mt[t] & _MT_UPPER) | (
                            mt[(t + 1) % _MT_N] & _MT_LOWER
                        )
                        vv = mt[(t + _MT_M) % _MT_N] ^ (y >> 1)
                        if y & 1:
                            vv ^= _MT_MATRIX_A
                        mt[t] = vv
                    mti = 0
                y = mt[mti]
                mti += 1
                y ^= y >> 11
                y ^= (y << 7) & 0x9D2C5680
                y ^= (y << 15) & 0xEFC60000
                y &= _U32
                y ^= y >> 18
                b = y >> 6
                at_head = (a * 67108864.0 + b) * (
                    1.0 / 9007199254740992.0
                ) < 0.5
            else:
                at_head = head_order
            if assign[v] == 0:
                old = heads0[idx]
                if old == -1:
                    heads0[idx] = v
                    tails0[idx] = v
                    prev0[v] = -1
                    next0[v] = -1
                elif at_head:
                    next0[v] = old
                    prev0[v] = -1
                    prev0[old] = v
                    heads0[idx] = v
                else:
                    tl = tails0[idx]
                    prev0[v] = tl
                    next0[v] = -1
                    next0[tl] = v
                    tails0[idx] = v
                key0[v] = k
                pres0[v] = 1
                if idx > maxi0:
                    maxi0 = idx
            else:
                old = heads1[idx]
                if old == -1:
                    heads1[idx] = v
                    tails1[idx] = v
                    prev1[v] = -1
                    next1[v] = -1
                elif at_head:
                    next1[v] = old
                    prev1[v] = -1
                    prev1[old] = v
                    heads1[idx] = v
                else:
                    tl = tails1[idx]
                    prev1[v] = tl
                    next1[v] = -1
                    next1[tl] = v
                    tails1[idx] = v
                key1[v] = k
                pres1[v] = 1
                if idx > maxi1:
                    maxi1 = idx

    scan_bucket = illegal_code == 2
    skip_part = illegal_code == 1
    bias_part0 = tie_bias == 1
    bias_away = tie_bias == 0

    mcount = 0
    last_src = -1
    n_selects = 0
    n_updates = 0
    n_zero_skips = 0
    n_net_skips = 0
    error = 0

    while True:
        # ----- select the best legal move (per side) ------------------
        n_selects += 1
        while maxi0 >= 0 and heads0[maxi0] == -1:
            maxi0 -= 1
        v0 = -1
        k0 = np.int64(0)
        dw = pw[1]
        idx = maxi0
        if scan_bucket:
            while idx >= 0:
                u = heads0[idx]
                while u != -1:
                    if float(dw + vwt[u]) <= hi:
                        v0 = u
                        k0 = idx - offset
                        break
                    u = next0[u]
                if v0 >= 0:
                    break
                idx -= 1
        else:
            while idx >= 0:
                u = heads0[idx]
                if u != -1:
                    if float(dw + vwt[u]) <= hi:
                        v0 = u
                        k0 = idx - offset
                        break
                    if skip_part:
                        break
                idx -= 1

        while maxi1 >= 0 and heads1[maxi1] == -1:
            maxi1 -= 1
        v1 = -1
        k1 = np.int64(0)
        dw = pw[0]
        idx = maxi1
        if scan_bucket:
            while idx >= 0:
                u = heads1[idx]
                while u != -1:
                    if float(dw + vwt[u]) <= hi:
                        v1 = u
                        k1 = idx - offset
                        break
                    u = next1[u]
                if v1 >= 0:
                    break
                idx -= 1
        else:
            while idx >= 0:
                u = heads1[idx]
                if u != -1:
                    if float(dw + vwt[u]) <= hi:
                        v1 = u
                        k1 = idx - offset
                        break
                    if skip_part:
                        break
                idx -= 1

        if v0 < 0:
            if v1 < 0:
                break
            v = v1
        elif v1 < 0:
            v = v0
        else:
            if k0 > k1:
                v = v0
            elif k1 > k0:
                v = v1
            elif bias_part0:
                v = v0
            elif last_src < 0:
                v = v0
            elif bias_away:
                v = v0 if last_src == 1 else v1
            else:  # TOWARD
                v = v0 if last_src == 0 else v1

        src = assign[v]

        # Unlink the chosen vertex from its bucket (inline remove).
        if src == 0:
            idx = key0[v] + offset
            p = prev0[v]
            nn = next0[v]
            if p != -1:
                next0[p] = nn
            else:
                heads0[idx] = nn
            if nn != -1:
                prev0[nn] = p
            else:
                tails0[idx] = p
            pres0[v] = 0
        else:
            idx = key1[v] + offset
            p = prev1[v]
            nn = next1[v]
            if p != -1:
                next1[p] = nn
            else:
                heads1[idx] = nn
            if nn != -1:
                prev1[nn] = p
            else:
                tails1[idx] = p
            pres1[v] = 0
        last_src = src

        # ----- fused neighbour update + ledger update -----------------
        for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
            e = vtx_nets[i]
            if src == 0:
                f = pins0[e]
                t = pins1[e]
            else:
                f = pins1[e]
                t = pins0[e]
            if update_all == 0 and f > 2 and t > 1:
                n_net_skips += 1
                if src == 0:
                    pins0[e] = f - 1
                    pins1[e] = t + 1
                else:
                    pins1[e] = f - 1
                    pins0[e] = t + 1
                continue
            w = net_w[e]
            for j in range(net_ptr[e], net_ptr[e + 1]):
                y = net_pins[j]
                if y == v:
                    continue
                same_side = assign[y] == src
                if same_side:
                    if src == 0:
                        if pres0[y] == 0:
                            continue
                    else:
                        if pres1[y] == 0:
                            continue
                    if f == 2:
                        delta = w
                    elif f == 1:
                        delta = -w
                    else:
                        delta = np.int64(0)
                    if t == 0:
                        delta += w
                else:
                    if src == 0:
                        if pres1[y] == 0:
                            continue
                    else:
                        if pres0[y] == 0:
                            continue
                    if t == 0:
                        delta = w
                    elif t == 1:
                        delta = -w
                    else:
                        delta = np.int64(0)
                    if f == 1:
                        delta -= w
                if delta != 0 or update_all != 0:
                    n_updates += 1
                    # The neighbour's bucket pair: same side as the
                    # moved vertex -> source structures; other side ->
                    # destination structures.
                    on0 = (src == 0) == same_side
                    if on0:
                        ky = key0[y]
                    else:
                        ky = key1[y]
                    nk = ky + delta
                    nidx = nk + offset
                    if nidx < 0 or nidx >= span:
                        error = 1
                        break
                    oidx = ky + offset
                    if on0:
                        p = prev0[y]
                        nn = next0[y]
                        if p != -1:
                            next0[p] = nn
                        else:
                            heads0[oidx] = nn
                        if nn != -1:
                            prev0[nn] = p
                        else:
                            tails0[oidx] = p
                    else:
                        p = prev1[y]
                        nn = next1[y]
                        if p != -1:
                            next1[p] = nn
                        else:
                            heads1[oidx] = nn
                        if nn != -1:
                            prev1[nn] = p
                        else:
                            tails1[oidx] = p
                    if rnd_order:
                        if mti >= _MT_N:
                            for tt in range(_MT_N):
                                yy = (mt[tt] & _MT_UPPER) | (
                                    mt[(tt + 1) % _MT_N] & _MT_LOWER
                                )
                                vv = mt[(tt + _MT_M) % _MT_N] ^ (yy >> 1)
                                if yy & 1:
                                    vv ^= _MT_MATRIX_A
                                mt[tt] = vv
                            mti = 0
                        yy = mt[mti]
                        mti += 1
                        yy ^= yy >> 11
                        yy ^= (yy << 7) & 0x9D2C5680
                        yy ^= (yy << 15) & 0xEFC60000
                        yy &= _U32
                        yy ^= yy >> 18
                        a = yy >> 5
                        if mti >= _MT_N:
                            for tt in range(_MT_N):
                                yy = (mt[tt] & _MT_UPPER) | (
                                    mt[(tt + 1) % _MT_N] & _MT_LOWER
                                )
                                vv = mt[(tt + _MT_M) % _MT_N] ^ (yy >> 1)
                                if yy & 1:
                                    vv ^= _MT_MATRIX_A
                                mt[tt] = vv
                            mti = 0
                        yy = mt[mti]
                        mti += 1
                        yy ^= yy >> 11
                        yy ^= (yy << 7) & 0x9D2C5680
                        yy ^= (yy << 15) & 0xEFC60000
                        yy &= _U32
                        yy ^= yy >> 18
                        b = yy >> 6
                        at_head = (a * 67108864.0 + b) * (
                            1.0 / 9007199254740992.0
                        ) < 0.5
                    else:
                        at_head = head_order
                    if on0:
                        old = heads0[nidx]
                        if old == -1:
                            heads0[nidx] = y
                            tails0[nidx] = y
                            prev0[y] = -1
                            next0[y] = -1
                        elif at_head:
                            next0[y] = old
                            prev0[y] = -1
                            prev0[old] = y
                            heads0[nidx] = y
                        else:
                            tl = tails0[nidx]
                            prev0[y] = tl
                            next0[y] = -1
                            next0[tl] = y
                            tails0[nidx] = y
                        key0[y] = nk
                        if src == 0:
                            if nidx > maxi0:
                                maxi0 = nidx
                        else:
                            if nidx > maxi0:
                                maxi0 = nidx
                    else:
                        old = heads1[nidx]
                        if old == -1:
                            heads1[nidx] = y
                            tails1[nidx] = y
                            prev1[y] = -1
                            next1[y] = -1
                        elif at_head:
                            next1[y] = old
                            prev1[y] = -1
                            prev1[old] = y
                            heads1[nidx] = y
                        else:
                            tl = tails1[nidx]
                            prev1[y] = tl
                            next1[y] = -1
                            next1[tl] = y
                            tails1[nidx] = y
                        key1[y] = nk
                        if nidx > maxi1:
                            maxi1 = nidx
                else:
                    n_zero_skips += 1
            if error != 0:
                break
            # Apply the move to this net's pin counts and the cut ledger.
            if src == 0:
                pins0[e] = f - 1
                pins1[e] = t + 1
            else:
                pins1[e] = f - 1
                pins0[e] = t + 1
            if t == 0:
                if f >= 2:
                    cut += w
            elif f == 1:
                cut -= w
        if error != 0:
            break

        wv = vwt[v]
        if src == 0:
            assign[v] = 1
            pw[0] -= wv
            pw[1] += wv
        else:
            assign[v] = 0
            pw[1] -= wv
            pw[0] += wv
        move_log[mcount] = v
        cut_log[mcount] = cut
        pw0 = float(pw[0])
        pw1 = float(pw[1])
        d = pw0 - lo
        d2 = hi - pw0
        if d2 < d:
            d = d2
        d2 = pw1 - lo
        if d2 < d:
            d = d2
        d2 = hi - pw1
        if d2 < d:
            d = d2
        dist_log[mcount] = d
        mcount += 1

    if error != 0:
        out[7] = 1
        mti_io[0] = mti
        assign[:] = snap_assign
        pins0[:] = snap_pins0
        pins1[:] = snap_pins1
        pw[0] = snap_pw0
        pw[1] = snap_pw1
        cut_io[0] = cut_before
        return

    # ----- choose the best prefix (FMEngine._best_prefix) -------------
    have = initial_legal != 0
    best_cut = cut_before
    for k in range(mcount):
        if dist_log[k] >= 0.0:
            c = cut_log[k]
            if not have or c < best_cut:
                best_cut = c
                have = True
    if not have:
        best_k = 0
        best_d = initial_distance
        for k in range(mcount):
            if dist_log[k] > best_d:
                best_d = dist_log[k]
                best_k = k + 1
    elif best_choice == 0:  # FIRST
        best_k = 0
        if not (initial_legal != 0 and cut_before == best_cut):
            for k in range(mcount):
                if dist_log[k] >= 0.0 and cut_log[k] == best_cut:
                    best_k = k + 1
                    break
    elif best_choice == 1:  # LAST
        best_k = 0
        for k in range(mcount - 1, -1, -1):
            if dist_log[k] >= 0.0 and cut_log[k] == best_cut:
                best_k = k + 1
                break
    else:  # BALANCE
        best_k = -1
        best_d = -np.inf
        if initial_legal != 0 and cut_before == best_cut:
            best_k = 0
            best_d = initial_distance
        for k in range(mcount):
            if dist_log[k] >= 0.0 and cut_log[k] == best_cut:
                if dist_log[k] > best_d:
                    best_d = dist_log[k]
                    best_k = k + 1

    # ----- rollback: restore the entry snapshot, replay the prefix ----
    # Everything restored or replayed is integral, so this equals the
    # Python engine's reverse rollback bit for bit (the same argument
    # that justifies its snapshot fast path).
    if best_k < mcount:
        assign[:] = snap_assign
        pins0[:] = snap_pins0
        pins1[:] = snap_pins1
        pw[0] = snap_pw0
        pw[1] = snap_pw1
        cut = cut_before
        for i in range(best_k):
            v = move_log[i]
            src = assign[v]
            for ii in range(vtx_ptr[v], vtx_ptr[v + 1]):
                e = vtx_nets[ii]
                if src == 0:
                    f = pins0[e]
                    t = pins1[e]
                    pins0[e] = f - 1
                    pins1[e] = t + 1
                else:
                    f = pins1[e]
                    t = pins0[e]
                    pins1[e] = f - 1
                    pins0[e] = t + 1
                if t == 0:
                    if f >= 2:
                        cut += net_w[e]
                elif f == 1:
                    cut -= net_w[e]
            wv = vwt[v]
            if src == 0:
                assign[v] = 1
                pw[0] -= wv
                pw[1] += wv
            else:
                assign[v] = 0
                pw[1] -= wv
                pw[0] += wv

    cut_io[0] = cut
    mti_io[0] = mti
    out[0] = mcount
    out[1] = best_k
    out[2] = ecount
    out[3] = n_selects
    out[4] = n_updates
    out[5] = n_zero_skips
    out[6] = n_net_skips
    out[7] = 0


# ----------------------------------------------------------------------
# Matching / clustering kernels
# ----------------------------------------------------------------------
def net_scores(net_ptr, net_w, max_net_size, score):
    """Per-net connectivity score ``w/(size-1)``; -1.0 when ineligible."""
    m = score.shape[0]
    for e in range(m):
        size = net_ptr[e + 1] - net_ptr[e]
        if size < 2 or size > max_net_size:
            score[e] = -1.0
        else:
            score[e] = net_w[e] / (size - 1)


def hem_match(
    net_ptr,
    net_pins,
    vtx_ptr,
    vtx_nets,
    vwt,
    score,
    order,
    fixed,
    use_fixed,
    use_assignment,
    assignment,
    max_cluster_weight,
    cluster,
    out,
):
    """Heavy-edge / restricted matching selection loop.

    ``fixed[v]`` is -1 for unconstrained vertices; ``use_assignment``
    selects the V-cycle variant (only same-side merges).  ``cluster``
    must be -1-filled.  ``out = [next_id, touched]``.
    """
    n = cluster.shape[0]
    conn = np.zeros(n, dtype=np.float64)
    stamp = np.zeros(n, dtype=np.int64)
    nbrs = np.zeros(n, dtype=np.int64)
    epoch = np.int64(0)
    next_id = 0
    touched = np.int64(0)
    for oi in range(n):
        v = order[oi]
        if cluster[v] != -1:
            continue
        epoch += 1
        ncount = 0
        for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
            e = vtx_nets[i]
            w = score[e]
            if w < 0.0:
                continue
            nlo = net_ptr[e]
            nhi = net_ptr[e + 1]
            touched += nhi - nlo - 1
            for j in range(nlo, nhi):
                u = net_pins[j]
                if u == v:
                    continue
                if stamp[u] == epoch:
                    conn[u] += w
                else:
                    stamp[u] = epoch
                    conn[u] = w
                    nbrs[ncount] = u
                    ncount += 1
        best_u = -1
        best_c = 0.0
        wv = vwt[v]
        for t in range(ncount):
            u = nbrs[t]
            if cluster[u] != -1:
                continue
            if use_assignment != 0 and assignment[u] != assignment[v]:
                continue
            if wv + vwt[u] > max_cluster_weight:
                continue
            if use_fixed != 0:
                fv = fixed[v]
                fu = fixed[u]
                if fv != -1 and fu != -1 and fv != fu:
                    continue
            c = conn[u]
            if c > best_c:
                best_c = c
                best_u = u
        cluster[v] = next_id
        if best_u != -1:
            cluster[best_u] = next_id
        next_id += 1
    out[0] = next_id
    out[1] = touched


def fc_cluster(
    net_ptr,
    net_pins,
    vtx_ptr,
    vtx_nets,
    vwt,
    score,
    order,
    fixed,
    use_fixed,
    max_cluster_weight,
    cluster,
    out,
):
    """First-choice clustering selection loop; ``out = [num, touched]``."""
    n = cluster.shape[0]
    conn = np.zeros(n, dtype=np.float64)
    stamp = np.zeros(n, dtype=np.int64)
    nbrs = np.zeros(n, dtype=np.int64)
    cluster_weight = np.zeros(n, dtype=np.float64)
    cluster_fixed = np.full(n, -1, dtype=np.int64)
    epoch = np.int64(0)
    num_clusters = 0
    touched = np.int64(0)
    for oi in range(n):
        v = order[oi]
        if cluster[v] != -1:
            continue
        epoch += 1
        ncount = 0
        for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
            e = vtx_nets[i]
            w = score[e]
            if w < 0.0:
                continue
            nlo = net_ptr[e]
            nhi = net_ptr[e + 1]
            touched += nhi - nlo - 1
            for j in range(nlo, nhi):
                u = net_pins[j]
                if u == v:
                    continue
                if stamp[u] == epoch:
                    conn[u] += w
                else:
                    stamp[u] = epoch
                    conn[u] = w
                    nbrs[ncount] = u
                    ncount += 1
        wv = vwt[v]
        fv = fixed[v] if use_fixed != 0 else -1
        best_cluster = -1
        best_c = 0.0
        for t in range(ncount):
            u = nbrs[t]
            cu = cluster[u]
            if cu == -1:
                continue
            if cluster_weight[cu] + wv > max_cluster_weight:
                continue
            cf = cluster_fixed[cu]
            if fv != -1 and cf != -1 and fv != cf:
                continue
            c = conn[u]
            if c > best_c:
                best_c = c
                best_cluster = cu
        if best_cluster == -1:
            cluster[v] = num_clusters
            cluster_weight[num_clusters] = wv
            cluster_fixed[num_clusters] = fv
            num_clusters += 1
        else:
            cluster[v] = best_cluster
            cluster_weight[best_cluster] += wv
            if fv != -1:
                cluster_fixed[best_cluster] = fv
    out[0] = num_clusters
    out[1] = touched


def hec_contract(
    net_ptr,
    net_pins,
    vwt,
    order,
    fixed,
    use_fixed,
    max_cluster_weight,
    max_net_size,
    cluster,
    out,
):
    """Hyperedge-coarsening selection loop over a pre-sorted net order.

    ``order`` is the heaviest-first net visit order computed by the
    caller (it owns the RNG shuffle and the weight sort); ``cluster``
    must be -1-filled.  ``out = [next_id, touched]``.
    """
    n = cluster.shape[0]
    num_nets = order.shape[0]
    next_id = 0
    touched = np.int64(0)
    for oi in range(num_nets):
        e = order[oi]
        nlo = net_ptr[e]
        nhi = net_ptr[e + 1]
        size = nhi - nlo
        if size < 2 or size > max_net_size:
            continue
        touched += size
        free = True
        for i in range(nlo, nhi):
            if cluster[net_pins[i]] != -1:
                free = False
                break
        if not free:
            continue
        total = 0.0
        for i in range(nlo, nhi):
            total += vwt[net_pins[i]]
        if total > max_cluster_weight:
            continue
        if use_fixed != 0:
            side = np.int64(-1)
            conflict = False
            for i in range(nlo, nhi):
                fp = fixed[net_pins[i]]
                if fp != -1:
                    if side == -1:
                        side = fp
                    elif side != fp:
                        conflict = True
                        break
            if conflict:
                continue
        for i in range(nlo, nhi):
            cluster[net_pins[i]] = next_id
        next_id += 1
    for v in range(n):
        if cluster[v] == -1:
            cluster[v] = next_id
            next_id += 1
    out[0] = next_id
    out[1] = touched


# ----------------------------------------------------------------------
# Contraction (coarsen) kernel
# ----------------------------------------------------------------------
def contract(
    net_ptr,
    net_pins,
    cluster_of,
    vwt,
    net_w,
    mapped,
    weights,
    coarse_net_ptr,
    coarse_pins,
    coarse_net_w,
    out,
):
    """Contract a cluster map into the coarse hypergraph's flat CSR.

    Reproduces :func:`repro.multilevel.coarsen.coarsen` exactly: dense
    renumbering in first-encounter order, vertex-order weight
    accumulation, per-net pin projection with dedup (nets collapsing
    below two pins drop), and identical-net merging where the group
    representative is the *smallest original net id* and weights
    accumulate in ascending original-net order — the seed dict's
    first-occurrence semantics, reproduced here with an exact-equality
    hash grouping instead of the Python kernel's stable sort (grouping
    strategy cannot change the output: groups are equality classes and
    the emission order is by representative id either way).

    Output buffers: ``mapped`` (n), ``weights`` (<= n),
    ``coarse_net_ptr`` (m+1), ``coarse_pins`` (<= total pins),
    ``coarse_net_w`` (<= m).  ``out = [num_coarse, num_coarse_nets,
    num_coarse_pins, merged, dropped, error]`` where error=1 flags a
    negative cluster id (caller raises the Python error).
    """
    n = cluster_of.shape[0]
    m = net_ptr.shape[0] - 1
    total_pins = net_pins.shape[0]

    # ----- dense renumbering in first-encounter order -----------------
    max_id = np.int64(-1)
    for v in range(n):
        c = cluster_of[v]
        if c < 0:
            out[5] = 1
            out[0] = v  # offending vertex for the caller's message
            return
        if c > max_id:
            max_id = c
    remap = np.zeros(max_id + 2, dtype=np.int64)
    seen = np.zeros(max_id + 2, dtype=np.uint8)
    num_coarse = 0
    for v in range(n):
        c = cluster_of[v]
        if seen[c] != 0:
            mapped[v] = remap[c]
        else:
            seen[c] = 1
            remap[c] = num_coarse
            mapped[v] = num_coarse
            num_coarse += 1

    for c in range(num_coarse):
        weights[c] = 0.0
    for v in range(n):
        weights[mapped[v]] += vwt[v]

    # ----- project nets, dedup pins ------------------------------------
    # Kept nets are stored as sorted pin runs in ``proj_pins`` with
    # ``proj_ptr`` offsets; ``proj_orig`` holds original net ids in
    # ascending order (nets are scanned in order).
    stamp = np.zeros(num_coarse + 1, dtype=np.int64)
    buf = np.zeros(num_coarse + 1, dtype=np.int64)
    proj_pins = np.zeros(total_pins, dtype=np.int64)
    proj_ptr = np.zeros(m + 1, dtype=np.int64)
    proj_orig = np.zeros(m, dtype=np.int64)
    kept = 0
    ppos = np.int64(0)
    dropped = 0
    epoch = np.int64(0)
    for e in range(m):
        epoch += 1
        cnt = 0
        for i in range(net_ptr[e], net_ptr[e + 1]):
            c = mapped[net_pins[i]]
            if stamp[c] != epoch:
                stamp[c] = epoch
                buf[cnt] = c
                cnt += 1
        if cnt < 2:
            dropped += 1
            continue
        # Insertion sort of the (typically short) deduped pin run; any
        # correct sort yields the same sorted tuple the Python kernel
        # builds.
        for a in range(1, cnt):
            x = buf[a]
            b = a - 1
            while b >= 0 and buf[b] > x:
                buf[b + 1] = buf[b]
                b -= 1
            buf[b + 1] = x
        proj_ptr[kept] = ppos
        for a in range(cnt):
            proj_pins[ppos] = buf[a]
            ppos += 1
        proj_orig[kept] = e
        kept += 1
    proj_ptr[kept] = ppos

    # ----- group identical projected nets ------------------------------
    # Exact-equality hash grouping in ascending original-net order: the
    # first member of each group is its smallest original id, groups are
    # discovered (and therefore emitted) in ascending representative
    # order, and later members fold their weights in ascending id order
    # — all three invariants of the Python kernel's stable sort.
    table_size = np.int64(1)
    while table_size < 2 * (kept + 1):
        table_size *= 2
    table = np.full(table_size, -1, dtype=np.int64)
    group_of = np.zeros(kept + 1, dtype=np.int64)
    group_head = np.zeros(kept + 1, dtype=np.int64)  # kept-index of head
    num_groups = 0
    merged = 0
    mask = table_size - 1
    for k in range(kept):
        klo = proj_ptr[k]
        khi = proj_ptr[k + 1]
        # FNV-1a folded to 63 bits after every step.  ``int()`` keeps
        # CPython exact (then masked — the low 63 bits of the exact
        # product) while numba wraps the int64 multiply mod 2**64 (same
        # low 63 bits), so both agree without overflow warnings.  Hash
        # values need not match other backends — only group membership.
        h = int(np.int64(1469598103934665603))
        for i in range(klo, khi):
            h = ((h ^ int(proj_pins[i])) * 1099511628211) & 0x7FFFFFFFFFFFFFFF
        slot = np.int64(h) & mask
        g = np.int64(-1)
        while True:
            occ = table[slot]
            if occ == -1:
                break
            ho = group_head[occ]
            olo = proj_ptr[ho]
            ohi = proj_ptr[ho + 1]
            if ohi - olo == khi - klo:
                same = True
                for i in range(khi - klo):
                    if proj_pins[olo + i] != proj_pins[klo + i]:
                        same = False
                        break
                if same:
                    g = occ
                    break
            slot = (slot + 1) & mask
        if g == -1:
            g = num_groups
            group_head[g] = k
            table[slot] = g
            num_groups += 1
        else:
            merged += 1
        group_of[k] = g

    # ----- emit the coarse CSR -----------------------------------------
    # Groups were numbered in ascending-representative order, so a
    # single pass over them emits the seed coarse-net order; weights
    # fold over members in ascending original order via group_of.
    cpos = np.int64(0)
    coarse_net_ptr[0] = 0
    for g in range(num_groups):
        hk = group_head[g]
        for i in range(proj_ptr[hk], proj_ptr[hk + 1]):
            coarse_pins[cpos] = proj_pins[i]
            cpos += 1
        coarse_net_ptr[g + 1] = cpos
        coarse_net_w[g] = net_w[proj_orig[hk]]
    for k in range(kept):
        g = group_of[k]
        if group_head[g] != k:
            coarse_net_w[g] += net_w[proj_orig[k]]

    out[0] = num_coarse
    out[1] = num_groups
    out[2] = cpos
    out[3] = merged
    out[4] = dropped
    out[5] = 0


# ----------------------------------------------------------------------
# Bootstrap kernels
# ----------------------------------------------------------------------
def shuffle_rows(mt, mti_io, order, perm):
    """Fill ``perm`` with composed Fisher-Yates shuffles of ``order``.

    Row ``s`` is ``order`` after the ``s+1``-th in-place
    ``random.Random.shuffle`` — byte-identical to CPython's
    ``_randbelow_with_getrandbits`` rejection sampling over the given
    MT state, so :func:`repro.evaluation.bsf.shuffle_matrix` can run on
    any backend and produce the same ordering matrix.
    """
    rows = perm.shape[0]
    n = order.shape[0]
    mti = mti_io[0]
    for s in range(rows):
        for i in range(n - 1, 0, -1):
            bound = i + 1
            k = 0
            bb = bound
            while bb > 0:
                k += 1
                bb >>= 1
            while True:
                if mti >= _MT_N:
                    for t in range(_MT_N):
                        y = (mt[t] & _MT_UPPER) | (
                            mt[(t + 1) % _MT_N] & _MT_LOWER
                        )
                        vv = mt[(t + _MT_M) % _MT_N] ^ (y >> 1)
                        if y & 1:
                            vv ^= _MT_MATRIX_A
                        mt[t] = vv
                    mti = 0
                y = mt[mti]
                mti += 1
                y ^= y >> 11
                y ^= (y << 7) & 0x9D2C5680
                y ^= (y << 15) & 0xEFC60000
                y &= _U32
                y ^= y >> 18
                r = y >> (32 - k)
                if r < bound:
                    break
            tmp = order[i]
            order[i] = order[r]
            order[r] = tmp
        for i in range(n):
            perm[s, i] = order[i]
    mti_io[0] = mti


def bootstrap_tables(perm, runtimes, cuts, elapsed, cuts_out, prefix_min):
    """Per-row runtime cumsum, cut gather and prefix-min over ``perm``.

    Left-to-right accumulation per row matches ``np.cumsum`` /
    ``np.minimum.accumulate`` on the permuted arrays bit for bit.
    """
    rows = perm.shape[0]
    n = perm.shape[1]
    for s in range(rows):
        acc = 0.0
        best = np.inf
        for i in range(n):
            p = perm[s, i]
            acc += runtimes[p]
            elapsed[s, i] = acc
            c = cuts[p]
            cuts_out[s, i] = c
            if c < best:
                best = c
            prefix_min[s, i] = best
