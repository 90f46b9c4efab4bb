# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled hot-loop kernels; mirrors olog._pykernels function for function.

All arithmetic is C long long; sequence lengths are capped at
MAX_SWEEP_LEN and profile sizes by olog.kernels, so nothing here can
overflow.
"""

from libc.string cimport memset

ctypedef long long i64

cdef enum:
    MAX_SWEEP_LEN = 64
    TABLE_CELLS = 4225  # (MAX_SWEEP_LEN + 1) ** 2


cdef inline i64 _ilog2(i64 n) noexcept nogil:
    # halving recurrence; caller guarantees n >= 1
    cdef i64 k = 0
    while n > 1:
        n >>= 1
        k += 1
    return k


def search_steps(seq, i64 key):
    """(r, t) of the plain search on an arbitrary sorted buffer."""
    cdef i64 q[MAX_SWEEP_LEN]
    cdef int n = len(seq)
    cdef int i
    if n > MAX_SWEEP_LEN:
        raise ValueError(f"compiled search_steps caps length at {MAX_SWEEP_LEN}")
    for i in range(n):
        q[i] = seq[i]
    cdef i64 lo = 0, hi = n, r = -1, t = 0, mid
    while lo < hi:
        mid = (lo + hi) // 2
        if key < q[mid]:
            hi = mid
        elif q[mid] < key:
            lo = mid + 1
        else:
            r = mid
            hi = lo
        t += 1
    return r, t


def binary_max_steps(i64 n):
    """Worst iteration count over keys [-1, n] on the identity sequence.

    q[i] = i, so the probe key < q[mid] is key < mid; the loop below is
    the search loop verbatim with that substitution.
    """
    cdef i64 key, lo, hi, mid, t, worst = 0
    with nogil:
        for key in range(-1, n + 1):
            lo = 0
            hi = n
            t = 0
            while lo < hi:
                mid = (lo + hi) // 2
                if key < mid:
                    hi = mid
                elif mid < key:
                    lo = mid + 1
                else:
                    hi = lo
                t += 1
            if t > worst:
                worst = t
    return worst


def linear_max_steps(i64 n):
    """Worst comparison count of the linear scan over keys [-1, n]."""
    cdef i64 key, i, t, worst = 0
    with nogil:
        for key in range(-1, n + 1):
            t = 0
            for i in range(n):
                t += 1
                if i == key:
                    break
            if t > worst:
                worst = t
    return worst


cdef _record(dict counts, dict first, str prop, i64 *q, int n, i64 key, str detail):
    counts[prop] = counts[prop] + 1
    if first[prop] is None:
        first[prop] = {"q": [q[i] for i in range(n)], "key": key, "detail": detail}


def verify_sweep(seqs, i64 key_lo, i64 key_hi, search_fn=None):
    """Per-instance property battery; see olog._pykernels.verify_sweep.

    ``search_fn`` must be None: a custom search means the caller wants
    the Python route (olog.kernels dispatches accordingly).
    """
    if search_fn is not None:
        raise ValueError("compiled sweep only runs the built-in search")

    cdef i64 q[MAX_SWEEP_LEN]
    cdef i64 table[TABLE_CELLS]
    cdef int n, i, width, lo_i, hi_i, mid_i, stride
    cdef i64 key, lo, hi, mid, r, t, iterations, prev_width
    cdef i64 tbs_total, remaining, budget, log_n, max_gap = 0
    cdef i64 oracle_r
    cdef bint bad, in_prefix, in_suffix, agree
    cdef long long instances = 0

    counts = {p: 0 for p in ("P1", "P2", "P3", "P4", "P5", "P6", "P7")}
    first = {p: None for p in counts}

    for items in seqs:
        n = len(items)
        if n > MAX_SWEEP_LEN:
            raise ValueError(f"compiled sweep caps length at {MAX_SWEEP_LEN}")
        for i in range(n):
            q[i] = items[i]
        stride = n + 1
        budget = 2 * _ilog2(n + 1) + 1
        log_n = _ilog2(n) if n >= 1 else 0

        for key in range(key_lo, key_hi + 1):
            instances += 1

            # transition costs for every subrange, bottom-up by width
            memset(table, 0, stride * stride * sizeof(i64))
            for width in range(1, n + 1):
                for lo_i in range(0, n - width + 1):
                    hi_i = lo_i + width
                    mid_i = (lo_i + hi_i) // 2
                    if key == q[mid_i] or width == 1:
                        table[lo_i * stride + hi_i] = 1
                    elif key < q[mid_i]:
                        table[lo_i * stride + hi_i] = 1 + table[lo_i * stride + mid_i]
                    else:
                        table[lo_i * stride + hi_i] = 1 + table[(mid_i + 1) * stride + hi_i]
            tbs_total = table[n]  # row 0, column n

            # P5: every nonempty subrange obeys the log bound
            bad = False
            for lo_i in range(n):
                for hi_i in range(lo_i + 1, n + 1):
                    if table[lo_i * stride + hi_i] > 2 * _ilog2(hi_i - lo_i) + 1:
                        _record(counts, first, "P5", q, n, key,
                                f"tbs({lo_i}, {hi_i})={table[lo_i * stride + hi_i]} exceeds its log bound")
                        bad = True
                        break
                if bad:
                    break

            # instrumented run with per-head invariant checks
            r = -1
            lo = 0
            hi = n
            t = 0
            iterations = 0
            prev_width = -1
            bad = False
            while True:
                # termination: the range must shrink every iteration
                if prev_width >= 0 and hi - lo >= prev_width:
                    _record(counts, first, "P3", q, n, key,
                            f"hi-lo failed to decrease at lo={lo}, hi={hi}, t={t}")
                    bad = True
                    break
                prev_width = hi - lo
                # loop invariant: bounds hold and an unfound key is absent
                # from the eliminated prefix and suffix
                if lo < 0 or lo > hi or hi > n:
                    _record(counts, first, "P1", q, n, key,
                            f"range bounds broken: lo={lo}, hi={hi}")
                    bad = True
                    break
                if r < 0:
                    in_prefix = False
                    for i in range(lo):
                        if q[i] == key:
                            in_prefix = True
                            break
                    in_suffix = False
                    for i in range(hi, n):
                        if q[i] == key:
                            in_suffix = True
                            break
                    if in_prefix or in_suffix:
                        _record(counts, first, "P1", q, n, key,
                                f"key inside eliminated region at lo={lo}, hi={hi}")
                        bad = True
                        break
                elif r >= n or q[r] != key:
                    _record(counts, first, "P1", q, n, key, f"found index r={r} is wrong")
                    bad = True
                    break
                # counter dominated by the transition-cost difference
                remaining = table[lo * stride + hi]
                if t > tbs_total - remaining:
                    _record(counts, first, "P4", q, n, key,
                            f"t={t} exceeds tbs difference {tbs_total}-{remaining}")
                    bad = True
                    break
                if not lo < hi:
                    break
                mid = (lo + hi) // 2
                if key < q[mid]:
                    hi = mid
                elif q[mid] < key:
                    lo = mid + 1
                else:
                    r = mid
                    hi = lo
                t += 1
                iterations += 1
            if bad:
                continue

            # P1: final postconditions
            if r >= 0:
                if r >= n or q[r] != key:
                    _record(counts, first, "P1", q, n, key, f"r={r} does not index the key")
            else:
                for i in range(n):
                    if q[i] == key:
                        _record(counts, first, "P1", q, n, key,
                                "key reported absent but present")
                        break
            # P2: agreement with the linear oracle
            oracle_r = -1
            for i in range(n):
                if q[i] == key:
                    oracle_r = i
                    break
            agree = ((r >= 0) == (oracle_r >= 0)) and (r < 0 or q[r] == key)
            if not agree:
                _record(counts, first, "P2", q, n, key,
                        f"r={r} disagrees with oracle index {oracle_r}")
            # P3: counter equals the number of executed iterations
            if t != iterations:
                _record(counts, first, "P3", q, n, key,
                        f"t={t} but {iterations} iterations ran")
            # P4: end-to-end domination
            if t > tbs_total:
                _record(counts, first, "P4", q, n, key, f"t={t} exceeds tbs={tbs_total}")
            elif tbs_total - t > max_gap:
                max_gap = tbs_total - t
            # P6: step budget
            if t > budget:
                _record(counts, first, "P6", q, n, key, f"t={t} exceeds budget {budget}")
            # P7: witness bound for n >= 2
            if n >= 2 and t > 6 * log_n:
                _record(counts, first, "P7", q, n, key,
                        f"t={t} exceeds 6*ilog2({n})={6 * log_n}")

    return {
        "instances": instances,
        "violations": counts,
        "first": first,
        "max_tbs_gap": max_gap,
    }
