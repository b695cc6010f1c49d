//! Instrumented sorting.
//!
//! Shared-memory SpMSpV spends most of its time sorting the SPA's collected
//! indices — "sorting is the most expensive step" (Fig 7) — and the paper
//! notes that "a less expensive integer sorting algorithm (e.g., radix
//! sort) is expected to reduce the sorting cost", citing the authors' prior
//! work \[9\]. This module provides both:
//!
//! * [`parallel_merge_sort`] — the paper's algorithm: chunk-local
//!   natural-runs merge sorts, then parallel pairwise run merging. Work:
//!   up to `n·⌈log₂ n⌉` element moves on random input, `O(n)` on
//!   nearly-sorted input (the adaptivity Chapel's sparse-domain bulk add
//!   shows), all counted into `Counters::sort_elems`.
//! * [`radix_sort`] — LSD radix sort on integer keys, `n·⌈bits/11⌉` moves.
//!
//! The `ablations` bench compares the two, reproducing the paper's
//! prediction.

use crate::par::{fork_join, split_ranges, Counters, ExecCtx};
use crate::workspace::WsGuard;

/// Which sorting algorithm an operation should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortAlgo {
    /// Parallel merge sort (Chapel's library sort, the paper's default).
    #[default]
    Merge,
    /// LSD radix sort on integer keys (the paper's suggested improvement).
    Radix,
}

/// Sort `data` ascending with a parallel merge sort, charging every element
/// move to `counters.sort_elems`.
pub fn parallel_merge_sort<T: Copy + Ord + Send + Sync + 'static>(
    data: &mut [T],
    ctx: &ExecCtx,
    phase: &str,
) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    // Phase 1: sort `t` contiguous chunks independently.
    let chunks = split_ranges(n, ctx.threads());
    {
        // Split the buffer into disjoint chunk slices so tasks can sort
        // them concurrently without aliasing.
        let mut rest: &mut [T] = data;
        let carve = |r: &std::ops::Range<usize>| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
            rest = tail;
            parking_lot::Mutex::new(head)
        };
        let slices: Vec<parking_lot::Mutex<&mut [T]>> = chunks.iter().map(carve).collect();
        ctx.for_each_task(phase, slices.len(), |t, c| {
            let mut guard = slices[t].lock();
            let mut buf = ctx.ws_vec::<T>();
            natural_run_merge_sort(&mut guard, &mut buf, c);
        });
    }
    // Phase 2: merge runs pairwise until one remains. Each round's merges
    // touch disjoint `[s1..e2)` windows, so they run concurrently.
    let mut runs: Vec<(usize, usize)> = chunks.iter().map(|r| (r.start, r.end)).collect();
    while runs.len() > 1 {
        let mut pairs: Vec<(usize, usize, usize)> = Vec::with_capacity(runs.len() / 2);
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut i = 0;
        while i + 1 < runs.len() {
            let (s1, e1) = runs[i];
            let (s2, e2) = runs[i + 1];
            debug_assert_eq!(e1, s2);
            pairs.push((s1, e1, e2));
            next.push((s1, e2));
            i += 2;
        }
        if i < runs.len() {
            next.push(runs[i]);
        }
        merge_pairs_parallel(data, &pairs, ctx, phase);
        runs = next;
    }
    debug_assert!(data.windows(2).all(|w| w[0] <= w[1]));
}

/// Merge each `(s, m, e)` pair of adjacent runs in `data`, concurrently.
///
/// The windows are disjoint, so the buffer splits into one `&mut` slice
/// per pair. Counters accumulate per pair and are recorded in pair order,
/// so `sort_elems` accounting is identical to the serial left-to-right
/// sweep this replaces. Deliberately *not* [`ExecCtx::for_each_task`]:
/// that would add priced region/task bookkeeping the serial loop never
/// paid.
fn merge_pairs_parallel<T: Copy + Ord + Send + Sync + 'static>(
    data: &mut [T],
    pairs: &[(usize, usize, usize)],
    ctx: &ExecCtx,
    phase: &str,
) {
    // Carve one disjoint window per pair out of the buffer, lazily.
    let mut rest: &mut [T] = data;
    let mut offset = 0usize;
    let windows = pairs.iter().map(move |&(s, m, e)| {
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(s - offset);
        let (window, tail) = tail.split_at_mut(e - s);
        rest = tail;
        offset = e;
        (window, m - s)
    });
    let merge = |buf: &mut WsGuard<Vec<T>>, _, (window, mid): (&mut [T], usize)| {
        let mut c = Counters::default();
        merge_adjacent(window, 0, mid, window.len(), buf, &mut c);
        c
    };
    // One scratch buffer per worker, as the serial sweep has one.
    for c in fork_join(ctx.real_threads(), windows, || ctx.ws_vec::<T>(), merge) {
        ctx.record(phase, |pc| pc.merge(&c));
    }
}

/// Serial natural-runs merge sort counting element moves.
///
/// Pre-existing ascending runs are detected first (one scan, charged as
/// `n` sort units) and then merged pairwise, so nearly-sorted input costs
/// `O(n)` instead of `n·log n` — matching the adaptive behaviour of
/// Chapel's sparse-domain bulk add (`mySparseBlock += keepInd`), whose
/// input is already ordered when the compaction ran in task order. Random
/// input still pays the full `n·log(runs)` the paper's Fig 7 shows
/// dominating SpMSpV.
fn natural_run_merge_sort<T: Copy + Ord>(data: &mut [T], buf: &mut Vec<T>, c: &mut Counters) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    // Detect maximal ascending runs.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for i in 1..n {
        if data[i - 1] > data[i] {
            runs.push((start, i));
            start = i;
        }
    }
    runs.push((start, n));
    c.sort_elems += n as u64; // the detection scan
                              // Merge runs pairwise until one remains.
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut i = 0;
        while i + 1 < runs.len() {
            let (s1, e1) = runs[i];
            let (_, e2) = runs[i + 1];
            merge_adjacent(data, s1, e1, e2, buf, c);
            next.push((s1, e2));
            i += 2;
        }
        if i < runs.len() {
            next.push(runs[i]);
        }
        runs = next;
    }
}

/// Merge the adjacent sorted runs `data[s..m]` and `data[m..e]`, with a
/// zero-move fast path when they are already ordered.
fn merge_adjacent<T: Copy + Ord>(
    data: &mut [T],
    s: usize,
    m: usize,
    e: usize,
    buf: &mut Vec<T>,
    c: &mut Counters,
) {
    if m == e || m == s || data[m - 1] <= data[m] {
        return; // already in order
    }
    merge_in_place(data, s, m, e, buf, c);
}

/// Merge the two adjacent sorted runs `data[s..m]` and `data[m..e]`.
fn merge_in_place<T: Copy + Ord>(
    data: &mut [T],
    s: usize,
    m: usize,
    e: usize,
    buf: &mut Vec<T>,
    c: &mut Counters,
) {
    buf.clear();
    buf.extend_from_slice(&data[s..m]);
    c.sort_elems += (m - s) as u64;
    let (mut i, mut j, mut k) = (0usize, m, s);
    while i < buf.len() && j < e {
        if buf[i] <= data[j] {
            data[k] = buf[i];
            i += 1;
        } else {
            data[k] = data[j];
            j += 1;
        }
        k += 1;
        c.sort_elems += 1;
    }
    while i < buf.len() {
        data[k] = buf[i];
        i += 1;
        k += 1;
        c.sort_elems += 1;
    }
    // Tail of the right run is already in place.
}

/// LSD radix sort (11-bit digits) for `usize` keys, charging
/// `n` moves per pass to `counters.sort_elems`. Histogram construction is
/// parallelized across the context's logical threads.
pub fn radix_sort(data: &mut [usize], ctx: &ExecCtx, phase: &str) {
    const BITS: usize = 11;
    let n = data.len();
    if n <= 1 {
        return;
    }
    let max = *data.iter().max().unwrap();
    let passes = if max == 0 {
        1
    } else {
        (usize::BITS as usize - max.leading_zeros() as usize).div_ceil(BITS)
    };
    let mut buf = ctx.ws_filled_vec::<usize>(n, 0);
    let mut src_is_data = true;
    for pass in 0..passes {
        let shift = pass * BITS;
        if src_is_data {
            radix_pass(data, &mut buf, shift, ctx, phase);
        } else {
            radix_pass(&buf, data, shift, ctx, phase);
        }
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(&buf);
        ctx.record(phase, |c| c.sort_elems += n as u64);
    }
    debug_assert!(data.windows(2).all(|w| w[0] <= w[1]));
}

/// One stable LSD pass: scatter `src` into `dst` by the digit at `shift`.
fn radix_pass(src: &[usize], dst: &mut [usize], shift: usize, ctx: &ExecCtx, phase: &str) {
    const BITS: usize = 11;
    const BUCKETS: usize = 1 << BITS;
    let n = src.len();
    // Parallel histogram.
    let histograms = ctx.parallel_for(phase, n, |r, c| {
        let mut h = ctx.ws_filled_vec::<usize>(BUCKETS, 0);
        for &x in &src[r.clone()] {
            h[(x >> shift) & (BUCKETS - 1)] += 1;
        }
        c.elems += r.len() as u64;
        h
    });
    let mut offsets = ctx.ws_filled_vec::<usize>(BUCKETS, 0);
    let mut total = 0;
    for (b, offset) in offsets.iter_mut().enumerate() {
        let count: usize = histograms.iter().map(|h| h[b]).sum();
        *offset = total;
        total += count;
    }
    // Stable scatter (serial: the scatter order defines stability).
    let mut c = Counters::default();
    for &x in src {
        let b = (x >> shift) & (BUCKETS - 1);
        dst[offsets[b]] = x;
        offsets[b] += 1;
    }
    c.sort_elems += n as u64;
    ctx.record(phase, |pc| pc.merge(&c));
}

/// Dispatch on [`SortAlgo`].
pub fn sort_indices(data: &mut [usize], algo: SortAlgo, ctx: &ExecCtx, phase: &str) {
    match algo {
        SortAlgo::Merge => parallel_merge_sort(data, ctx, phase),
        SortAlgo::Radix => radix_sort(data, ctx, phase),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuffled(n: usize, seed: u64) -> Vec<usize> {
        // Simple LCG shuffle to avoid pulling rand into unit tests.
        let mut v: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    }

    #[test]
    fn merge_sort_sorts() {
        for threads in [1, 2, 4, 7] {
            let ctx = ExecCtx::new(threads, 2);
            let mut v = shuffled(10_000, 42);
            parallel_merge_sort(&mut v, &ctx, "sort");
            assert!(v.windows(2).all(|w| w[0] < w[1]));
            let prof = ctx.take_profile();
            // n log n-ish work was counted
            assert!(prof.phase("sort").sort_elems >= 10_000);
        }
    }

    #[test]
    fn phase2_parallel_merges_match_serial_output_and_accounting() {
        // Same simulated chunking (6 tasks), different *real* worker
        // counts: the pairwise merges must produce the same array and
        // charge exactly the same counters whether they ran serially or
        // on disjoint windows in parallel.
        let reference = {
            let ctx = ExecCtx::new(6, 1);
            let mut v = shuffled(20_000, 9);
            parallel_merge_sort(&mut v, &ctx, "s");
            (v, ctx.take_profile().phase("s"))
        };
        for real_threads in [2, 4, 8] {
            let ctx = ExecCtx::new(6, real_threads);
            let mut v = shuffled(20_000, 9);
            parallel_merge_sort(&mut v, &ctx, "s");
            assert_eq!(v, reference.0, "real_threads={real_threads}");
            assert_eq!(ctx.take_profile().phase("s"), reference.1, "real_threads={real_threads}");
        }
    }

    #[test]
    fn merge_sort_with_duplicates_and_small_inputs() {
        let ctx = ExecCtx::with_threads(4);
        for mut v in [vec![], vec![3usize], vec![2, 1], vec![5, 5, 5, 1, 1]] {
            let mut expect = v.clone();
            expect.sort_unstable();
            parallel_merge_sort(&mut v, &ctx, "s");
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn radix_sort_sorts() {
        for threads in [1, 3] {
            let ctx = ExecCtx::new(threads, 2);
            let mut v = shuffled(50_000, 7);
            radix_sort(&mut v, &ctx, "sort");
            assert!(v.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn radix_handles_zero_and_large_keys() {
        let ctx = ExecCtx::serial();
        let mut v = vec![0usize, usize::MAX, 1, usize::MAX - 1, 0];
        radix_sort(&mut v, &ctx, "s");
        assert_eq!(v, vec![0, 0, 1, usize::MAX - 1, usize::MAX]);
    }

    #[test]
    fn radix_counts_fewer_moves_than_merge_for_small_keys() {
        let n = 1 << 15;
        let ctx1 = ExecCtx::serial();
        let mut a = shuffled(n, 3);
        parallel_merge_sort(&mut a, &ctx1, "s");
        let merge_work = ctx1.take_profile().phase("s").sort_elems;

        let ctx2 = ExecCtx::serial();
        let mut b = shuffled(n, 3);
        radix_sort(&mut b, &ctx2, "s");
        let radix_work = ctx2.take_profile().phase("s").sort_elems;
        assert!(
            radix_work < merge_work,
            "radix {radix_work} should beat merge {merge_work} on 15-bit keys"
        );
    }

    #[test]
    fn sort_indices_dispatch() {
        let ctx = ExecCtx::serial();
        let mut a = vec![3usize, 1, 2];
        sort_indices(&mut a, SortAlgo::Merge, &ctx, "s");
        assert_eq!(a, vec![1, 2, 3]);
        let mut b = vec![3usize, 1, 2];
        sort_indices(&mut b, SortAlgo::Radix, &ctx, "s");
        assert_eq!(b, vec![1, 2, 3]);
    }
}
