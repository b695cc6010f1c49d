//! Kernel probes of the traced run: direct, repeated calls into one
//! layer's public functions with a span around each, on operands taken
//! from the workload (or, for the SpGEMM family on workloads that never
//! multiply matrices, on the quick-size input of the workload that does).

use crate::e2e::THREADS;
use crate::ledger::Ledger;
use crate::oracle::Adj;
use crate::spans::Recorder;
use crate::stats::{fastest, SplitMix64};
use crate::surface::{self as lib, ExecCtx, Graph};
use crate::workloads::{normalize_columns, Workload};
use std::hint::black_box;
use std::time::Instant;

/// A probe repeats until it has this many samples ...
const PROBE_REPS: usize = 5;
/// ... or has used this many seconds, whichever comes first.
const PROBE_BUDGET_S: f64 = 0.25;

/// The paper's frontier densities `f`, with the metric suffix of each.
const DENSITIES: [(f64, &str, &str); 3] = [
    (0.001, "core.ops.spmspv.sort_f0.1_s", "core.ops.spmspv.bucket_f0.1_s"),
    (0.02, "core.ops.spmspv.sort_f2_s", "core.ops.spmspv.bucket_f2_s"),
    (0.20, "core.ops.spmspv.sort_f20_s", "core.ops.spmspv.bucket_f20_s"),
];

/// Fastest seconds and repetition count of `run`, each repetition in a
/// span called `name`; `prepare` builds the repetition's input outside
/// the span.
pub fn probe_with<T>(
    rec: &mut Recorder,
    name: &'static str,
    mut prepare: impl FnMut() -> T,
    mut run: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, usize), String> {
    let start = Instant::now();
    let mut seconds = Vec::with_capacity(PROBE_REPS);
    while seconds.len() < PROBE_REPS
        && (seconds.is_empty() || start.elapsed().as_secs_f64() < PROBE_BUDGET_S)
    {
        let input = prepare();
        let (result, s) = rec.timed(name, || run(input));
        result?;
        seconds.push(s);
    }
    Ok((fastest(&seconds), seconds.len()))
}

/// [`probe_with`] for a call that needs no fresh input.
pub fn probe(
    rec: &mut Recorder,
    name: &'static str,
    mut run: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    probe_with(rec, name, || (), |()| run()).map(|(s, _)| s)
}

/// `share` of `0..n`, distinct and ascending (selection sampling).
pub fn frontier(n: usize, share: f64, rng: &mut SplitMix64) -> Vec<usize> {
    let mut remaining = ((n as f64 * share).round() as usize).clamp(1, n);
    let mut out = Vec::with_capacity(remaining);
    for v in 0..n {
        if remaining == 0 {
            break;
        }
        if rng.below(n - v) < remaining {
            out.push(v);
            remaining -= 1;
        }
    }
    out
}

/// Vertices of `a` with an out-edge, `k` of them, distinct.
pub fn sources(a: &Graph, k: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let (rowptr, _) = lib::csr_arrays(a);
    let n = rowptr.len() - 1;
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.below(n);
        if rowptr[v + 1] > rowptr[v] && !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Set-up layers, on the workload's own matrix (Matrix Market on a fixed
/// RMAT s14, so text I/O of a multi-million-entry input does not eat the
/// run).
pub fn setup_layers<W: Workload>(
    w: &W,
    quick: bool,
    seed: u64,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let a = w.graph();
    let s = probe(rec, "core.container.csr_build", || lib::csr_from_entries(a, false).map(drop))?;
    ledger.set("core.container.csr_build_s", s);
    let s = probe(rec, "core.container.csr_scan", || {
        black_box(lib::csr_scan(a));
        Ok(())
    })?;
    // Bytes a row walk must read: column id and value per entry, one row
    // pointer per row. Computed from the array sizes, not measured.
    let bytes = lib::nnz(a) * 16 + (lib::nrows(a) + 1) * 8;
    ledger.set("core.container.csr_scan_gbps_computed", bytes as f64 / s / 1e9);
    let s = probe(rec, "dist.dcsc.convert", || {
        black_box(lib::dcsc_convert(w.dist_graph()));
        Ok(())
    })?;
    ledger.set("dist.dcsc.convert_s", s);
    let text_input = lib::gen_rmat(if quick { 10 } else { 14 }, 8, seed);
    let s = probe(rec, "core.io.mtx_roundtrip", || {
        let back = lib::mtx_roundtrip(&text_input)?;
        if lib::matrices_equal(&back, &text_input) {
            Ok(())
        } else {
            Err("Matrix Market round trip changed the matrix".into())
        }
    })?;
    ledger.set("core.io.mtx_roundtrip_s", s);
    Ok(())
}

/// Frontier kernels on the workload's matrix: SpMSpV under both merges at
/// the paper's three densities, its work counters, the sort's share of it
/// on both clocks, the two sorts alone, and the batched expansion.
/// Returns `(sort share on the wall clock, on the simulated clock)`.
pub fn frontier_kernels(
    a: &Graph,
    quick: bool,
    seed: u64,
    ctx: &ExecCtx,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<(f64, f64), String> {
    let n = lib::nrows(a);
    let mut rng = SplitMix64(seed ^ 0xF0_F0);
    let mut shares = (0.0, 0.0);
    for (density, sort_name, bucket_name) in DENSITIES {
        let picked = frontier(n, density, &mut rng);
        let x = lib::sparse_from_sorted(n, picked.clone())?;
        let sort_s = probe(rec, "core.ops.spmspv", || {
            lib::spmspv_first_visitor(a, &x, None, false, ctx).map(drop)
        })?;
        let bucket_s = probe(rec, "core.ops.spmspv", || {
            lib::spmspv_first_visitor(a, &x, None, true, ctx).map(drop)
        })?;
        ledger.set(sort_name, sort_s);
        ledger.set(bucket_name, bucket_s);
        if density != 0.02 {
            continue;
        }
        // One call's work counters, then one call priced on the
        // simulated clock.
        lib::take_counters(ctx);
        lib::spmspv_first_visitor(a, &x, None, false, ctx)?;
        let counts = lib::take_counters(ctx);
        ledger.set("core.ops.spmspv.flops", counts.flops as f64);
        ledger.set("core.ops.spmspv.sort_elems", counts.sort_elems as f64);
        ledger.set("core.ops.spmspv.atomics", counts.atomics as f64);
        ledger.set("core.ops.spmspv.spa_touches", counts.spa_touches as f64);
        lib::spmspv_first_visitor(a, &x, None, false, ctx)?;
        let (sim_total, sim_sort) = lib::take_simulated(ctx, THREADS);
        // The sort step alone, on the indices in the order a serial SPA
        // collects them: first touch, frontier row by frontier row.
        let (rowptr, colidx) = lib::csr_arrays(a);
        let adj = Adj { rowptr, colidx };
        let mut seen = vec![false; n];
        let mut collected = Vec::new();
        for &row in &picked {
            for &col in adj.row(row) {
                if !seen[col] {
                    seen[col] = true;
                    collected.push(col);
                }
            }
        }
        let (sort_alone, _) = probe_with(
            rec,
            "core.sort",
            || collected.clone(),
            |mut d| {
                lib::merge_sort(&mut d, ctx);
                black_box(&d);
                Ok(())
            },
        )?;
        shares = (sort_alone / sort_s, sim_sort / sim_total);
        ledger.set("core.ops.spmspv.sort_share_f2_wall", shares.0);
        ledger.set("core.ops.spmspv.sort_share_f2_sim", shares.1);
    }

    // The two sorts alone, on a random permutation.
    let len = if quick { 100_000 } else { 1_000_000 };
    let mut perm: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    for (name, radix) in
        [("core.sort.merge_melems_per_s", false), ("core.sort.radix_melems_per_s", true)]
    {
        let (s, _) = probe_with(
            rec,
            "core.sort",
            || perm.clone(),
            |mut d| {
                if radix {
                    lib::radix_sort(&mut d, ctx);
                } else {
                    lib::merge_sort(&mut d, ctx);
                }
                black_box(&d);
                Ok(())
            },
        )?;
        ledger.set(name, len as f64 / s / 1e6);
    }

    let batch: Vec<_> = (0..8)
        .map(|_| lib::sparse_from_sorted(n, frontier(n, 0.001, &mut rng)))
        .collect::<Result<_, _>>()?;
    let (s, _) = probe_with(
        rec,
        "core.ops.expand",
        || batch.clone(),
        |f| lib::expand_first_visitor(a, f, ctx).map(drop),
    )?;
    ledger.set("core.ops.expand.k8_s", s);
    Ok(shares)
}

/// Dense-vector kernels on the workload's matrix.
pub fn dense_kernels(
    a: &Graph,
    ctx: &ExecCtx,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let n = lib::nrows(a);
    let x = lib::dense_f64(vec![1.0 / n as f64; n]);
    let s = probe(rec, "core.ops.spmv", || lib::spmv_row(a, &x, ctx).map(drop))?;
    ledger.set("core.ops.spmv.row_s", s);
    let s = probe(rec, "core.ops.spmv", || lib::spmv_col(a, &x, ctx).map(drop))?;
    ledger.set("core.ops.spmv.col_s", s);
    // One multiply and one add per entry, against a column id, a value
    // and a gathered vector element per entry plus a row pointer and an
    // output element per row. Computed; cache misses are not in it.
    let nnz = lib::nnz(a) as f64;
    ledger.set("core.ops.spmv.flops_per_byte_computed", 2.0 * nnz / (24.0 * nnz + 16.0 * n as f64));
    Ok(())
}

/// Matrix kernels: the masked integer SpGEMM of triangle counting, the
/// unmasked SpGEMM of MCL, and MCL's transpose / reduce / select / map.
/// Returns the column-stochastic matrix the unmasked kernels ran on.
pub fn matrix_kernels<W: Workload>(
    w: &W,
    seed: u64,
    ctx: &ExecCtx,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<Graph, String> {
    let generated;
    let symmetric = match w.masked_mxm_operand() {
        Some(g) => g,
        None => {
            generated = lib::csr_from_entries(&lib::gen_rmat(10, 8, seed), true)?;
            &generated
        }
    };
    let l = lib::select_lower(symmetric, ctx);
    let u = lib::transpose(&l, ctx)?;
    lib::take_counters(ctx);
    let (masked_s, reps) = probe_with(
        rec,
        "core.ops.mxm",
        || (),
        |()| lib::mxm_masked_count(&l, &u, &l, ctx).map(drop),
    )?;
    let masked_flops = lib::take_counters(ctx).flops as f64 / reps as f64;
    ledger.set("core.ops.mxm.masked_s", masked_s);

    let generated;
    let undirected = match w.unmasked_mxm_operand() {
        Some(g) => g,
        None => {
            generated = lib::gen_er_symmetric(1000, 6, seed);
            &generated
        }
    };
    let m = normalize_columns(&lib::add_self_loops(undirected)?, ctx, rec)?;
    lib::take_counters(ctx);
    let (unmasked_s, reps) =
        probe_with(rec, "core.ops.mxm", || (), |()| lib::mxm_square(&m, ctx).map(drop))?;
    let unmasked_flops = lib::take_counters(ctx).flops as f64 / reps as f64;
    ledger.set("core.ops.mxm.unmasked_s", unmasked_s);
    ledger.set("core.ops.mxm.flops", masked_flops + unmasked_flops);
    ledger.set(
        "core.ops.mxm.mflops_per_s",
        (masked_flops + unmasked_flops) / (masked_s + unmasked_s) / 1e6,
    );

    let s = probe(rec, "core.ops.transpose", || lib::transpose(&m, ctx).map(drop))?;
    ledger.set("core.ops.transpose_s", s);
    let s = probe(rec, "core.ops.reduce_rows", || {
        black_box(lib::reduce_rows_plus(&m, ctx));
        Ok(())
    })?;
    ledger.set("core.ops.reduce_rows_s", s);
    let squared = lib::mxm_square(&m, ctx)?;
    let (inflation, prune, _, _) = lib::mcl_defaults();
    let s = probe(rec, "core.ops.select", || {
        black_box(lib::select_at_least(&squared, prune, ctx));
        Ok(())
    })?;
    ledger.set("core.ops.select_s", s);
    let s = probe(rec, "core.ops.mat_map", || {
        black_box(lib::map_mat(&squared, &|_, _, v| v.powf(inflation), ctx));
        Ok(())
    })?;
    ledger.set("core.ops.mat_map_s", s);
    Ok(m)
}

/// The paper's own operation pairs (Apply, Assign, eWiseMult) and the
/// sparse-vector merge, at the paper's 1 M stored entries.
pub fn paper_pairs(
    quick: bool,
    seed: u64,
    ctx: &ExecCtx,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let nnz = if quick { 100_000 } else { 1_000_000 };
    let capacity = 4 * nnz;
    let x = lib::gen_sparse_vec(capacity, nnz, seed);
    let x2 = lib::gen_sparse_vec(capacity, nnz, seed + 1);
    let y = lib::gen_dense_bool(capacity, 0.5, seed + 2);
    let s = probe(rec, "core.ops.apply", || {
        black_box(lib::apply_v1(&x, ctx));
        Ok(())
    })?;
    ledger.set("core.ops.apply.v1_s", s);
    let mut in_place = x.clone();
    let s = probe(rec, "core.ops.apply", || {
        lib::apply_v2(&mut in_place, ctx);
        Ok(())
    })?;
    ledger.set("core.ops.apply.v2_s", s);
    let mut target = lib::empty_sparse(capacity);
    let s = probe(rec, "core.ops.assign", || lib::assign_v1(&mut target, &x, ctx))?;
    ledger.set("core.ops.assign.v1_s", s);
    let s = probe(rec, "core.ops.assign", || lib::assign_v2(&mut target, &x, ctx))?;
    ledger.set("core.ops.assign.v2_s", s);
    let s = probe(rec, "core.ops.ewise", || lib::ewise_mult(&x, &y, ctx).map(drop))?;
    ledger.set("core.ops.ewise.mult_s", s);
    let s =
        probe(rec, "core.container.sparsevec_merge", || lib::sparse_merge(&x, &x2, ctx).map(drop))?;
    ledger.set("core.container.sparsevec_merge_s", s);
    Ok(())
}

/// Distributed kernels on the workload's distributed matrix, locale
/// bodies run serially: SpMSpV at `f = 2 %`, dense SpMV, and the SUMMA
/// SpGEMM of the column-stochastic `m` with its stage count.
pub fn dist_kernels<W: Workload>(
    w: &W,
    m: &Graph,
    seed: u64,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let locales = W::GRID.0 * W::GRID.1;
    let da = w.dist_graph();
    let n = lib::nrows(w.graph());
    let dctx = lib::dist_ctx(locales, true);
    let x = lib::sparse_from_sorted(n, frontier(n, 0.02, &mut SplitMix64(seed ^ 0xD157)))?;
    let s = probe(rec, "dist.ops.spmspv", || lib::spmspv_dist(da, &x, &dctx).map(drop))?;
    ledger.set("dist.ops.spmspv_s", s);
    let dense = lib::dense_f64(vec![1.0 / n as f64; n]);
    let s = probe(rec, "dist.ops.spmv", || lib::spmv_dist(da, &dense, &dctx).map(drop))?;
    ledger.set("dist.ops.spmv_s", s);
    let dm = lib::distribute(m, W::GRID);
    let s = probe(rec, "dist.ops.mxm", || lib::mxm_dist_square(&dm, 1, &dctx).map(drop))?;
    ledger.set("dist.ops.mxm_s", s);
    let (_, stages) = lib::library_trace_counts(&mut lib::dist_ctx(locales, true), |d| {
        lib::mxm_dist_square(&dm, 1, d).map(drop)
    })?;
    ledger.set("dist.ops.mxm.stages", stages as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_is_distinct_sorted_and_sized() {
        let mut rng = SplitMix64(3);
        for (n, share) in [(1000, 0.02), (1000, 0.2), (10, 0.001), (10, 1.0)] {
            let f = frontier(n, share, &mut rng);
            let want = ((n as f64 * share).round() as usize).clamp(1, n);
            assert_eq!(f.len(), want);
            assert!(f.windows(2).all(|w| w[0] < w[1]));
            assert!(f.iter().all(|&v| v < n));
        }
    }

    #[test]
    fn probe_stops_at_the_repetition_cap_and_reports_errors() {
        let mut rec = Recorder::default();
        let mut calls = 0;
        let (s, reps) = probe_with(
            &mut rec,
            "t",
            || (),
            |()| {
                calls += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!((reps, calls), (PROBE_REPS, PROBE_REPS));
        assert!(s >= 0.0);
        assert_eq!(rec.durations("t").len(), PROBE_REPS);
        assert!(probe(&mut rec, "t", || Err("boom".into())).is_err());
    }
}
