//! Query-serving throughput harness: batched multi-source analytics
//! versus a one-query-at-a-time loop.
//!
//! The batched kernels (`gblas_graph::multi` over the backend trait's
//! slice-taking pushes) exist to serve *query streams*: BFS/SSSP/PPR requests arriving over
//! time, where answering k of them per masked-SpGEMM sweep amortizes the
//! per-superstep message latency k-fold. This module measures that claim
//! end to end:
//!
//! * a **deterministic request generator** ([`generate_requests`]) with
//!   uniform / Poisson / bursty arrival processes, seeded so every run
//!   replays the identical stream;
//! * an **admission policy** ([`ServePolicy`]): the server admits up to
//!   `max_batch` requests per dispatch but never holds the oldest one
//!   longer than `max_wait` — the batch-window vs latency-SLO knob;
//! * a **FIFO single-server simulation** ([`simulate_serving`]) that
//!   charges each batch its measured service time — the *simulated*
//!   clock of the distributed backend, or the wall clock of the shared
//!   one — and reports QPS plus p50/p99 tail latency ([`ServeReport`]);
//! * an **equivalence check** ([`verify_batched_equivalence`]): batched
//!   answers must be bit-identical per source to the k single-source
//!   runs they replace, on both backends.
//!
//! `gblas-cli serve-bench` drives this interactively; `--fig serving`
//! sweeps throughput against batch size.

use crate::output::{FigPoint, Figure};
use crate::workloads;
use gblas_core::container::CsrMatrix;
use gblas_core::error::{GblasError, Result};
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::par::ExecCtx;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistCsrMatrix, DistCtx, ProcGrid};
use gblas_graph::{bfs, bfs_dist_with, bfs_multi, bfs_multi_dist};
use gblas_sim::{MachineConfig, SimReport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Shape of the inter-arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalDist {
    /// Evenly spaced arrivals at exactly `rate` per second.
    Uniform,
    /// Exponential inter-arrival times with mean `1/rate` (a Poisson
    /// process — the standard open-loop serving model).
    Poisson,
    /// Groups of eight arrive back to back, then a long gap; the mean
    /// rate still equals `rate`. Stresses the admission policy.
    Bursty,
}

/// A parsed `--arrival` specification: distribution plus mean rate.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalSpec {
    /// Inter-arrival shape.
    pub dist: ArrivalDist,
    /// Mean arrival rate in requests per second.
    pub rate: f64,
}

impl ArrivalSpec {
    /// Parse `"uniform:RATE"`, `"poisson:RATE"` or `"bursty:RATE"`.
    pub fn parse(s: &str) -> Option<ArrivalSpec> {
        let (name, rate) = s.split_once(':')?;
        let rate: f64 = rate.parse().ok()?;
        if rate.is_nan() || rate <= 0.0 {
            return None;
        }
        let dist = match name {
            "uniform" => ArrivalDist::Uniform,
            "poisson" => ArrivalDist::Poisson,
            "bursty" => ArrivalDist::Bursty,
            _ => return None,
        };
        Some(ArrivalSpec { dist, rate })
    }
}

/// One query: a BFS source arriving at a point in time.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Sequence number (arrival order).
    pub id: usize,
    /// Arrival time in seconds from stream start.
    pub arrival: f64,
    /// Query source vertex.
    pub source: usize,
}

/// Generate `count` requests over `n_vertices` with the given arrival
/// process, fully determined by `seed`.
pub fn generate_requests(
    count: usize,
    n_vertices: usize,
    spec: ArrivalSpec,
    seed: u64,
) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(count);
    for id in 0..count {
        let gap = match spec.dist {
            ArrivalDist::Uniform => 1.0 / spec.rate,
            ArrivalDist::Poisson => {
                let u: f64 = rng.gen();
                -(1.0 - u).ln() / spec.rate
            }
            // eight arrive together, then one long gap preserving the rate
            ArrivalDist::Bursty => {
                if id % 8 == 0 {
                    8.0 / spec.rate
                } else {
                    0.0
                }
            }
        };
        t += gap;
        let source = if n_vertices == 0 { 0 } else { rng.gen_range(0..n_vertices) };
        out.push(Request { id, arrival: t, source });
    }
    out
}

/// Admission policy: dispatch a batch when it holds `max_batch` requests
/// or when the oldest admitted request has waited `max_wait` seconds,
/// whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct ServePolicy {
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// Maximum time the oldest request may wait for batch-mates.
    pub max_wait: f64,
}

impl ServePolicy {
    /// Batch-window policy: fill up to `max_batch`, wait at most `window`.
    pub fn batch_window(max_batch: usize, window: f64) -> ServePolicy {
        ServePolicy { max_batch: max_batch.max(1), max_wait: window.max(0.0) }
    }

    /// The k-loop baseline: every request dispatches alone, immediately.
    pub fn immediate() -> ServePolicy {
        ServePolicy { max_batch: 1, max_wait: 0.0 }
    }
}

/// Result of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Mode label ("batched" / "loop").
    pub label: String,
    /// Requests served.
    pub requests: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Completion time of the last batch (seconds).
    pub makespan: f64,
    /// Sustained throughput: requests / makespan.
    pub qps: f64,
    /// Mean request latency (arrival to batch completion), seconds.
    pub mean_latency: f64,
    /// Median request latency, seconds.
    pub p50: f64,
    /// 99th-percentile request latency, seconds.
    pub p99: f64,
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>7}: {} requests in {} batches | QPS {:>10.1} | latency mean {:.3}ms p50 {:.3}ms \
             p99 {:.3}ms | makespan {:.3}ms",
            self.label,
            self.requests,
            self.batches,
            self.qps,
            self.mean_latency * 1e3,
            self.p50 * 1e3,
            self.p99 * 1e3,
            self.makespan * 1e3,
        )
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// FIFO single-server queueing simulation. `service` maps a batch of
/// sources to its service time in seconds (simulated or wall clock);
/// requests must be in arrival order. End of stream flushes a partial
/// batch immediately (the server never waits for requests that will
/// never come).
pub fn simulate_serving(
    label: &str,
    requests: &[Request],
    policy: ServePolicy,
    service: &mut dyn FnMut(&[usize]) -> Result<f64>,
) -> Result<ServeReport> {
    let mut clock = 0.0f64;
    let mut latencies = Vec::with_capacity(requests.len());
    let mut batches = 0usize;
    let mut i = 0usize;
    while i < requests.len() {
        // The batch opens when its oldest request reaches the server.
        let open = requests[i].arrival.max(clock);
        let deadline = open + policy.max_wait;
        let mut j = i + 1;
        while j < requests.len() && j - i < policy.max_batch && requests[j].arrival <= deadline {
            j += 1;
        }
        let full = j - i >= policy.max_batch;
        let dispatch =
            if full || j == requests.len() { open.max(requests[j - 1].arrival) } else { deadline };
        let sources: Vec<usize> = requests[i..j].iter().map(|r| r.source).collect();
        let service_time = service(&sources)?;
        let done = dispatch + service_time;
        for r in &requests[i..j] {
            latencies.push(done - r.arrival);
        }
        clock = done;
        batches += 1;
        i = j;
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    let makespan = clock;
    let n = requests.len();
    Ok(ServeReport {
        label: label.to_string(),
        requests: n,
        batches,
        makespan,
        qps: if makespan > 0.0 { n as f64 / makespan } else { 0.0 },
        mean_latency: if n > 0 { latencies.iter().sum::<f64>() / n as f64 } else { 0.0 },
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
    })
}

/// A fresh simulated Edison cluster over `grid`, under the harness
/// configuration.
fn sim_cluster(grid: ProcGrid) -> DistCtx {
    DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24)).with_config(crate::run_config())
}

/// Distributed serving benchmark on the simulated cluster: the batched
/// server (one `bfs_multi_dist` per batch) versus the k-loop baseline
/// (one bulk-strategy `bfs_dist` per request). Service times are the
/// backends' simulated clocks. Returns `(batched, loop)` reports.
pub fn serve_bench_dist(
    a: &CsrMatrix<f64>,
    locales: usize,
    requests: &[Request],
    policy: ServePolicy,
) -> Result<(ServeReport, ServeReport)> {
    let grid = ProcGrid::square_for(locales.max(1));
    let da = DistCsrMatrix::from_global(a, grid);
    let batched = simulate_serving("batched", requests, policy, &mut |sources| {
        let dctx = sim_cluster(grid);
        let (_, report) = bfs_multi_dist(&da, sources, &dctx)?;
        Ok(report.total())
    })?;
    let looped = simulate_serving("loop", requests, ServePolicy::immediate(), &mut |sources| {
        let mut total = 0.0;
        for &s in sources {
            let dctx = sim_cluster(grid);
            let (_, report) =
                bfs_dist_with(&da, s, CommStrategy::Bulk, SpMSpVOpts::default(), &dctx)?;
            total += report.total();
        }
        Ok(total)
    })?;
    Ok((batched, looped))
}

/// Shared-memory serving benchmark: batched `bfs_multi` versus a loop of
/// `bfs`, timed on the wall clock. Returns `(batched, loop)` reports.
pub fn serve_bench_shared(
    a: &CsrMatrix<f64>,
    threads: usize,
    requests: &[Request],
    policy: ServePolicy,
) -> Result<(ServeReport, ServeReport)> {
    let ctx = ExecCtx::with_threads(threads.max(1));
    ctx.workspace().set_enabled(crate::run_config().workspace);
    let batched = simulate_serving("batched", requests, policy, &mut |sources| {
        let t0 = std::time::Instant::now();
        bfs_multi(a, sources, &ctx)?;
        Ok(t0.elapsed().as_secs_f64())
    })?;
    let looped = simulate_serving("loop", requests, ServePolicy::immediate(), &mut |sources| {
        let t0 = std::time::Instant::now();
        for &s in sources {
            bfs(a, s, &ctx)?;
        }
        Ok(t0.elapsed().as_secs_f64())
    })?;
    Ok((batched, looped))
}

/// Check the serving contract: the batched answers must equal the
/// single-source answers for every request, on both backends. Errors on
/// the first mismatching slot.
pub fn verify_batched_equivalence(
    a: &CsrMatrix<f64>,
    sources: &[usize],
    locales: usize,
) -> Result<()> {
    let ctx = ExecCtx::serial();
    let shared_batch = bfs_multi(a, sources, &ctx)?;
    for (s, &src) in sources.iter().enumerate() {
        let single = bfs(a, src, &ctx)?;
        if shared_batch[s] != single {
            return Err(GblasError::InvalidArgument(format!(
                "shared batched BFS diverges from single-source at slot {s} (source {src})"
            )));
        }
    }
    let grid = ProcGrid::square_for(locales.max(1));
    let da = DistCsrMatrix::from_global(a, grid);
    let dctx = sim_cluster(grid);
    let (dist_batch, _) = bfs_multi_dist(&da, sources, &dctx)?;
    for (s, &src) in sources.iter().enumerate() {
        if dist_batch[s] != shared_batch[s] {
            return Err(GblasError::InvalidArgument(format!(
                "distributed batched BFS diverges from shared at slot {s} (source {src})"
            )));
        }
        let sctx = sim_cluster(grid);
        let (single, _) =
            bfs_dist_with(&da, src, CommStrategy::Bulk, SpMSpVOpts::default(), &sctx)?;
        if dist_batch[s] != single {
            return Err(GblasError::InvalidArgument(format!(
                "distributed batched BFS diverges from single-source at slot {s} (source {src})"
            )));
        }
    }
    Ok(())
}

/// `--fig serving`: simulated throughput (QPS) and tail latency versus
/// batch size on an RMAT graph, batched server against the k-loop
/// baseline. The request stream saturates the server (arrivals far
/// faster than service), so every batch fills to its `k` and the figure
/// isolates the batching win: one fused message per locale pair per
/// level instead of one per source.
pub fn fig_serving(scale: usize) -> Vec<Figure> {
    let target = workloads::scaled(1 << 14, scale, 256);
    let exp = usize::BITS - 1 - target.leading_zeros();
    let a = gblas_core::gen::rmat(exp, 8, workloads::SEED + 99);
    let locales = 16usize;
    let n_requests = 64usize;
    let spec = ArrivalSpec { dist: ArrivalDist::Poisson, rate: 1e6 };
    let requests = generate_requests(n_requests, a.nrows(), spec, workloads::SEED + 100);
    let mut fig = Figure::new(
        "serving-throughput",
        &format!("Query serving: QPS vs batch size (RMAT scale {exp}, {locales} locales)"),
        "batch size",
    );
    let mut batched_points = Vec::new();
    let mut loop_points = Vec::new();
    let mut loop_report: Option<ServeReport> = None;
    for &k in &[1usize, 2, 4, 8, 16, 32] {
        let policy = ServePolicy::batch_window(k, 1.0);
        let (batched, looped) = match &loop_report {
            // the k-loop baseline ignores k — run it once and reuse
            Some(l) => {
                let b = serve_bench_dist(&a, locales, &requests, policy)
                    .map(|(b, _)| b)
                    .expect("serving run");
                (b, l.clone())
            }
            None => {
                let (b, l) = serve_bench_dist(&a, locales, &requests, policy).expect("serving run");
                loop_report = Some(l.clone());
                (b, l)
            }
        };
        println!(
            "serving k={k:>2}: batched QPS {:>10.1} vs loop QPS {:>10.1} ({:.2}x)",
            batched.qps,
            looped.qps,
            batched.qps / looped.qps.max(f64::MIN_POSITIVE)
        );
        batched_points.push(FigPoint { x: k, report: serve_point(&batched) });
        loop_points.push(FigPoint { x: k, report: serve_point(&looped) });
    }
    fig.push_series("batched", batched_points);
    fig.push_series("k-loop", loop_points);
    vec![fig]
}

/// Pack a serving report into the CSV/print row shape (`qps` is a rate,
/// the latency rows are seconds).
fn serve_point(r: &ServeReport) -> SimReport {
    let mut report = SimReport::default();
    report.push("qps", r.qps);
    report.push("p50", r.p50);
    report.push("p99", r.p99);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_specs_parse() {
        assert!(matches!(
            ArrivalSpec::parse("poisson:5000"),
            Some(ArrivalSpec { dist: ArrivalDist::Poisson, .. })
        ));
        assert!(matches!(
            ArrivalSpec::parse("uniform:10"),
            Some(ArrivalSpec { dist: ArrivalDist::Uniform, .. })
        ));
        assert!(matches!(
            ArrivalSpec::parse("bursty:100"),
            Some(ArrivalSpec { dist: ArrivalDist::Bursty, .. })
        ));
        assert!(ArrivalSpec::parse("poisson").is_none());
        assert!(ArrivalSpec::parse("poisson:-3").is_none());
        assert!(ArrivalSpec::parse("weird:5").is_none());
    }

    #[test]
    fn request_streams_are_deterministic_and_ordered() {
        let spec = ArrivalSpec { dist: ArrivalDist::Poisson, rate: 1000.0 };
        let a = generate_requests(50, 100, spec, 7);
        let b = generate_requests(50, 100, spec, 7);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.source, y.source);
            assert!((x.arrival - y.arrival).abs() < 1e-12);
        }
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|r| r.source < 100));
    }

    #[test]
    fn admission_policy_batches_and_flushes() {
        // 5 requests all arriving at once, batch cap 2: batches 2+2+1
        let reqs: Vec<Request> =
            (0..5).map(|id| Request { id, arrival: 0.0, source: id }).collect();
        let mut sizes = Vec::new();
        let report =
            simulate_serving("test", &reqs, ServePolicy::batch_window(2, 1.0), &mut |sources| {
                sizes.push(sources.len());
                Ok(0.001)
            })
            .unwrap();
        assert_eq!(sizes, vec![2, 2, 1]);
        assert_eq!(report.batches, 3);
        assert_eq!(report.requests, 5);
        assert!(report.p99 >= report.p50);
    }

    #[test]
    fn batched_beats_loop_on_simulated_qps_at_k8() {
        // The acceptance criterion: on an rmat-style input, batched
        // serving wins on simulated QPS at k >= 8.
        let a = gblas_core::gen::rmat(9, 8, workloads::SEED + 99);
        let spec = ArrivalSpec { dist: ArrivalDist::Poisson, rate: 1e6 };
        let requests = generate_requests(16, a.nrows(), spec, workloads::SEED + 100);
        let (batched, looped) =
            serve_bench_dist(&a, 16, &requests, ServePolicy::batch_window(8, 1.0)).unwrap();
        assert!(
            batched.qps > looped.qps,
            "batched {:.1} QPS must beat loop {:.1} QPS at k=8",
            batched.qps,
            looped.qps
        );
    }

    #[test]
    fn equivalence_check_passes_on_real_input() {
        let a = gblas_core::gen::rmat(8, 8, 5);
        verify_batched_equivalence(&a, &[0, 3, 3, 200], 4).unwrap();
    }

    #[test]
    fn shared_serving_runs_and_reports() {
        let a = gblas_core::gen::erdos_renyi(300, 5, 9);
        let spec = ArrivalSpec { dist: ArrivalDist::Bursty, rate: 1e5 };
        let requests = generate_requests(12, 300, spec, 3);
        let (batched, looped) =
            serve_bench_shared(&a, 2, &requests, ServePolicy::batch_window(4, 1.0)).unwrap();
        assert_eq!(batched.requests, 12);
        assert_eq!(looped.requests, 12);
        assert!(batched.batches <= looped.batches);
        assert!(batched.makespan > 0.0);
    }
}
