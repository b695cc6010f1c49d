//! End-to-end observability tests: trace a real distributed SpMSpV and
//! check what the sinks emit.
//!
//! These pin the PR-level acceptance criteria: one Chrome track per
//! locale, phase durations that sum to the `SimReport` total, fully
//! deterministic output (modulo the segregated `wall_ns` field), fault
//! and retry visibility, and zero behavioural change with tracing off.

use gblas_core::gen;
use gblas_core::trace::sink::{self, JsonValue};
use gblas_core::trace::SpanKind;
use gblas_dist::ops::spmspv::{spmspv_dist, PHASE_GATHER, PHASE_LOCAL, PHASE_SCATTER};
use gblas_dist::{DistCsrMatrix, DistCtx, DistSparseVec, ProcGrid};
use gblas_sim::{MachineConfig, SimReport};

const GRID: (usize, usize) = (2, 2);

/// One traced SpMSpV run on a fixed workload; returns the context (with
/// its recorded trace) and the op's report.
fn traced_run() -> (DistCtx, SimReport) {
    let grid = ProcGrid::new(GRID.0, GRID.1);
    let a = gen::erdos_renyi(400, 6, 7);
    let x = gen::random_sparse_vec(400, 30, 8);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dx = DistSparseVec::from_global(&x, grid.locales());
    let mut dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    dctx.enable_tracing();
    let (_, report) = spmspv_dist(&da, &dx, &dctx).expect("spmspv");
    (dctx, report)
}

#[test]
fn phase_durations_sum_to_report_total() {
    let (dctx, report) = traced_run();
    let trace = dctx.recorder().snapshot();

    let op = trace
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::Op && s.name == "spmspv_dist")
        .expect("op span recorded");
    let phases: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.parent == Some(op.id) && s.kind == SpanKind::Phase)
        .collect();
    let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, [PHASE_GATHER, PHASE_LOCAL, PHASE_SCATTER]);

    for p in &phases {
        assert!(
            (p.sim_dur - report.phase(&p.name)).abs() < 1e-12,
            "phase '{}' span {}s != report {}s",
            p.name,
            p.sim_dur,
            report.phase(&p.name)
        );
    }
    let sum: f64 = phases.iter().map(|p| p.sim_dur).sum();
    assert!((sum - report.total()).abs() < 1e-12, "phases sum {sum} != total {}", report.total());
    assert!((op.sim_dur - report.total()).abs() < 1e-12);
}

#[test]
fn chrome_export_has_one_track_per_locale() {
    let (dctx, _) = traced_run();
    let trace = dctx.recorder().snapshot();
    let locales = trace.locales();
    assert_eq!(locales, (0..GRID.0 * GRID.1).collect::<Vec<_>>());

    let text = sink::chrome_trace(&trace);
    let JsonValue::Arr(events) = sink::parse_json(&text).expect("chrome trace parses") else {
        panic!("expected a JSON array");
    };
    // One process-name metadata record per locale, plus the rollup.
    let mut named_pids: Vec<usize> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
        .map(|e| e.get("pid").and_then(JsonValue::as_num).unwrap() as usize)
        .collect();
    named_pids.sort_unstable();
    let expected: Vec<usize> = std::iter::once(0).chain(locales.iter().map(|l| l + 1)).collect();
    assert_eq!(named_pids, expected);
    // ... and every locale's track actually carries spans.
    for l in &locales {
        assert!(
            events.iter().any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X")
                && e.get("pid").and_then(JsonValue::as_num) == Some((l + 1) as f64)),
            "locale {l} has no spans on its track"
        );
    }
}

#[test]
fn identical_runs_export_identically() {
    let (d1, _) = traced_run();
    let (d2, _) = traced_run();
    let (t1, t2) = (d1.recorder().snapshot(), d2.recorder().snapshot());

    // The Chrome sink lives entirely on the simulated clock: byte-equal.
    assert_eq!(sink::chrome_trace(&t1), sink::chrome_trace(&t2));

    // JSONL carries wall_ns — the one designated non-deterministic field.
    // Strip it (reload, zero, re-export) and the streams must agree.
    let strip = |text: &str| {
        let mut t = sink::from_jsonl(text).expect("jsonl reloads");
        for s in &mut t.spans {
            s.wall_ns = 0;
        }
        sink::jsonl(&t)
    };
    let (j1, j2) = (sink::jsonl(&t1), sink::jsonl(&t2));
    assert_eq!(strip(&j1), strip(&j2));
    assert_ne!(strip(&j1), j1, "wall_ns should be present before stripping");
}

#[test]
fn disabled_tracing_changes_nothing_and_records_nothing() {
    let grid = ProcGrid::new(GRID.0, GRID.1);
    let a = gen::erdos_renyi(400, 6, 7);
    let x = gen::random_sparse_vec(400, 30, 8);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dx = DistSparseVec::from_global(&x, grid.locales());

    let plain = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    let (_y, r_plain) = spmspv_dist(&da, &dx, &plain).expect("untraced");
    let (traced_ctx, r_traced) = traced_run();

    assert_eq!(r_plain.total(), r_traced.total(), "pricing must not depend on tracing");
    assert!(!plain.recorder().is_enabled());
    assert_eq!(plain.recorder().snapshot().spans.len(), 0);
    // Metrics stay on even without tracing (cheap atomic counters)...
    assert_eq!(plain.metrics().snapshot().ops_executed, 1);
    // ...but no spans are recorded.
    assert_eq!(plain.metrics().snapshot().spans_recorded, 0);
    assert!(traced_ctx.metrics().snapshot().spans_recorded > 0);
}

#[test]
fn faults_and_retries_show_up_in_trace_and_summary() {
    let mut dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
    dctx.enable_tracing();
    dctx.comm.fail_after(0); // very next transfer faults
    dctx.comm.with_retry(3, || dctx.comm.fine(PHASE_GATHER, 1, 2, 10, 80)).expect("retry recovers");

    let trace = dctx.recorder().snapshot();
    let names: Vec<&str> = trace.instants.iter().map(|i| i.name.as_str()).collect();
    assert!(names.contains(&"comm_fault"), "fault instant missing: {names:?}");
    assert!(names.contains(&"comm_retry"), "retry instant missing: {names:?}");
    let fault = trace.instants.iter().find(|i| i.name == "comm_fault").unwrap();
    assert_eq!(fault.locale, Some(1));
    assert!(fault.attrs.iter().any(|(k, v)| k == "phase" && v == PHASE_GATHER));

    let text = sink::summary(&trace);
    assert!(text.contains("comm_fault"), "summary must list faults:\n{text}");
    assert!(text.contains("comm_retry"), "summary must list retries:\n{text}");

    let m = dctx.metrics().snapshot();
    assert_eq!(m.faults_injected, 1);
    assert_eq!(m.retries, 1);
}

/// An op span's `wall_ns` times the operation, not just the pricing at its
/// end: the trace is opened when the op is entered, so the span covers at
/// least half of the externally timed call (the rest is the caller's side
/// of the call and the span's own emission). The multiply runs for tens of
/// milliseconds and gets three attempts, so one preemption outside the
/// span on a loaded host cannot fail it — a span that times only the
/// pricing (microseconds) fails all three.
#[test]
fn mxm_op_span_wall_clock_covers_the_multiply() {
    let grid = ProcGrid::new(2, 2);
    let a = gen::erdos_renyi(12_000, 8, 17);
    let da = DistCsrMatrix::from_global(&a, grid);
    let ring = gblas_core::algebra::semirings::plus_times_f64();
    let attempt = || {
        let mut dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
        dctx.enable_tracing();
        let start = std::time::Instant::now();
        gblas_dist::ops::mxm::mxm_dist(&da, &da, &ring, &dctx).expect("mxm");
        let outside = start.elapsed().as_nanos() as u64;
        let trace = dctx.recorder().snapshot();
        let op = trace.spans.iter().find(|s| s.kind == SpanKind::Op && s.name == "mxm_dist");
        (op.expect("op span recorded").wall_ns, outside)
    };
    let runs: Vec<(u64, u64)> = (0..3).map(|_| attempt()).collect();
    for &(span, outside) in &runs {
        assert!(span <= outside, "span {span} ns > call {outside} ns");
    }
    let covered = runs.iter().any(|&(span, outside)| 2 * span >= outside);
    assert!(covered, "span under half of the call in every (span, call) ns of {runs:?}");
}
