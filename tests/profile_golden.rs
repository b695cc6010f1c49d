//! Golden-file coverage for the trace profiler (ISSUE 6's acceptance
//! pins): a small distributed BFS is traced, profiled, and the rendered
//! text report and JSON profile are compared byte-for-byte against
//! committed files — once per locale executor, which must agree exactly.
//!
//! Beyond the bytes, the profiler's two accounting identities are checked
//! against independent sources of truth:
//! * the critical-path phase sum equals the trace's `sim_end()` (within
//!   1e-9 of float accumulation);
//! * the comm matrix's total bytes equal the run's `bytes_sent` metrics
//!   counter.
//!
//! Regenerate after an intentional format or pricing change with
//! `GBLAS_REGEN_GOLDEN=1 cargo test --test profile_golden`.

use gblas_core::gen;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::trace::profile::{profile, render_json, render_text, TraceProfile};
use gblas_core::trace::Trace;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, LocaleExecutor, ProcGrid};
use gblas_graph::bfs_on;
use gblas_sim::MachineConfig;

/// Trace a 4-locale BFS (the paper's fine-grained Listing 8 strategy, so
/// the comm matrix has real fine-message traffic) and return the trace
/// plus the run's cumulative comm-bytes counter.
fn traced_bfs(executor: LocaleExecutor) -> (Trace, u64) {
    let grid = ProcGrid::new(2, 2);
    let a = gen::erdos_renyi(200, 6, 5);
    let da = DistCsrMatrix::from_global(&a, grid);
    let mut dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    dctx.set_executor(executor);
    dctx.enable_tracing();
    let backend = DistBackend::with_strategy(&dctx, CommStrategy::Fine);
    let runs = bfs_on(&backend, &da, &[0], None, SpMSpVOpts::default()).expect("bfs");
    let (r, _) = &runs[0];
    assert!(r.reached() > 1, "workload must actually traverse");
    (dctx.recorder().snapshot(), dctx.metrics().snapshot().bytes_sent)
}

fn check_against_golden(name: &str, got: &str) {
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}"));
    if std::env::var_os("GBLAS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("mkdir golden");
        std::fs::write(&golden, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect("golden file present");
    assert_eq!(got, &want, "{name} drifted from the golden file");
}

/// The profiler's internal identities, independent of rendering.
fn check_invariants(p: &TraceProfile, trace: &Trace, bytes_sent: u64) {
    assert_eq!(p.locales, 4);
    assert!(
        (p.path_seconds + p.uncovered - trace.sim_end()).abs() < 1e-9,
        "critical-path sum {} + uncovered {} must equal sim_end {}",
        p.path_seconds,
        p.uncovered,
        trace.sim_end()
    );
    assert!(p.uncovered < 1e-9, "op traces tile the timeline with phases");
    assert_eq!(
        p.comm.total_bytes(),
        bytes_sent,
        "comm matrix must account for every byte the metrics counted"
    );
    assert_eq!(p.comm.unattributed_bytes, 0, "live traces attribute all traffic");
    // every locale did something, none was pinned at 100% idle
    for (l, u) in p.locale_totals.iter().enumerate() {
        assert!(u.busy > 0.0, "locale {l} recorded no compute");
        assert!(u.idle >= 0.0);
    }
    assert!(p.imbalance() >= 1.0);
    // BFS runs one op repeatedly; its phase rows form the whole path
    assert_eq!(p.ops.len(), 1);
    assert!(p.msg_sizes.count() > 0, "fine-grained BFS must log messages");
}

#[test]
fn profile_of_traced_bfs_matches_goldens_under_both_executors() {
    let (serial_trace, serial_bytes) = traced_bfs(LocaleExecutor::Serial);
    let (threaded_trace, threaded_bytes) = traced_bfs(LocaleExecutor::Threaded);

    let serial = profile(&serial_trace);
    let threaded = profile(&threaded_trace);
    check_invariants(&serial, &serial_trace, serial_bytes);
    check_invariants(&threaded, &threaded_trace, threaded_bytes);

    let text = render_text(&serial);
    let json = render_json(&serial);
    assert_eq!(text, render_text(&threaded), "text report must not depend on the executor");
    assert_eq!(json, render_json(&threaded), "JSON profile must not depend on the executor");

    check_against_golden("profile_bfs.txt", &text);
    check_against_golden("profile_bfs.json", &json);
}
