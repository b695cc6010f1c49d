//! Golden-file coverage for adaptive-selection decision traces: a traced
//! 4-locale BFS and CC on a fixed skewed (R-MAT) graph must emit exactly
//! the committed per-iteration `select` span sequence — the same direction
//! at every level — and the sequence must be byte-identical under both
//! locale executors (the decisions are driven by globally-agreed density
//! counts, never by scheduling). A level decides its direction and nothing
//! else: the frontier's storage follows from it, and the push's merge is
//! the caller's.
//!
//! Regenerate after an intentional heuristic or threshold change with
//! `GBLAS_REGEN_GOLDEN=1 cargo test --test selection_golden`.

use gblas_core::gen;
use gblas_core::ops::selection::SelectionPolicy;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::trace::{SpanKind, Trace};
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, LocaleExecutor, ProcGrid};
use gblas_sim::MachineConfig;

/// Run BFS and CC under `auto` on the fixed workload, tracing every
/// decision, and return the trace.
fn traced_run(executor: LocaleExecutor) -> Trace {
    let grid = ProcGrid::new(2, 2);
    let a = gen::rmat(10, 8, 7);
    let da = DistCsrMatrix::from_global(&a, grid);
    let mut dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    dctx.set_executor(executor);
    dctx.enable_tracing();

    let (r, decisions, _) = gblas_graph::bfs_selected_dist(
        &da,
        0,
        SelectionPolicy::Auto,
        CommStrategy::Bulk,
        SpMSpVOpts::default(),
        &dctx,
    )
    .expect("bfs");
    assert!(r.reached() > 1, "workload must actually traverse");
    assert!(!decisions.is_empty());

    let sym = gen::erdos_renyi_symmetric(600, 5, 7);
    let dsym = DistCsrMatrix::from_global(&sym, grid);
    gblas_graph::connected_components_on(
        &DistBackend::with_strategy(&dctx, CommStrategy::Bulk),
        &dsym,
        Some(SelectionPolicy::Auto),
        SpMSpVOpts::default(),
    )
    .expect("cc");

    dctx.recorder().snapshot()
}

/// One formatted line per `select` op span, in trace (= iteration) order.
fn decision_lines(trace: &Trace) -> String {
    let mut out = String::new();
    for span in trace.spans.iter().filter(|s| s.kind == SpanKind::Op && s.name == "select") {
        let attr = |key: &str| {
            span.attrs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .unwrap_or_else(|| panic!("select span missing attr {key}"))
        };
        out.push_str(&format!(
            "{} iter={} dir={} nnz={} unexplored={}\n",
            attr("algo"),
            attr("iter"),
            attr("dir"),
            attr("nnz"),
            attr("unexplored"),
        ));
    }
    assert!(!out.is_empty(), "traced run must record select spans");
    out
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

#[test]
fn decision_trace_matches_golden_under_both_executors() {
    let serial = decision_lines(&traced_run(LocaleExecutor::Serial));
    let threaded = decision_lines(&traced_run(LocaleExecutor::Threaded));
    assert_eq!(serial, threaded, "decisions must not depend on the locale executor");

    // The fixed skewed graph must actually exercise the switch: both
    // directions appear, or the golden is not testing adaptivity.
    assert!(serial.contains("dir=push"), "expected at least one push level:\n{serial}");
    assert!(serial.contains("dir=pull"), "expected at least one pull level:\n{serial}");

    check_against_golden("selection_decisions.txt", &serial);
}
