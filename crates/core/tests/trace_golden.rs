//! Golden-file test for the Chrome trace exporter.
//!
//! The Chrome sink promises byte-determinism (fixed field order, fixed
//! `{:.3}` µs precision, simulated clock only). This pins the exact bytes
//! for a small hand-built trace; if the format changes intentionally,
//! regenerate the golden file with
//! `GBLAS_REGEN_GOLDEN=1 cargo test -p gblas-core --test trace_golden`.

use gblas_core::par::Counters;
use gblas_core::trace::sink::chrome_trace;
use gblas_core::trace::{CommSummary, SpanKind, TraceRecorder};

fn fixed_trace() -> gblas_core::trace::Trace {
    let r = TraceRecorder::new();
    let op = r.span(
        None,
        "spmspv_dist",
        SpanKind::Op,
        None,
        0.0,
        0.002,
        7_777, // wall_ns: must never reach the Chrome output
        Counters { elems: 5, flops: 12, ..Default::default() },
        vec![("nnz".into(), "5".into()), ("strategy".into(), "fine".into())],
        None,
    );
    let gather = r.span(
        Some(op),
        "gather",
        SpanKind::Phase,
        None,
        0.0,
        0.0015,
        0,
        Counters::default(),
        vec![],
        None,
    );
    r.span(
        Some(gather),
        "gather",
        SpanKind::LocaleCompute,
        Some(0),
        0.0,
        0.001,
        0,
        Counters { elems: 3, ..Default::default() },
        vec![],
        None,
    );
    r.span(
        Some(gather),
        "gather",
        SpanKind::LocaleComm,
        Some(1),
        0.001,
        0.0005,
        0,
        Counters::default(),
        vec![],
        Some(CommSummary { fine_msgs: 4, bytes: 32, peers: 1, ..Default::default() }),
    );
    r.span(
        Some(op),
        "local",
        SpanKind::Phase,
        None,
        0.0015,
        0.0005,
        0,
        Counters::default(),
        vec![],
        None,
    );
    r.advance(0.002);
    r.instant("comm_fault", Some(1), vec![("phase".into(), "gather".into())]);

    // A bucketed-merge op: the sort phase is replaced by the `bucket`
    // appends (row entries walked, mask bits probed, `(column, value)`
    // pairs streamed into private buffers; zero sort_elems, zero atomics),
    // and the aggregated gather coalesces each locale pair's traffic into
    // one request and one bulk reply.
    let op2 = r.span(
        None,
        "spmspv_dist_semiring",
        SpanKind::Op,
        None,
        0.002,
        0.002,
        8_888, // wall_ns: must never reach the Chrome output
        Counters { elems: 9, flops: 20, ..Default::default() },
        vec![
            ("nnz".into(), "9".into()),
            ("strategy".into(), "bulk".into()),
            ("merge".into(), "bucket".into()),
        ],
        None,
    );
    let bucket = r.span(
        Some(op2),
        "bucket",
        SpanKind::Phase,
        None,
        0.002,
        0.0004,
        0,
        Counters::default(),
        vec![],
        None,
    );
    r.span(
        Some(bucket),
        "bucket",
        SpanKind::LocaleCompute,
        Some(0),
        0.002,
        0.0003,
        0,
        Counters { elems: 9, flops: 9, rand_access: 9, bytes_moved: 144, ..Default::default() },
        vec![],
        None,
    );
    let agg = r.span(
        Some(op2),
        "gather",
        SpanKind::Phase,
        None,
        0.0024,
        0.0012,
        0,
        Counters::default(),
        vec![],
        None,
    );
    // one 16-byte range request, answered by one coalesced bulk reply
    r.span(
        Some(agg),
        "gather",
        SpanKind::LocaleComm,
        Some(0),
        0.0024,
        0.0002,
        0,
        Counters::default(),
        vec![],
        Some(CommSummary { bulk_msgs: 1, bytes: 16, peers: 1, ..Default::default() }),
    );
    r.span(
        Some(agg),
        "gather",
        SpanKind::LocaleComm,
        Some(1),
        0.0026,
        0.001,
        0,
        Counters::default(),
        vec![],
        Some(CommSummary { bulk_msgs: 1, bytes: 144, peers: 1, ..Default::default() }),
    );
    r.advance(0.004);
    r.snapshot()
}

#[test]
fn chrome_trace_matches_golden_file() {
    let got = chrome_trace(&fixed_trace());
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chrome_small.json");
    if std::env::var_os("GBLAS_REGEN_GOLDEN").is_some() {
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect("golden file present");
    assert_eq!(got, want, "Chrome exporter output drifted from the golden file");
}

#[test]
fn golden_run_is_reproducible() {
    // Two recorders fed the same spans must serialize identically —
    // the recorder itself introduces no nondeterminism.
    assert_eq!(chrome_trace(&fixed_trace()), chrome_trace(&fixed_trace()));
}
