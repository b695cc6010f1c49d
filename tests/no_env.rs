//! The library never reads the environment; `RunConfig::from_env` does,
//! for the binaries.
//!
//! One test in a binary of its own: it is the only test anywhere that
//! sets `GBLAS_*` variables, and it has no sibling thread to race with.

use gblas_core::par::ExecCtx;
use gblas_dist::{DistCtx, LocaleExecutor, RunConfig};
use gblas_sim::MachineConfig;

/// A non-default value on every name, the two deleted ones included.
const HOSTILE: [(&str, &str); 5] = [
    ("GBLAS_DIST_EXECUTOR", "serial"),
    ("GBLAS_SCHED", "off"),
    ("GBLAS_OVERLAP", "1"),
    ("GBLAS_WORKSPACE", "off"),
    ("GBLAS_MERGE", "bucket"),
];

#[test]
fn contexts_ignore_the_environment_and_from_env_reads_it() {
    for (name, value) in HOSTILE {
        std::env::set_var(name, value);
    }
    let dctx = DistCtx::new(MachineConfig::edison_cluster(2, 24));
    assert_eq!(dctx.executor(), LocaleExecutor::Threaded);
    assert!(dctx.schedules_enabled());
    assert!(dctx.workspace_pool(0).enabled() && dctx.workspace_pool(1).enabled());
    assert!(dctx.locale_ctx_for(1).workspace().enabled());
    assert!(ExecCtx::new(4, 1).workspace().enabled());

    // The same environment through the one reader: three names count.
    let all_off =
        RunConfig { executor: LocaleExecutor::Serial, schedules: false, workspace: false };
    assert_eq!(RunConfig::from_env(), all_off);
    let configured = DistCtx::new(MachineConfig::edison_cluster(2, 24)).with_config(all_off);
    assert_eq!(configured.executor(), LocaleExecutor::Serial);
    assert!(!configured.schedules_enabled() && !configured.workspace_pool(1).enabled());

    // Accepted spellings, one variable at a time; garbage is ignored.
    let d = RunConfig::default();
    for (name, value, expect) in [
        ("GBLAS_DIST_EXECUTOR", "serial", RunConfig { executor: LocaleExecutor::Serial, ..d }),
        ("GBLAS_DIST_EXECUTOR", "threaded", d),
        ("GBLAS_DIST_EXECUTOR", "fibers", d),
        ("GBLAS_SCHED", "off", RunConfig { schedules: false, ..d }),
        ("GBLAS_SCHED", "0", RunConfig { schedules: false, ..d }),
        ("GBLAS_SCHED", "on", d),
        ("GBLAS_SCHED", "", d),
        ("GBLAS_WORKSPACE", "off", RunConfig { workspace: false, ..d }),
        ("GBLAS_WORKSPACE", "0", RunConfig { workspace: false, ..d }),
        ("GBLAS_WORKSPACE", "false", RunConfig { workspace: false, ..d }),
        ("GBLAS_WORKSPACE", "Disabled", RunConfig { workspace: false, ..d }),
        ("GBLAS_WORKSPACE", "on", d),
        ("GBLAS_WORKSPACE", "maybe", d),
        ("GBLAS_OVERLAP", "1", d),
        ("GBLAS_MERGE", "bucket", d),
    ] {
        for (clear, _) in HOSTILE {
            std::env::remove_var(clear);
        }
        std::env::set_var(name, value);
        assert_eq!(RunConfig::from_env(), expect, "{name}={value}");
    }
}
