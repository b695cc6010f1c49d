//! The run configuration: the three process-wide choices a driver makes
//! once, as one plain value.
//!
//! The library never reads the environment. A binary that wants the
//! `GBLAS_*` variables honoured calls [`RunConfig::from_env`] in its
//! `main` and hands the value to the contexts it builds
//! ([`crate::DistCtx::with_config`]; for a shared
//! [`gblas_core::par::ExecCtx`], `ctx.workspace().set_enabled(cfg.workspace)`).

use crate::exec::LocaleExecutor;

/// What [`crate::DistCtx::new`] and `ExecCtx::new` use when nobody says
/// otherwise is [`RunConfig::default`]; none of the three values changes
/// a result, a comm log or a simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// How locale bodies run on the real machine
    /// ([`crate::DistCtx::set_executor`]).
    pub executor: LocaleExecutor,
    /// Whether communication schedules are cached and replayed
    /// ([`crate::DistCtx::set_schedules`]).
    pub schedules: bool,
    /// Whether workspace pools recycle scratch
    /// ([`gblas_core::workspace::WorkspacePool::set_enabled`]).
    pub workspace: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { executor: LocaleExecutor::default(), schedules: true, workspace: true }
    }
}

impl RunConfig {
    /// The defaults, adjusted by the three environment variables the
    /// binaries honour — the only place under `crates/` that reads the
    /// environment. Unrecognised values are ignored.
    ///
    /// * `GBLAS_DIST_EXECUTOR=serial` — [`LocaleExecutor::Serial`];
    /// * `GBLAS_SCHED=off|0` — no schedule caching;
    /// * `GBLAS_WORKSPACE=off|0|false|disabled` — no workspace pooling.
    pub fn from_env() -> Self {
        let var = |name: &str| std::env::var(name).ok().map(|v| v.to_ascii_lowercase());
        let mut cfg = RunConfig::default();
        if var("GBLAS_DIST_EXECUTOR").as_deref() == Some("serial") {
            cfg.executor = LocaleExecutor::Serial;
        }
        if matches!(var("GBLAS_SCHED").as_deref(), Some("off" | "0")) {
            cfg.schedules = false;
        }
        if matches!(var("GBLAS_WORKSPACE").as_deref(), Some("off" | "0" | "false" | "disabled")) {
            cfg.workspace = false;
        }
        cfg
    }
}
