//! The report memo behind [`crate::ExecParams::compiled`].
//!
//! Scripted runs (`BranchMode::Bp1`/`Bp2` with the stub GPP on the ideal
//! interconnect) are pure functions of their inputs: branch decisions
//! come from the oracle scripts, lenient evaluation never raises, the
//! stub GPP serves every request with a constant-latency dummy, and the
//! ideal net charges closed-form delays. Two runs with the same
//! `(configuration, branch script, budget, fast-forward flag, args)` on
//! the same routing graph are therefore identical counter for counter.
//!
//! [`CompiledCache`] exploits exactly that: the first eligible run per
//! key walks the ordinary event loop and stores its [`ExecReport`]; every
//! later run with the same key returns a clone of the stored report
//! without simulating. The memo is exact by construction — there is no
//! second execution model to keep in sync with the walk — and the
//! differential suite in `crates/fabric/tests/ff_differential.rs` pins
//! memo vs. fast-forward vs. naive three ways.
//!
//! Eligibility mirrors [`crate::ExecParams::fast_forward`] and adds the
//! scripted-mode requirement: an order-free interconnect
//! ([`crate::NetKind::Ideal`]), the stub GPP, a scripted branch mode, and
//! no active trace sink. Ineligible requests run the ordinary walk, and
//! an active sink gets a [`crate::TraceKind::Warn`] event naming the
//! reason (`WARN_COMPILE_*` — see [`crate::trace`]).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use javaflow_bytecode::Value;

use crate::{BranchMode, ExecReport, FabricConfig};

/// The per-method report memo, shared through [`crate::PreparedMethod`]
/// exactly like the decoded dispatch tables: one `Arc` serves every
/// placement and sweep over the method. The handful of
/// live keys (six configurations × two branch scripts in a sweep) makes
/// a linear scan cheaper than hashing the configuration.
#[derive(Debug, Default)]
pub struct CompiledCache {
    entries: Mutex<Vec<(CompileKey, ExecReport)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Everything a scripted run's report depends on, besides the routing
/// graph (which `LoadedMethod::graph_mut` guards by detaching the cache).
#[derive(Debug)]
struct CompileKey {
    config: FabricConfig,
    mode: BranchMode,
    max_mesh_cycles: u64,
    fast_forward: bool,
    args: Vec<Value>,
}

impl CompiledCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> CompiledCache {
        CompiledCache::default()
    }

    /// Memoised reports.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().map_or(0, |e| e.len())
    }

    /// Whether no report has been memoised yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found a stored report.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Lookups that missed and ran the walk.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Relaxed)
    }

    /// Returns a clone of the stored report for a key, counting the probe
    /// as a hit or miss. Scripted ideal-net reports carry no heap data
    /// (no exception, no net report), so a hit does not allocate.
    pub(crate) fn lookup(
        &self,
        config: &FabricConfig,
        mode: BranchMode,
        max_mesh_cycles: u64,
        fast_forward: bool,
        args: &[Value],
    ) -> Option<ExecReport> {
        let entries = self.entries.lock().expect("compile cache lock");
        let found = entries.iter().find(|(k, _)| {
            k.mode == mode
                && k.max_mesh_cycles == max_mesh_cycles
                && k.fast_forward == fast_forward
                && k.config == *config
                && k.args == args
        });
        match found {
            Some((_, report)) => {
                self.hits.fetch_add(1, Relaxed);
                Some(report.clone())
            }
            None => {
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// Stores a freshly walked report. Racing misses of the same key both
    /// insert; the reports are identical by determinism, so whichever the
    /// next lookup finds first is correct.
    pub(crate) fn insert(
        &self,
        config: &FabricConfig,
        mode: BranchMode,
        max_mesh_cycles: u64,
        fast_forward: bool,
        args: Vec<Value>,
        report: ExecReport,
    ) {
        let key = CompileKey { config: config.clone(), mode, max_mesh_cycles, fast_forward, args };
        self.entries.lock().expect("compile cache lock").push((key, report));
    }
}
