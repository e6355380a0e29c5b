//! The token-bundle execution engine (Section 6.3).
//!
//! Execution of a loaded method starts a bundle of serial tokens —
//! `HEAD`, `MEMORY`, one `REGISTER` per local, `TAIL` (Figure 23) — down
//! the serial network from the Anchor. Instruction Nodes fire under the
//! dataflow rule (*HEAD received ∧ popsReceived == pops*, plus
//! group-specific conditions), results travel the mesh to the resolved
//! consumers, and control-flow nodes translate taken branches back into
//! token routing: forward jumps route the bundle with explicit addresses;
//! backward jumps buffer everything until `TAIL`, then re-inject the bundle
//! at the loop head through the reverse network, resetting the loop body.
//!
//! The simulator is event-driven over **serial ticks**; one mesh cycle is
//! `FabricConfig::mesh_cycle_ticks` ticks, reproducing the Table 15 clock
//! ratios (the collapsed Baseline drains serial traffic for free).
//!
//! # Kernel layout
//!
//! The event loop is built for zero steady-state allocation and O(1)
//! scheduling (see DESIGN.md, "Timing-wheel kernel"):
//!
//! * events live in a [`TimingWheel`] instead of a comparison heap —
//!   pushes are monotone and bucket FIFO order reproduces the
//!   `(tick, seq)` total order the determinism suite pins down;
//! * per-node execution state is struct-of-arrays slabs owned by
//!   [`SimArena`] (flag bytes, operand/output value slabs with per-method
//!   prefix-summed offsets), not per-node structs of `Vec`s;
//! * each method is pre-decoded once into a [`DecodedMethod`] dispatch
//!   table, so firing an instruction reads a `Copy` record instead of
//!   cloning the `Insn` and re-matching its opcode group.

use std::sync::Arc;

use javaflow_bytecode::{InstructionGroup, Method, Opcode, Operand, Value};
use javaflow_interp::{Interp, JvmError, JvmErrorKind};

use crate::{
    compile::CompiledCache,
    compute::{eval_condition, eval_into, OutVals},
    net::{ContendedNet, IdealNet, NetModel},
    place, resolve,
    trace::{
        encode_token, encode_value, env_stderr_sink, pack_coords, NoopSink, TraceEvent, TraceKind,
        TraceSink, WARN_COMPILE_DATA_MODE, WARN_COMPILE_GPP, WARN_COMPILE_NET_ORDER, WARN_FF_GPP,
        WARN_FF_NET_ORDER,
    },
    BranchMode, BranchOracle, DataflowGraph, FabricConfig, NetKind, NetReport, PlaceError,
    Placement, ResolveError, Resolved, TimingWheel, Token,
};

/// A method loaded into the fabric: placement plus resolved dataflow.
///
/// The resolution, routing graph, and decode table are shared with the
/// [`PreparedMethod`] they came from (and with every other placement of
/// it) — stamping a prepared method onto a configuration is two `Arc`
/// bumps, not a deep copy.
#[derive(Debug)]
pub struct LoadedMethod<'m> {
    /// The method.
    pub method: &'m Method,
    /// Node placement (Figure 20).
    pub placement: Placement,
    /// Address-resolution result (Section 6.2).
    pub resolved: Arc<Resolved>,
    /// The routing graph the engine follows (possibly transformed by the
    /// Section 6.4 enhancements).
    pub graph: Arc<DataflowGraph>,
    /// The pre-decoded per-instruction dispatch table.
    pub decoded: Arc<DecodedMethod>,
    /// Memoised scripted-run reports (`ExecParams::compiled`) keyed by
    /// `(config, mode, budget, fast-forward, args)`, shared with the
    /// [`PreparedMethod`] so every placement and sweep over the method
    /// reuses one report per key.
    pub compiled: Arc<CompiledCache>,
}

impl LoadedMethod<'_> {
    /// Mutable access to the routing graph for the Section 6.4
    /// enhancement passes (folding, fanout limiting). Unshares the graph
    /// from sibling placements first if needed — and detaches the
    /// report memo, whose stored reports assume the untransformed graph.
    pub fn graph_mut(&mut self) -> &mut DataflowGraph {
        self.compiled = Arc::new(CompiledCache::new());
        Arc::make_mut(&mut self.graph)
    }
}

/// Loading failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum LoadError {
    /// Placement failed.
    Place(PlaceError),
    /// Resolution failed.
    Resolve(ResolveError),
    /// The method uses instructions the fabric does not execute
    /// (`jsr`/`ret`/switches — delegated to the GPP in the dissertation
    /// and excluded from its simulation).
    Unsupported {
        /// The offending opcode.
        op: Opcode,
        /// Its linear address.
        addr: u32,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Place(e) => write!(fm, "placement: {e}"),
            LoadError::Resolve(e) => write!(fm, "resolution: {e}"),
            LoadError::Unsupported { op, addr } => {
                write!(fm, "fabric cannot execute `{op}` at @{addr}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// One instruction's pre-decoded execution record: everything the event
/// loop needs to fire it, flattened out of [`Method`] so the hot path
/// never clones an `Insn` or re-matches its opcode group.
#[derive(Debug, Clone, Copy)]
pub struct DecodedInsn {
    /// The opcode (error reporting, condition evaluation).
    pub op: Opcode,
    /// The Section 5 instruction group driving the firing rule.
    pub group: InstructionGroup,
    /// Mesh operands consumed.
    pub pops: u16,
    /// Values pushed.
    pub pushes: u16,
    /// Offset of this node's operand slots in the arena's operand slab.
    pub operand_off: u32,
    /// Offset of this node's output slots in the arena's output slab.
    pub output_off: u32,
    /// Output slots reserved (≥ `pushes`; local writes park their
    /// operands here, increments their updated register value).
    pub output_cap: u16,
    /// Index into the per-configuration execution-latency table
    /// (0 = move, 1 = float, 2 = convert, 3 = other — Table 17 classes).
    pub timing_class: u8,
    /// Register a local read/write/inc watches (`u16::MAX` = none).
    pub reg: u16,
    /// `iinc` delta.
    pub inc_delta: i32,
    /// Branch target (`u32::MAX` = none).
    pub branch_target: u32,
    /// Whether the branch target is at or before this address.
    pub is_back: bool,
    /// Unconditional jump.
    pub is_goto: bool,
    /// Holds the MEMORY token until it fires (ordered memory access).
    pub ordered_mem: bool,
    /// Buffers every serial token until completion (control flow and
    /// returns).
    pub buffers_all: bool,
    /// Pre-resolved constant value (`MemConst` pool loads).
    pub const_val: Value,
}

/// A method's pre-decoded dispatch table plus the slab sizes its
/// execution state needs ([`SimArena`] sizes its operand and output
/// value slabs from these).
#[derive(Debug, Clone)]
pub struct DecodedMethod {
    /// Per-instruction records, indexed by linear address.
    pub insns: Vec<DecodedInsn>,
    /// Total operand slots across the method.
    pub operand_total: usize,
    /// Total output slots across the method.
    pub output_total: usize,
}

impl DecodedMethod {
    /// Decodes `method` into the flat dispatch table.
    #[must_use]
    pub fn decode(method: &Method) -> DecodedMethod {
        let mut insns = Vec::with_capacity(method.code.len());
        let mut operand_off = 0u32;
        let mut output_off = 0u32;
        for (i, insn) in method.code.iter().enumerate() {
            let group = insn.group();
            let pops = insn.pops();
            let pushes = insn.pushes();
            let output_cap = match group {
                // A local write's "outputs" are its parked operands; an
                // increment always produces one register value.
                InstructionGroup::LocalWrite => pops.max(pushes),
                InstructionGroup::LocalInc => pushes.max(1),
                _ => pushes,
            };
            let timing_class = match group {
                InstructionGroup::ArithMove => 0,
                InstructionGroup::FloatArith => 1,
                InstructionGroup::FloatConversion => 2,
                _ => 3,
            };
            let reg = match group {
                InstructionGroup::LocalRead
                | InstructionGroup::LocalWrite
                | InstructionGroup::LocalInc => register_of(insn).unwrap_or(u16::MAX),
                _ => u16::MAX,
            };
            let inc_delta = match insn.operand {
                Operand::Inc { delta, .. } => delta,
                _ => 0,
            };
            let const_val = match (group, &insn.operand) {
                (InstructionGroup::MemConst, Operand::Cp(idx)) => method.cpool[usize::from(*idx)],
                _ => Value::Int(0),
            };
            insns.push(DecodedInsn {
                op: insn.op,
                group,
                pops,
                pushes,
                operand_off,
                output_off,
                output_cap,
                timing_class,
                reg,
                inc_delta,
                branch_target: insn.branch_target().unwrap_or(u32::MAX),
                is_back: method.is_back_branch(i as u32),
                is_goto: insn.op.is_goto(),
                ordered_mem: insn.op.is_ordered_memory(),
                buffers_all: matches!(
                    group,
                    InstructionGroup::ControlFlow | InstructionGroup::Return
                ),
                const_val,
            });
            operand_off += u32::from(pops);
            output_off += u32::from(output_cap);
        }
        DecodedMethod {
            insns,
            operand_total: operand_off as usize,
            output_total: output_off as usize,
        }
    }
}

/// The configuration-independent part of loading a method: the
/// executability check, Section 6.2 address resolution, the routing
/// graph, and the decoded dispatch table. Placement is the only
/// per-[`FabricConfig`] step, so a method swept across many
/// configurations should be [`prepare`]d once and then stamped onto each
/// configuration with [`load_with_resolved`].
#[derive(Debug)]
pub struct PreparedMethod<'m> {
    /// The method.
    pub method: &'m Method,
    /// Address-resolution result (Section 6.2).
    pub resolved: Arc<Resolved>,
    /// The routing graph derived from the resolution.
    pub graph: Arc<DataflowGraph>,
    /// The pre-decoded per-instruction dispatch table.
    pub decoded: Arc<DecodedMethod>,
    /// Report memo (`ExecParams::compiled`), shared by every placement of
    /// this method: the first eligible run per `(config, mode, budget,
    /// fast-forward, args)` key walks the event loop and stores its
    /// report, all later runs return a clone of it.
    pub compiled: Arc<CompiledCache>,
}

impl<'m> PreparedMethod<'m> {
    /// Combines the prepared parts with an externally computed placement
    /// into a runnable [`LoadedMethod`]. Shares (rather than deep-copies)
    /// the resolution, graph, decode table, and report memo.
    #[must_use]
    pub fn with_placement(&self, placement: Placement) -> LoadedMethod<'m> {
        LoadedMethod {
            method: self.method,
            placement,
            resolved: Arc::clone(&self.resolved),
            graph: Arc::clone(&self.graph),
            decoded: Arc::clone(&self.decoded),
            compiled: Arc::clone(&self.compiled),
        }
    }
}

/// Runs the configuration-independent loading steps once: checks
/// fabric-executability, resolves dataflow addresses, and decodes the
/// dispatch table.
///
/// # Errors
///
/// See [`LoadError`].
pub fn prepare(method: &Method) -> Result<PreparedMethod<'_>, LoadError> {
    for (addr, insn) in method.iter() {
        if matches!(
            insn.op,
            Opcode::Jsr | Opcode::JsrW | Opcode::Ret | Opcode::TableSwitch | Opcode::LookupSwitch
        ) {
            return Err(LoadError::Unsupported { op: insn.op, addr });
        }
    }
    let resolved = resolve(method).map_err(LoadError::Resolve)?;
    let graph = DataflowGraph::from_resolved(&resolved);
    Ok(PreparedMethod {
        method,
        resolved: Arc::new(resolved),
        graph: Arc::new(graph),
        decoded: Arc::new(DecodedMethod::decode(method)),
        compiled: Arc::new(CompiledCache::new()),
    })
}

/// Places an already-[`prepare`]d method on one configuration, reusing
/// its resolution and routing graph instead of recomputing them.
///
/// # Errors
///
/// See [`LoadError`] (only placement can fail at this point).
pub fn load_with_resolved<'m>(
    prepared: &PreparedMethod<'m>,
    config: &FabricConfig,
) -> Result<LoadedMethod<'m>, LoadError> {
    let placement = place(prepared.method, config).map_err(LoadError::Place)?;
    Ok(prepared.with_placement(placement))
}

/// Loads a method: checks fabric-executability, places it, and resolves
/// dataflow addresses.
///
/// # Errors
///
/// See [`LoadError`].
pub fn load<'m>(method: &'m Method, config: &FabricConfig) -> Result<LoadedMethod<'m>, LoadError> {
    let prepared = prepare(method)?;
    load_with_resolved(&prepared, config)
}

/// How the method run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A return instruction fired; the value (if the method returns one)
    /// was passed back to the GPP.
    Returned(Option<Value>),
    /// The mesh-cycle budget was exhausted (the dissertation's timeout
    /// filter).
    Timeout,
    /// No event remained but no return fired (an invalid dataflow).
    Deadlock,
    /// A Section 6.3 exception was raised and delegated to the GPP.
    Exception(JvmError),
}

/// Execution measurements for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// How the run ended.
    pub outcome: Outcome,
    /// Elapsed mesh cycles.
    pub mesh_cycles: u64,
    /// Dynamic instructions fired (loop iterations re-fire).
    pub executed: u64,
    /// Relay (inserted move) firings, counted separately.
    pub relay_fires: u64,
    /// Distinct static instructions that fired at least once.
    pub static_covered: usize,
    /// `static_covered / method length` (Table 18).
    pub coverage: f64,
    /// Instructions per mesh cycle (Table 21).
    pub ipc: f64,
    /// Fraction of busy time with ≥ 2 instructions executing (Table 26).
    pub frac_cycles_ge2: f64,
    /// Fraction of elapsed time with ≥ 1 instruction executing.
    pub frac_cycles_ge1: f64,
    /// Serial messages delivered.
    pub serial_msgs: u64,
    /// Mesh messages delivered.
    pub mesh_msgs: u64,
    /// Scheduler events processed (`tables --bench-kernel` throughput).
    pub events: u64,
    /// Serial-walk deliveries proven no-ops and fast-forwarded over
    /// (plus fused relay hops) instead of being simulated as events.
    pub events_skipped: u64,
    /// Dynamic fires per timing class (0 move, 1 float, 2 convert,
    /// 3 other — the Table 17 classes), for the instrumentation
    /// registry's per-class counters and tick histograms.
    pub class_fires: [u64; 4],
    /// Timing-wheel high-water mark: the most events simultaneously
    /// scheduled at any point of the run.
    pub wheel_high_water: u64,
    /// Total events pushed into the timing wheel.
    pub wheel_pushes: u64,
    /// Bitmask of *semantic* fast-forward / memo declines: bit
    /// `1 << WARN_*` is set when the caller asked for the fast path but
    /// the gate picked the naive walk for that reason. Only the semantic
    /// reasons are recorded — an active trace sink forcing the naive
    /// walk sets no bit, so reports stay identical traced vs untraced.
    /// [`MetricsRegistry::observe_report`](crate::MetricsRegistry::observe_report)
    /// folds the bits into `warn_*` counters.
    pub declined: u8,
    /// Link-level interconnect statistics ([`NetKind::Contended`] runs
    /// only; the ideal model collects none).
    pub net: Option<NetReport>,
}

/// Execution parameters.
#[derive(Debug)]
pub struct ExecParams<'g, 'p> {
    /// Branch decision source.
    pub mode: BranchMode,
    /// Mesh-cycle budget before declaring [`Outcome::Timeout`].
    pub max_mesh_cycles: u64,
    /// The GPP servicing calls, specials, and real memory (data mode).
    pub gpp: Gpp<'g, 'p>,
    /// Argument values placed in the initial register tokens.
    pub args: Vec<Value>,
    /// Fast-forward deterministic no-op stretches of the serial token
    /// walk (and fuse relay event chains) instead of simulating each hop
    /// as its own event. Tick-exact, so every report field except
    /// `events`/`events_skipped` is unchanged; the engine only honours it
    /// where tick-exactness implies full equivalence (ideal interconnect,
    /// stub GPP — see DESIGN.md "Skip-index fast-forwarding"). `false`
    /// forces the naive per-node walk everywhere (differential testing).
    pub fast_forward: bool,
    /// Serve the run from the method's report memo (`fabric::compile`)
    /// instead of the event loop when the same run has been walked
    /// before. Eligibility is fast-forward's gate plus the scripted-mode
    /// requirement (ideal interconnect, stub GPP, `BranchMode::Bp1`/`Bp2`,
    /// no active trace sink) — exactly the runs that are a pure function
    /// of `(config, mode, budget, fast-forward, args)`. Ineligible runs
    /// take the ordinary walk and an active sink gets a `WARN_COMPILE_*`
    /// event. The first eligible run per key walks the event loop and
    /// stores its report; later runs return an allocation-free clone of
    /// it. Off by default: one-shot sweeps never re-execute a key, so
    /// storing reports would only hold memory — resident processes (the
    /// sweep server) and repeated-run harnesses opt in.
    pub compiled: bool,
}

impl Default for ExecParams<'_, '_> {
    fn default() -> Self {
        ExecParams {
            mode: BranchMode::Bp1,
            max_mesh_cycles: 1_000_000,
            gpp: Gpp::Stub,
            args: Vec::new(),
            fast_forward: true,
            compiled: false,
        }
    }
}

/// The General Purpose Processor attachment.
#[derive(Debug)]
pub enum Gpp<'g, 'p> {
    /// Real co-simulation: calls run on the interpreter, memory operations
    /// hit the shared heap/method area.
    Interp(&'g mut Interp<'p>),
    /// Scripted runs: constant service times, dummy results.
    Stub,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    Serial,
    Mesh,
    ExecDone,
    ServiceDone,
}

/// A scheduled event. `Copy` so timing-wheel buckets drain by index;
/// the event's tick lives in the wheel, and FIFO bucket order replaces
/// the old explicit sequence number.
#[derive(Debug, Clone, Copy)]
struct Ev {
    kind: EvKind,
    node: u32,
    token: Option<Token>,
    side: u16,
    value: Option<Value>,
    /// The tick at which the *naive* walk would have pushed this event —
    /// `now` for directly scheduled events, the virtual tick of the last
    /// skipped hop for fast-forwarded deliveries. Buckets are stable-
    /// sorted by this key before dispatch under fast-forward, restoring
    /// the naive intra-tick FIFO order that early pushes would otherwise
    /// scramble (push ticks are nondecreasing within a naive bucket, so
    /// for naive streams the sort is the identity).
    order: u64,
    /// True for deliveries scheduled *ahead* of their naive push tick
    /// (fast-forward chain deliveries and fused relay fan-outs). Among
    /// events with equal `order`, the naive walk pushes these last: the
    /// elided hop that would have made the push sits at the very end of
    /// its own bucket (its key, `order - hop`, is that bucket's maximum
    /// possible push tick), while a directly scheduled event's trigger
    /// was pushed earlier. The sort key therefore orders real pushes
    /// before chain deliveries at the same `order`.
    chain: bool,
}

// Per-node state flags (struct-of-arrays replacement for the old
// per-node bool/Option fields).
/// HEAD token received.
const F_HEAD: u8 = 1 << 0;
/// The node fired this bundle pass.
const F_FIRED: u8 = 1 << 1;
/// The node completed (tokens pass through).
const F_COMPLETED: u8 = 1 << 2;
/// TAIL is buffered at this node.
const F_TAIL_BUF: u8 = 1 << 3;
/// Cached conditional decision (set = taken).
const F_DECISION: u8 = 1 << 4;
/// A register value was captured.
const F_REG_SET: u8 = 1 << 5;
/// A memory token is held.
const F_MEM_SET: u8 = 1 << 6;
/// A memory-token order number awaits forwarding.
const F_FWD_SET: u8 = 1 << 7;

/// Reusable simulation state: the timing wheel plus the
/// struct-of-arrays node slabs.
///
/// [`Sim`] stores per-node execution state in flat vectors indexed by
/// instruction address — one flag byte, operand/output value slots at
/// prefix-summed offsets from the [`DecodedMethod`] — and events in a
/// [`TimingWheel`]. Creating these fresh for every run dominated
/// allocation in population sweeps; the arena keeps the capacity across
/// runs, so a warmed-up arena executes a scripted method with **zero**
/// heap allocations (enforced by the counting-allocator test in
/// `crates/fabric/tests/alloc.rs`).
#[derive(Debug)]
pub struct SimArena {
    queue: TimingWheel<Ev>,
    flags: Vec<u8>,
    /// Operands still missing before the dataflow rule is satisfied.
    missing: Vec<u16>,
    reg_captured: Vec<Value>,
    mem_token: Vec<u64>,
    mem_forward: Vec<u64>,
    /// Explicit route after a taken forward jump (`u32::MAX` = linear).
    redirect: Vec<u32>,
    /// Decided back-jump target awaiting TAIL (`u32::MAX` = none).
    pending_back: Vec<u32>,
    operand_vals: Vec<Value>,
    operand_set: Vec<bool>,
    output_vals: Vec<Value>,
    output_len: Vec<u16>,
    /// Tokens buffered at control-flow nodes (in arrival order).
    buffers: Vec<Vec<Token>>,
    covered: Vec<bool>,
    /// Staging for re-injected bundles (the reset clears the source
    /// node's own buffer mid-flight).
    scratch: Vec<Token>,
    /// Staging for the batch drain of one timing-wheel bucket.
    batch: Vec<Ev>,
    oracle: BranchOracle,
}

impl Default for SimArena {
    fn default() -> Self {
        SimArena::new()
    }
}

impl SimArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> SimArena {
        SimArena {
            queue: TimingWheel::new(),
            flags: Vec::new(),
            missing: Vec::new(),
            reg_captured: Vec::new(),
            mem_token: Vec::new(),
            mem_forward: Vec::new(),
            redirect: Vec::new(),
            pending_back: Vec::new(),
            operand_vals: Vec::new(),
            operand_set: Vec::new(),
            output_vals: Vec::new(),
            output_len: Vec::new(),
            buffers: Vec::new(),
            covered: Vec::new(),
            scratch: Vec::new(),
            batch: Vec::new(),
            oracle: BranchOracle::new(BranchMode::Bp1),
        }
    }

    /// Resets the slabs to `dm`'s shape, reusing allocations.
    fn reset_for(&mut self, dm: &DecodedMethod) {
        let n = dm.insns.len();
        self.flags.clear();
        self.flags.resize(n, 0);
        self.missing.clear();
        self.missing.extend(dm.insns.iter().map(|d| d.pops));
        self.reg_captured.clear();
        self.reg_captured.resize(n, Value::Int(0));
        self.mem_token.clear();
        self.mem_token.resize(n, 0);
        self.mem_forward.clear();
        self.mem_forward.resize(n, 0);
        self.redirect.clear();
        self.redirect.resize(n, u32::MAX);
        self.pending_back.clear();
        self.pending_back.resize(n, u32::MAX);
        self.operand_vals.clear();
        self.operand_vals.resize(dm.operand_total, Value::Int(0));
        self.operand_set.clear();
        self.operand_set.resize(dm.operand_total, false);
        self.output_vals.clear();
        self.output_vals.resize(dm.output_total, Value::Int(0));
        self.output_len.clear();
        self.output_len.resize(n, 0);
        // Never truncate `buffers`: higher-index entries keep their
        // capacity for the next method that needs them.
        if self.buffers.len() < n {
            self.buffers.resize_with(n, Vec::new);
        }
        for b in &mut self.buffers[..n] {
            b.clear();
        }
        self.covered.clear();
        self.covered.resize(n, false);
        self.queue.clear();
    }

    /// Clears one node back to `stateReady` (loop-body reset).
    fn reset_node(&mut self, a: usize, d: &DecodedInsn) {
        self.flags[a] = 0;
        self.missing[a] = d.pops;
        let off = d.operand_off as usize;
        for s in &mut self.operand_set[off..off + usize::from(d.pops)] {
            *s = false;
        }
        self.redirect[a] = u32::MAX;
        self.pending_back[a] = u32::MAX;
        self.output_len[a] = 0;
        self.buffers[a].clear();
    }
}

/// A warm pool of [`SimArena`]s shared across sweep workers.
///
/// A fresh arena pays its slab and timing-wheel allocations on first use;
/// a pooled one keeps that capacity across whole sweeps, so repeated
/// sweeps (server mode) skip warm-up entirely. Checking a warm arena out
/// or in touches only a mutex-guarded `Vec` — no allocation in the steady
/// state (enforced by the counting-allocator test in
/// `crates/fabric/tests/alloc.rs`).
///
/// Retention is capped: a long-lived process that absorbs a burst of wide
/// concurrent sweeps would otherwise park one fully-grown arena per peak
/// worker forever. [`ArenaPool::checkin`] drops arenas above the
/// high-water mark ([`ArenaPool::default_retain_cap`], fixed when the
/// pool is built) instead of retaining them, so peak memory decays back
/// to the steady-state working set.
#[derive(Debug)]
pub struct ArenaPool {
    free: std::sync::Mutex<Vec<SimArena>>,
    retain_cap: usize,
}

impl Default for ArenaPool {
    fn default() -> ArenaPool {
        ArenaPool {
            free: std::sync::Mutex::new(Vec::new()),
            retain_cap: ArenaPool::default_retain_cap(),
        }
    }
}

impl ArenaPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> ArenaPool {
        ArenaPool::default()
    }

    /// The default retention high-water mark: twice the machine's
    /// available parallelism (a sweep checks in one arena per worker;
    /// headroom for one sweep draining while the next one starts), never
    /// below 4.
    #[must_use]
    pub fn default_retain_cap() -> usize {
        std::thread::available_parallelism().map_or(4, |n| (n.get() * 2).max(4))
    }

    /// The process-wide pool the evaluation harness draws from: arenas
    /// warmed by one sweep are reused by every later sweep in the same
    /// process.
    #[must_use]
    pub fn global() -> &'static ArenaPool {
        static GLOBAL: std::sync::OnceLock<ArenaPool> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(ArenaPool::new)
    }

    /// Takes a warm arena out of the pool, or builds a fresh one when the
    /// pool is dry.
    #[must_use]
    pub fn checkout(&self) -> SimArena {
        self.free.lock().map_or_else(|_| SimArena::new(), |mut v| v.pop().unwrap_or_default())
    }

    /// Returns an arena to the pool for the next checkout. Arenas above
    /// the retention high-water mark are dropped (slabs freed) instead of
    /// parked, so a burst of wide concurrency cannot pin peak memory for
    /// the life of the process.
    pub fn checkin(&self, arena: SimArena) {
        if let Ok(mut v) = self.free.lock() {
            if v.len() < self.retain_cap {
                v.push(arena);
            }
        }
    }

    /// How many warm arenas are currently parked in the pool.
    #[must_use]
    pub fn warm_len(&self) -> usize {
        self.free.lock().map_or(0, |v| v.len())
    }
}

/// Runs a loaded method on a fabric configuration.
pub fn execute(
    lm: &LoadedMethod<'_>,
    config: &FabricConfig,
    params: ExecParams<'_, '_>,
) -> ExecReport {
    let mut arena = SimArena::new();
    execute_in(lm, config, params, &mut arena)
}

/// Runs a loaded method on a fabric configuration, reusing `arena`'s
/// buffers instead of allocating fresh simulation state.
///
/// Behaves identically to [`execute`]; the arena only recycles capacity.
/// The interconnect model is selected by [`FabricConfig::net`] — the
/// default [`NetKind::Ideal`] charges closed-form delays, while
/// [`NetKind::Contended`] routes every mesh operand through X-Y routers
/// and every memory/GPP request through slotted rings, attaching a
/// [`NetReport`] to the result.
///
/// # Panics
///
/// Panics if `config` fails [`FabricConfig::validate`] (zero latencies
/// would livelock the event loop).
pub fn execute_in(
    lm: &LoadedMethod<'_>,
    config: &FabricConfig,
    params: ExecParams<'_, '_>,
    arena: &mut SimArena,
) -> ExecReport {
    // The historical `JAVAFLOW_TRACE_*` environment toggles select a
    // stderr sink; checked per run (not once per process), so tests can
    // flip them between executions. With the variables unset this is the
    // `NoopSink` instantiation: the traced seam compiles out entirely.
    match env_stderr_sink() {
        Some(mut sink) => execute_with_sink(lm, config, params, arena, &mut sink),
        None => execute_with_sink(lm, config, params, arena, &mut NoopSink),
    }
}

/// Runs a loaded method with a caller-provided [`TraceSink`] observing
/// every structured event the engine emits.
///
/// An *active* sink (`S::ACTIVE`) forces the naive per-node walk —
/// fast-forwarding elides exactly the token deliveries a trace exists to
/// show — so the recording carries every hop at its naive tick. The
/// tick-exactness contract of [`ExecParams::fast_forward`] means the
/// returned report differs from an untraced run only in the
/// `events`/`events_skipped`/`wheel_*` scheduler counters.
///
/// # Panics
///
/// Panics if `config` fails [`FabricConfig::validate`] (zero latencies
/// would livelock the event loop).
pub fn execute_with_sink<S: TraceSink>(
    lm: &LoadedMethod<'_>,
    config: &FabricConfig,
    params: ExecParams<'_, '_>,
    arena: &mut SimArena,
    sink: &mut S,
) -> ExecReport {
    config.validate().expect("invalid FabricConfig");
    // The memo gate: fast-forward's eligibility (order-free interconnect,
    // stub GPP, no active sink) plus scripted branches — only then is the
    // whole run a pure function of the memo key. Declines fall through to
    // the event loop, which emits the `WARN_COMPILE_*` trace events.
    if params.compiled
        && matches!(config.net, NetKind::Ideal)
        && matches!(params.gpp, Gpp::Stub)
        && params.mode.is_scripted()
        && !S::ACTIVE
    {
        let (mode, max, ff) = (params.mode, params.max_mesh_cycles, params.fast_forward);
        if let Some(report) = lm.compiled.lookup(config, mode, max, ff, &params.args) {
            return report;
        }
        let args = params.args.clone();
        let report = Sim::new(lm, config, params, arena, IdealNet, sink).run();
        lm.compiled.insert(config, mode, max, ff, args, report.clone());
        return report;
    }
    match config.net {
        NetKind::Ideal => Sim::new(lm, config, params, arena, IdealNet, sink).run(),
        NetKind::Contended => {
            let net = ContendedNet::new(config);
            Sim::new(lm, config, params, arena, net, sink).run()
        }
    }
}

struct Sim<'a, 'm, 'g, 'p, N: NetModel, S: TraceSink> {
    lm: &'a LoadedMethod<'m>,
    dm: &'a DecodedMethod,
    cfg: &'a FabricConfig,
    gpp: Gpp<'g, 'p>,
    args: Vec<Value>,
    lenient: bool,
    n: usize,
    arena: &'a mut SimArena,
    /// Execution ticks per [`DecodedInsn::timing_class`].
    class_ticks: [u64; 4],
    now: u64,
    max_ticks: u64,
    /// Whether the skip-index fast-forward path is active for this run
    /// (see [`ExecParams::fast_forward`] for the gating conditions).
    ff: bool,
    /// What the caller asked for — when the gate declines it, an active
    /// sink gets a [`TraceKind::Warn`] naming the reason.
    wanted_ff: bool,
    /// Whether the caller asked for the report memo — when the gate
    /// declined it (this event loop is running instead), an active sink
    /// gets a [`TraceKind::Warn`] naming the reason.
    wanted_compiled: bool,
    // stats
    events: u64,
    events_skipped: u64,
    executed: u64,
    relay_fires: u64,
    serial_msgs: u64,
    mesh_msgs: u64,
    class_fires: [u64; 4],
    busy: u32,
    last_busy_change: u64,
    acc_ge1: u64,
    acc_ge2: u64,
    outcome: Option<Outcome>,
    net: N,
    tracer: &'a mut S,
}

impl<'a, 'm, 'g, 'p, N: NetModel, S: TraceSink> Sim<'a, 'm, 'g, 'p, N, S> {
    fn new(
        lm: &'a LoadedMethod<'m>,
        cfg: &'a FabricConfig,
        params: ExecParams<'g, 'p>,
        arena: &'a mut SimArena,
        net: N,
        tracer: &'a mut S,
    ) -> Self {
        let n = lm.method.code.len();
        let dm: &'a DecodedMethod = &lm.decoded;
        arena.reset_for(dm);
        arena.oracle.reset(params.mode);
        let max_ticks = params.max_mesh_cycles.saturating_mul(cfg.mesh_cycle_ticks());
        let class_ticks = cfg.class_ticks();
        // Fast-forwarding is tick-exact but not intra-tick-order-exact:
        // skipped hops collapse an event chain into one push, so within a
        // bucket the delivery pops at a different FIFO position. That is
        // invisible exactly when every delay is a pure function of the
        // endpoints (ideal interconnect: no arrival-order link booking)
        // and firing has no shared mutable service (stub GPP: no heap the
        // same-tick call order could interleave differently on). An
        // active sink also forces the naive walk: skipped deliveries are
        // precisely what a trace must show.
        let ff =
            params.fast_forward && N::ORDER_FREE && matches!(params.gpp, Gpp::Stub) && !S::ACTIVE;
        Sim {
            lm,
            dm,
            cfg,
            gpp: params.gpp,
            args: params.args,
            lenient: params.mode.is_scripted(),
            n,
            arena,
            class_ticks,
            now: 0,
            max_ticks,
            ff,
            wanted_ff: params.fast_forward,
            wanted_compiled: params.compiled,
            events: 0,
            events_skipped: 0,
            executed: 0,
            relay_fires: 0,
            serial_msgs: 0,
            mesh_msgs: 0,
            class_fires: [0; 4],
            busy: 0,
            last_busy_change: 0,
            acc_ge1: 0,
            acc_ge2: 0,
            outcome: None,
            net,
            tracer,
        }
    }

    fn mesh_ticks(&self) -> u64 {
        self.cfg.mesh_cycle_ticks()
    }

    fn serial_hop(&self) -> u64 {
        self.cfg.serial_hop_ticks()
    }

    /// Serial transit ticks between two instructions (chain distance).
    fn serial_transit(&self, from: u32, to: u32) -> u64 {
        self.lm.placement.serial_distance(from, to) * self.serial_hop()
    }

    fn coords_of(&self, id: u32) -> (u32, u32) {
        if (id as usize) < self.n {
            self.lm.placement.coords[id as usize]
        } else {
            self.lm.graph.relays[id as usize - self.n].coords
        }
    }

    fn push_ev(
        &mut self,
        at: u64,
        kind: EvKind,
        node: u32,
        token: Option<Token>,
        side: u16,
        value: Option<Value>,
    ) {
        let order = self.now;
        self.arena.queue.push(at, Ev { kind, node, token, side, value, order, chain: false });
    }

    /// Like [`Self::push_ev`], but with an explicit bucket-order key (the
    /// tick the naive walk would have made this push at).
    #[allow(clippy::too_many_arguments)]
    fn push_ev_ordered(
        &mut self,
        at: u64,
        order: u64,
        kind: EvKind,
        node: u32,
        token: Option<Token>,
        side: u16,
        value: Option<Value>,
    ) {
        // `order == now` means the naive walk pushes this event at this
        // very moment too — a real push, not an early chain delivery.
        let chain = order != self.now;
        self.arena.queue.push(at, Ev { kind, node, token, side, value, order, chain });
    }

    fn send_serial(&mut self, from: u32, to: u32, token: Token) {
        let delay = self.serial_transit(from, to).max(self.serial_hop());
        self.serial_msgs += 1;
        if S::ACTIVE {
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::TokenSend,
                node: from,
                arg: to,
                data: encode_token(&token),
                aux: self.now + delay,
            });
        }
        self.push_ev(self.now + delay, EvKind::Serial, to, Some(token), 0, None);
    }

    /// Sends one mesh message, booking the bucket-order key `order` (the
    /// tick the naive walk pushes it at: `now`, except inside a fused
    /// relay fan-out, where it is the relay's arrival tick). Returns
    /// whether the send (or, for a fused relay, any delivery in its
    /// fan-out subtree) lands within the tick budget — the caller uses
    /// that to decide if a relay's own arrival tick still needs a ghost
    /// event to stand in for it.
    fn send_mesh(
        &mut self,
        from_coords: (u32, u32),
        sink: crate::Sink,
        value: Value,
        order: u64,
    ) -> bool {
        let to = self.coords_of(sink.consumer);
        let delay = self.net.mesh_delay(self.cfg, self.now, from_coords, to, &mut *self.tracer);
        self.mesh_msgs += 1;
        let at = self.now + delay;
        if S::ACTIVE {
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::MeshSend,
                node: sink.consumer,
                arg: u32::from(sink.side),
                data: pack_coords(from_coords),
                aux: at,
            });
        }
        if self.ff && (sink.consumer as usize) >= self.n {
            // Fused relay hop: under an order-free net every fan-out delay
            // is a pure function of the endpoints, so the sink deliveries
            // can be scheduled directly instead of round-tripping a Mesh
            // event through the wheel at the relay. Tick-exact: each sink
            // still arrives at relay_arrival + move + transit, and keeps
            // the arrival tick as its order key (the naive walk pushes
            // sink sends while processing the relay event).
            let ri = sink.consumer as usize - self.n;
            let coords = self.lm.graph.relays[ri].coords;
            self.relay_fires += 1;
            let move_ticks = self.cfg.timing.move_cycles * self.mesh_ticks();
            let saved_now = self.now;
            self.now = at + move_ticks;
            let mut any = false;
            for k in 0..self.lm.graph.relays[ri].sinks.len() {
                let s = self.lm.graph.relays[ri].sinks[k];
                any |= self.send_mesh(coords, s, value, at);
            }
            self.now = saved_now;
            if any {
                // Some delivery at a strictly later tick stays in budget;
                // it dominates the relay arrival for both the final-`now`
                // value and Timeout detection, so the relay event itself
                // is elided entirely.
                self.events_skipped += 1;
            } else {
                // Keep the relay's arrival visible to the clock / budget
                // check exactly where the naive walk would have seen it.
                self.push_ghost(at);
            }
            return any || at <= self.max_ticks;
        }
        self.push_ev_ordered(at, order, EvKind::Mesh, sink.consumer, None, sink.side, Some(value));
        at <= self.max_ticks
    }

    fn set_busy(&mut self, delta: i32) {
        let dt = self.now - self.last_busy_change;
        if self.busy >= 1 {
            self.acc_ge1 += dt;
        }
        if self.busy >= 2 {
            self.acc_ge2 += dt;
        }
        self.last_busy_change = self.now;
        self.busy = self.busy.wrapping_add_signed(delta);
    }

    fn fail(&mut self, e: JvmError) {
        if self.outcome.is_none() {
            self.outcome = Some(Outcome::Exception(e));
        }
    }

    fn run(mut self) -> ExecReport {
        // Surface a silent fast-forward / memo downgrade: the caller
        // asked for the fast kernel but the gate picked the naive walk.
        // Only the *semantic* reasons count — an active sink forcing the
        // naive walk is not one, so a recording (and the `declined`
        // report mask) is byte-identical whether tracing is on or not.
        let mut declined = 0u8;
        if self.wanted_ff {
            if !N::ORDER_FREE {
                declined |= 1 << WARN_FF_NET_ORDER;
            }
            if !matches!(self.gpp, Gpp::Stub) {
                declined |= 1 << WARN_FF_GPP;
            }
        }
        if self.wanted_compiled {
            for (cond, code) in [
                (!N::ORDER_FREE, WARN_COMPILE_NET_ORDER),
                (!matches!(self.gpp, Gpp::Stub), WARN_COMPILE_GPP),
                (!self.lenient, WARN_COMPILE_DATA_MODE),
            ] {
                if cond {
                    declined |= 1 << code;
                }
            }
        }
        if S::ACTIVE {
            for code in [
                WARN_FF_NET_ORDER,
                WARN_FF_GPP,
                WARN_COMPILE_NET_ORDER,
                WARN_COMPILE_GPP,
                WARN_COMPILE_DATA_MODE,
            ] {
                if declined & (1 << code) != 0 {
                    self.tracer.record(&TraceEvent {
                        tick: 0,
                        kind: TraceKind::Warn,
                        node: u32::MAX,
                        arg: code,
                        data: 0,
                        aux: 0,
                    });
                }
            }
        }
        self.inject_bundle();
        // Drain the wheel one bucket at a time: all events of a bucket
        // share one tick, so the budget check and `now` update hoist out
        // of the per-event dispatch. Same-tick pushes made *while* the
        // batch is processed land in the (now empty) bucket and are
        // picked up by the next `pop_tick` of the same tick, preserving
        // the FIFO total order the naive pop loop had.
        let mut batch = std::mem::take(&mut self.arena.batch);
        'sim: while self.outcome.is_none() {
            batch.clear();
            let Some(at) = self.arena.queue.pop_tick(&mut batch) else {
                self.outcome = Some(Outcome::Deadlock);
                break;
            };
            if at > self.max_ticks {
                self.outcome = Some(Outcome::Timeout);
                break;
            }
            self.now = at;
            if self.ff {
                // Restore the naive intra-tick FIFO order: fast-forwarded
                // deliveries were pushed early, so sort the bucket by the
                // tick the naive walk would have pushed each event at
                // (stable: equal keys keep push order, which is the naive
                // order for directly scheduled events). Chain deliveries
                // sort after real pushes with the same key — see `Ev::chain`.
                batch.sort_by_key(|e| (e.order, e.chain));
            }
            for &ev in &batch {
                self.events += 1;
                match ev.kind {
                    EvKind::Serial => {
                        if let Some(t) = ev.token {
                            self.on_serial(ev.node, t);
                        }
                    }
                    EvKind::Mesh => {
                        if let Some(v) = ev.value {
                            self.on_mesh(ev.node, ev.side, v);
                        }
                    }
                    EvKind::ExecDone => self.on_exec_done(ev.node),
                    EvKind::ServiceDone => self.on_service_done(ev.node),
                }
                if self.outcome.is_some() {
                    // Mirror the naive loop: the event *after* the one
                    // that settled the outcome is never processed.
                    break 'sim;
                }
            }
        }
        self.arena.batch = batch;
        let end = self.now.max(1);
        let mesh_cycles = end.div_ceil(self.mesh_ticks());
        let static_covered = self.arena.covered.iter().filter(|c| **c).count();
        let active_static = self.lm.graph.active.iter().filter(|a| **a).count().max(1);
        let net_report = self.net.take_report();
        if S::ACTIVE {
            // Close the recording with everything a replay needs that no
            // other event carries: the raw final tick, the outcome, the
            // tick/mesh-cycle ratio, whether a net report exists, and the
            // coverage denominator.
            let outcome_code = match &self.outcome {
                Some(Outcome::Returned(_)) => 0,
                Some(Outcome::Timeout) => 1,
                None | Some(Outcome::Deadlock) => 2,
                Some(Outcome::Exception(_)) => 3,
            };
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::End,
                node: u32::MAX,
                arg: outcome_code,
                data: self.mesh_ticks(),
                aux: u64::from(net_report.is_some()) | ((active_static as u64) << 1),
            });
        }
        ExecReport {
            outcome: self.outcome.clone().unwrap_or(Outcome::Deadlock),
            mesh_cycles,
            executed: self.executed,
            relay_fires: self.relay_fires,
            static_covered,
            coverage: static_covered as f64 / active_static as f64,
            ipc: self.executed as f64 / mesh_cycles as f64,
            frac_cycles_ge2: self.acc_ge2 as f64 / end as f64,
            frac_cycles_ge1: self.acc_ge1 as f64 / end as f64,
            serial_msgs: self.serial_msgs,
            mesh_msgs: self.mesh_msgs,
            events: self.events,
            events_skipped: self.events_skipped,
            class_fires: self.class_fires,
            wheel_high_water: self.arena.queue.high_water() as u64,
            wheel_pushes: self.arena.queue.pushes(),
            declined,
            net: net_report,
        }
    }

    /// Schedules the `seq`-th injected token at the Anchor.
    fn inject(&mut self, seq: u64, token: Token) {
        let hop = self.serial_hop();
        self.serial_msgs += 1;
        if S::ACTIVE {
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::TokenSend,
                node: u32::MAX,
                arg: 0,
                data: encode_token(&token),
                aux: (seq + 1) * hop,
            });
        }
        self.push_ev((seq + 1) * hop, EvKind::Serial, 0, Some(token), 0, None);
    }

    /// The Anchor injects the token bundle at instruction 0.
    fn inject_bundle(&mut self) {
        self.inject(0, Token::Head);
        self.inject(1, Token::Memory(0));
        let locals = usize::from(self.lm.method.max_locals);
        for r in 0..locals {
            let value = self.args.get(r).copied().unwrap_or(Value::Int(0));
            self.inject(2 + r as u64, Token::Register { reg: r as u16, value });
        }
        self.inject(2 + locals as u64, Token::Tail);
    }

    /// Forwards a token from node `i` to its successor in the bundle's
    /// current route (next linear instruction, or the redirect target).
    fn forward(&mut self, i: u32, token: Token) {
        if self.ff {
            self.forward_ff(i, token);
            return;
        }
        let r = self.arena.redirect[i as usize];
        let to = if r == u32::MAX { i + 1 } else { r };
        if (to as usize) < self.n {
            self.send_serial(i, to, token);
        }
        // Tokens running past the last instruction return to the Anchor.
    }

    /// Whether node `ix` terminates a fast-forward chain — the *armed*
    /// predicate of the skip index. Deliberately **token-independent**:
    /// tokens walking the route in lockstep (same node, same tick) have
    /// their relative order frozen into every downstream buffer, and that
    /// order is only reproducible if lockstep tokens always stop at the
    /// same nodes — a per-token predicate would let one token of a pair
    /// skip a node the other stops at, and their rejoined deliveries
    /// would tie with no record of the original merge order.
    ///
    /// Armed: any live (active, not completed) node — it may fire at
    /// exactly the pass tick, and the bucket decides the order of its
    /// emission relative to the passing token — and any completed node
    /// that watches a register (a completed write must still absorb
    /// stale tokens of its register; reads merely cost a real event).
    /// Skipped: folded nodes (inert for every token) and completed
    /// non-watchers, where every token type is a pure forward — the
    /// HEAD latch a skipped node misses is dead state there (`try_fire`
    /// bails on `F_FIRED`, the TAIL path short-circuits on completed,
    /// and a loop-body reset clears the flags wholesale).
    ///
    /// A `false` here must be absorbing until the next loop-body reset
    /// (`active` is static and `F_COMPLETED` set-only within a pass, and
    /// no chain is in flight across a region being reset: the reinject
    /// only runs once the TAIL — behind every other bundle token — has
    /// been buffered at the back-jump node).
    fn serial_armed(&self, ix: usize) -> bool {
        if !self.lm.graph.active[ix] {
            return false;
        }
        self.arena.flags[ix] & F_COMPLETED == 0 || self.dm.insns[ix].reg != u16::MAX
    }

    /// A ghost event: a tick the naive walk would have visited, kept so
    /// the run's final `now` (and the Timeout/Deadlock distinction) stays
    /// bit-identical when the deliveries around it were skipped. Carries
    /// no token, so dispatch ignores it.
    fn push_ghost(&mut self, at: u64) {
        self.push_ev(at, EvKind::Serial, 0, None, 0, None);
    }

    /// Fast-forwarded forwarding: scan the bundle route from `i` through
    /// the skip index, jumping directly to the next armed node. The
    /// accumulated delay is closed-form — placement slots increase
    /// strictly along the route (redirects only jump forward), so the
    /// per-hop `max(transit, hop)` delays telescope to
    /// `serial_transit(i, to).max(hop)` — and the skipped per-node
    /// statistics reduce to one `serial_msgs` increment per hop.
    fn forward_ff(&mut self, i: u32, token: Token) {
        let hop = self.serial_hop();
        let mut cur = i;
        // Timing residue of skipped deliveries, for the ghosts: the
        // largest virtual tick within the budget, and the first beyond it
        // (0 = none; tick 0 deliveries cannot exist, injection is ≥ 0 and
        // a zero value is only ever compared against `now` / pushed when
        // a later delivery proved it nonzero).
        let mut last_in_budget = 0u64;
        let mut first_over = 0u64;
        let mut hops = 0u64;
        // The virtual tick of the walk's previous node: the naive walk
        // pushes each delivery while processing the one before it, so this
        // is the delivery's bucket-order key.
        let mut prev = self.now;
        loop {
            let r = self.arena.redirect[cur as usize];
            let to = if r == u32::MAX { cur + 1 } else { r };
            if (to as usize) >= self.n {
                // The token runs off the end of the serial network and
                // returns to the Anchor. The naive walk still visited
                // every node along the way; replay what of that remains
                // observable — the last within-budget tick (final `now`
                // on a deadlocked drain) and, if the walk crossed the
                // budget, one over-budget event (Timeout, not Deadlock).
                self.events_skipped += hops;
                if last_in_budget > self.now {
                    self.events_skipped -= 1;
                    self.push_ghost(last_in_budget);
                }
                if first_over != 0 {
                    self.push_ghost(first_over);
                }
                return;
            }
            self.serial_msgs += 1;
            hops += 1;
            let at = self.now + self.serial_transit(i, to).max(hop);
            if self.serial_armed(to as usize) {
                self.events_skipped += hops - 1;
                self.push_ev_ordered(at, prev, EvKind::Serial, to, Some(token), 0, None);
                if at > self.max_ticks && last_in_budget > self.now {
                    // The delivery itself is over budget: the naive walk's
                    // last within-budget visit decides the final `now`.
                    self.events_skipped -= 1;
                    self.push_ghost(last_in_budget);
                }
                return;
            }
            if at <= self.max_ticks {
                last_in_budget = at;
            } else if first_over == 0 {
                first_over = at;
            }
            prev = at;
            cur = to;
        }
    }

    fn on_serial(&mut self, i: u32, token: Token) {
        let ix = i as usize;
        let d = self.dm.insns[ix];

        // Folded nodes are inert pass-throughs.
        if !self.lm.graph.active[ix] {
            self.forward(i, token);
            return;
        }

        // Control-flow nodes buffer every token until they fire
        // (returns and gotos too).
        let flags = self.arena.flags[ix];
        let completed = flags & F_COMPLETED != 0;

        match token {
            Token::Head => {
                self.arena.flags[ix] |= F_HEAD;
                if d.buffers_all && !completed {
                    self.arena.buffers[ix].push(Token::Head);
                } else {
                    self.forward(i, Token::Head);
                }
                self.try_fire(i);
            }
            Token::Memory(order) => {
                if d.buffers_all && !completed {
                    self.arena.buffers[ix].push(Token::Memory(order));
                } else if d.ordered_mem && flags & F_FIRED == 0 {
                    // Ordered storage holds the memory token until it fires.
                    self.arena.mem_token[ix] = order;
                    self.arena.flags[ix] |= F_MEM_SET;
                    self.try_fire(i);
                } else {
                    self.forward(i, Token::Memory(order));
                }
            }
            Token::Register { reg, value } => {
                if S::ACTIVE {
                    let (tag, bits) = encode_value(&value);
                    let status =
                        (u32::from(flags & F_FIRED != 0) << 16) | (u32::from(completed) << 17);
                    self.tracer.record(&TraceEvent {
                        tick: self.now,
                        kind: TraceKind::RegObserve,
                        node: i,
                        arg: u32::from(reg) | status,
                        data: bits,
                        aux: tag,
                    });
                }
                let interested = d.reg != u16::MAX && d.reg == reg;
                if d.buffers_all && !completed {
                    self.arena.buffers[ix].push(Token::Register { reg, value });
                } else if interested && d.group == InstructionGroup::LocalWrite {
                    // The write kills the register: absorb the stale token
                    // unconditionally. The write may already have fired and
                    // emitted the fresh token — "this can result in the
                    // re-ordering of the REGISTER_TOKEN messages"
                    // (Section 6.3) — but the killed value must never pass.
                    self.try_fire(i);
                } else if interested && flags & F_FIRED == 0 {
                    match d.group {
                        InstructionGroup::LocalRead | InstructionGroup::LocalInc => {
                            self.arena.reg_captured[ix] = value;
                            self.arena.flags[ix] |= F_REG_SET;
                            self.try_fire(i);
                        }
                        _ => self.forward(i, Token::Register { reg, value }),
                    }
                } else {
                    self.forward(i, Token::Register { reg, value });
                }
            }
            Token::Tail => {
                if d.buffers_all && !completed {
                    self.arena.flags[ix] |= F_TAIL_BUF;
                    self.arena.buffers[ix].push(Token::Tail);
                    self.try_fire(i);
                    self.maybe_reinject(i);
                } else if completed || flags & F_HEAD == 0 {
                    // Pass: the node has finished (or was bypassed and the
                    // tail is explicitly routed past it — cannot happen on
                    // the ordered network; completed is the normal case).
                    self.forward(i, Token::Tail);
                } else {
                    self.arena.flags[ix] |= F_TAIL_BUF;
                    self.try_fire(i);
                }
            }
        }
    }

    fn on_mesh(&mut self, id: u32, side: u16, value: Value) {
        if (id as usize) >= self.n {
            // Relay: one move-latency hop, then fan out.
            let ri = id as usize - self.n;
            let coords = self.lm.graph.relays[ri].coords;
            self.relay_fires += 1;
            if S::ACTIVE {
                self.tracer.record(&TraceEvent {
                    tick: self.now,
                    kind: TraceKind::RelayFire,
                    node: id,
                    arg: ri as u32,
                    data: pack_coords(coords),
                    aux: self.lm.graph.relays[ri].sinks.len() as u64,
                });
            }
            let move_ticks = self.cfg.timing.move_cycles * self.mesh_ticks();
            let saved_now = self.now;
            self.now += move_ticks;
            for k in 0..self.lm.graph.relays[ri].sinks.len() {
                let s = self.lm.graph.relays[ri].sinks[k];
                self.send_mesh(coords, s, value, saved_now);
            }
            self.now = saved_now;
            return;
        }
        let ix = id as usize;
        let d = self.dm.insns[ix];
        let k = usize::from(side).saturating_sub(1);
        if k < usize::from(d.pops) {
            let off = d.operand_off as usize + k;
            if !self.arena.operand_set[off] {
                self.arena.operand_set[off] = true;
                self.arena.missing[ix] -= 1;
            }
            self.arena.operand_vals[off] = value;
        }
        self.try_fire(id);
    }

    /// Fire-condition check and firing (Section 6.3 per-group rules).
    #[allow(clippy::too_many_lines)]
    fn try_fire(&mut self, i: u32) {
        let ix = i as usize;
        let d = self.dm.insns[ix];
        let flags = self.arena.flags[ix];
        if flags & F_FIRED != 0 || flags & F_HEAD == 0 || self.outcome.is_some() {
            return;
        }
        if self.arena.missing[ix] != 0 {
            return;
        }
        match d.group {
            InstructionGroup::LocalRead | InstructionGroup::LocalInc if flags & F_REG_SET == 0 => {
                return;
            }
            InstructionGroup::MemRead | InstructionGroup::MemWrite if flags & F_MEM_SET == 0 => {
                return;
            }
            InstructionGroup::Return if flags & F_TAIL_BUF == 0 => {
                return;
            }
            // Unconditional backward goto needs the tail.
            InstructionGroup::ControlFlow if d.is_goto && d.is_back && flags & F_TAIL_BUF == 0 => {
                return;
            }
            _ => {}
        }

        // All conditions met: fire.
        self.arena.flags[ix] |= F_FIRED;
        self.arena.covered[ix] = true;
        self.executed += 1;
        self.class_fires[usize::from(d.timing_class)] += 1;
        self.set_busy(1);

        let exec_ticks = self.class_ticks[usize::from(d.timing_class)];
        if S::ACTIVE {
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::Fire,
                node: i,
                arg: u32::from(d.timing_class),
                data: exec_ticks,
                aux: pack_coords(self.lm.placement.coords[ix]),
            });
        }
        let off = d.operand_off as usize;
        let cnt = usize::from(d.pops);
        let out_off = d.output_off as usize;

        match d.group {
            InstructionGroup::ControlFlow => {
                let taken = if d.is_goto {
                    true
                } else {
                    let cond = eval_condition(
                        d.op,
                        &self.arena.operand_vals[off..off + cnt],
                        self.lenient,
                    );
                    let data = match cond {
                        Ok(b) => b,
                        Err(e) => {
                            self.fail(e.at(javaflow_bytecode::MethodId(0), i, d.op));
                            false
                        }
                    };
                    self.arena.oracle.decide(i, d.is_back, data)
                };
                if taken {
                    self.arena.flags[ix] |= F_DECISION;
                }
            }
            InstructionGroup::Return => {}
            InstructionGroup::LocalRead => {
                self.arena.output_vals[out_off] = self.arena.reg_captured[ix];
                self.arena.output_len[ix] = 1;
            }
            InstructionGroup::LocalInc => {
                let v = self.arena.reg_captured[ix];
                let new = match v {
                    Value::Int(x) => Value::Int(x.wrapping_add(d.inc_delta)),
                    other if self.lenient => other,
                    _ => {
                        self.fail(JvmError::bare(JvmErrorKind::TypeError).at(
                            javaflow_bytecode::MethodId(0),
                            i,
                            d.op,
                        ));
                        return;
                    }
                };
                self.arena.output_vals[out_off] = new;
                self.arena.output_len[ix] = 1;
            }
            InstructionGroup::LocalWrite => {
                // Park the operands: the register token re-emission reads
                // them back at completion.
                for k in 0..cnt {
                    self.arena.output_vals[out_off + k] = self.arena.operand_vals[off + k];
                }
                self.arena.output_len[ix] = d.pops;
            }
            InstructionGroup::MemRead | InstructionGroup::MemWrite => {
                let order = self.arena.mem_token[ix];
                self.arena.flags[ix] &= !F_MEM_SET;
                self.arena.mem_forward[ix] = order + 1;
                self.arena.flags[ix] |= F_FWD_SET;
                match self.memory_op(&d, i, off, cnt) {
                    Ok(Some(v)) => {
                        self.arena.output_vals[out_off] = v;
                        self.arena.output_len[ix] = 1;
                    }
                    Ok(None) => self.arena.output_len[ix] = 0,
                    Err(e) => {
                        self.fail(e.at(javaflow_bytecode::MethodId(0), i, d.op));
                        return;
                    }
                }
            }
            InstructionGroup::Call | InstructionGroup::Special => {
                match self.gpp_service(&d, i, off, cnt) {
                    Ok(Some(v)) => {
                        self.arena.output_vals[out_off] = v;
                        self.arena.output_len[ix] = 1;
                    }
                    Ok(None) => self.arena.output_len[ix] = 0,
                    Err(e) => {
                        self.fail(e.at(javaflow_bytecode::MethodId(0), i, d.op));
                        return;
                    }
                }
            }
            InstructionGroup::MemConst => {
                self.arena.output_vals[out_off] = d.const_val;
                self.arena.output_len[ix] = 1;
            }
            _ => {
                // Pure arithmetic / logic / move / conversion.
                let lm = self.lm;
                let mut out = OutVals::new();
                let r = eval_into(
                    &lm.method.code[ix],
                    &self.arena.operand_vals[off..off + cnt],
                    self.lenient,
                    &mut out,
                );
                match r {
                    Ok(()) => {
                        let vs = out.as_slice();
                        self.arena.output_vals[out_off..out_off + vs.len()].copy_from_slice(vs);
                        self.arena.output_len[ix] = vs.len() as u16;
                    }
                    Err(e) => {
                        self.fail(e.at(javaflow_bytecode::MethodId(0), i, d.op));
                        return;
                    }
                }
            }
        }
        self.push_ev(self.now + exec_ticks, EvKind::ExecDone, i, None, 0, None);
    }

    /// Completion of the execution stage.
    #[allow(clippy::too_many_lines)]
    fn on_exec_done(&mut self, i: u32) {
        self.set_busy(-1);
        if S::ACTIVE {
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::Retire,
                node: i,
                arg: 0,
                data: 0,
                aux: 0,
            });
        }
        let ix = i as usize;
        let d = self.dm.insns[ix];

        match d.group {
            InstructionGroup::ControlFlow => {
                let taken = self.arena.flags[ix] & F_DECISION != 0;
                let target = if d.branch_target == u32::MAX { i + 1 } else { d.branch_target };
                if !taken {
                    // Release the bundle to the next instruction.
                    self.release_buffer(i, i + 1);
                    self.arena.flags[ix] |= F_COMPLETED;
                } else if target > i {
                    // Forward jump: explicit routing to the target.
                    self.arena.redirect[ix] = target;
                    self.release_buffer(i, target);
                    self.arena.flags[ix] |= F_COMPLETED;
                } else {
                    // Backward jump: hold everything until TAIL, then
                    // re-inject the bundle at the loop head.
                    self.arena.pending_back[ix] = target;
                    self.maybe_reinject(i);
                }
                return;
            }
            InstructionGroup::Return => {
                let value = if self.lm.method.returns && d.pops > 0 {
                    Some(self.arena.operand_vals[d.operand_off as usize])
                } else {
                    None
                };
                if d.op == Opcode::AThrow && !self.lenient {
                    self.fail(JvmError::bare(JvmErrorKind::Thrown).at(
                        javaflow_bytecode::MethodId(0),
                        i,
                        d.op,
                    ));
                } else {
                    self.outcome = Some(Outcome::Returned(value));
                }
                return;
            }
            InstructionGroup::MemRead => {
                // Request sent; results arrive after the ring transit (if
                // contended) and the memory service.
                if self.arena.flags[ix] & F_FWD_SET != 0 {
                    self.arena.flags[ix] &= !F_FWD_SET;
                    let order = self.arena.mem_forward[ix];
                    self.forward(i, Token::Memory(order));
                }
                let service = self.net.memory_delay(self.cfg, self.now, &mut *self.tracer);
                self.push_ev(self.now + service, EvKind::ServiceDone, i, None, 0, None);
                return;
            }
            InstructionGroup::Call | InstructionGroup::Special => {
                let service = self.net.gpp_delay(self.cfg, self.now, &mut *self.tracer);
                self.push_ev(self.now + service, EvKind::ServiceDone, i, None, 0, None);
                return;
            }
            InstructionGroup::MemWrite => {
                if self.arena.flags[ix] & F_FWD_SET != 0 {
                    self.arena.flags[ix] &= !F_FWD_SET;
                    let order = self.arena.mem_forward[ix];
                    self.forward(i, Token::Memory(order));
                }
                // Writes proceed without waiting for the service, but still
                // occupy memory-ring bandwidth under the contended model.
                self.net.memory_write(self.cfg, self.now, &mut *self.tracer);
            }
            InstructionGroup::LocalWrite => {
                // Emit the updated register token.
                let reg = if d.reg == u16::MAX { 0 } else { d.reg };
                let value = if self.arena.output_len[ix] > 0 {
                    self.arena.output_vals[d.output_off as usize]
                } else {
                    Value::Int(0)
                };
                self.forward(i, Token::Register { reg, value });
                self.finish_node(i);
                return;
            }
            InstructionGroup::LocalRead => {
                // Re-send the register token, then results to the mesh.
                let reg = if d.reg == u16::MAX { 0 } else { d.reg };
                let value = if self.arena.flags[ix] & F_REG_SET != 0 {
                    self.arena.reg_captured[ix]
                } else {
                    Value::Int(0)
                };
                self.forward(i, Token::Register { reg, value });
            }
            InstructionGroup::LocalInc => {
                let reg = if d.reg == u16::MAX { 0 } else { d.reg };
                let value = if self.arena.output_len[ix] > 0 {
                    self.arena.output_vals[d.output_off as usize]
                } else {
                    Value::Int(0)
                };
                self.forward(i, Token::Register { reg, value });
                self.finish_node(i);
                return;
            }
            _ => {}
        }
        self.dispatch_outputs(i);
        self.finish_node(i);
    }

    /// Completion of a memory/GPP service: outputs go to the mesh.
    fn on_service_done(&mut self, i: u32) {
        if S::ACTIVE {
            self.tracer.record(&TraceEvent {
                tick: self.now,
                kind: TraceKind::ServiceDone,
                node: i,
                arg: 0,
                data: 0,
                aux: 0,
            });
        }
        self.dispatch_outputs(i);
        self.finish_node(i);
    }

    /// Sends the node's computed outputs to its resolved consumers.
    fn dispatch_outputs(&mut self, i: u32) {
        let ix = i as usize;
        let d = self.dm.insns[ix];
        let len = usize::from(self.arena.output_len[ix]);
        let out_off = d.output_off as usize;
        self.arena.output_len[ix] = 0;
        let coords = self.lm.placement.coords[ix];
        let lm = self.lm;
        // Indexed walk: `Sink` is `Copy`, so this avoids cloning the sink
        // list on every fire.
        for k in 0..lm.graph.consumers[ix].len() {
            let s = lm.graph.consumers[ix][k];
            let o = usize::from(s.out);
            let v = if o < len { self.arena.output_vals[out_off + o] } else { Value::Int(0) };
            self.send_mesh(coords, s, v, self.now);
        }
    }

    /// Marks a node complete and forwards a buffered TAIL.
    fn finish_node(&mut self, i: u32) {
        let ix = i as usize;
        self.arena.flags[ix] |= F_COMPLETED;
        if self.arena.flags[ix] & F_TAIL_BUF != 0 {
            self.arena.flags[ix] &= !F_TAIL_BUF;
            self.forward(i, Token::Tail);
        }
    }

    /// Releases a control-flow node's buffered tokens toward `to`.
    fn release_buffer(&mut self, i: u32, to: u32) {
        let ix = i as usize;
        self.arena.flags[ix] &= !F_TAIL_BUF;
        if (to as usize) >= self.n {
            self.arena.buffers[ix].clear();
            return;
        }
        let base = self.serial_transit(i, to).max(self.serial_hop());
        let hop = self.serial_hop();
        for k in 0..self.arena.buffers[ix].len() {
            let t = self.arena.buffers[ix][k];
            self.serial_msgs += 1;
            if S::ACTIVE {
                self.tracer.record(&TraceEvent {
                    tick: self.now,
                    kind: TraceKind::TokenSend,
                    node: i,
                    arg: to,
                    data: encode_token(&t),
                    aux: self.now + base + k as u64 * hop,
                });
            }
            self.push_ev(self.now + base + k as u64 * hop, EvKind::Serial, to, Some(t), 0, None);
        }
        self.arena.buffers[ix].clear();
    }

    /// If a decided backward jump has executed and holds the TAIL,
    /// re-inject the bundle at the loop head and reset the loop body.
    fn maybe_reinject(&mut self, i: u32) {
        let ix = i as usize;
        let target = self.arena.pending_back[ix];
        if target == u32::MAX {
            return;
        }
        if self.arena.flags[ix] & F_TAIL_BUF == 0 {
            return;
        }
        // Stage the bundle first: resetting the loop body clears node
        // `i`'s own buffer.
        {
            let arena = &mut *self.arena;
            arena.scratch.clear();
            let (scratch, buffers) = (&mut arena.scratch, &arena.buffers);
            scratch.extend_from_slice(&buffers[ix]);
        }
        // Reset the loop body [target ..= i] — "each instruction from the
        // same thread/class/method must also reset to the stateReady".
        for a in target..=i {
            let d = self.dm.insns[a as usize];
            self.arena.reset_node(a as usize, &d);
        }
        // Reverse-network transit to the loop head.
        let base = self.serial_transit(i, target).max(self.serial_hop());
        let hop = self.serial_hop();
        for k in 0..self.arena.scratch.len() {
            let t = self.arena.scratch[k];
            self.serial_msgs += 1;
            if S::ACTIVE {
                self.tracer.record(&TraceEvent {
                    tick: self.now,
                    kind: TraceKind::TokenSend,
                    node: i,
                    arg: target,
                    data: encode_token(&t),
                    aux: self.now + base + k as u64 * hop,
                });
            }
            self.push_ev(
                self.now + base + k as u64 * hop,
                EvKind::Serial,
                target,
                Some(t),
                0,
                None,
            );
        }
        self.arena.scratch.clear();
    }

    /// Ordered memory operations against the shared JVM state (or dummy
    /// values for scripted runs). Memory operations push at most one
    /// value.
    fn memory_op(
        &mut self,
        d: &DecodedInsn,
        i: u32,
        off: usize,
        cnt: usize,
    ) -> Result<Option<Value>, JvmError> {
        let lm = self.lm;
        let operands: &[Value] = &self.arena.operand_vals[off..off + cnt];
        let Gpp::Interp(gpp) = &mut self.gpp else {
            // Scripted: reads produce a dummy; writes produce nothing.
            return Ok(if d.pushes > 0 { Some(Value::Int(0)) } else { None });
        };
        let insn = &lm.method.code[i as usize];
        use Opcode as O;
        let get_ref = |v: &Value| -> Result<Option<u32>, JvmError> {
            v.as_ref_handle().ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))
        };
        let get_int = |v: &Value| -> Result<i32, JvmError> {
            v.as_int().ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))
        };
        match insn.op {
            O::IALoad
            | O::LALoad
            | O::FALoad
            | O::DALoad
            | O::AALoad
            | O::BALoad
            | O::CALoad
            | O::SALoad => {
                let arr = get_ref(&operands[0])?;
                let idx = get_int(&operands[1])?;
                Ok(Some(gpp.state.heap.array_get(arr, idx)?))
            }
            O::IAStore
            | O::LAStore
            | O::FAStore
            | O::DAStore
            | O::AAStore
            | O::BAStore
            | O::CAStore
            | O::SAStore => {
                if S::ACTIVE {
                    let stored = operands.get(2).copied().unwrap_or(Value::Int(0));
                    let (tag, bits) = encode_value(&stored);
                    self.tracer.record(&TraceEvent {
                        tick: self.now,
                        kind: TraceKind::MemObserve,
                        node: i,
                        arg: cnt as u32,
                        data: bits,
                        aux: tag,
                    });
                }
                let arr = get_ref(&operands[0])?;
                let idx = get_int(&operands[1])?;
                let v = match insn.op {
                    O::BAStore => Value::Int(get_int(&operands[2])? as i8 as i32),
                    O::CAStore => Value::Int(get_int(&operands[2])? as u16 as i32),
                    O::SAStore => Value::Int(get_int(&operands[2])? as i16 as i32),
                    _ => operands[2],
                };
                gpp.state.heap.array_set(arr, idx, v)?;
                Ok(None)
            }
            O::GetField => match insn.operand {
                Operand::Field(f) => {
                    let obj = get_ref(&operands[0])?;
                    Ok(Some(gpp.state.heap.get_field(obj, f.slot)?))
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::PutField => match insn.operand {
                Operand::Field(f) => {
                    let obj = get_ref(&operands[0])?;
                    gpp.state.heap.put_field(obj, f.slot, operands[1])?;
                    Ok(None)
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::GetStatic => match insn.operand {
                Operand::Field(f) => Ok(Some(gpp.state.get_static(f.class, f.slot)?)),
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::PutStatic => match insn.operand {
                Operand::Field(f) => {
                    gpp.state.put_static(f.class, f.slot, operands[0])?;
                    Ok(None)
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
        }
    }

    /// Call and `Special` service on the GPP. Pushes at most one value.
    fn gpp_service(
        &mut self,
        d: &DecodedInsn,
        i: u32,
        off: usize,
        cnt: usize,
    ) -> Result<Option<Value>, JvmError> {
        let lm = self.lm;
        let operands: &[Value] = &self.arena.operand_vals[off..off + cnt];
        let Gpp::Interp(gpp) = &mut self.gpp else {
            return Ok(if d.pushes > 0 { Some(Value::Int(0)) } else { None });
        };
        let insn = &lm.method.code[i as usize];
        use Opcode as O;
        match insn.op {
            O::InvokeVirtual
            | O::InvokeSpecial
            | O::InvokeStatic
            | O::InvokeInterface
            | O::InvokeDynamic => match insn.operand {
                Operand::Call(c) => Ok(gpp.run(c.method, operands)?),
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::New => match insn.operand {
                Operand::ClassId(cid) => {
                    let fields = gpp.program().class(cid).instance_fields;
                    let h = gpp.state.heap.alloc_object(cid, fields);
                    Ok(Some(Value::Ref(Some(h))))
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::NewArray => match insn.operand {
                Operand::ArrayType(k) => {
                    let len = operands[0]
                        .as_int()
                        .ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))?;
                    let h = gpp.state.heap.alloc_array(k, len)?;
                    Ok(Some(Value::Ref(Some(h))))
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::ANewArray => match insn.operand {
                Operand::ClassId(cid) => {
                    let len = operands[0]
                        .as_int()
                        .ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))?;
                    let h = gpp.state.heap.alloc_ref_array(cid, len)?;
                    Ok(Some(Value::Ref(Some(h))))
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::ArrayLength => {
                let arr = operands[0]
                    .as_ref_handle()
                    .ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))?;
                Ok(Some(Value::Int(gpp.state.heap.array_len(arr)?)))
            }
            O::InstanceOf => match insn.operand {
                Operand::ClassId(cid) => {
                    let h = operands[0]
                        .as_ref_handle()
                        .ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))?;
                    let yes = match h {
                        None => false,
                        Some(hh) => gpp.state.heap.object_class(Some(hh))? == cid,
                    };
                    Ok(Some(Value::Int(i32::from(yes))))
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::CheckCast => match insn.operand {
                Operand::ClassId(cid) => {
                    let h = operands[0]
                        .as_ref_handle()
                        .ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))?;
                    if let Some(hh) = h {
                        if gpp.state.heap.object_class(Some(hh))? != cid {
                            return Err(JvmError::bare(JvmErrorKind::ClassCast));
                        }
                    }
                    Ok(Some(Value::Ref(h)))
                }
                _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
            },
            O::MonitorEnter | O::MonitorExit => {
                let h = operands[0]
                    .as_ref_handle()
                    .ok_or_else(|| JvmError::bare(JvmErrorKind::TypeError))?;
                if h.is_none() {
                    return Err(JvmError::bare(JvmErrorKind::NullPointer));
                }
                Ok(None)
            }
            O::Nop => Ok(None),
            _ => Err(JvmError::bare(JvmErrorKind::Unsupported)),
        }
    }
}

/// Register index encoded in the compact `*load_N`/`*store_N` forms.
fn compact_register(op: Opcode) -> Option<u16> {
    use Opcode as O;
    Some(match op {
        O::ILoad0
        | O::LLoad0
        | O::FLoad0
        | O::DLoad0
        | O::ALoad0
        | O::IStore0
        | O::LStore0
        | O::FStore0
        | O::DStore0
        | O::AStore0 => 0,
        O::ILoad1
        | O::LLoad1
        | O::FLoad1
        | O::DLoad1
        | O::ALoad1
        | O::IStore1
        | O::LStore1
        | O::FStore1
        | O::DStore1
        | O::AStore1 => 1,
        O::ILoad2
        | O::LLoad2
        | O::FLoad2
        | O::DLoad2
        | O::ALoad2
        | O::IStore2
        | O::LStore2
        | O::FStore2
        | O::DStore2
        | O::AStore2 => 2,
        O::ILoad3
        | O::LLoad3
        | O::FLoad3
        | O::DLoad3
        | O::ALoad3
        | O::IStore3
        | O::LStore3
        | O::FStore3
        | O::DStore3
        | O::AStore3 => 3,
        _ => return None,
    })
}

/// Register operand of a local read/write/inc instruction.
fn register_of(insn: &javaflow_bytecode::Insn) -> Option<u16> {
    match insn.operand {
        Operand::Local(r) => Some(r),
        Operand::Inc { local, .. } => Some(local),
        _ => compact_register(insn.op),
    }
}
