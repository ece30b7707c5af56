//! The Theorem 5 decision procedure, determinised — as one interned,
//! optionally parallel breadth-first search loop.
//!
//! The paper's algorithm nondeterministically guesses a sequence of small
//! configurations connected by sub-transitions; correctness is Appendix C's
//! completeness/soundness argument. We determinise by breadth-first search
//! over canonical configurations:
//!
//! * **states** of the search are pairs `(control state, canonical small
//!   configuration)`;
//! * **edges** are the class's sub-transition successors under each rule's
//!   guard;
//! * acceptance is reached exactly when the system has an accepting run
//!   driven by some member of the class.
//!
//! ## Engine architecture
//!
//! There is one search loop ([`Engine::run_multi`]): a level-synchronous
//! BFS driven by *target masks*, one bit per requested target set. It
//! records the first node of every target set in BFS order and stops once
//! every target is decided, the frontier is exhausted, or the budget runs
//! out. [`Engine::run`] is its one-target projection: the target set is the
//! compiled system's accepting states, and `Reached` / `Unreachable` /
//! `Undecided` become [`Outcome::NonEmpty`] / [`Outcome::Empty`] /
//! [`Outcome::ResourceLimit`]. Three decisions make the loop fast without
//! changing a single explored edge (see `tests/determinism.rs` in the
//! workspace root for the proof by testing):
//!
//! * **Hash-consing** ([`crate::intern::Interner`]): every canonical
//!   configuration is stored exactly once and addressed by a dense
//!   [`crate::intern::ConfigId`]. The visited set becomes one bitmap per
//!   control state, and each configuration is hashed once, when it is
//!   first resolved ([`crate::intern::Interner::hash_value`]) — no clones,
//!   no re-hashing.
//! * **Transition memoization**: successor sets depend only on the
//!   configuration and the rule's guard, so they are cached as id slices
//!   keyed by `(configuration id, guard class)`, where rules with
//!   syntactically equal guards share a guard class. Systems that reuse a
//!   guard across control states (ubiquitous in the E1–E10 experiments) pay
//!   for each expansion once.
//! * **An optional work-stealing pool** (`threads >= 2`): one set of
//!   workers persists for the whole search (the crate-internal `pool`
//!   module). Before a layer's merge, its uncached successor computations
//!   may be published to them as an *epoch* whose task list is claimed in
//!   chunks through per-worker steal-on-empty queues. Task collection stops
//!   at the node whose hits would decide every still-undecided target,
//!   because the merge never expands past it. The merge itself is the same
//!   code with or without a pool: it replays the layer in arena order, so
//!   outcomes, traces, statistics (up to wall-clock timings and scheduling
//!   counters) and certificates are bit-identical at every worker count —
//!   workers only *precompute* pure data into per-task slots, and which
//!   worker computed a slot never matters. At `threads = 1` there is no
//!   pool and the loop pays for none of it: no task list, no epoch.
//!
//! The pool moves the expensive per-successor work off the coordinator
//! while keeping that bit-identity:
//!
//! * **Worker-side resolution**: inside their tasks, workers call the
//!   class's [`SymbolicClass::successors`] against the layer-start
//!   [`Interner`], which moves into the epoch wholesale — no clone, and no
//!   lock on its table. It is the same call the inline path makes against
//!   the live interner: each successor comes back as a [`Resolved`] entry,
//!   a known id or a fresh configuration with its precomputed hash, and
//!   the relational classes build a configuration only for a key the
//!   interner lacks. The interner also carries one successor memo per
//!   configuration (residual guard → successor ids, [`Interner::memo`]),
//!   each behind its own mutex, so workers expanding one configuration
//!   under guards that differ only in what it decides share one list; an
//!   entry is a pure function of the configuration and the residual, so
//!   which worker fills it first cannot change a list. The coordinator's merge interns the fresh entries in
//!   list order and probes the visited bitmaps with the resulting ids,
//!   exactly as it does inline. Because the merge replays tasks in arena
//!   order and ids are assigned at insertion, the id sequence — and
//!   everything downstream of it — is exactly the sequential one.
//! * **Adaptive layer scheduling** ([`ParallelMode`], the default): the
//!   per-layer `EpochGate` publish/wake/merge round-trip costs tens of
//!   microseconds, which the macro suite showed *losing* to sequential on
//!   narrow layers. The scheduler keeps an exponential moving average of
//!   observed per-task expansion cost and runs a layer inline on the
//!   coordinator when its estimated work would not pay for the round-trip
//!   (or when the OS reports a single hardware thread). The chunk size of
//!   published layers scales with layer width (`TaskQueues::auto_chunk`).
//!
//! On a non-empty answer the engine extracts the trace and asks the class to
//! *concretize* it into an actual database and run, then re-validates the
//! pair against the independent explicit model checker — a machine-checked
//! soundness certificate for every positive answer. Certification runs after
//! the search, once per distinct hit node; targets that share the node share
//! its witness.
//!
//! Existential guards are accepted and compiled away up front (Fact 2).

use crate::class::{SymbolicClass, Trace, TraceStep};
use crate::intern::{ConfigId, Interner, Resolved};
use crate::pool::{EpochGate, ShutdownOnDrop, TaskQueues};
use dds_structure::Structure;
use dds_system::{eliminate_existentials, Run, StateId, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Estimated layer work (tasks × EMA per-task nanoseconds) below which the
/// adaptive scheduler keeps a layer on the coordinator: the epoch
/// publish/wake/merge round-trip costs on the order of 10–50 µs, so a layer
/// has to carry several times that in expansion work before fan-out wins.
const PAR_LAYER_MIN_NS: f64 = 150_000.0;

/// With no cost sample yet, the adaptive scheduler publishes a layer only
/// when it is at least this wide (narrow early layers are where the
/// round-trip loss concentrates; one inline layer then seeds the EMA).
const PAR_COLD_MIN_TASKS: usize = 32;

/// How the parallel engine (`threads >= 2`) decides whether a BFS layer is
/// published to the worker pool or expanded inline on the coordinator.
///
/// Every mode produces bit-identical outcomes — the choice only moves work
/// between the epoch path and the coordinator, never changes what the merge
/// does. [`EngineStats::layers_inline`] / [`EngineStats::layers_parallel`]
/// report the split.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ParallelMode {
    /// Publish a layer only when its estimated work (per-task cost EMA ×
    /// task count) exceeds the epoch round-trip cost, and never on a
    /// single-hardware-thread machine. The default.
    #[default]
    Adaptive,
    /// Publish every layer with more than one task (the pre-adaptive
    /// behavior; used by the determinism matrix to force the epoch path).
    Eager,
}

/// Tunables for the search.
///
/// Construct with the builder API —
/// `EngineOptions::default().threads(4).max_configs(50_000)` — which is
/// the one path both the `dds` CLI flags and the `dds serve` daemon
/// configuration lower through. The fields are private (struct-literal
/// construction was removed with the builder migration); read them back
/// through the `get_*` accessors.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Hard cap on explored configurations; hitting it yields
    /// [`Outcome::ResourceLimit`] instead of an unsound "empty".
    max_configs: usize,
    /// Whether to concretize (and certify) witnesses for non-empty answers.
    concretize: bool,
    /// Worker threads for frontier expansion. `1` (the default) runs the
    /// exact sequential exploration order; `0` asks the OS via
    /// [`std::thread::available_parallelism`]; `n >= 2` keeps `n - 1`
    /// persistent workers plus the coordinator on a work-stealing pool with
    /// a deterministic merge, producing bit-identical outcomes to
    /// `threads = 1`.
    threads: usize,
    /// Steal granularity: tasks claimed per grab from a worker's queue (own
    /// or a victim's) in the parallel path. `0` (the default) targets a few
    /// chunks per worker per layer; small values trade claim traffic for
    /// finer load balance on skewed layers.
    chunk_size: usize,
    /// Layer scheduling policy for the parallel path.
    parallel_mode: ParallelMode,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            max_configs: 1_000_000,
            concretize: true,
            threads: 1,
            chunk_size: 0,
            parallel_mode: ParallelMode::Adaptive,
        }
    }
}

/// Builder-style setters (each consumes and returns `self`) and `get_*`
/// read accessors. The setters own the plain names (`opts.threads(4)`), so
/// the readers carry the prefix.
impl EngineOptions {
    /// Reads the exploration budget.
    pub fn get_max_configs(&self) -> usize {
        self.max_configs
    }

    /// Reads whether witnesses are concretized and certified.
    pub fn get_concretize(&self) -> bool {
        self.concretize
    }

    /// Reads the configured worker-thread count (`0` = ask the OS).
    pub fn get_threads(&self) -> usize {
        self.threads
    }

    /// Reads the steal granularity (`0` = automatic).
    pub fn get_chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Reads the parallel layer-scheduling mode.
    pub fn get_parallel_mode(&self) -> ParallelMode {
        self.parallel_mode
    }

    /// The worker-thread count the engine will actually use: `threads` as
    /// configured, with `0` resolved through
    /// [`std::thread::available_parallelism`] (falling back to `1` when the
    /// OS cannot say). This is what `dds serve` reports in `/stats`.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Sets the exploration budget ([`EngineOptions::max_configs`]).
    pub fn max_configs(mut self, n: usize) -> Self {
        self.max_configs = n;
        self
    }

    /// Enables or disables witness concretization/certification
    /// ([`EngineOptions::concretize`]).
    pub fn concretize(mut self, yes: bool) -> Self {
        self.concretize = yes;
        self
    }

    /// Sets the worker-thread count ([`EngineOptions::threads`]).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets the parallel frontier chunk size ([`EngineOptions::chunk_size`]).
    pub fn chunk_size(mut self, n: usize) -> Self {
        self.chunk_size = n;
        self
    }

    /// Sets the parallel layer-scheduling mode
    /// ([`EngineOptions::parallel_mode`]).
    pub fn parallel_mode(mut self, mode: ParallelMode) -> Self {
        self.parallel_mode = mode;
        self
    }
}

/// Per-layer frontier-width histogram: bucket `b` counts BFS layers whose
/// width (nodes in the layer) lies in `[2^b, 2^(b+1))`, with the top bucket
/// open-ended. Deterministic — the width of every layer is a search
/// invariant, recorded at the same point of the loop at every worker
/// count — so it participates in [`EngineStats`] equality and the macro
/// suite can publish it per scenario.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerWidths(pub [u64; 16]);

impl LayerWidths {
    /// Records one layer of `width` nodes (`width >= 1`; a zero width is
    /// clamped defensively).
    pub fn record(&mut self, width: usize) {
        let bucket = (usize::BITS - 1 - width.max(1).leading_zeros()).min(15) as usize;
        self.0[bucket] += 1;
    }

    /// Element-wise accumulation (used by [`EngineStats::merge`]).
    pub fn merge(&mut self, other: &LayerWidths) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// Total layers recorded.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// Search statistics, reported with every outcome (experiment E4 plots
/// these against the paper's `log n · poly(blowup(2k))` bound).
///
/// All fields except the `*_ns` wall-clock timings, the scheduling
/// counters ([`EngineStats::tasks_stolen`], [`EngineStats::layers_inline`],
/// [`EngineStats::layers_parallel`]) and the retired
/// [`EngineStats::scratch_allocs`] and [`EngineStats::canon_ns`] (always
/// zero) are **deterministic**: they depend only on the class, the system
/// and `max_configs`, never on `threads`, `chunk_size` or the
/// [`ParallelMode`]. Equality (`==`) compares exactly the deterministic
/// fields — including the per-layer width histogram
/// [`EngineStats::layer_widths`] — so outcome comparisons across worker
/// counts are meaningful.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Distinct initial `(state, config)` pairs.
    pub initial_configs: usize,
    /// Distinct `(state, config)` pairs explored.
    pub configs_explored: usize,
    /// Sub-transition expansions requested (rule × configuration pairs).
    pub transitions_computed: usize,
    /// Expansions answered from the transition memo instead of the class.
    pub transition_cache_hits: usize,
    /// Distinct canonical configurations interned (across all states).
    pub unique_configs: usize,
    /// Successor probes that found an already-visited `(state, config)`.
    pub dedup_hits: usize,
    /// Total successor probes against the visited set.
    pub dedup_probes: usize,
    /// BFS layers whose processing began.
    pub levels: usize,
    /// Parallel-path tasks claimed from another participant's queue (work
    /// stealing). Identically zero at `threads = 1`; otherwise a scheduling
    /// measurement, **not** deterministic.
    pub tasks_stolen: u64,
    /// Always 0. It counted allocations of the thread-local structure pool,
    /// which is gone: amalgams now stream through one buffer per
    /// expansion. The field stays only because the benchmark's traced run
    /// reads it by name; the ROADMAP item that splits these stats into
    /// counters and measurements removes it together with that reader.
    pub scratch_allocs: u64,
    /// Wall time in successor computation (the class's `successors`,
    /// including resolving each successor against the interner), summed
    /// across workers.
    pub expand_ns: u64,
    /// Wall time pool workers spent parked between layer epochs.
    pub idle_ns: u64,
    /// Coordinator wall time replaying published layers' deterministic
    /// merges (the serial section worker-side resolution shrinks).
    /// Inline layers do not accrue here — their cost shows in `expand_ns`.
    /// A measurement, **not** deterministic.
    pub merge_ns: u64,
    /// Always 0. It timed a separate worker phase that hashed canonical
    /// successors and looked them up in the layer-start interner; that
    /// lookup now happens inside `successors`, per candidate, and is part
    /// of `expand_ns`. The field stays only because the benchmark's traced
    /// run reads it by name, like [`EngineStats::scratch_allocs`].
    pub canon_ns: u64,
    /// Layers the adaptive scheduler expanded inline on the coordinator
    /// (`threads >= 2` only; identically zero on the sequential path). A
    /// scheduling measurement, **not** deterministic.
    pub layers_inline: u64,
    /// Layers published to the worker pool as epochs. Together with
    /// [`EngineStats::layers_inline`] this makes a fully-inline run
    /// distinguishable from one that actually fanned out. **Not**
    /// deterministic.
    pub layers_parallel: u64,
    /// Per-layer frontier-width histogram (deterministic; compared by
    /// `==`).
    pub layer_widths: LayerWidths,
    /// Wall time of the whole search (excluding certification).
    pub search_ns: u64,
    /// Wall time concretizing and certifying the witnesses (once per
    /// distinct hit node).
    pub certify_ns: u64,
}

impl EngineStats {
    /// Fraction of successor probes that were deduplicated (`0.0` when no
    /// probe happened).
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.dedup_probes == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.dedup_probes as f64
        }
    }

    /// Accumulates another run's statistics into `self` — counters and
    /// timings sum, `levels` takes the maximum (a service aggregating many
    /// runs wants totals, not a meaningless layer sum). Used by the
    /// `dds serve` `/stats` endpoint.
    pub fn merge(&mut self, other: &EngineStats) {
        self.initial_configs += other.initial_configs;
        self.configs_explored += other.configs_explored;
        self.transitions_computed += other.transitions_computed;
        self.transition_cache_hits += other.transition_cache_hits;
        self.unique_configs += other.unique_configs;
        self.dedup_hits += other.dedup_hits;
        self.dedup_probes += other.dedup_probes;
        self.levels = self.levels.max(other.levels);
        self.tasks_stolen += other.tasks_stolen;
        self.scratch_allocs += other.scratch_allocs;
        self.expand_ns += other.expand_ns;
        self.idle_ns += other.idle_ns;
        self.merge_ns += other.merge_ns;
        self.canon_ns += other.canon_ns;
        self.layers_inline += other.layers_inline;
        self.layers_parallel += other.layers_parallel;
        self.layer_widths.merge(&other.layer_widths);
        self.search_ns += other.search_ns;
        self.certify_ns += other.certify_ns;
    }
}

impl PartialEq for EngineStats {
    /// Compares the deterministic search counters only — the `*_ns`
    /// timings and steal counts are measurements,
    /// not search results.
    fn eq(&self, other: &Self) -> bool {
        self.initial_configs == other.initial_configs
            && self.configs_explored == other.configs_explored
            && self.transitions_computed == other.transitions_computed
            && self.transition_cache_hits == other.transition_cache_hits
            && self.unique_configs == other.unique_configs
            && self.dedup_hits == other.dedup_hits
            && self.dedup_probes == other.dedup_probes
            && self.levels == other.levels
            && self.layer_widths == other.layer_widths
    }
}
impl Eq for EngineStats {}

/// Result of the emptiness check.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome<Cfg> {
    /// No database of the class drives an accepting run.
    Empty {
        /// Search statistics.
        stats: EngineStats,
    },
    /// Some database drives an accepting run.
    NonEmpty {
        /// The abstract sequence of small configurations found.
        trace: Trace<Cfg>,
        /// A concrete certified witness (database + run), when the class
        /// supports concretization.
        witness: Option<(Structure, Run)>,
        /// Search statistics.
        stats: EngineStats,
    },
    /// The configured exploration budget was exhausted before a decision.
    ResourceLimit {
        /// Search statistics.
        stats: EngineStats,
    },
}

impl<Cfg> Outcome<Cfg> {
    /// The outcome keyword used everywhere results are rendered or
    /// compared: `empty`, `nonempty` or `resource-limit` (the strings
    /// `.dds` `expect` lines and the JSON records carry).
    pub fn keyword(&self) -> &'static str {
        match self {
            Outcome::Empty { .. } => "empty",
            Outcome::NonEmpty { .. } => "nonempty",
            Outcome::ResourceLimit { .. } => "resource-limit",
        }
    }

    /// True for [`Outcome::NonEmpty`].
    pub fn is_nonempty(&self) -> bool {
        matches!(self, Outcome::NonEmpty { .. })
    }

    /// True for [`Outcome::Empty`].
    pub fn is_empty(&self) -> bool {
        matches!(self, Outcome::Empty { .. })
    }

    /// The search statistics.
    pub fn stats(&self) -> &EngineStats {
        match self {
            Outcome::Empty { stats }
            | Outcome::NonEmpty { stats, .. }
            | Outcome::ResourceLimit { stats } => stats,
        }
    }

    /// The certified witness, if any.
    pub fn witness(&self) -> Option<&(Structure, Run)> {
        match self {
            Outcome::NonEmpty { witness, .. } => witness.as_ref(),
            _ => None,
        }
    }
}

/// Outcome of one target set in a multi-target search
/// ([`Engine::run_multi`]).
#[derive(Clone, Debug, PartialEq)]
pub enum TargetStatus<Cfg> {
    /// Some state of the target set was reached; the trace (and, with
    /// concretization on, a certified witness) leads to the *first* node
    /// of the target set in BFS order — the same node a single-target
    /// search restricted to this target would have accepted on.
    Reached {
        /// The abstract sequence of small configurations found.
        trace: Trace<Cfg>,
        /// A concrete certified witness (database + run), when the class
        /// supports concretization.
        witness: Option<(Structure, Run)>,
    },
    /// The search space was exhausted without reaching the target set.
    Unreachable,
    /// The exploration budget ran out before this target was decided.
    Undecided,
}

impl<Cfg> TargetStatus<Cfg> {
    /// The outcome keyword the single-target [`Outcome`] would carry:
    /// `nonempty`, `empty` or `resource-limit`.
    pub fn keyword(&self) -> &'static str {
        match self {
            TargetStatus::Reached { .. } => "nonempty",
            TargetStatus::Unreachable => "empty",
            TargetStatus::Undecided => "resource-limit",
        }
    }

    /// True for [`TargetStatus::Reached`].
    pub fn is_reached(&self) -> bool {
        matches!(self, TargetStatus::Reached { .. })
    }
}

/// Result of a multi-target search ([`Engine::run_multi`]): one status per
/// requested target set plus the shared search statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiOutcome<Cfg> {
    /// One status per target set, in request order.
    pub targets: Vec<TargetStatus<Cfg>>,
    /// Statistics of the single shared search.
    pub stats: EngineStats,
}

/// The emptiness engine for a class and a system.
pub struct Engine<'a, C: SymbolicClass> {
    class: &'a C,
    original: &'a System,
    compiled: System,
    options: EngineOptions,
    /// Rule indices grouped by source state — avoids scanning every rule at
    /// every node.
    rules_by_state: Vec<Vec<u32>>,
    /// `guard_class[r]` = smallest rule index with a guard syntactically
    /// equal to rule `r`'s — the memoization key for shared guards.
    guard_class: Vec<u32>,
}

impl<C: SymbolicClass> std::fmt::Debug for Engine<'_, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("original", self.original)
            .field("compiled", &self.compiled)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

/// A search node: an interned configuration at a control state, with the
/// `(arena index, rule index)` that produced it.
pub(crate) struct Node {
    pub(crate) state: StateId,
    pub(crate) cfg: ConfigId,
    parent: Option<(usize, usize)>,
}

/// One expansion: a configuration and the index of the rule to apply.
type Task = (ConfigId, usize);

/// Transition-memo key: `(configuration id, guard class)`.
type MemoKey = (u32, u32);

/// A published layer's per-task result slots, as recovered from the epoch:
/// one [`OnceLock`] per `(configuration, rule)` expansion, each written by
/// exactly one claimant.
///
/// The entries were resolved against the layer-start interner and stay
/// sound at merge time: ids are never reassigned, so an `Interned` id is
/// still right; a `Fresh` value is interned with its precomputed hash, and
/// since the merge follows sequential order, a value several tasks saw as
/// fresh gets its id at its first merge occurrence and later interns find
/// it — exactly the sequential id assignment.
type ResolvedSlots<Cfg> = Vec<OnceLock<Vec<Resolved<Cfg>>>>;

/// One BFS layer's speculative workload, published to the worker pool.
///
/// The layer's whole [`Interner`] *moves* into the epoch (and back out when
/// the coordinator recovers sole ownership at the done barrier), so workers
/// resolve successors by plain shared reads — no clone, no lock on the hot
/// path. Resolved successor sets land in per-task [`OnceLock`] slots; every
/// slot is written by exactly one claimant.
struct Epoch<Cfg> {
    interner: Interner<Cfg>,
    /// The layer's distinct uncached `(configuration, rule)` expansions.
    tasks: Vec<Task>,
    queues: TaskQueues,
    results: ResolvedSlots<Cfg>,
    /// Nanoseconds participants spent draining (summed), for `expand_ns`.
    busy_ns: AtomicU64,
}

/// The adaptive scheduler's running estimate of per-task expansion cost,
/// fed by both inline and published layers. Purely a heuristic: it decides
/// *where* a layer runs, never what the merge does, so a cold or skewed
/// estimate costs time, not correctness.
#[derive(Default)]
struct CostModel {
    /// Exponential moving average of nanoseconds per task; `0.0` = no
    /// sample yet.
    est_task_ns: f64,
}

impl CostModel {
    /// Feeds one layer's measured expansion cost (summed across whoever
    /// expanded it) into the average.
    fn observe(&mut self, tasks: usize, total_ns: u64) {
        if tasks == 0 {
            return;
        }
        let per = total_ns as f64 / tasks as f64;
        self.est_task_ns = if self.est_task_ns == 0.0 {
            per
        } else {
            0.5 * self.est_task_ns + 0.5 * per
        };
    }

    /// Whether a layer of `tasks` expansions is worth an epoch round-trip
    /// on a machine with `hw_threads` hardware threads.
    fn worthwhile(&self, tasks: usize, hw_threads: usize) -> bool {
        if hw_threads <= 1 {
            // Workers would time-slice the coordinator's core; the
            // round-trip can only lose.
            return false;
        }
        if self.est_task_ns == 0.0 {
            return tasks >= PAR_COLD_MIN_TASKS;
        }
        tasks as f64 * self.est_task_ns >= PAR_LAYER_MIN_NS
    }
}

/// The worker pool of one `threads >= 2` search: the epoch gate its
/// workers park on, the participant count (coordinator included) and the
/// adaptive scheduler's cost model.
struct Pool<'g, Cfg> {
    gate: &'g EpochGate<Epoch<Cfg>>,
    threads: usize,
    /// Hardware threads the OS reports (the adaptive scheduler never
    /// publishes on a single one).
    hw_threads: usize,
    cost: CostModel,
}

/// The mutable search state: interned configurations, visited bitmaps, the
/// BFS arena, the transition memo and the counters.
pub(crate) struct Search<Cfg> {
    interner: Interner<Cfg>,
    /// Visited bitmap per control state, indexed by configuration id.
    visited: Vec<Vec<u64>>,
    pub(crate) arena: Vec<Node>,
    /// Memoized successor ids keyed by `(configuration id, guard class)`.
    cache: HashMap<MemoKey, Box<[ConfigId]>>,
    pub(crate) stats: EngineStats,
}

/// Merges one successor-id slice into the search: every id is probed
/// against the visited bitmap and fresh `(to, id)` pairs become arena nodes.
fn push_successors(
    visited: &mut [Vec<u64>],
    arena: &mut Vec<Node>,
    stats: &mut EngineStats,
    ids: &[ConfigId],
    to: StateId,
    idx: usize,
    rule_idx: usize,
) {
    for &succ in ids {
        stats.dedup_probes += 1;
        if visit(visited, to, succ) {
            arena.push(Node {
                state: to,
                cfg: succ,
                parent: Some((idx, rule_idx)),
            });
        } else {
            stats.dedup_hits += 1;
        }
    }
}

/// Marks `(q, id)` visited; true when it was not visited before.
fn visit(visited: &mut [Vec<u64>], q: StateId, id: ConfigId) -> bool {
    let bits = &mut visited[q.index()];
    let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
    if bits.len() <= word {
        bits.resize(word + 1, 0);
    }
    let fresh = bits[word] & bit == 0;
    bits[word] |= bit;
    fresh
}

impl<'a, C: SymbolicClass> Engine<'a, C> {
    /// Prepares the engine, compiling existential guards away (Fact 2).
    ///
    /// # Panics
    /// Panics when a guard is outside the existential fragment — systems
    /// built through [`dds_system::SystemBuilder`] never are.
    pub fn new(class: &'a C, system: &'a System) -> Engine<'a, C> {
        assert_eq!(
            system.schema(),
            class.schema(),
            "system and class must share a schema"
        );
        let compiled =
            eliminate_existentials(system).expect("guards must be existential formulas (Fact 2)");
        let mut rules_by_state = vec![Vec::new(); compiled.num_states()];
        let mut guard_class = Vec::with_capacity(compiled.rules().len());
        for (i, rule) in compiled.rules().iter().enumerate() {
            rules_by_state[rule.from.index()].push(i as u32);
            let class_of = compiled.rules()[..i]
                .iter()
                .position(|r| r.guard == rule.guard)
                .unwrap_or(i);
            guard_class.push(class_of as u32);
        }
        Engine {
            class,
            original: system,
            compiled,
            options: EngineOptions::default(),
            rules_by_state,
            guard_class,
        }
    }

    /// Overrides the default options.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// The compiled (quantifier-free) system the search actually runs on.
    pub fn compiled_system(&self) -> &System {
        &self.compiled
    }

    /// Decides emptiness: the one-target projection of [`Engine::run_multi`]
    /// with the compiled system's accepting states as the target set.
    /// `Reached` maps to [`Outcome::NonEmpty`], `Unreachable` to
    /// [`Outcome::Empty`] and `Undecided` to [`Outcome::ResourceLimit`].
    pub fn run(&self) -> Outcome<C::Config> {
        let accepting = self.compiled.accepting().to_vec();
        let MultiOutcome { mut targets, stats } = self.run_multi(std::slice::from_ref(&accepting));
        match targets.pop().expect("one status per target set") {
            TargetStatus::Reached { trace, witness } => Outcome::NonEmpty {
                trace,
                witness,
                stats,
            },
            TargetStatus::Unreachable => Outcome::Empty { stats },
            TargetStatus::Undecided => Outcome::ResourceLimit { stats },
        }
    }

    /// Decides reachability of up to 64 target state sets in one shared
    /// search (the product-construction workhorse behind `dds equiv`, and
    /// what [`Engine::run`] projects).
    ///
    /// The search does not stop at the first target hit: a node whose state
    /// belongs to some still-undecided target set records the first hit for
    /// every such set and is then expanded like any other node, until every
    /// target is decided or the frontier (or the budget) is exhausted.
    ///
    /// The result is bit-identical across worker counts (the pool only
    /// precomputes pure successor sets; the merge replays the sequential
    /// order).
    ///
    /// # Panics
    /// Panics when more than 64 target sets are requested or a target state
    /// is out of range for the system.
    pub fn run_multi(&self, targets: &[Vec<StateId>]) -> MultiOutcome<C::Config> {
        assert!(
            targets.len() <= 64,
            "run_multi supports at most 64 target sets"
        );
        let t0 = Instant::now();
        let threads = self.options.resolved_threads();
        let mut out = if threads <= 1 {
            self.search(targets, None)
        } else {
            self.search_with_pool(targets, threads)
        };
        let total = t0.elapsed().as_nanos() as u64;
        out.stats.search_ns = total.saturating_sub(out.stats.certify_ns);
        out
    }

    /// Spawns `threads - 1` persistent pool workers around
    /// [`Engine::search`], shutting the pool down when the search returns.
    /// Workers live for the whole search — layer hand-off is a condvar
    /// epoch, not a thread spawn.
    fn search_with_pool(
        &self,
        targets: &[Vec<StateId>],
        threads: usize,
    ) -> MultiOutcome<C::Config> {
        let gate: EpochGate<Epoch<C::Config>> = EpochGate::new();
        let mut out = std::thread::scope(|scope| {
            for worker in 1..threads {
                let gate = &gate;
                scope.spawn(move || {
                    let mut seq = 0;
                    while let Some((epoch, next)) = gate.next_epoch(seq) {
                        seq = next;
                        self.drain_epoch(&epoch, worker);
                        gate.finish(epoch);
                    }
                });
            }
            let pool = Pool {
                gate: &gate,
                threads,
                hw_threads: std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
                cost: CostModel::default(),
            };
            // Shut the pool down on unwinding too: the scope joins every
            // worker, so a panicking search must still release them.
            let _shutdown = ShutdownOnDrop(&gate);
            self.search(targets, Some(pool))
        });
        out.stats.idle_ns += gate.idle_ns();
        out
    }

    /// Interns the initial configurations and seeds the arena.
    pub(crate) fn init_search(&self) -> Search<C::Config> {
        let k = self.compiled.num_registers();
        let mut s = Search {
            interner: Interner::new(),
            visited: vec![Vec::new(); self.compiled.num_states()],
            arena: Vec::new(),
            cache: HashMap::new(),
            stats: EngineStats::default(),
        };
        let ids: Vec<ConfigId> = self
            .class
            .initial_configs(k)
            .into_iter()
            .map(|cfg| s.interner.intern(cfg).0)
            .collect();
        for &q in self.compiled.initial() {
            for &id in &ids {
                if visit(&mut s.visited, q, id) {
                    s.arena.push(Node {
                        state: q,
                        cfg: id,
                        parent: None,
                    });
                }
            }
        }
        s.stats.initial_configs = s.arena.len();
        s
    }

    /// Expands node `idx` entirely on the calling thread — the merge of
    /// [`Engine::search`] with every successor set computed inline.
    pub(crate) fn expand(&self, s: &mut Search<C::Config>, idx: usize) {
        self.merge_node(s, idx, &mut |_, _| None);
    }

    /// Expands one node deterministically: for each applicable rule, obtain
    /// the successor ids (memo, else interned in list order from the
    /// resolved entries `pre` hands back from a worker, else from the
    /// class's `successors` computed inline) and merge them through the
    /// visited set into the arena. Every arena/stats mutation of the search
    /// goes through this function, inline and published layers alike, which
    /// is what makes them bit-identical: interning never touches the
    /// bitmaps, so both sources yield the same ids and the same probes.
    fn merge_node(
        &self,
        s: &mut Search<C::Config>,
        idx: usize,
        pre: &mut impl FnMut(ConfigId, usize) -> Option<Vec<Resolved<C::Config>>>,
    ) {
        let state = s.arena[idx].state;
        let cfg = s.arena[idx].cfg;
        for r in 0..self.rules_by_state[state.index()].len() {
            let rule_idx = self.rules_by_state[state.index()][r] as usize;
            let to = self.compiled.rules()[rule_idx].to;
            s.stats.transitions_computed += 1;
            let key = (cfg.0, self.guard_class[rule_idx]);
            // Single probe on the hit path (the dominant case the memo
            // exists for); `ids` borrows `s.cache` while the push below
            // mutates the disjoint visited/arena/stats fields.
            if let Some(ids) = s.cache.get(&key) {
                s.stats.transition_cache_hits += 1;
                push_successors(
                    &mut s.visited,
                    &mut s.arena,
                    &mut s.stats,
                    ids,
                    to,
                    idx,
                    rule_idx,
                );
                continue;
            }
            let entries = pre(cfg, rule_idx).unwrap_or_else(|| {
                let t0 = Instant::now();
                let entries = self.class.successors(
                    s.interner.get(cfg),
                    &self.compiled.rules()[rule_idx].guard,
                    &s.interner,
                );
                s.stats.expand_ns += t0.elapsed().as_nanos() as u64;
                entries
            });
            let ids: Box<[ConfigId]> = entries
                .into_iter()
                .map(|entry| match entry {
                    Resolved::Interned(id) => id,
                    Resolved::Fresh(succ, hash) => s.interner.intern_prehashed(*succ, hash).0,
                })
                .collect();
            push_successors(
                &mut s.visited,
                &mut s.arena,
                &mut s.stats,
                &ids,
                to,
                idx,
                rule_idx,
            );
            s.cache.insert(key, ids);
        }
    }

    /// Drains one epoch as participant `me`: claims chunks from its own
    /// queue, then steals from the others ([`TaskQueues::claim`]). Pure
    /// speculation — per-task [`Resolved`] lists land in [`OnceLock`]
    /// slots and nothing else is touched, so racy claim order cannot leak
    /// into the deterministic merge.
    fn drain_epoch(&self, epoch: &Epoch<C::Config>, me: usize) {
        let t0 = Instant::now();
        while let Some(range) = epoch.queues.claim(me) {
            for i in range {
                let (cfg, rule_idx) = epoch.tasks[i];
                let entries = self.class.successors(
                    epoch.interner.get(cfg),
                    &self.compiled.rules()[rule_idx].guard,
                    &epoch.interner,
                );
                // Each task index is claimed exactly once, so the slot is
                // always empty here.
                let _ = epoch.results[i].set(entries);
            }
        }
        epoch
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Decides where a layer runs ([`ParallelMode`]) and, when published,
    /// drives the epoch to completion: the interner moves into the epoch,
    /// every participant (coordinator included) drains tasks, and the
    /// interner plus per-task resolved slots come back out. Returns `None`
    /// when the layer stays inline — the merge then computes successors on
    /// the coordinator, exactly as without a pool.
    fn publish(
        &self,
        pool: &mut Pool<'_, C::Config>,
        s: &mut Search<C::Config>,
        tasks: Vec<Task>,
    ) -> Option<ResolvedSlots<C::Config>> {
        let publish = tasks.len() > 1
            && match self.options.parallel_mode {
                ParallelMode::Eager => true,
                ParallelMode::Adaptive => pool.cost.worthwhile(tasks.len(), pool.hw_threads),
            };
        if !publish {
            s.stats.layers_inline += 1;
            return None;
        }
        s.stats.layers_parallel += 1;
        let n_tasks = tasks.len();
        let chunk = if self.options.chunk_size > 0 {
            self.options.chunk_size
        } else {
            TaskQueues::auto_chunk(n_tasks, pool.threads)
        };
        let epoch = Arc::new(Epoch {
            interner: std::mem::take(&mut s.interner),
            queues: TaskQueues::split(n_tasks, pool.threads, chunk),
            results: std::iter::repeat_with(OnceLock::new)
                .take(n_tasks)
                .collect(),
            tasks,
            busy_ns: AtomicU64::new(0),
        });
        pool.gate.publish(Arc::clone(&epoch), pool.threads - 1);
        self.drain_epoch(&epoch, 0);
        pool.gate.wait_done();
        let Ok(done) = Arc::try_unwrap(epoch) else {
            unreachable!("workers returned their epoch references at the done barrier")
        };
        s.interner = done.interner;
        let busy = done.busy_ns.load(Ordering::Relaxed);
        s.stats.expand_ns += busy;
        s.stats.tasks_stolen += done.queues.stolen();
        pool.cost.observe(n_tasks, busy);
        Some(done.results)
    }

    /// The distinct uncached `(configuration, rule)` expansions of the layer
    /// `level`, in arena order, with each memo key's task index. Collection
    /// stops at the node whose hits decide every still-undecided target:
    /// the merge ends the search there, so nodes at or past it are
    /// deterministically never expanded — no point speculating on them.
    fn layer_tasks(
        &self,
        s: &Search<C::Config>,
        level: std::ops::Range<usize>,
        masks: &[u64],
        mut undecided: u64,
    ) -> (HashMap<MemoKey, usize>, Vec<Task>) {
        let mut task_of: HashMap<MemoKey, usize> = HashMap::new();
        let mut tasks: Vec<Task> = Vec::new();
        for node in &s.arena[level] {
            undecided &= !masks[node.state.index()];
            if undecided == 0 {
                break;
            }
            for &rule_idx in &self.rules_by_state[node.state.index()] {
                let key = (node.cfg.0, self.guard_class[rule_idx as usize]);
                if s.cache.contains_key(&key) {
                    continue;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = task_of.entry(key) {
                    e.insert(tasks.len());
                    tasks.push((node.cfg, rule_idx as usize));
                }
            }
        }
        (task_of, tasks)
    }

    /// The search: a level-synchronous BFS over the arena, driven by target
    /// masks, deciding every target set or exhausting the frontier or the
    /// budget.
    ///
    /// Without a pool every successor set is computed inline by the merge.
    /// With one, each layer's uncached expansions are first either
    /// published to the workers as an epoch or left inline
    /// ([`Engine::publish`]); the merge then replays the layer in arena
    /// order with the identical intern/probe/push/count sequence, consuming
    /// pre-resolved slots where there are any — so every outcome, trace
    /// and deterministic statistic is bit-identical at any worker count.
    fn search(
        &self,
        targets: &[Vec<StateId>],
        mut pool: Option<Pool<'_, C::Config>>,
    ) -> MultiOutcome<C::Config> {
        // `masks[q]` has bit `t` set iff state `q` belongs to target set `t`.
        let mut masks = vec![0u64; self.compiled.num_states()];
        for (t, set) in targets.iter().enumerate() {
            for &q in set {
                masks[q.index()] |= 1 << t;
            }
        }
        // The low `targets.len()` bits.
        let mut undecided = u64::MAX.checked_shr(64 - targets.len() as u32).unwrap_or(0);
        let mut first_hit: Vec<Option<usize>> = vec![None; targets.len()];
        let mut s = self.init_search();
        let mut level_start = 0usize;
        let mut limited = false;
        'search: while undecided != 0 {
            let level_end = s.arena.len();
            if level_start == level_end {
                break;
            }
            s.stats.levels += 1;
            s.stats.layer_widths.record(level_end - level_start);

            let mut n_tasks = 0;
            let mut published = None;
            if let Some(pool) = pool.as_mut() {
                let (task_of, tasks) =
                    self.layer_tasks(&s, level_start..level_end, &masks, undecided);
                n_tasks = tasks.len();
                published = self
                    .publish(pool, &mut s, tasks)
                    .map(|results| (task_of, results));
            }
            let t_merge = published.is_some().then(Instant::now);

            // Deterministic merge: the same order with or without a pool.
            // Each task is consumed exactly once: later occurrences of its
            // memo key in this layer hit the memo.
            let mut pre = |cfg: ConfigId, rule_idx: usize| {
                let (task_of, results) = published.as_mut()?;
                let &t = task_of.get(&(cfg.0, self.guard_class[rule_idx]))?;
                results[t].take()
            };
            let expand_before = s.stats.expand_ns;
            for idx in level_start..level_end {
                s.stats.configs_explored += 1;
                let hits = masks[s.arena[idx].state.index()] & undecided;
                if hits != 0 {
                    for (t, first) in first_hit.iter_mut().enumerate() {
                        if hits >> t & 1 == 1 {
                            *first = Some(idx);
                        }
                    }
                    undecided &= !hits;
                    if undecided == 0 {
                        break 'search;
                    }
                }
                if s.arena.len() > self.options.max_configs {
                    limited = true;
                    break 'search;
                }
                self.merge_node(&mut s, idx, &mut pre);
            }
            if let Some(t_merge) = t_merge {
                s.stats.merge_ns += t_merge.elapsed().as_nanos() as u64;
            } else if let Some(pool) = pool.as_mut().filter(|_| n_tasks > 0) {
                pool.cost
                    .observe(n_tasks, s.stats.expand_ns - expand_before);
            }
            level_start = level_end;
        }
        self.finish_multi(&first_hit, limited, &s)
    }

    /// Rebuilds the root-to-`idx` trace from the arena's parent chain.
    pub(crate) fn trace_to(&self, idx: usize, s: &Search<C::Config>) -> Trace<C::Config> {
        let mut steps = Vec::new();
        let mut cur = idx;
        loop {
            let node = &s.arena[cur];
            steps.push(TraceStep {
                state: node.state,
                config: s.interner.get(node.cfg).clone(),
                rule: node.parent.map(|(_, r)| r),
            });
            match node.parent {
                Some((p, _)) => cur = p,
                None => break,
            }
        }
        steps.reverse();
        Trace { steps }
    }

    /// Concretizes and certifies a trace when enabled, returning the witness
    /// and the nanoseconds spent. The accepting-end requirement is checked
    /// exactly when the trace in fact ends in an accepting state, so
    /// multi-target traces to non-accepting targets still certify.
    fn certify_witness(&self, trace: &Trace<C::Config>) -> (Option<(Structure, Run)>, u64) {
        if !self.options.concretize {
            return (None, 0);
        }
        let t0 = Instant::now();
        let w = self.class.concretize(&self.compiled, trace);
        if let Some((db, run)) = &w {
            // Certify against the reference semantics — both the
            // compiled system and (projected) the original one.
            let accepting_end = trace
                .steps
                .last()
                .is_some_and(|step| self.compiled.is_accepting(step.state));
            self.compiled
                .check_run(db, run, accepting_end)
                .expect("engine produced a witness the model checker rejects");
            let projected = run.project_registers(self.original.num_registers());
            self.original
                .check_run(db, &projected, accepting_end)
                .expect("witness fails against the original system");
        }
        (w, t0.elapsed().as_nanos() as u64)
    }

    /// Converts recorded hits into per-target statuses: hit targets get a
    /// trace (and certified witness) to their first-hit node; unhit targets
    /// are `Unreachable` on exhaustion, `Undecided` on a budget stop. Each
    /// distinct hit node certifies once; targets that share the node reuse
    /// its status.
    fn finish_multi(
        &self,
        first_hit: &[Option<usize>],
        limited: bool,
        s: &Search<C::Config>,
    ) -> MultiOutcome<C::Config> {
        let mut stats = s.stats;
        stats.unique_configs = s.interner.len();
        let mut reached: HashMap<usize, TargetStatus<C::Config>> = HashMap::new();
        let mut statuses = Vec::with_capacity(first_hit.len());
        for hit in first_hit {
            statuses.push(match *hit {
                Some(idx) => reached
                    .entry(idx)
                    .or_insert_with(|| {
                        let trace = self.trace_to(idx, s);
                        let (witness, certify_ns) = self.certify_witness(&trace);
                        stats.certify_ns += certify_ns;
                        TargetStatus::Reached { trace, witness }
                    })
                    .clone(),
                None if limited => TargetStatus::Undecided,
                None => TargetStatus::Unreachable,
            });
        }
        MultiOutcome {
            targets: statuses,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::free::FreeRelationalClass;
    use crate::hom::HomClass;
    use dds_structure::{Element, Schema};
    use dds_system::SystemBuilder;
    use std::sync::Arc;

    fn graph_schema() -> Arc<Schema> {
        let mut s = Schema::new();
        s.add_relation("E", 2).unwrap();
        s.add_relation("red", 1).unwrap();
        s.finish()
    }

    /// The paper's Example 1 system.
    fn example1(schema: Arc<Schema>) -> dds_system::System {
        example1_builder(schema).finish().unwrap()
    }

    /// Example 1's states and rules, left open for additions.
    fn example1_builder(schema: Arc<Schema>) -> SystemBuilder {
        let mut b = SystemBuilder::new(schema, &["x", "y"]);
        b.state("start").initial();
        b.state("q0");
        b.state("q1");
        b.state("end").accepting();
        b.rule(
            "start",
            "q0",
            "x_old = x_new & x_new = y_old & y_old = y_new",
        )
        .unwrap();
        b.rule("q0", "q1", "x_old = x_new & E(y_old, y_new) & red(y_new)")
            .unwrap();
        b.rule("q1", "q0", "x_old = x_new & E(y_old, y_new) & red(y_new)")
            .unwrap();
        b.rule("q1", "end", "x_old = x_new & x_new = y_old & y_old = y_new")
            .unwrap();
        b
    }

    #[test]
    fn example1_nonempty_over_free_class_with_certificate() {
        let schema = graph_schema();
        let system = example1(schema.clone());
        let class = FreeRelationalClass::new(schema);
        let outcome = Engine::new(&class, &system).run();
        assert!(outcome.is_nonempty());
        let (db, run) = outcome.witness().expect("free class concretizes");
        // Certified internally already; sanity-check shape: a shortest odd
        // red cycle is a loop on one red node.
        system.check_run(db, run, true).unwrap();
        assert!(db.size() >= 1);
        assert_eq!(run.states.len(), 4); // start, q0, q1, end
    }

    /// Example 2: over HOM(H) with H the "no odd red cycles" template, the
    /// same system is empty.
    #[test]
    fn example2_empty_over_hom_template() {
        // Template: red node and white node; edges everywhere EXCEPT
        // red->red stays (cycle through red allowed?) — the paper's H kills
        // odd red cycles: a graph maps to H iff no odd red cycle. Take H =
        // two red nodes r0, r1 with edges r0<->r1 (no loops) plus a white
        // node w with all edges to/from everything including itself:
        // red cycles must alternate r0/r1, hence are even.
        let schema = graph_schema();
        let e = schema.lookup("E").unwrap();
        let red = schema.lookup("red").unwrap();
        let mut h = Structure::new(schema.clone(), 3);
        let (r0, r1, w) = (Element(0), Element(1), Element(2));
        h.add_fact(red, &[r0]).unwrap();
        h.add_fact(red, &[r1]).unwrap();
        for (a, b) in [
            (r0, r1),
            (r1, r0),
            (r0, w),
            (w, r0),
            (r1, w),
            (w, r1),
            (w, w),
        ] {
            h.add_fact(e, &[a, b]).unwrap();
        }
        let system = example1(schema);
        let class = HomClass::new(h);
        let outcome = Engine::new(&class, &system).run();
        assert!(outcome.is_empty(), "odd red cycles cannot map to H");
    }

    #[test]
    fn hom_with_permissive_template_is_nonempty() {
        // Template with a red loop: odd red cycles map fine.
        let schema = graph_schema();
        let e = schema.lookup("E").unwrap();
        let red = schema.lookup("red").unwrap();
        let mut h = Structure::new(schema.clone(), 1);
        h.add_fact(red, &[Element(0)]).unwrap();
        h.add_fact(e, &[Element(0), Element(0)]).unwrap();
        let system = example1(schema);
        let class = HomClass::new(h);
        let outcome = Engine::new(&class, &system).run();
        assert!(outcome.is_nonempty());
        let (db, run) = outcome.witness().expect("hom class concretizes");
        system.check_run(db, run, true).unwrap();
        // The σ-projection maps homomorphically to the template.
        assert!(dds_structure::morphism::find_homomorphism(db, class.template()).is_some());
    }

    #[test]
    fn unsatisfiable_guard_is_empty() {
        let schema = graph_schema();
        let mut b = SystemBuilder::new(schema.clone(), &["x"]);
        b.state("s").initial();
        b.state("t").accepting();
        b.rule("s", "t", "x_old = x_new & x_old != x_new").unwrap();
        let system = b.finish().unwrap();
        let class = FreeRelationalClass::new(schema);
        assert!(Engine::new(&class, &system).run().is_empty());
    }

    #[test]
    fn existential_guards_compiled_and_solved() {
        let schema = graph_schema();
        let mut b = SystemBuilder::new(schema.clone(), &["x"]);
        b.state("s").initial();
        b.state("m");
        b.state("t").accepting();
        // Two hops to a red node, one existential witness per step: the
        // compiled system has 2 registers (cost grows as 2^(2k)^arity, so
        // tests keep k small; see `existential_two_witnesses` for k=3).
        b.rule(
            "s",
            "m",
            "x_new = x_new & (exists u . E(x_old, u) & u = x_new)",
        )
        .unwrap();
        b.rule(
            "m",
            "t",
            "x_old = x_new & (exists u . E(x_old, u) & red(u))",
        )
        .unwrap();
        let system = b.finish().unwrap();
        let class = FreeRelationalClass::new(schema);
        let outcome = Engine::new(&class, &system).run();
        assert!(outcome.is_nonempty());
        let (db, run) = outcome.witness().expect("certified");
        // The run projected to 1 register validates against the original
        // (existential) system.
        system
            .check_run(db, &run.project_registers(1), true)
            .unwrap();
    }

    /// Same as above with a two-variable block (compiled k = 3). Runs in
    /// minutes — the enumeration is exponential in `k`, matching the
    /// paper's PSpace-space/exponential-time bound — so it is ignored in
    /// routine runs: `cargo test -- --ignored` exercises it.
    #[test]
    #[ignore = "exponential in registers; run with --ignored"]
    fn existential_two_witnesses() {
        let schema = graph_schema();
        let mut b = SystemBuilder::new(schema.clone(), &["x"]);
        b.state("s").initial();
        b.state("t").accepting();
        b.rule(
            "s",
            "t",
            "x_old = x_new & (exists u v . E(x_old, u) & E(u, v) & red(v))",
        )
        .unwrap();
        let system = b.finish().unwrap();
        let class = FreeRelationalClass::new(schema);
        let outcome = Engine::new(&class, &system).run();
        assert!(outcome.is_nonempty());
    }

    /// The parallel path must agree with the sequential one bit-for-bit on
    /// both polarity of answers (the cross-class matrix lives in the
    /// workspace-level `tests/determinism.rs`).
    #[test]
    fn parallel_matches_sequential_on_example1() {
        let schema = graph_schema();
        let system = example1(schema.clone());
        let class = FreeRelationalClass::new(schema);
        let seq = Engine::new(&class, &system).run();
        assert!(seq.stats().transition_cache_hits > 0);
        for threads in [2usize, 4] {
            let par = Engine::new(&class, &system)
                .with_options(EngineOptions::default().threads(threads))
                .run();
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    /// Two target sets whose first hit is the same node certify that node
    /// once and report the same trace and witness for both, at every
    /// worker count.
    #[test]
    fn run_multi_targets_sharing_a_state_share_the_hit() {
        let schema = graph_schema();
        let mut b = example1_builder(schema.clone());
        let dead = b.state("dead").id();
        let system = b.finish().unwrap();
        let end = system.accepting()[0];
        let class = FreeRelationalClass::new(schema);
        let targets = [vec![end], vec![dead, end]];
        let run = |threads| {
            Engine::new(&class, &system)
                .with_options(
                    EngineOptions::default()
                        .threads(threads)
                        .parallel_mode(ParallelMode::Eager),
                )
                .run_multi(&targets)
        };
        let seq = run(1);
        let [TargetStatus::Reached {
            trace: a,
            witness: wa,
        }, TargetStatus::Reached {
            trace: b,
            witness: wb,
        }] = &seq.targets[..]
        else {
            panic!("both targets must be reached: {:?}", seq.targets);
        };
        assert_eq!(a, b);
        for (db, run) in [wa, wb].map(|w| w.as_ref().expect("free class concretizes")) {
            system.check_run(db, run, true).unwrap();
        }
        for threads in [2usize, 4] {
            assert_eq!(seq, run(threads), "threads = {threads}");
        }
    }

    #[test]
    fn resource_limit_is_deterministic_across_threads() {
        let schema = graph_schema();
        let system = example1(schema.clone());
        let class = FreeRelationalClass::new(schema);
        let opts = |threads| EngineOptions::default().max_configs(40).threads(threads);
        let seq = Engine::new(&class, &system).with_options(opts(1)).run();
        let par = Engine::new(&class, &system).with_options(opts(3)).run();
        assert!(matches!(seq, Outcome::ResourceLimit { .. }) || seq.is_nonempty());
        assert_eq!(seq, par);
    }
}
