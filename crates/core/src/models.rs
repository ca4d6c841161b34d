//! Per-design walk models: how each cache organization executes a walk.
//!
//! One [`DesignModel`] exists per compared organization (paper §5):
//!
//! - **Stream** — the streaming DSA baseline: no index reuse, every node
//!   access goes to DRAM.
//! - **Address** — set-associative LRU address cache; walks always
//!   traverse root-to-leaf, a hit merely replaces one DRAM access.
//! - **FA-OPT** — fully-associative address cache with Belady replacement,
//!   computed offline from the recorded block trace (§5.1).
//! - **X-Cache** — exact-key leaf cache: hits short-circuit the entire
//!   walk (data on the fast path), misses walk root-to-leaf uncached and
//!   insert the leaf.
//! - **METAL-IX** — the IX-cache alone with the hardwired greedy-insert /
//!   utility-evict policy.
//! - **METAL** — IX-cache + pattern descriptors (+ optional per-batch
//!   parameter tuning).
//!
//! A model *plans* each walk when a lane picks it up: it resolves the
//! cache interactions immediately (every interleaving the engine could
//! produce is a legal serialization) and emits the resulting sequence of
//! timed [`WalkStep`]s — DRAM refills, SRAM hits, node searches, compute —
//! which the `metal-sim` engine then executes with full lane-level
//! memory parallelism and DRAM contention.

use crate::descriptor::{Admit, AdmitCtx, Descriptor};
use crate::ixcache::{CoalesceRecord, EvictRecord, FillRecord, IxCache, IxConfig};
use crate::metrics::WindowedWorkingSet;
use crate::range::KeyRange;
use crate::request::{OpKind, WalkRequest};
use crate::tuner::{TuneDecision, Tuner};
use metal_index::arena::NodeId;
use metal_index::bptree::{BPlusTree, MutationReport};
use metal_index::walk::{Descend, NodeInfo, WalkIndex};
use metal_sim::caches::{AddressCache, KeyCache, OptCache};
use metal_sim::engine::{WalkProgram, WalkStep};
use metal_sim::obs::{emit_to, Event, SharedSink, NO_ENTRY};
use metal_sim::stats::RunStats;
use metal_sim::types::{blocks_spanned, Cycles, Key};
use metal_sim::SimConfig;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The indexes and request stream of one experiment.
///
/// Indexes are `Sync` so the sharded runner can walk disjoint request
/// chunks against the same (read-only) structures from worker threads.
#[derive(Clone)]
pub struct Experiment<'a> {
    /// The indexes walks run against (JOIN and R-tree use two).
    pub indexes: Vec<&'a (dyn WalkIndex + Sync)>,
    /// The request stream, in issue order.
    pub requests: &'a [WalkRequest],
}

impl<'a> Experiment<'a> {
    /// Convenience constructor over one index.
    pub fn single(index: &'a (dyn WalkIndex + Sync), requests: &'a [WalkRequest]) -> Self {
        Experiment {
            indexes: vec![index],
            requests,
        }
    }

    /// The same experiment restricted to a contiguous request chunk
    /// (one logical shard of the run).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Experiment<'a> {
        Experiment {
            indexes: self.indexes.clone(),
            requests: &self.requests[range],
        }
    }

    /// Combined footprint of all indexes in 64 B blocks.
    pub fn total_index_blocks(&self) -> u64 {
        self.indexes.iter().map(|i| i.total_blocks()).sum()
    }

    /// Deepest index in the experiment.
    pub fn max_depth(&self) -> u8 {
        self.indexes.iter().map(|i| i.depth()).max().unwrap_or(1)
    }
}

/// Which cache organization to run (paper §5's comparison set).
#[derive(Debug, Clone)]
pub enum DesignSpec {
    /// Streaming DSA: no cache at all.
    Stream,
    /// Set-associative LRU address cache.
    Address {
        /// Total line count (64 B lines).
        entries: usize,
        /// Associativity.
        ways: usize,
    },
    /// Fully-associative address cache with Belady/OPT replacement.
    FaOpt {
        /// Total line count.
        entries: usize,
    },
    /// X-Cache: exact-key leaf cache.
    XCache {
        /// Total line count.
        entries: usize,
        /// Associativity.
        ways: usize,
    },
    /// IX-cache with the hardwired greedy/utility policy (no patterns).
    MetalIx {
        /// IX-cache geometry.
        ix: IxConfig,
    },
    /// Full METAL: IX-cache + one descriptor per index (+ tuning).
    Metal {
        /// IX-cache geometry.
        ix: IxConfig,
        /// One descriptor per experiment index.
        descriptors: Vec<Descriptor>,
        /// Enable per-batch dynamic parameter tuning.
        tune: bool,
        /// Walks per tuning batch.
        batch_walks: u64,
    },
    /// METAL with per-tile *private* IX-caches instead of one shared
    /// cache: the total capacity is split evenly across the lanes, and a
    /// lane only probes its own slice. The paper's supplemental result
    /// (Table 3) finds the shared organization better because probes are
    /// sparse (one every 70–180 cycles per tile) while sharing multiplies
    /// reach.
    MetalPrivate {
        /// *Total* IX-cache geometry (split across lanes).
        ix: IxConfig,
        /// One descriptor per experiment index.
        descriptors: Vec<Descriptor>,
    },
}

impl DesignSpec {
    /// Human-readable label used in harness output.
    pub fn label(&self) -> &'static str {
        match self {
            DesignSpec::Stream => "stream",
            DesignSpec::Address { .. } => "address",
            DesignSpec::FaOpt { .. } => "fa-opt",
            DesignSpec::XCache { .. } => "x-cache",
            DesignSpec::MetalIx { .. } => "metal-ix",
            DesignSpec::Metal { .. } => "metal",
            DesignSpec::MetalPrivate { .. } => "metal-private",
        }
    }
}

enum CacheState {
    Stream,
    Address(AddressCache),
    FaOpt {
        /// Per-request per-access OPT hit decisions.
        hits: Vec<Vec<bool>>,
    },
    XCache(KeyCache),
    Metal {
        /// One shared cache (len 1) or one private cache per lane.
        caches: Vec<IxCache>,
        descriptors: Vec<Descriptor>,
        tuners: Option<Vec<Tuner>>,
        /// Tile-local scratchpad staging leaf data objects (§3: "a local
        /// scratchpad for staging the leaf data objects and capturing
        /// immediate reuse of fields within the object").
        scratch: AddressCache,
    },
}

/// The walk model: owns the cache under test, all statistics, and the
/// per-lane step queues the engine drains.
pub struct DesignModel<'a> {
    exp: &'a Experiment<'a>,
    cfg: SimConfig,
    state: CacheState,
    /// Mutable clones of the experiment's B+trees, populated only when
    /// the request stream (or shard prefix) contains write ops. Walks
    /// against index `i` use `own_trees[i]` when present so inserts and
    /// deletes restructure a model-private tree; read-only runs leave
    /// this empty and walk the shared indexes untouched.
    own_trees: Vec<Option<BPlusTree>>,
    /// Per-lane planned steps.
    lanes: Vec<VecDeque<WalkStep>>,
    cursor: usize,
    /// Statistics being accumulated (merged into the final report).
    pub stats: RunStats,
    ws: WindowedWorkingSet,
    /// Optional telemetry sink; observe-only (see `metal_sim::obs`).
    sink: Option<SharedSink>,
    /// Latest simulated cycle seen from the engine; model-side events are
    /// stamped with it (plan-time ≈ the lane's last wake time).
    now: u64,
    /// Optional cross-thread walk counter for heartbeat reporting.
    progress: Option<Arc<AtomicU64>>,
}

impl<'a> DesignModel<'a> {
    /// Builds the model for `spec`, including the offline OPT pass for
    /// [`DesignSpec::FaOpt`]. `ws_window` is the working-set window in
    /// walks.
    pub fn new(spec: &DesignSpec, exp: &'a Experiment<'a>, cfg: SimConfig, ws_window: u64) -> Self {
        Self::new_with_prefix(spec, exp, cfg, ws_window, &[])
    }

    /// Like [`DesignModel::new`], but first replays the write ops of
    /// `prefix` against the model-private trees (no steps, no statistics).
    /// The sharded runner passes the requests preceding a shard's chunk so
    /// every shard walks the same tree state a serial run would reach —
    /// caches still start cold (sharding semantics), only the *structure*
    /// is caught up.
    pub fn new_with_prefix(
        spec: &DesignSpec,
        exp: &'a Experiment<'a>,
        cfg: SimConfig,
        ws_window: u64,
        prefix: &[WalkRequest],
    ) -> Self {
        let any_write = prefix
            .iter()
            .chain(exp.requests.iter())
            .any(|r| r.op.is_write());
        let mut own_trees: Vec<Option<BPlusTree>> = if any_write {
            exp.indexes.iter().map(|i| i.as_bptree().cloned()).collect()
        } else {
            Vec::new()
        };
        for req in prefix {
            Self::replay_write(&mut own_trees, req);
        }
        let state = match spec {
            DesignSpec::Stream => CacheState::Stream,
            DesignSpec::Address { entries, ways } => {
                CacheState::Address(AddressCache::new(*entries, *ways))
            }
            DesignSpec::FaOpt { entries } => CacheState::FaOpt {
                hits: Self::precompute_opt(exp, *entries, &own_trees),
            },
            DesignSpec::XCache { entries, ways } => {
                CacheState::XCache(KeyCache::new(*entries, *ways))
            }
            DesignSpec::MetalIx { ix } => CacheState::Metal {
                caches: vec![IxCache::new(*ix)],
                descriptors: vec![Descriptor::All; exp.indexes.len()],
                tuners: None,
                scratch: AddressCache::new(cfg.data_scratch_entries, 16),
            },
            DesignSpec::Metal {
                ix,
                descriptors,
                tune,
                batch_walks,
            } => {
                assert_eq!(
                    descriptors.len(),
                    exp.indexes.len(),
                    "need one descriptor per index"
                );
                let tuners = if *tune {
                    Some(
                        exp.indexes
                            .iter()
                            .map(|i| Tuner::new(i.depth(), *batch_walks, ix.entries))
                            .collect(),
                    )
                } else {
                    None
                };
                CacheState::Metal {
                    caches: vec![IxCache::new(*ix)],
                    descriptors: descriptors.clone(),
                    tuners,
                    scratch: AddressCache::new(cfg.data_scratch_entries, 16),
                }
            }
            DesignSpec::MetalPrivate { ix, descriptors } => {
                assert_eq!(
                    descriptors.len(),
                    exp.indexes.len(),
                    "need one descriptor per index"
                );
                let slice = IxConfig {
                    entries: (ix.entries / cfg.lanes).max(2),
                    ..*ix
                };
                CacheState::Metal {
                    caches: (0..cfg.lanes)
                        .map(|lane| {
                            let mut c = IxCache::new(slice);
                            // Private slices share one (design, shard) event
                            // stream, so partition the entry-id space per
                            // lane to keep ids unique in the trace.
                            c.set_entry_id_stream(lane as u64);
                            c
                        })
                        .collect(),
                    descriptors: descriptors.clone(),
                    tuners: None,
                    scratch: AddressCache::new(cfg.data_scratch_entries, 16),
                }
            }
        };
        let total_blocks = exp.total_index_blocks();
        DesignModel {
            exp,
            cfg,
            state,
            own_trees,
            // One planned-step queue per engine walk *slot*
            // (`lanes × mlp_width`); the engine indexes these by slot.
            lanes: vec![VecDeque::new(); cfg.walk_slots()],
            cursor: 0,
            stats: RunStats::new(),
            ws: WindowedWorkingSet::new(total_blocks, ws_window),
            sink: None,
            now: 0,
            progress: None,
        }
    }

    /// Attaches (or detaches) a telemetry sink. Enables eviction/fill
    /// recording on the IX-caches so `Fill`/`Evict` events can be
    /// emitted; everything stays observe-only.
    pub fn set_sink(&mut self, sink: Option<SharedSink>) {
        let on = sink.is_some();
        if let CacheState::Metal { caches, .. } = &mut self.state {
            for c in caches {
                c.set_recording(on);
            }
        }
        self.sink = sink;
    }

    /// Attaches a shared walk counter incremented as each walk is planned
    /// (heartbeat/progress reporting across worker threads).
    pub fn set_progress(&mut self, progress: Option<Arc<AtomicU64>>) {
        self.progress = progress;
    }

    /// Emits a model-side event at the current plan time.
    fn emit(&self, ev: Event) {
        emit_to(&self.sink, self.now, &ev);
    }

    /// The (first) IX-cache, if this design has one.
    pub fn ix_cache(&self) -> Option<&IxCache> {
        match &self.state {
            CacheState::Metal { caches, .. } => caches.first(),
            _ => None,
        }
    }

    /// Aggregate IX-cache occupancy per level across all cache slices
    /// (one slice when shared, one per lane when private).
    pub fn occupancy_by_level(&self, max_level: u8) -> Option<Vec<usize>> {
        match &self.state {
            CacheState::Metal { caches, .. } => {
                let mut out = vec![0usize; max_level as usize + 1];
                for c in caches {
                    for (l, n) in c.occupancy_by_level(max_level).into_iter().enumerate() {
                        out[l] += n;
                    }
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// The tuners, if tuning is enabled (for Fig. 22 band histories).
    pub fn tuners(&self) -> Option<&[Tuner]> {
        match &self.state {
            CacheState::Metal {
                tuners: Some(t), ..
            } => Some(t),
            _ => None,
        }
    }

    /// The descriptors in their final (possibly tuned) state.
    pub fn descriptors(&self) -> Option<&[Descriptor]> {
        match &self.state {
            CacheState::Metal { descriptors, .. } => Some(descriptors),
            _ => None,
        }
    }

    /// Finalizes windowed statistics into `stats` (call after the run).
    /// The index footprint reflects any mutations (split nodes allocate
    /// new blocks in the model-private trees).
    pub fn finalize(&mut self) {
        self.stats.index_blocks = (0..self.exp.indexes.len())
            .map(|i| Self::effective_index(&self.own_trees, self.exp, i).total_blocks())
            .sum();
        self.ws.finalize();
        self.stats.ws_touched_sum = self.ws.touched_sum();
        self.stats.ws_windows = self.ws.windows() as u64;
    }

    /// Deepest index as currently walked (mutations can grow a tree past
    /// the experiment's bulk-loaded depth via root splits).
    pub fn max_depth(&self) -> u8 {
        (0..self.exp.indexes.len())
            .map(|i| Self::effective_index(&self.own_trees, self.exp, i).depth())
            .max()
            .unwrap_or(1)
    }

    // ---- walk planning -------------------------------------------------

    /// The index walks against slot `idx` actually traverse: the
    /// model-private mutable clone when the run has writes, else the
    /// experiment's shared read-only index.
    fn effective_index<'b, 'e>(
        own: &'b [Option<BPlusTree>],
        exp: &'b Experiment<'e>,
        idx: usize,
    ) -> &'b dyn WalkIndex {
        match own.get(idx).and_then(|t| t.as_ref()) {
            Some(t) => t,
            None => exp.indexes[idx],
        }
    }

    /// Applies one write op to the model-private trees with no modeled
    /// cost (prefix catch-up and the offline OPT pass both replay this
    /// way). Updates touch no structure, so only inserts/deletes matter.
    fn replay_write(own: &mut [Option<BPlusTree>], req: &WalkRequest) -> Option<MutationReport> {
        let tree = own.get_mut(req.index as usize)?.as_mut()?;
        match req.op {
            OpKind::Insert => Some(tree.insert_key(req.key)),
            OpKind::Delete => Some(tree.delete_key(req.key)),
            OpKind::Select | OpKind::Update => None,
        }
    }

    /// The root-to-leaf node path for `key` starting at `from`.
    fn path_from(
        index: &dyn WalkIndex,
        from: NodeId,
        key: Key,
    ) -> (Vec<(NodeId, NodeInfo)>, Descend) {
        let mut path = Vec::with_capacity(index.depth() as usize);
        let mut id = from;
        loop {
            let info = index.node(id);
            path.push((id, info));
            match index.descend(id, key) {
                Descend::Child(c) => id = c,
                leaf @ Descend::Leaf { .. } => return (path, leaf),
            }
        }
    }

    /// The leaves a range scan visits after landing on `first` (inclusive
    /// of `first` only through the walk itself — this returns the extra
    /// hops).
    fn scan_chain(index: &dyn WalkIndex, first: NodeId, hops: u32) -> Vec<(NodeId, NodeInfo)> {
        let mut out = Vec::with_capacity(hops as usize);
        let mut cur = first;
        for _ in 0..hops {
            match index.next_leaf(cur) {
                Some(n) => {
                    out.push((n, index.node(n)));
                    cur = n;
                }
                None => break,
            }
        }
        out
    }

    /// Address-cache node access: a multi-block node probes the cache per
    /// spanned block; missing blocks are fetched individually (they
    /// pipeline across DRAM banks).
    fn push_addr_node_access(
        &mut self,
        steps: &mut VecDeque<WalkStep>,
        addr: metal_sim::types::Addr,
        bytes: u64,
    ) {
        let addr_fj = self.cfg.energy.addr_access_fj;
        // MAD/Widx walk through the general cache hierarchy: every block
        // touch pays the hierarchy traversal, hit or miss.
        let hit_lat = self.cfg.hierarchy_hit_latency;
        let miss_lat = self.cfg.hierarchy_hit_latency;
        let n_blocks = blocks_spanned(addr, bytes).max(1);
        let mut any_miss = false;
        // Consecutive missing blocks coalesce into one burst (the miss
        // handler fetches the gap with a single DRAM transaction train).
        let mut run_start: Option<u64> = None;
        let mut run_len = 0u64;
        for i in 0..=n_blocks {
            let missing = if i < n_blocks {
                let block_addr = metal_sim::types::Addr::new(addr.get() + i * 64);
                let hit = match &mut self.state {
                    CacheState::Address(c) => c.access(block_addr.block()),
                    _ => unreachable!("address-design helper"),
                };
                self.stats.probes += 1;
                self.charge_cache_access(addr_fj);
                if hit {
                    steps.push_back(WalkStep::Sram { cycles: hit_lat });
                    false
                } else {
                    any_miss = true;
                    self.stats.misses += 1;
                    self.stats.inserts += 1;
                    self.ws.touch(block_addr.block());
                    true
                }
            } else {
                false
            };
            if missing {
                if run_start.is_none() {
                    run_start = Some(addr.get() + i * 64);
                    steps.push_back(WalkStep::Sram { cycles: miss_lat });
                }
                run_len += 1;
            } else if let Some(start) = run_start.take() {
                steps.push_back(WalkStep::Dram {
                    addr: metal_sim::types::Addr::new(start),
                    bytes: run_len * 64,
                });
                run_len = 0;
            }
        }
        if any_miss {
            self.stats.dram_node_reads += 1;
        }
        steps.push_back(WalkStep::Busy {
            cycles: self.cfg.node_search_latency,
        });
        self.stats.walker_energy_fj = self
            .stats
            .walker_energy_fj
            .saturating_add(self.cfg.energy.walker_fj);
    }

    fn push_dram_node_access(
        &mut self,
        steps: &mut VecDeque<WalkStep>,
        addr: metal_sim::types::Addr,
        bytes: u64,
    ) {
        steps.push_back(WalkStep::Dram { addr, bytes });
        steps.push_back(WalkStep::Busy {
            cycles: self.cfg.node_search_latency,
        });
        self.stats.dram_node_reads += 1;
        self.stats.walker_energy_fj = self
            .stats
            .walker_energy_fj
            .saturating_add(self.cfg.energy.walker_fj);
        self.ws
            .touch_span(addr.block(), blocks_spanned(addr, bytes));
    }

    fn push_dram_node_for(
        &mut self,
        steps: &mut VecDeque<WalkStep>,
        index: &dyn WalkIndex,
        id: NodeId,
        key: Key,
    ) {
        let (addr, bytes) = index.access_for(id, key);
        self.push_dram_node_access(steps, addr, bytes);
    }

    fn push_sram_node(&mut self, steps: &mut VecDeque<WalkStep>, latency: Cycles) {
        steps.push_back(WalkStep::Sram { cycles: latency });
        steps.push_back(WalkStep::Busy {
            cycles: self.cfg.node_search_latency,
        });
        self.stats.walker_energy_fj = self
            .stats
            .walker_energy_fj
            .saturating_add(self.cfg.energy.walker_fj);
    }

    fn note_outcome(&mut self, leaf: &Descend) {
        if matches!(leaf, Descend::Leaf { found: true, .. }) {
            self.stats.found_walks += 1;
        }
    }

    fn push_value_fetch(&mut self, steps: &mut VecDeque<WalkStep>, leaf: &Descend) {
        if let Descend::Leaf {
            found: true,
            value_addr,
            value_bytes,
        } = leaf
        {
            if *value_bytes > 0 {
                steps.push_back(WalkStep::Dram {
                    addr: *value_addr,
                    bytes: *value_bytes,
                });
            }
        }
    }

    fn push_compute(&mut self, steps: &mut VecDeque<WalkStep>, ops: u64) {
        if ops > 0 {
            let cycles = ops.div_ceil(self.cfg.tile_ops_per_cycle);
            steps.push_back(WalkStep::Busy {
                cycles: Cycles::new(cycles),
            });
            self.stats.compute_ops += ops;
            self.stats.compute_energy_fj = self
                .stats
                .compute_energy_fj
                .saturating_add(ops.saturating_mul(self.cfg.energy.op_fj));
        }
    }

    fn charge_cache_access(&mut self, fj: u64) {
        self.stats.cache_energy_fj = self.stats.cache_energy_fj.saturating_add(fj);
    }

    /// Plans the complete step sequence of one request: the walk through
    /// the design's caches, then — for write ops — the mutation, its
    /// write-back traffic and the coherence invalidations it forces.
    fn plan(&mut self, req: &WalkRequest, lane: usize) -> VecDeque<WalkStep> {
        let mut steps = VecDeque::new();
        let mut own = std::mem::take(&mut self.own_trees);
        let exp = self.exp;
        let index = Self::effective_index(&own, exp, req.index as usize);

        match &mut self.state {
            CacheState::Stream => {
                let (path, leaf) = Self::path_from(index, index.root(), req.key);
                for &(id, _) in &path {
                    self.push_dram_node_for(&mut steps, index, id, req.key);
                }
                let scan_start = path.last().map(|&(id, _)| id);
                self.plan_scan_stream(&mut steps, index, scan_start, req.scan_leaves);
                self.note_outcome(&leaf);
                self.push_value_fetch(&mut steps, &leaf);
                self.push_compute(&mut steps, req.compute_ops);
            }

            CacheState::Address(_) => {
                let (path, leaf) = Self::path_from(index, index.root(), req.key);
                for &(id, _) in &path {
                    let (a, b) = index.access_for(id, req.key);
                    self.push_addr_node_access(&mut steps, a, b);
                }
                let scan_start = path.last().map(|&(id, _)| id);
                self.plan_scan_address(&mut steps, index, scan_start, req.scan_leaves);
                self.note_outcome(&leaf);
                // MAD/Widx-style unified cache: data objects also allocate
                // in the address cache and compete with index blocks.
                self.plan_value_address(&mut steps, &leaf);
                self.push_compute(&mut steps, req.compute_ops);
            }

            CacheState::FaOpt { .. } => {
                let (path, leaf) = Self::path_from(index, index.root(), req.key);
                let scan_start = path.last().map(|&(id, _)| id);
                let scan = scan_start
                    .map(|s| Self::scan_chain(index, s, req.scan_leaves))
                    .unwrap_or_default();
                let decisions = match &mut self.state {
                    CacheState::FaOpt { hits } => std::mem::take(&mut hits[self.cursor]),
                    _ => unreachable!(),
                };
                let addr_fj = self.cfg.energy.addr_access_fj;
                let hit_lat = self.cfg.hierarchy_hit_latency;
                let miss_lat = self.cfg.hierarchy_hit_latency;
                let mut di = 0usize;
                for &(id, info) in path.iter().chain(scan.iter()) {
                    let (a, b) = index.access_for(id, req.key.max(info.lo));
                    let n_blocks = blocks_spanned(a, b).max(1);
                    let mut any_miss = false;
                    let mut run_start: Option<u64> = None;
                    let mut run_len = 0u64;
                    for i in 0..=n_blocks {
                        let missing = if i < n_blocks {
                            let hit = decisions.get(di).copied().unwrap_or(false);
                            di += 1;
                            self.stats.probes += 1;
                            self.charge_cache_access(addr_fj);
                            if hit {
                                steps.push_back(WalkStep::Sram { cycles: hit_lat });
                                false
                            } else {
                                any_miss = true;
                                self.stats.misses += 1;
                                self.stats.inserts += 1;
                                self.ws
                                    .touch(metal_sim::types::Addr::new(a.get() + i * 64).block());
                                true
                            }
                        } else {
                            false
                        };
                        if missing {
                            if run_start.is_none() {
                                run_start = Some(a.get() + i * 64);
                                steps.push_back(WalkStep::Sram { cycles: miss_lat });
                            }
                            run_len += 1;
                        } else if let Some(start) = run_start.take() {
                            steps.push_back(WalkStep::Dram {
                                addr: metal_sim::types::Addr::new(start),
                                bytes: run_len * 64,
                            });
                            run_len = 0;
                        }
                    }
                    if any_miss {
                        self.stats.dram_node_reads += 1;
                    }
                    steps.push_back(WalkStep::Busy {
                        cycles: self.cfg.node_search_latency,
                    });
                    self.stats.walker_energy_fj = self
                        .stats
                        .walker_energy_fj
                        .saturating_add(self.cfg.energy.walker_fj);
                }
                self.note_outcome(&leaf);
                // Data object through the unified cache as well.
                if let Descend::Leaf {
                    found: true,
                    value_addr,
                    value_bytes,
                } = leaf
                {
                    if value_bytes > 0 {
                        let hit = decisions.get(di).copied().unwrap_or(false);
                        self.stats.probes += 1;
                        self.charge_cache_access(addr_fj);
                        if hit {
                            steps.push_back(WalkStep::Sram { cycles: hit_lat });
                        } else {
                            self.stats.misses += 1;
                            steps.push_back(WalkStep::Sram { cycles: miss_lat });
                            steps.push_back(WalkStep::Dram {
                                addr: value_addr,
                                bytes: value_bytes,
                            });
                            self.stats.inserts += 1;
                        }
                    }
                }
                self.push_compute(&mut steps, req.compute_ops);
            }

            CacheState::XCache(_) => {
                let addr_fj = self.cfg.energy.addr_access_fj;
                let hit_lat = self.cfg.addr_hit_latency();
                let miss_lat = self.cfg.tag_latency;
                let probe = match &mut self.state {
                    CacheState::XCache(c) => c.probe(req.index, req.key),
                    _ => unreachable!(),
                };
                self.stats.probes += 1;
                self.charge_cache_access(addr_fj);
                match probe {
                    Some(leaf_token) => {
                        // Full short-circuit: data on the fast path. Only
                        // found keys are ever inserted, so a hit is a find.
                        steps.push_back(WalkStep::Sram { cycles: hit_lat });
                        self.stats.found_walks += 1;
                        self.stats.levels_skipped += index.depth() as u64;
                        // Range scans continue from the cached leaf.
                        let leaf_id = leaf_token as NodeId;
                        self.plan_scan_stream(&mut steps, index, Some(leaf_id), req.scan_leaves);
                    }
                    None => {
                        steps.push_back(WalkStep::Sram { cycles: miss_lat });
                        let (path, leaf) = Self::path_from(index, index.root(), req.key);
                        for &(id, _) in &path {
                            self.push_dram_node_for(&mut steps, index, id, req.key);
                        }
                        if let (Some(&(leaf_id, _)), Descend::Leaf { found: true, .. }) =
                            (path.last(), &leaf)
                        {
                            match &mut self.state {
                                CacheState::XCache(c) => {
                                    c.insert(req.index, req.key, leaf_id as u64);
                                    self.stats.inserts += 1;
                                    self.charge_cache_access(addr_fj);
                                }
                                _ => unreachable!(),
                            }
                        }
                        self.stats.misses += 1;
                        let scan_start = path.last().map(|&(id, _)| id);
                        self.plan_scan_stream(&mut steps, index, scan_start, req.scan_leaves);
                        self.note_outcome(&leaf);
                        self.push_value_fetch(&mut steps, &leaf);
                    }
                }
                self.push_compute(&mut steps, req.compute_ops);
            }

            CacheState::Metal { .. } => {
                self.plan_metal(&mut steps, index, req, lane);
            }
        }

        if req.op.is_write() {
            self.apply_write(&mut steps, &mut own, req);
        }
        self.own_trees = own;
        self.ws.walk_done();
        steps.push_back(WalkStep::Done);
        steps
    }

    /// Executes `req`'s write op against the model-private tree (the walk
    /// that located the leaf was already planned): applies the mutation,
    /// appends the dirtied nodes' write-back DRAM traffic, and runs the
    /// per-design coherence protocol over the stale spans. Writes against
    /// an index that is not a B+tree degrade to the lookup alone.
    fn apply_write(
        &mut self,
        steps: &mut VecDeque<WalkStep>,
        own: &mut [Option<BPlusTree>],
        req: &WalkRequest,
    ) {
        self.stats.write_walks += 1;
        if own
            .get(req.index as usize)
            .and_then(|t| t.as_ref())
            .is_none()
        {
            return;
        }
        if req.op == OpKind::Update {
            // In-place record rewrite: no structural change, no stale
            // spans — just write the located record back.
            let index = Self::effective_index(own, self.exp, req.index as usize);
            if let (
                _,
                Descend::Leaf {
                    found: true,
                    value_addr,
                    value_bytes,
                },
            ) = Self::path_from(index, index.root(), req.key)
            {
                if value_bytes > 0 {
                    steps.push_back(WalkStep::Dram {
                        addr: value_addr,
                        bytes: value_bytes,
                    });
                    self.ws
                        .touch_span(value_addr.block(), blocks_spanned(value_addr, value_bytes));
                }
            }
            return;
        }
        let Some(report) = Self::replay_write(own, req) else {
            return;
        };
        if !report.applied {
            return;
        }
        self.stats.node_splits += report.splits as u64;
        self.stats.node_merges += (report.merges + report.rebalances) as u64;
        for &(addr, bytes) in &report.writes {
            steps.push_back(WalkStep::Dram { addr, bytes });
            self.ws
                .touch_span(addr.block(), blocks_spanned(addr, bytes));
        }
        self.invalidate_stale(req, &report);
    }

    /// Mutation coherence: after a structural mutation, kill or shrink
    /// every cached tag the stale spans could route wrongly. Only designs
    /// that tag keys or key ranges carry such state — the address caches
    /// tag physical blocks, which mutations rewrite in place.
    fn invalidate_stale(&mut self, req: &WalkRequest, report: &MutationReport) {
        let observing = self.sink.is_some();
        let mut records = Vec::new();
        match &mut self.state {
            CacheState::Metal { caches, .. } => {
                let before: u64 = caches.iter().map(|c| c.stats().invalidation_kills).sum();
                for span in &report.stale {
                    for c in caches.iter_mut() {
                        c.invalidate_range(
                            req.index,
                            Some(span.level),
                            KeyRange::new(span.lo, span.hi),
                        );
                    }
                }
                let after: u64 = caches.iter().map(|c| c.stats().invalidation_kills).sum();
                self.stats.entries_invalidated += after - before;
                if observing {
                    for c in caches.iter_mut() {
                        records.extend(c.drain_invalidations());
                    }
                }
            }
            CacheState::XCache(c) => {
                for span in &report.stale {
                    if span.level == 0 {
                        self.stats.entries_invalidated +=
                            c.invalidate_range(req.index, span.lo, span.hi);
                    }
                }
                if req.op == OpKind::Delete {
                    // The deleted key's own line would stale-hit as
                    // "found" even when no node restructured.
                    self.stats.entries_invalidated +=
                        c.invalidate_range(req.index, req.key, req.key);
                }
            }
            CacheState::Stream | CacheState::Address(_) | CacheState::FaOpt { .. } => {}
        }
        if observing {
            for span in &report.stale {
                self.emit(Event::Split {
                    index: req.index,
                    level: span.level,
                    lo: span.lo,
                    hi: span.hi,
                    op: span.op,
                });
            }
            for r in records {
                self.emit(Event::Invalidate {
                    index: r.index,
                    level: r.level,
                    set: r.set,
                    entry: r.entry,
                    lo: r.lo,
                    hi: r.hi,
                    killed: r.killed,
                });
            }
        }
    }

    fn plan_metal(
        &mut self,
        steps: &mut VecDeque<WalkStep>,
        index: &dyn WalkIndex,
        req: &WalkRequest,
        lane: usize,
    ) {
        // The engine hands us a walk-slot index; cache affinity is per
        // *physical* lane, so the MLP window of one lane shares that
        // lane's private slice (shared designs have a single cache and
        // are unaffected). At width 1 this is the identity map.
        let lane = self.cfg.lane_of_slot(lane);
        let ix_fj = self.cfg.energy.ix_access_fj;
        let hit_lat = self.cfg.ix_hit_latency();
        let miss_lat = self.cfg.tag_latency + self.cfg.range_match_latency;
        let ctx = AdmitCtx {
            life_hint: req.life_hint,
        };

        let observing = self.sink.is_some();
        let (probe, probe_set) = match &mut self.state {
            CacheState::Metal { caches, .. } => {
                let n = caches.len();
                let c = &mut caches[lane % n];
                let set = if observing {
                    c.probe_set(req.index, req.key)
                } else {
                    0
                };
                (c.probe(req.index, req.key), set)
            }
            _ => unreachable!(),
        };
        self.stats.probes += 1;
        self.charge_cache_access(ix_fj);
        if let CacheState::Metal {
            tuners: Some(ts), ..
        } = &mut self.state
        {
            ts[req.index as usize].observe_probe(probe.is_some());
            ts[req.index as usize].observe_key(req.key);
        }

        let (path, leaf, skipped) = match probe {
            Some(hit) => {
                steps.push_back(WalkStep::Sram { cycles: hit_lat });
                if self.stats.hit_levels.len() <= hit.level as usize {
                    self.stats.hit_levels.resize(hit.level as usize + 1, 0);
                }
                self.stats.hit_levels[hit.level as usize] += 1;
                if let CacheState::Metal {
                    tuners: Some(ts), ..
                } = &mut self.state
                {
                    let bytes = index.node(hit.node).bytes;
                    ts[req.index as usize].observe_node(hit.level, hit.node, bytes);
                }
                let skipped = (index.depth() as u64).saturating_sub(hit.level as u64);
                match index.descend(hit.node, req.key) {
                    Descend::Child(c) => {
                        let (path, leaf) = Self::path_from(index, c, req.key);
                        (path, leaf, skipped)
                    }
                    leaf @ Descend::Leaf { .. } => (Vec::new(), leaf, skipped),
                }
            }
            None => {
                self.stats.misses += 1;
                steps.push_back(WalkStep::Sram { cycles: miss_lat });
                let (path, leaf) = Self::path_from(index, index.root(), req.key);
                (path, leaf, 0)
            }
        };
        self.stats.levels_skipped += skipped;
        if observing {
            self.emit(Event::IxProbe {
                index: req.index,
                key: req.key,
                hit: probe.is_some(),
                level: probe.map_or(0, |h| h.level),
                short_circuit: skipped.min(u8::MAX as u64) as u8,
                set: probe_set,
                scan: false,
                entry: probe.map_or(NO_ENTRY, |h| h.entry),
            });
        }

        for (id, info) in &path {
            let (id, info) = (*id, *info);
            self.push_dram_node_for(steps, index, id, req.key);
            self.admit_node(index, req.index, id, &info, &ctx, ix_fj, lane);
        }

        // Range scan: probe the IX-cache per scanned leaf; the walker
        // knows the next-leaf pointer and its lo key.
        let scan_start = path.last().map(|&(i, _)| i).or(probe.map(|hit| hit.node));
        if let Some(start) = scan_start {
            let chain = Self::scan_chain(index, start, req.scan_leaves);
            for (id, info) in chain {
                let (leaf_hit, scan_entry, scan_set) = match &mut self.state {
                    CacheState::Metal { caches, .. } => {
                        let n = caches.len();
                        let c = &mut caches[lane % n];
                        let set = if observing {
                            c.probe_set(req.index, info.lo)
                        } else {
                            0
                        };
                        let hit = c.probe(req.index, info.lo).filter(|h| h.node == id);
                        (hit.is_some(), hit.map_or(NO_ENTRY, |h| h.entry), set)
                    }
                    _ => unreachable!(),
                };
                self.stats.probes += 1;
                self.charge_cache_access(ix_fj);
                if observing {
                    self.emit(Event::IxProbe {
                        index: req.index,
                        key: info.lo,
                        hit: leaf_hit,
                        level: info.level,
                        short_circuit: 0,
                        set: scan_set,
                        scan: true,
                        entry: scan_entry,
                    });
                }
                if leaf_hit {
                    self.push_sram_node(steps, hit_lat);
                } else {
                    self.stats.misses += 1;
                    self.push_dram_node_for(steps, index, id, info.lo);
                    self.admit_node(index, req.index, id, &info, &ctx, ix_fj, lane);
                }
            }
        }

        self.note_outcome(&leaf);
        self.plan_value_scratch(steps, &leaf);
        self.push_compute(steps, req.compute_ops);

        // Close the walk for the tuner (may retune the descriptor).
        let mut decisions: Vec<TuneDecision> = Vec::new();
        if let CacheState::Metal {
            descriptors,
            tuners: Some(ts),
            ..
        } = &mut self.state
        {
            let t = &mut ts[req.index as usize];
            if t.walk_done(&mut descriptors[req.index as usize]) {
                // Always drain so unobserved runs don't accumulate the
                // decision log; emit only when a sink is attached.
                decisions = t.take_decisions();
            }
        }
        if observing {
            for d in decisions {
                self.emit(Event::TunerDecision {
                    index: req.index,
                    batch: d.batch,
                    param: d.param,
                    from: d.from,
                    to: d.to,
                });
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn admit_node(
        &mut self,
        _index: &dyn WalkIndex,
        index_id: u8,
        id: NodeId,
        info: &NodeInfo,
        ctx: &AdmitCtx,
        ix_fj: u64,
        lane: usize,
    ) {
        let observing = self.sink.is_some();
        let mut admit_ev: Option<Event> = None;
        let mut fills: Vec<FillRecord> = Vec::new();
        let mut evicts: Vec<EvictRecord> = Vec::new();
        let mut coalesces: Vec<CoalesceRecord> = Vec::new();
        if let CacheState::Metal {
            caches,
            descriptors,
            tuners,
            ..
        } = &mut self.state
        {
            if let Some(ts) = tuners {
                ts[index_id as usize].observe_node(info.level, id, info.bytes);
            }
            let (verdict, reason) = descriptors[index_id as usize].decide(info, ctx);
            match verdict {
                Admit::Insert { life } => {
                    let n = caches.len();
                    let c = &mut caches[lane % n];
                    let range = KeyRange::new(info.lo, info.hi);
                    if observing {
                        admit_ev = Some(Event::Insert {
                            index: index_id,
                            level: info.level,
                            set: c.placement_set(index_id, &range),
                            life,
                            reason,
                        });
                    }
                    c.insert(index_id, id, range, info.level, info.bytes, life);
                    if observing {
                        fills.extend(c.drain_fills());
                        evicts.extend(c.drain_evictions());
                        coalesces.extend(c.drain_coalesces());
                    }
                    self.stats.inserts += 1;
                    self.stats.cache_energy_fj = self.stats.cache_energy_fj.saturating_add(ix_fj);
                }
                Admit::Bypass => {
                    self.stats.bypasses += 1;
                    if observing {
                        admit_ev = Some(Event::Bypass {
                            index: index_id,
                            level: info.level,
                            reason,
                        });
                    }
                }
            }
        }
        if observing {
            if let Some(ev) = admit_ev {
                self.emit(ev);
            }
            for f in fills {
                self.emit(Event::Fill {
                    index: f.index,
                    level: f.level,
                    set: f.set,
                    entry: f.entry,
                    pack: f.pack,
                });
            }
            for co in coalesces {
                self.emit(Event::Coalesce {
                    index: co.index,
                    level: co.level,
                    set: co.set,
                    entry: co.entry,
                });
            }
            for e in evicts {
                self.emit(Event::Evict {
                    index: e.index,
                    level: e.level,
                    set: e.set,
                    reason: e.reason,
                    entry: e.entry,
                    lo: e.lo,
                    hi: e.hi,
                    for_entry: e.for_entry,
                });
            }
        }
    }

    fn plan_scan_stream(
        &mut self,
        steps: &mut VecDeque<WalkStep>,
        index: &dyn WalkIndex,
        start: Option<NodeId>,
        hops: u32,
    ) {
        if let Some(s) = start {
            for (id, info) in Self::scan_chain(index, s, hops) {
                self.push_dram_node_for(steps, index, id, info.lo);
            }
        }
    }

    fn plan_scan_address(
        &mut self,
        steps: &mut VecDeque<WalkStep>,
        index: &dyn WalkIndex,
        start: Option<NodeId>,
        hops: u32,
    ) {
        if let Some(s) = start {
            for (id, info) in Self::scan_chain(index, s, hops) {
                let (a, b) = index.access_for(id, info.lo);
                self.push_addr_node_access(steps, a, b);
            }
        }
    }

    /// Data-object fetch through METAL's tile-local scratchpad: immediate
    /// reuse of a staged object is served on-chip, everything else streams
    /// from DRAM via DMA.
    fn plan_value_scratch(&mut self, steps: &mut VecDeque<WalkStep>, leaf: &Descend) {
        let hit_lat = self.cfg.sram_latency;
        if let Descend::Leaf {
            found: true,
            value_addr,
            value_bytes,
        } = leaf
        {
            if *value_bytes == 0 {
                return;
            }
            let hit = match &mut self.state {
                CacheState::Metal { scratch, .. } => scratch.access(value_addr.block()),
                _ => unreachable!("scratchpad staging is a METAL design feature"),
            };
            self.stats.walker_energy_fj = self
                .stats
                .walker_energy_fj
                .saturating_add(self.cfg.energy.addr_access_fj);
            if hit {
                steps.push_back(WalkStep::Sram { cycles: hit_lat });
            } else {
                steps.push_back(WalkStep::Dram {
                    addr: *value_addr,
                    bytes: *value_bytes,
                });
            }
        }
    }

    /// Data-object fetch through the unified address cache (MAD/Widx
    /// cache everything; METAL's headline is decoupling index-metadata
    /// reuse from data reuse, so only the address designs do this).
    fn plan_value_address(&mut self, steps: &mut VecDeque<WalkStep>, leaf: &Descend) {
        let addr_fj = self.cfg.energy.addr_access_fj;
        let hit_lat = self.cfg.hierarchy_hit_latency;
        let miss_lat = self.cfg.hierarchy_hit_latency;
        if let Descend::Leaf {
            found: true,
            value_addr,
            value_bytes,
        } = leaf
        {
            if *value_bytes == 0 {
                return;
            }
            let hit = match &mut self.state {
                CacheState::Address(c) => c.access(value_addr.block()),
                _ => unreachable!("only the address design fetches data via cache"),
            };
            self.stats.probes += 1;
            self.charge_cache_access(addr_fj);
            if hit {
                steps.push_back(WalkStep::Sram { cycles: hit_lat });
            } else {
                self.stats.misses += 1;
                steps.push_back(WalkStep::Sram { cycles: miss_lat });
                steps.push_back(WalkStep::Dram {
                    addr: *value_addr,
                    bytes: *value_bytes,
                });
                self.stats.inserts += 1;
            }
        }
    }

    /// Offline OPT pass: record every request's block trace (walk + scan)
    /// and run Belady over the concatenation. `own_seed` is the
    /// model-private tree state at the start of the stream (post shard
    /// prefix); the pass replays each write op so later requests trace
    /// their post-mutation paths — exactly what the online run walks.
    /// Write-backs bypass the cache (write-through, no allocate), so they
    /// add no trace entries.
    fn precompute_opt(
        exp: &Experiment<'_>,
        entries: usize,
        own_seed: &[Option<BPlusTree>],
    ) -> Vec<Vec<bool>> {
        let mut own: Vec<Option<BPlusTree>> = own_seed.to_vec();
        let mut trace = Vec::new();
        let mut lens = Vec::with_capacity(exp.requests.len());
        for req in exp.requests {
            {
                let index = Self::effective_index(&own, exp, req.index as usize);
                let (path, leaf) = Self::path_from(index, index.root(), req.key);
                let scan = path
                    .last()
                    .map(|&(id, _)| Self::scan_chain(index, id, req.scan_leaves))
                    .unwrap_or_default();
                let mut n = 0;
                for &(id, info) in path.iter().chain(scan.iter()) {
                    let (a, b) = index.access_for(id, req.key.max(info.lo));
                    for i in 0..blocks_spanned(a, b).max(1) {
                        trace.push(metal_sim::types::Addr::new(a.get() + i * 64).block());
                        n += 1;
                    }
                }
                if let Descend::Leaf {
                    found: true,
                    value_addr,
                    value_bytes,
                } = leaf
                {
                    if value_bytes > 0 {
                        trace.push(value_addr.block());
                        n += 1;
                    }
                }
                lens.push(n);
            }
            Self::replay_write(&mut own, req);
        }
        let result = OptCache::new(entries).simulate(&trace);
        let mut out = Vec::with_capacity(lens.len());
        let mut off = 0;
        for n in lens {
            out.push(result.hits[off..off + n].to_vec());
            off += n;
        }
        out
    }
}

impl WalkProgram for DesignModel<'_> {
    fn begin_walk(&mut self, lane: usize) -> bool {
        if self.cursor >= self.exp.requests.len() {
            return false;
        }
        let req = self.exp.requests[self.cursor];
        let steps = self.plan(&req, lane);
        self.lanes[lane] = steps;
        self.cursor += 1;
        self.stats.walks += 1;
        if let Some(p) = &self.progress {
            p.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    fn step(&mut self, lane: usize, now: Cycles) -> WalkStep {
        // Track simulated time for stamping model-side events; plans
        // happen when a lane finishes, so this is the plan-time clock.
        self.now = self.now.max(now.get());
        self.lanes[lane].pop_front().unwrap_or(WalkStep::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_index::bptree::BPlusTree;
    use metal_sim::types::Addr;

    fn tree() -> BPlusTree {
        let keys: Vec<Key> = (0..2000).collect();
        BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16)
    }

    fn reqs(keys: &[Key]) -> Vec<WalkRequest> {
        keys.iter().map(|&k| WalkRequest::lookup(k)).collect()
    }

    fn drain(model: &mut DesignModel<'_>) {
        // Execute all walks serially, ignoring timing.
        let mut lane_active = model.begin_walk(0);
        while lane_active {
            loop {
                if model.step(0, Cycles::ZERO) == WalkStep::Done {
                    break;
                }
            }
            lane_active = model.begin_walk(0);
        }
        model.finalize();
    }

    #[test]
    fn stream_touches_full_depth_every_walk() {
        let t = tree();
        let requests = reqs(&[100, 100, 100, 100]);
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(&DesignSpec::Stream, &exp, SimConfig::default(), 1000);
        drain(&mut m);
        assert_eq!(m.stats.walks, 4);
        assert_eq!(
            m.stats.dram_node_reads,
            4 * t.depth() as u64,
            "streaming re-fetches every level on every walk"
        );
        assert_eq!(m.stats.probes, 0, "no cache, no probes");
    }

    #[test]
    fn address_cache_hits_on_repeat_walks() {
        let t = tree();
        let requests = reqs(&[100; 10]);
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::Address {
                entries: 1024,
                ways: 16,
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        // First walk misses the whole path plus the data block; the other
        // 9 hit everything (the unified cache holds data blocks too, and
        // multi-block nodes probe once per spanned block).
        assert_eq!(m.stats.dram_node_reads, t.depth() as u64);
        assert!(m.stats.misses > t.depth() as u64);
        assert_eq!(
            m.stats.probes % 10,
            0,
            "all ten identical walks probe the same block count"
        );
        assert_eq!(
            m.stats.misses,
            m.stats.probes / 10,
            "only the first of ten identical walks misses"
        );
    }

    #[test]
    fn xcache_hit_short_circuits_everything() {
        let t = tree();
        let requests = reqs(&[100, 100, 100]);
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::XCache {
                entries: 64,
                ways: 16,
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        // Walk 1 misses (full depth from DRAM), walks 2–3 hit with zero
        // DRAM node reads.
        assert_eq!(m.stats.misses, 1);
        assert_eq!(m.stats.dram_node_reads, t.depth() as u64);
        assert_eq!(m.stats.levels_skipped, 2 * t.depth() as u64);
    }

    #[test]
    fn metal_ix_short_circuits_after_first_walk() {
        let t = tree();
        let requests = reqs(&[100, 100, 100]);
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        assert_eq!(m.stats.misses, 1, "first probe cold-misses");
        // Greedy insert caches the leaf; later walks fully short-circuit.
        assert_eq!(m.stats.dram_node_reads, t.depth() as u64);
        assert!(m.stats.levels_skipped > 0);
    }

    #[test]
    fn metal_ix_range_hit_from_sibling_key() {
        let t = tree();
        // Walk key 100 cold, then key 101 (same leaf, different key).
        let requests = reqs(&[100, 101]);
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        // Key 101 is covered by the cached leaf's range: no new DRAM reads.
        assert_eq!(m.stats.misses, 1);
        assert_eq!(m.stats.dram_node_reads, t.depth() as u64);
    }

    #[test]
    fn metal_level_descriptor_bypasses_leaves() {
        let t = tree();
        let requests = reqs(&(0..200).map(|i| i * 10).collect::<Vec<_>>());
        let exp = Experiment::single(&t, &requests);
        let depth = t.depth();
        let mut m = DesignModel::new(
            &DesignSpec::Metal {
                ix: IxConfig::kb64(),
                descriptors: vec![Descriptor::Level(crate::descriptor::LevelDescriptor::band(
                    depth - 3,
                    depth - 2,
                ))],
                tune: false,
                batch_walks: 1_000_000,
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        assert!(m.stats.bypasses > 0, "leaves are bypassed");
        assert!(m.stats.inserts > 0, "band levels are inserted");
        let hist = m.ix_cache().expect("has ix").occupancy_by_level(depth);
        assert_eq!(hist[0], 0, "no leaves cached under a mid-level band");
    }

    #[test]
    fn fa_opt_beats_nothing_but_still_walks_root_to_leaf() {
        let t = tree();
        let requests = reqs(&[100, 200, 100, 200, 100, 200]);
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::FaOpt { entries: 1024 },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        // OPT caches everything after cold misses on the two paths
        // (per-block probes + 1 per walk for the data block).
        assert_eq!(
            m.stats.probes % 6,
            0,
            "six walks over two identical paths probe uniformly"
        );
        assert!(m.stats.misses <= 2 * (m.stats.probes / 6));
        assert!(m.stats.misses >= t.depth() as u64);
    }

    #[test]
    fn working_set_fraction_lower_for_metal_than_stream() {
        let t = tree();
        // Clustered re-walks over a few keys.
        let keys: Vec<Key> = (0..400).map(|i| (i % 20) * 7).collect();
        let requests = reqs(&keys);
        let exp = Experiment::single(&t, &requests);

        let mut stream = DesignModel::new(&DesignSpec::Stream, &exp, SimConfig::default(), 100);
        drain(&mut stream);
        let mut metal = DesignModel::new(
            &DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            &exp,
            SimConfig::default(),
            100,
        );
        drain(&mut metal);
        assert!(
            metal.stats.working_set_fraction() < stream.stats.working_set_fraction(),
            "metal {} < stream {}",
            metal.stats.working_set_fraction(),
            stream.stats.working_set_fraction()
        );
    }

    #[test]
    fn scan_requests_traverse_leaf_chain() {
        let t = tree();
        let requests = vec![WalkRequest::lookup(0).with_scan(5)];
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(&DesignSpec::Stream, &exp, SimConfig::default(), 1000);
        drain(&mut m);
        assert_eq!(
            m.stats.dram_node_reads,
            t.depth() as u64 + 5,
            "walk plus five leaf hops"
        );
    }

    #[test]
    fn private_caches_split_capacity_and_lose_sharing() {
        let t = tree();
        // Identical keys from every lane: a shared cache warms once; the
        // private slices each warm separately.
        let requests = reqs(&[100; 64]);
        let exp = Experiment::single(&t, &requests);
        let cfg = SimConfig {
            lanes: 8,
            ..SimConfig::default()
        };
        let mut shared = DesignModel::new(
            &DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            &exp,
            cfg,
            1000,
        );
        let mut private = DesignModel::new(
            &DesignSpec::MetalPrivate {
                ix: IxConfig::kb64(),
                descriptors: vec![crate::descriptor::Descriptor::All],
            },
            &exp,
            cfg,
            1000,
        );
        // Drive lanes round-robin as the engine would.
        for m in [&mut shared, &mut private] {
            let mut lane = 0;
            while m.begin_walk(lane % 8) {
                loop {
                    if let WalkStep::Done = m.step(lane % 8, Cycles::ZERO) {
                        break;
                    }
                }
                lane += 1;
            }
            m.finalize();
        }
        assert_eq!(shared.stats.misses, 1, "shared cache cold-misses once");
        assert_eq!(
            private.stats.misses, 8,
            "each private slice cold-misses separately"
        );
    }

    #[test]
    fn metal_probe_stays_coherent_across_leaf_splits() {
        // Even keys only, so odd inserts are genuine insertions. Warm the
        // IX-cache on a leaf, split that leaf with inserts, then select
        // every key across the old span: a stale cached tag would
        // short-circuit into the pre-split leaf and miss the keys that
        // moved to the new right sibling.
        let keys: Vec<Key> = (0..1000).map(|i| i * 2).collect();
        let t = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16);
        let mut requests = reqs(&[100, 100]);
        for k in [101, 103, 105, 107, 109] {
            requests.push(WalkRequest::lookup(k).with_op(OpKind::Insert));
        }
        let post: Vec<Key> = (100..110).collect();
        requests.extend(reqs(&post));
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        assert_eq!(m.stats.write_walks, 5);
        assert!(m.stats.node_splits >= 1, "five inserts must split a leaf");
        assert!(
            m.stats.entries_invalidated >= 1,
            "the warmed leaf tag must die with the split"
        );
        // 2 warm selects + 10 post-split selects all find their key (the
        // insert walks probe before the key exists, so they don't count).
        assert_eq!(m.stats.found_walks, 12, "no select may stale-route");
    }

    #[test]
    fn xcache_delete_invalidates_exact_key() {
        let keys: Vec<Key> = (0..1000).map(|i| i * 2).collect();
        let t = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16);
        let requests = vec![
            WalkRequest::lookup(100), // miss, walk, found, cache leaf
            WalkRequest::lookup(100), // exact-key hit, found
            WalkRequest::lookup(100).with_op(OpKind::Delete), // hit, then delete
            WalkRequest::lookup(100), // MUST NOT claim found from a stale line
        ];
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::XCache {
                entries: 64,
                ways: 16,
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        assert_eq!(m.stats.write_walks, 1);
        assert!(
            m.stats.entries_invalidated >= 1,
            "the deleted key's line dies"
        );
        // Walks 1–3 observe the key present; walk 4 walks from the root
        // (its line was invalidated) and correctly finds nothing.
        assert_eq!(m.stats.found_walks, 3);
        assert_eq!(m.stats.misses, 2, "cold miss + post-delete miss");
    }

    #[test]
    fn update_writes_back_without_structural_change() {
        let t = tree();
        let requests = vec![
            WalkRequest::lookup(100).with_op(OpKind::Update),
            WalkRequest::lookup(100),
        ];
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(&DesignSpec::Stream, &exp, SimConfig::default(), 1000);
        drain(&mut m);
        assert_eq!(m.stats.write_walks, 1);
        assert_eq!(m.stats.node_splits, 0);
        assert_eq!(m.stats.node_merges, 0);
        assert_eq!(m.stats.entries_invalidated, 0);
        assert_eq!(m.stats.found_walks, 2);
    }

    #[test]
    fn read_only_runs_never_clone_trees() {
        let t = tree();
        let requests = reqs(&[1, 2, 3]);
        let exp = Experiment::single(&t, &requests);
        let m = DesignModel::new(&DesignSpec::Stream, &exp, SimConfig::default(), 1000);
        assert!(
            m.own_trees.is_empty(),
            "no write ops → no private tree clones, walks hit the shared index"
        );
    }

    #[test]
    fn compute_ops_accumulated() {
        let t = tree();
        let requests = vec![WalkRequest::lookup(3).with_compute(100)];
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(&DesignSpec::Stream, &exp, SimConfig::default(), 1000);
        drain(&mut m);
        assert_eq!(m.stats.compute_ops, 100);
        assert!(m.stats.compute_energy_fj > 0);
    }
}
