//! Out-of-core B+tree over a [`BlockFile`].
//!
//! A [`PagedTree`] is a built [`BPlusTree`]'s [`Geometry`] over a
//! different [`NodeStore`]: the nodes live in block-file extents instead
//! of a vector. Walks and mutations run the `metal-index` routines
//! themselves (`Geometry::descend`, `Geometry::insert_key`,
//! `Geometry::delete_key`), so node ids, simulated addresses and
//! mutation reports equal the simulator's by construction. Materializing
//! clones the tree's geometry, arena included, and encodes every live
//! node into its own extent.
//!
//! The page store keeps three in-memory layers in front of the pages. A
//! *hot map* mirrors the IX-cache's admissions with decoded nodes, so a
//! cache hit resolves its node pointer without touching the page layer
//! — the "software fast path" the native backend measures. A prefetch
//! *stage* holds nodes MLP scouts decoded ahead of demand. Nodes merged
//! away have their extents returned to the free list; their emptied
//! contents stay in memory as tombstones, so a racing cached pointer
//! resolves exactly as it does in the simulator (which keeps dead nodes
//! in its node vector). Reads borrow from whichever layer holds the
//! node; a write updates the hot copy in place, stores the page and
//! drops the stage.

use super::blockfile::{BlockFile, BlockFileError, Result};
use metal_index::bptree::{
    BPlusTree, ByteReader, Geometry, MutationReport, Node, NodeKind, NodeStore,
};
use metal_index::walk::Descend;
use metal_index::{NodeId, NodeInfo};
use metal_sim::types::Key;
use std::collections::HashMap;

/// Capacity of the prefetch stage (decoded nodes scouts read ahead of
/// demand). Bounds scout memory; overflowing prefetches are dropped,
/// never evicting — the stage is a hint layer, not a cache with a
/// policy of its own.
const STAGE_CAP: usize = 4096;

/// Issues a best-effort CPU prefetch hint for the cache line at `p`
/// (no-op on architectures without a stable intrinsic). Used for nodes
/// already decoded in memory, where the remaining latency to hide is
/// the cache miss on the node's key array.
#[inline]
fn prefetch_hint<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Directory-blob version tag.
const DIR_VERSION: u32 = 2;
/// Bytes of the smallest node-table entry: a tag and a page.
const DIR_SLOT_BYTES: usize = 1 + 8;

/// Where node `id` lives.
#[derive(Debug)]
enum Slot {
    /// Head page of the node's extent.
    Page(u64),
    /// A merged-away node: extent freed, emptied contents kept here.
    Tomb(Box<Node>),
}

/// Page-layer access counters for one tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeIoStats {
    /// Node reads served from the hot map or a tombstone (no page touched).
    pub hot_hits: u64,
    /// Node reads that deserialized from the page layer.
    pub cold_reads: u64,
    /// Node reads served from the prefetch stage (an MLP scout already
    /// paid the page read; the demand read found the node decoded).
    pub staged_hits: u64,
    /// Nodes read ahead of demand into the prefetch stage by
    /// [`PagedTree::prefetch_node`].
    pub prefetched: u64,
    /// Node writes (serialize + page write).
    pub node_writes: u64,
    /// Wall nanoseconds spent loading pages from the block file (demand
    /// cold reads and scout prefetches both count) — the native
    /// analogue of the simulator's DRAM-stall cycles.
    pub page_read_ns: u64,
    /// Wall nanoseconds spent deserializing loaded pages into nodes.
    pub decode_ns: u64,
}

/// Nanoseconds elapsed since `t0`, saturating. One clock read — cheap
/// enough for per-phase scopes, so timers wrap whole page loads and
/// decodes, never inner loops.
pub(crate) fn ns_since(t0: std::time::Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// The [`NodeStore`] of a [`PagedTree`]: block-file extents behind the
/// hot map, the prefetch stage and the tombstones.
#[derive(Debug)]
struct PageStore {
    file: BlockFile,
    slots: Vec<Slot>,
    /// Decoded nodes mirroring current IX-cache residents.
    hot: HashMap<NodeId, Node>,
    /// Nodes MLP scouts read ahead of demand ([`STAGE_CAP`]-bounded).
    /// Cleared wholesale on every write and kill — the cheap, obviously
    /// correct staleness guard (see `native::backend` module docs).
    stage: HashMap<NodeId, Node>,
    io: TreeIoStats,
}

impl PageStore {
    fn new(file: BlockFile, slots: Vec<Slot>) -> Self {
        PageStore {
            file,
            slots,
            hot: HashMap::new(),
            stage: HashMap::new(),
            io: TreeIoStats::default(),
        }
    }

    /// Head page of live node `id`.
    fn live_page(&self, id: NodeId) -> Result<u64> {
        match self.slots.get(id as usize) {
            Some(Slot::Page(page)) => Ok(*page),
            _ => Err(BlockFileError::new(format!(
                "{}: node {id} is not a live node (tree has {})",
                self.file.path().display(),
                self.slots.len()
            ))),
        }
    }

    /// Loads and decodes node `id` from `page` (through
    /// [`BlockFile::prefetch`] when `ahead`), timing both phases.
    fn load(&mut self, id: NodeId, page: u64, ahead: bool) -> Result<Node> {
        let t0 = std::time::Instant::now();
        let payload = if ahead {
            self.file.prefetch(page)
        } else {
            self.file.load(page)
        }
        .map_err(|e| BlockFileError {
            context: format!("node {id}: {}", e.context),
            ..e
        })?;
        self.io.page_read_ns += ns_since(t0);
        let t0 = std::time::Instant::now();
        let node = Node::decode(&payload).map_err(|e| {
            BlockFileError::new(format!(
                "{}: node {id} (page {page}): {e}",
                self.file.path().display()
            ))
        })?;
        self.io.decode_ns += ns_since(t0);
        Ok(node)
    }

    /// Takes live node `id` out of the stage, or decodes it from `page`
    /// (hot copies stay where they are).
    fn take_cold(&mut self, id: NodeId, page: u64) -> Result<Node> {
        if let Some(n) = self.stage.remove(&id) {
            self.io.staged_hits += 1;
            return Ok(n);
        }
        let n = self.load(id, page, false)?;
        self.io.cold_reads += 1;
        Ok(n)
    }
}

impl NodeStore for PageStore {
    type Error = BlockFileError;

    fn read<R>(&mut self, id: NodeId, f: impl FnOnce(&Node) -> R) -> Result<R> {
        if let Some(n) = self.hot.get(&id) {
            self.io.hot_hits += 1;
            return Ok(f(n));
        }
        if let Some(n) = self.stage.get(&id) {
            self.io.staged_hits += 1;
            return Ok(f(n));
        }
        if let Some(Slot::Tomb(n)) = self.slots.get(id as usize) {
            self.io.hot_hits += 1;
            return Ok(f(n));
        }
        let page = self.live_page(id)?;
        Ok(f(&self.take_cold(id, page)?))
    }

    fn write<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Node) -> R) -> Result<R> {
        let page = self.live_page(id)?;
        let (out, payload) = match self.hot.get_mut(&id) {
            Some(n) => {
                self.io.hot_hits += 1;
                (f(n), n.encode())
            }
            None => {
                let mut n = self.take_cold(id, page)?;
                (f(&mut n), n.encode())
            }
        };
        let page = self.file.update(page, &payload)?;
        self.slots[id as usize] = Slot::Page(page);
        // Staged nodes were decoded before this write and must never
        // shadow the page layer's current contents. (The hot map is
        // updated in place instead — it mirrors cache residency.)
        self.stage.clear();
        self.io.node_writes += 1;
        Ok(out)
    }

    fn alloc(&mut self, node: Node) -> Result<NodeId> {
        let page = self.file.store(&node.encode())?;
        self.slots.push(Slot::Page(page));
        Ok((self.slots.len() - 1) as NodeId)
    }

    fn kill(&mut self, id: NodeId) -> Result<NodeKind> {
        let page = self.live_page(id)?;
        let mut node = match self.hot.remove(&id) {
            Some(n) => {
                self.io.hot_hits += 1;
                n
            }
            None => self.take_cold(id, page)?,
        };
        let contents = node.kill();
        self.file.free_extent(page)?;
        self.slots[id as usize] = Slot::Tomb(Box::new(node));
        self.stage.clear();
        Ok(contents)
    }
}

/// A B+tree whose nodes live in page-aligned block-file extents.
///
/// # Example
///
/// Materialize an in-memory tree and walk it out of core — the paged
/// walk visits the same node ids the simulator's walk would:
///
/// ```
/// use metal_index::bptree::BPlusTree;
/// use metal_index::walk::Descend;
/// use metal_sim::types::Addr;
///
/// let keys: Vec<u64> = (0..500).map(|k| k * 2).collect();
/// let tree = BPlusTree::bulk_load(&keys, 8, Addr::new(0x1000), 64);
/// let mut paged = metal_core::native::materialize_tree(&tree).unwrap();
///
/// let (path, leaf) = paged.path_from(paged.root(), 42).unwrap();
/// assert!(matches!(leaf, Descend::Leaf { found: true, .. }));
/// assert_eq!(path.len(), paged.depth() as usize, "root-to-leaf path");
/// assert!(paged.file_stats().pages_read > 0, "the walk came off pages");
///
/// // Mutations run the in-memory tree's own algorithm (the report
/// // carries splits/merges and stale spans).
/// let report = paged.insert_key(43).unwrap();
/// assert!(report.applied);
/// ```
#[derive(Debug)]
pub struct PagedTree {
    geo: Geometry,
    store: PageStore,
}

impl PagedTree {
    /// Materializes `tree` into `file`, node by node in id order, with
    /// `tree`'s geometry — the same starting point the simulator clones
    /// before replaying writes.
    pub fn materialize(tree: &BPlusTree, mut file: BlockFile) -> Result<Self> {
        let slots = tree
            .nodes()
            .iter()
            .map(|n| {
                Ok(if n.dead {
                    Slot::Tomb(Box::new(n.clone()))
                } else {
                    Slot::Page(file.store(&n.encode())?)
                })
            })
            .collect::<Result<_>>()?;
        Ok(PagedTree {
            geo: tree.geometry().clone(),
            store: PageStore::new(file, slots),
        })
    }

    /// Writes the tree directory — the geometry, then per node a tag and
    /// its page (live) or its encoded tombstone (dead) — into the file and records it in the superblock, so
    /// [`PagedTree::reopen`] can rebuild this tree.
    pub fn persist(&mut self) -> Result<()> {
        let mut blob = DIR_VERSION.to_le_bytes().to_vec();
        self.geo.encode(&mut blob);
        for slot in &self.store.slots {
            match slot {
                Slot::Page(page) => {
                    blob.push(0);
                    blob.extend_from_slice(&page.to_le_bytes());
                }
                Slot::Tomb(node) => {
                    let enc = node.encode();
                    blob.push(1);
                    blob.extend_from_slice(&(enc.len() as u32).to_le_bytes());
                    blob.extend_from_slice(&enc);
                }
            }
        }
        let file = &mut self.store.file;
        if let Some(old) = file.root()? {
            file.free_extent(old)?;
        }
        let page = file.store(&blob)?;
        file.set_root(page)
    }

    /// Rebuilds a persisted tree from `file` (see [`PagedTree::persist`]).
    /// A directory that is truncated or names nodes inconsistently is an
    /// error, never a panic or an unbounded allocation.
    pub fn reopen(mut file: BlockFile) -> Result<Self> {
        let page = file.root()?.ok_or_else(|| {
            BlockFileError::new(format!(
                "{}: no tree directory recorded (file was never persisted)",
                file.path().display()
            ))
        })?;
        let blob = file.load(page)?;
        let (geo, slots) = parse_directory(&blob).map_err(|e| {
            BlockFileError::new(format!(
                "{}: malformed tree directory: {e}",
                file.path().display()
            ))
        })?;
        Ok(PagedTree {
            geo,
            store: PageStore::new(file, slots),
        })
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.geo.root()
    }

    /// Number of levels.
    pub fn depth(&self) -> u8 {
        self.geo.depth()
    }

    /// Number of keys indexed.
    pub fn len(&self) -> u64 {
        self.geo.n_keys()
    }

    /// Whether the tree indexes no keys.
    pub fn is_empty(&self) -> bool {
        self.geo.n_keys() == 0
    }

    /// Total nodes ever created (dead ones included; ids are positional).
    pub fn node_count(&self) -> usize {
        self.store.slots.len()
    }

    /// Page-layer access counters.
    pub fn io_stats(&self) -> TreeIoStats {
        self.store.io
    }

    /// Block-file I/O counters.
    pub fn file_stats(&self) -> super::blockfile::BlockStats {
        self.store.file.stats()
    }

    /// Modeled byte size of node `id` (from the arena; no page read).
    pub fn node_bytes(&self, id: NodeId) -> u64 {
        self.geo.arena().bytes(id as usize)
    }

    /// Modeled DRAM blocks the tree's nodes occupy (matches the
    /// simulator's `index_blocks` accounting).
    pub fn total_blocks(&self) -> u64 {
        self.geo.arena().total_blocks()
    }

    /// Pages in the backing block file.
    pub fn page_count(&self) -> u64 {
        self.store.file.page_count()
    }

    /// Pages currently on the free list.
    pub fn free_pages(&self) -> u64 {
        self.store.file.free_pages()
    }

    /// Consumes the tree, returning its block file (e.g. to persist and
    /// reopen it).
    pub fn into_file(self) -> BlockFile {
        self.store.file
    }

    /// Reads node `id`: from the hot map when the IX-cache keeps it
    /// resident, from the prefetch stage when an MLP scout read it
    /// ahead of demand, from its tombstone when merged away, else
    /// deserialized from the page layer.
    pub fn read_node(&mut self, id: NodeId) -> Result<Node> {
        self.store.read(id, Node::clone)
    }

    /// [`NodeInfo`] for a node already in hand (placement from the
    /// arena, the rest from the node itself).
    pub fn info_of(&self, id: NodeId, node: &Node) -> NodeInfo {
        self.geo.info(id, node)
    }

    /// Searches `node` for `key` (the in-memory tree's own search).
    pub fn descend_in(&self, node: &Node, key: Key) -> Descend {
        self.geo.descend(node, key)
    }

    /// The root-to-leaf node path for `key` starting at `from`, with the
    /// terminal leaf outcome — the paged mirror of the design model's
    /// `path_from`.
    pub fn path_from(
        &mut self,
        from: NodeId,
        key: Key,
    ) -> Result<(Vec<(NodeId, NodeInfo)>, Descend)> {
        let mut path = Vec::with_capacity(self.geo.depth() as usize);
        let mut id = from;
        loop {
            let (info, step) = self
                .store
                .read(id, |n| (self.geo.info(id, n), self.geo.descend(n, key)))?;
            path.push((id, info));
            match step {
                Descend::Child(c) => id = c,
                leaf @ Descend::Leaf { .. } => return Ok((path, leaf)),
            }
        }
    }

    /// The extra leaves a range scan visits after landing on `first`.
    pub fn scan_chain(&mut self, first: NodeId, hops: u32) -> Result<Vec<(NodeId, NodeInfo)>> {
        let mut out = Vec::with_capacity(hops as usize);
        let mut cur = first;
        for _ in 0..hops {
            let next = self.store.read(cur, |n| match &n.kind {
                NodeKind::Leaf { next, .. } => *next,
                NodeKind::Interior { .. } => None,
            })?;
            let Some(n) = next else {
                break;
            };
            out.push((n, self.store.read(n, |node| self.geo.info(n, node))?));
            cur = n;
        }
        Ok(out)
    }

    /// Mirrors the IX-cache's resident set into the hot map: `id` is now
    /// cached, so keep its deserialized node on the fast path.
    pub fn admit_hot(&mut self, id: NodeId) -> Result<()> {
        if !self.store.hot.contains_key(&id) {
            let n = self.read_node(id)?;
            self.store.hot.insert(id, n);
        }
        Ok(())
    }

    /// Drops hot nodes the IX-cache no longer references.
    pub fn retain_hot(&mut self, keep: impl Fn(NodeId) -> bool) {
        self.store.hot.retain(|&id, _| keep(id));
    }

    /// Number of nodes currently on the hot fast path.
    pub fn hot_len(&self) -> usize {
        self.store.hot.len()
    }

    /// Reads node `id` ahead of demand on behalf of an MLP scout.
    ///
    /// Already-decoded nodes (hot map, stage, tombstones) get a CPU
    /// prefetch hint on their in-memory contents; everything else is
    /// read through [`BlockFile::prefetch`], decoded once, and staged
    /// so the demand read that follows is page-free. The stage is
    /// capacity-bounded (`STAGE_CAP`, 4096 nodes); overflowing prefetches are
    /// dropped silently. Prefetching is a pure performance hint: it
    /// never changes what any later [`PagedTree::read_node`] returns.
    ///
    /// # Example
    ///
    /// ```
    /// use metal_index::bptree::BPlusTree;
    /// use metal_sim::types::Addr;
    ///
    /// let keys: Vec<u64> = (0..200).map(|k| k * 2).collect();
    /// let tree = BPlusTree::bulk_load(&keys, 8, Addr::new(0), 16);
    /// let mut paged = metal_core::native::materialize_tree(&tree).unwrap();
    /// paged.prefetch_node(paged.root()).unwrap();
    /// let before = paged.io_stats();
    /// let _ = paged.read_node(paged.root()).unwrap();
    /// let after = paged.io_stats();
    /// assert_eq!(after.staged_hits, before.staged_hits + 1);
    /// assert_eq!(after.cold_reads, before.cold_reads, "no demand page read");
    /// ```
    pub fn prefetch_node(&mut self, id: NodeId) -> Result<()> {
        if let Some(n) = self.peek_node(id) {
            prefetch_hint(n as *const Node);
            return Ok(());
        }
        if self.store.stage.len() >= STAGE_CAP {
            return Ok(());
        }
        let s = &mut self.store;
        let page = s.live_page(id)?;
        let node = s.load(id, page, true)?;
        s.io.prefetched += 1;
        s.stage.insert(id, node);
        Ok(())
    }

    /// Contents of node `id` if resident on a zero-I/O path (hot map,
    /// prefetch stage or tombstone), else `None`. Scouts descend
    /// through this so their speculative walk touches no page and
    /// bumps no demand counter.
    pub fn peek_node(&self, id: NodeId) -> Option<&Node> {
        let s = &self.store;
        s.hot
            .get(&id)
            .or_else(|| s.stage.get(&id))
            .or_else(|| match s.slots.get(id as usize) {
                Some(Slot::Tomb(n)) => Some(&**n),
                _ => None,
            })
    }

    /// Number of nodes currently staged by prefetches.
    pub fn staged_len(&self) -> usize {
        self.store.stage.len()
    }

    /// Inserts `key` with the in-memory tree's algorithm
    /// ([`Geometry::insert_key`]) over the pages.
    pub fn insert_key(&mut self, key: Key) -> Result<MutationReport> {
        self.geo.insert_key(&mut self.store, key)
    }

    /// Deletes `key` with the in-memory tree's algorithm
    /// ([`Geometry::delete_key`]) over the pages.
    pub fn delete_key(&mut self, key: Key) -> Result<MutationReport> {
        self.geo.delete_key(&mut self.store, key)
    }
}

/// Decodes a directory blob written by [`PagedTree::persist`]: the
/// geometry (the arena replayed node by node) and every node's slot.
fn parse_directory(blob: &[u8]) -> std::result::Result<(Geometry, Vec<Slot>), String> {
    let mut r = ByteReader::new(blob);
    if r.u32()? != DIR_VERSION {
        return Err("unknown directory version".into());
    }
    let geo = Geometry::decode(&mut r)?;
    let n_nodes = geo.arena().len();
    // Preallocate only what the remaining bytes can describe.
    let mut slots = Vec::with_capacity(n_nodes.min(r.left() / DIR_SLOT_BYTES));
    for id in 0..n_nodes {
        slots.push(match r.u8()? {
            0 => Slot::Page(r.u64()?),
            1 => {
                let len = r.u32()? as usize;
                let node = Node::decode(r.take(len)?)?;
                if !node.dead {
                    return Err(format!("tombstone of node {id} is not dead"));
                }
                Slot::Tomb(Box::new(node))
            }
            t => return Err(format!("node {id}: unknown entry tag {t}")),
        });
    }
    Ok((geo, slots))
}

/// Materializes every B+tree index of an experiment into temp block
/// files (the common entry point for the native backend).
pub fn materialize_tree(tree: &BPlusTree) -> Result<PagedTree> {
    PagedTree::materialize(tree, BlockFile::temp()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_index::WalkIndex;
    use metal_sim::rng::SplitRng;
    use metal_sim::types::Addr;

    fn keys(n: u64, stride: u64) -> Vec<Key> {
        (0..n).map(|i| i * stride).collect()
    }

    fn walk_found(pt: &mut PagedTree, key: Key) -> bool {
        let (_, leaf) = pt.path_from(pt.root(), key).unwrap();
        matches!(leaf, Descend::Leaf { found: true, .. })
    }

    /// Runs the same op storm through the one mutation algorithm over
    /// both stores — the in-memory node vector and the block-file pages
    /// — asserting identical mutation reports after every op and
    /// identical nodes (dead ones included) at the end.
    fn storm(seed: u64, ops: usize) {
        let mut rng = SplitRng::stream(seed, 0x9a6e_d1f3);
        let n = 40 + rng.gen_range(0u64..200);
        let stride = 2;
        let ks = keys(n, stride);
        let max_keys = [4usize, 8, 16][rng.gen_range(0usize..3)];
        let mut sim = BPlusTree::bulk_load(&ks, max_keys, Addr::new(0x4000_0000), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let span = n * stride;
        for op in 0..ops {
            let key = rng.gen_range(0..span + stride);
            match rng.gen_range(0u64..3) {
                0 => {
                    let sim_report = sim.insert_key(key);
                    let paged_report = paged.insert_key(key).unwrap();
                    assert_eq!(sim_report, paged_report, "insert {key} diverged at op {op}");
                }
                1 => {
                    let sim_report = sim.delete_key(key);
                    let paged_report = paged.delete_key(key).unwrap();
                    assert_eq!(sim_report, paged_report, "delete {key} diverged at op {op}");
                }
                _ => {
                    let probe = rng.gen_range(0..span + stride);
                    assert_eq!(
                        sim.contains(probe),
                        walk_found(&mut paged, probe),
                        "lookup {probe} diverged at op {op}"
                    );
                }
            }
        }
        assert_same_tree(&sim, &mut paged, span + stride);
    }

    /// Asserts that `paged` holds exactly `sim`'s nodes (dead ones
    /// included) at `sim`'s placements, and resolves every key below
    /// `span` like `sim`.
    fn assert_same_tree(sim: &BPlusTree, paged: &mut PagedTree, span: Key) {
        assert_eq!(
            (paged.root(), paged.depth(), paged.len(), paged.node_count()),
            (
                WalkIndex::root(sim),
                WalkIndex::depth(sim),
                sim.len(),
                sim.node_count()
            )
        );
        for id in 0..sim.node_count() as NodeId {
            let node = paged.read_node(id).unwrap();
            assert_eq!(node, sim.nodes()[id as usize], "node {id}");
            assert_eq!(
                paged.info_of(id, &node),
                WalkIndex::node(sim, id),
                "node {id}"
            );
        }
        for k in 0..span {
            assert_eq!(sim.contains(k), walk_found(paged, k), "key {k}");
        }
    }

    #[test]
    fn materialized_tree_matches_simulator_nodes() {
        let ks = keys(500, 3);
        let sim = BPlusTree::bulk_load(&ks, 8, Addr::new(0x1000), 64);
        let mut paged = materialize_tree(&sim).unwrap();
        assert_same_tree(&sim, &mut paged, 1500);
    }

    #[test]
    fn mutation_storms_match_simulator() {
        for seed in 0..6 {
            storm(seed, 140);
        }
    }

    #[test]
    fn delete_heavy_storm_exercises_merges_and_free_list() {
        let ks = keys(300, 2);
        let mut sim = BPlusTree::bulk_load(&ks, 4, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let mut merges = 0;
        for &k in &ks {
            let a = sim.delete_key(k);
            let b = paged.delete_key(k).unwrap();
            assert_eq!(a, b, "delete {k}");
            merges += a.merges;
        }
        assert!(merges > 0, "storm must exercise merges");
        assert!(
            paged.file_stats().frees > 0,
            "merged-away nodes return extents to the free list"
        );
        for &k in &ks {
            assert!(!walk_found(&mut paged, k));
        }
    }

    #[test]
    fn reopen_and_rewalk_equals_in_memory_walk() {
        let ks = keys(400, 5);
        let mut sim = BPlusTree::bulk_load(&ks, 8, Addr::new(0x2000), 32);
        let dir = std::env::temp_dir().join(format!("metal-pt-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.blk");
        {
            let file = BlockFile::create(&path).unwrap();
            let mut paged = PagedTree::materialize(&sim, file).unwrap();
            // Mutate both sides before persisting.
            for k in [3u64, 11, 2000, 2001, 777] {
                assert_eq!(sim.insert_key(k), paged.insert_key(k).unwrap());
            }
            for k in [0u64, 5, 10, 15] {
                assert_eq!(sim.delete_key(k), paged.delete_key(k).unwrap());
            }
            paged.persist().unwrap();
        }
        let mut paged = PagedTree::reopen(BlockFile::open(&path).unwrap()).unwrap();
        assert_same_tree(&sim, &mut paged, 2100);
        // And mutation continues identically after reopen.
        for k in [4u64, 6, 2050] {
            assert_eq!(sim.insert_key(k), paged.insert_key(k).unwrap(), "post {k}");
        }
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    /// A persisted tree's block file whose directory blob was rewritten
    /// by `forge` and stored back with valid checksums.
    fn forged_directory(forge: impl FnOnce(&mut Vec<u8>)) -> BlockFile {
        let sim = BPlusTree::bulk_load(&keys(200, 2), 4, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let mut merges = 0;
        for k in 0..40 {
            merges += paged.delete_key(k * 2).unwrap().merges;
        }
        assert!(merges > 0, "the directory must carry tombstones");
        paged.persist().unwrap();
        let mut file = paged.into_file();
        let page = file.root().unwrap().unwrap();
        let mut blob = file.load(page).unwrap();
        forge(&mut blob);
        let page = file.store(&blob).unwrap();
        file.set_root(page).unwrap();
        file
    }

    /// Directory offsets: root id, mutation boundary, node count and the
    /// node sizes of the geometry, which the node table follows.
    const ROOT_AT: usize = 4;
    const BOUNDARY_AT: usize = 74;
    const N_NODES_AT: usize = 78;
    const SIZES_AT: usize = 82;

    fn get_u32(blob: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(blob[at..at + 4].try_into().unwrap())
    }

    fn put_u32(blob: &mut [u8], at: usize, v: u32) {
        blob[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Offset of the first node-table entry (from node `from` on) whose
    /// tag is `tag`: 0 and a page for a live node, 1, a length and an
    /// encoded tombstone for a dead one.
    fn entry_at(b: &[u8], from: u32, tag: u8) -> usize {
        let mut at = SIZES_AT + 8 * get_u32(b, N_NODES_AT) as usize;
        for id in 0.. {
            if id >= from && b[at] == tag {
                break;
            }
            at += if b[at] == 0 {
                9
            } else {
                5 + get_u32(b, at + 1) as usize
            };
        }
        at
    }

    #[test]
    fn reopen_rejects_forged_directories() {
        let reopened = PagedTree::reopen(forged_directory(|_| {}));
        assert!(reopened.is_ok(), "an unforged directory reopens");
        type Forge = fn(&mut Vec<u8>);
        let cases: [(&str, &str, Forge); 6] = [
            ("huge node count", "malformed", |b| {
                put_u32(b, N_NODES_AT, u32::MAX)
            }),
            ("live node marked dead", "malformed", |b| {
                let at = entry_at(b, get_u32(b, ROOT_AT), 0);
                b[at] = 1;
            }),
            ("tombstone that is not dead", "not dead", |b| {
                // Past the tag and length: the node's tag, then its flag.
                let at = entry_at(b, 0, 1) + 5 + 1;
                b[at] = 0;
            }),
            ("unknown entry tag", "tag", |b| {
                let at = entry_at(b, get_u32(b, ROOT_AT), 0);
                b[at] = 7;
            }),
            ("root past the node table", "root", |b| {
                let n = get_u32(b, N_NODES_AT);
                put_u32(b, ROOT_AT, n);
            }),
            ("mutation boundary past the node table", "boundary", |b| {
                let n = get_u32(b, N_NODES_AT);
                put_u32(b, BOUNDARY_AT, n + 1);
            }),
        ];
        for (what, says, forge) in cases {
            let err = PagedTree::reopen(forged_directory(forge)).expect_err(what);
            let msg = err.to_string();
            assert!(
                msg.contains("malformed tree directory") && msg.contains(says),
                "{what}: {msg}"
            );
        }
    }

    #[test]
    fn storage_errors_propagate_through_mutations() {
        use std::os::unix::fs::FileExt;
        let sim = BPlusTree::bulk_load(&keys(300, 2), 4, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let key = 200;
        let leaf = sim.leaf_for(key);
        assert_eq!(sim.leaf_for(key + 1), leaf);
        let Slot::Page(page) = paged.store.slots[leaf as usize] else {
            panic!("leaf {leaf} is live");
        };
        // Overwrite payload bytes of the leaf's extent (past its 16-byte
        // header), so its checksum no longer matches.
        std::fs::OpenOptions::new()
            .write(true)
            .open(paged.store.file.path())
            .unwrap()
            .write_all_at(b"XXXXXXXX", page * super::super::PAGE_BYTES + 16)
            .unwrap();
        let results = [
            ("insert", paged.insert_key(key + 1)),
            ("delete", paged.delete_key(key)),
        ];
        for (op, result) in results {
            let msg = result.expect_err(op).to_string();
            assert!(
                msg.contains(&format!("node {leaf}")) && msg.contains(&format!("page {page}")),
                "{op}: {msg}"
            );
        }
        assert_eq!(paged.len(), sim.len(), "failed mutations changed nothing");
    }

    #[test]
    fn prefetch_stages_cold_nodes_and_mutations_clear_the_stage() {
        let ks = keys(300, 2);
        let sim = BPlusTree::bulk_load(&ks, 8, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let root = paged.root();

        // Cold prefetch: pays the page read once, stages the node.
        paged.prefetch_node(root).unwrap();
        assert_eq!(paged.staged_len(), 1);
        assert_eq!(paged.io_stats().prefetched, 1);
        assert!(
            paged.peek_node(root).is_some(),
            "scout can descend through it"
        );

        // The demand read is then page-free and counted as a staged hit.
        let fs_before = paged.file_stats();
        let _ = paged.read_node(root).unwrap();
        assert_eq!(paged.io_stats().staged_hits, 1);
        assert_eq!(paged.io_stats().cold_reads, 0);
        assert_eq!(paged.file_stats().pages_read, fs_before.pages_read);

        // Re-prefetching a staged (or hot) node is free: hint only.
        paged.prefetch_node(root).unwrap();
        assert_eq!(paged.io_stats().prefetched, 1);

        // Any applied mutation drops the whole stage — staleness guard.
        assert!(paged.insert_key(1).unwrap().applied);
        assert_eq!(paged.staged_len(), 0, "mutation cleared the stage");
        assert!(paged.peek_node(root).is_none());

        // And a prefetch after the mutation sees the new contents.
        paged.prefetch_node(root).unwrap();
        let n = paged.read_node(root).unwrap();
        assert_eq!(paged.info_of(root, &n).lo, 0);
    }

    #[test]
    fn prefetch_never_changes_what_read_node_returns() {
        let ks = keys(400, 3);
        let sim = BPlusTree::bulk_load(&ks, 4, Addr::new(0x2000), 16);
        let mut plain = materialize_tree(&sim).unwrap();
        let mut scouted = materialize_tree(&sim).unwrap();
        for id in 0..scouted.node_count() as NodeId {
            scouted.prefetch_node(id).unwrap();
        }
        for id in 0..plain.node_count() as NodeId {
            let a = plain.read_node(id).unwrap();
            let b = scouted.read_node(id).unwrap();
            assert_eq!(a.encode(), b.encode(), "node {id} diverged");
        }
    }

    #[test]
    fn hot_map_serves_admitted_nodes_without_page_reads() {
        let ks = keys(200, 1);
        let sim = BPlusTree::bulk_load(&ks, 8, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let root = paged.root();
        paged.admit_hot(root).unwrap();
        let before = paged.io_stats();
        let _ = paged.read_node(root).unwrap();
        let after = paged.io_stats();
        assert_eq!(after.hot_hits, before.hot_hits + 1);
        assert_eq!(after.cold_reads, before.cold_reads);
        paged.retain_hot(|_| false);
        assert_eq!(paged.hot_len(), 0);
        let _ = paged.read_node(root).unwrap();
        assert_eq!(paged.io_stats().cold_reads, after.cold_reads + 1);
    }
}
