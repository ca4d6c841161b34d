//! Per-layer micro-benchmarks on each workload's own index: the unit
//! costs behind the traced run's layer rows and the native
//! reconciliation.
//!
//! Every operation is a public call into one layer (`BlockFile::load`,
//! `PagedNode::decode`, `PagedTree::read_node`/`insert_key`/`delete_key`,
//! `IxCache::probe`/`insert`), on keys, pages and node ranges taken from
//! the workload's own index. Unit costs are means of the middle half of
//! the timings, so one descheduled call does not move them.

use crate::run::CACHE_BYTES;
use crate::trace::Tracer;
use metal_core::ixcache::{IxCache, IxConfig};
use metal_core::native::{materialize_tree, PagedNode, PagedTree};
use metal_core::range::KeyRange;
use metal_index::bptree::BPlusTree;
use metal_index::walk::{Descend, NodeInfo, WalkIndex};
use metal_index::NodeId;
use metal_sim::rng::SplitRng;
use metal_workloads::BuiltWorkload;
use std::collections::{BTreeSet, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Operations timed per micro-benchmark.
const SAMPLE: usize = 2048;
/// Requests per roster entry whose paths and keys feed the IX-cache.
const IX_REQUESTS: usize = 2048;
/// IX-cache operations per timed batch (one probe is tens of ns).
const IX_BATCH: usize = 256;

/// Median unit costs, in nanoseconds per operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// `BlockFile::load` of one node extent.
    pub load_ns: f64,
    /// `PagedNode::decode` of one loaded payload.
    pub decode_ns: f64,
    /// `read_node` served from pages (load + decode).
    pub read_cold_ns: f64,
    /// `read_node` served from the hot map.
    pub read_hot_ns: f64,
    /// `read_node` served from the prefetch stage.
    pub read_staged_ns: f64,
    /// `PagedTree::insert_key` of an absent key.
    pub insert_key_ns: f64,
    /// `PagedTree::delete_key` of a present key.
    pub delete_key_ns: f64,
    /// `IxCache::probe` that hits.
    pub probe_hit_ns: f64,
    /// `IxCache::probe` that misses.
    pub probe_miss_ns: f64,
    /// `IxCache::insert` of one node range.
    pub ix_insert_ns: f64,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Mean of the middle half of `v`: as robust as the median against a
/// descheduled call, but not stuck on whole nanoseconds.
fn midmean(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    let mid = &v[lo..hi];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// `n` distinct draws from `0..len` (all of them when `len <= n`).
fn sample(len: usize, n: usize, rng: &mut SplitRng) -> Vec<usize> {
    if len <= n {
        return (0..len).collect();
    }
    let mut picked = BTreeSet::new();
    while picked.len() < n {
        picked.insert(rng.gen_range(0..len as u64) as usize);
    }
    let mut out: Vec<usize> = picked.into_iter().collect();
    // Visit in a seeded order, not in page order.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i as u64) as usize);
    }
    out
}

/// Measures every unit cost, recording one span per micro-benchmark:
/// the paged-tree layers on the first index of the first natively run
/// entry, the IX-cache on every entry.
pub fn measure(
    native: &[&BuiltWorkload],
    entries: &[BuiltWorkload],
    seed: u64,
    tracer: &mut Tracer,
) -> UnitCosts {
    let built = native
        .first()
        .expect("every workload runs an entry natively");
    let tree = built.indexes[0]
        .as_bptree()
        .expect("natively run entries are B+trees");
    let mut rng = SplitRng::stream(seed, 0x7e4f);
    let mut costs = UnitCosts::default();
    let ids = visits(tree, built);

    let req = tracer.request();
    let mut paged = tracer.span("micro.native.materialize", req, || paged_copy(tree));
    tracer.span("micro.tree.read_node", req, || {
        read_node_costs(&mut paged, &ids, &mut costs)
    });

    let req = tracer.request();
    let (load_ns, decode_ns) = tracer.span("micro.blockfile.load+codec.decode", req, || {
        load_decode_costs(paged, &mut rng)
    });
    costs.load_ns = load_ns;
    costs.decode_ns = decode_ns;

    let req = tracer.request();
    let (ins, del) = tracer.span("micro.tree.insert+delete_key", req, || {
        mutation_costs(tree, &mut rng)
    });
    costs.insert_key_ns = ins;
    costs.delete_key_ns = del;

    let req = tracer.request();
    let (insert, hit, miss) = tracer.span("micro.ixcache", req, || ixcache_costs(entries));
    costs.ix_insert_ns = insert;
    costs.probe_hit_ns = hit;
    costs.probe_miss_ns = miss;
    costs
}

fn paged_copy(tree: &BPlusTree) -> PagedTree {
    materialize_tree(tree).expect("materialize the micro-benchmark tree")
}

/// The first `SAMPLE` node visits of the entry's walks of index 0, in
/// walk order (repeats included), so node reads see the access pattern
/// of the runs.
fn visits(tree: &BPlusTree, built: &BuiltWorkload) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(SAMPLE);
    for req in built.requests.iter().filter(|r| r.index == 0) {
        tree.walk(req.key, |id, _| out.push(id));
        if out.len() >= SAMPLE {
            break;
        }
    }
    out.truncate(SAMPLE);
    out
}

/// `read_node` timed per call and classified by which `io_stats()`
/// counter the call moved: first cold, then after `admit_hot` hot, then
/// after `prefetch_node` staged.
fn read_node_costs(paged: &mut PagedTree, ids: &[NodeId], costs: &mut UnitCosts) {
    let (mut cold, mut hot, mut staged) = (Vec::new(), Vec::new(), Vec::new());
    let mut timed_read = |paged: &mut PagedTree, id: NodeId| {
        let before = paged.io_stats();
        let t = Instant::now();
        black_box(paged.read_node(id).expect("read a materialized node"));
        let ns = ns_since(t);
        let after = paged.io_stats();
        if after.cold_reads > before.cold_reads {
            cold.push(ns);
        } else if after.staged_hits > before.staged_hits {
            staged.push(ns);
        } else if after.hot_hits > before.hot_hits {
            hot.push(ns);
        }
    };
    for &id in ids {
        timed_read(paged, id);
    }
    for &id in ids {
        paged.admit_hot(id).expect("admit a node to the hot map");
    }
    for &id in ids {
        timed_read(paged, id);
    }
    paged.retain_hot(|_| false);
    for &id in ids {
        paged.prefetch_node(id).expect("prefetch a node");
    }
    for &id in ids {
        timed_read(paged, id);
    }
    costs.read_cold_ns = midmean(cold);
    costs.read_hot_ns = midmean(hot);
    costs.read_staged_ns = midmean(staged);
}

/// `BlockFile::load` on the tree's own node extents, then
/// `PagedNode::decode` on what they hold.
fn load_decode_costs(paged: PagedTree, rng: &mut SplitRng) -> (f64, f64) {
    let mut file = paged.into_file();
    // Extent heads are the pages that load; other pages fail the
    // header check.
    let heads: Vec<u64> = (1..file.page_count())
        .filter(|&p| file.load(p).is_ok())
        .collect();
    let mut loads = Vec::new();
    let mut payloads = Vec::new();
    for i in sample(heads.len(), SAMPLE, rng) {
        let t = Instant::now();
        let payload = file.load(heads[i]).expect("load a node extent");
        loads.push(ns_since(t));
        payloads.push(payload);
    }
    let mut decodes = Vec::new();
    for payload in &payloads {
        let t = Instant::now();
        black_box(PagedNode::decode(payload).expect("decode a node page"));
        decodes.push(ns_since(t));
    }
    (midmean(loads), midmean(decodes))
}

/// `insert_key` of keys next to present ones, then `delete_key` of
/// present keys, on a fresh paged copy of `tree`.
fn mutation_costs(tree: &BPlusTree, rng: &mut SplitRng) -> (f64, f64) {
    let present: Vec<u64> = tree.range(0, u64::MAX);
    let set: BTreeSet<u64> = present.iter().copied().collect();
    let picked = sample(present.len(), SAMPLE, rng);
    let fresh: Vec<u64> = picked
        .iter()
        .map(|&i| present[i].wrapping_add(1))
        .filter(|k| !set.contains(k))
        .collect();
    let mut paged = paged_copy(tree);
    let mut inserts = Vec::new();
    for &k in &fresh {
        let t = Instant::now();
        black_box(paged.insert_key(k).expect("insert a key"));
        inserts.push(ns_since(t));
    }
    let mut deletes = Vec::new();
    for &i in &picked {
        let t = Instant::now();
        black_box(paged.delete_key(present[i]).expect("delete a key"));
        deletes.push(ns_since(t));
    }
    (midmean(inserts), midmean(deletes))
}

/// The nodes the first requests of `built` visit, in first-touch order,
/// with the index each belongs to.
fn walked_nodes(built: &BuiltWorkload) -> Vec<(u8, NodeId, NodeInfo)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for req in built.requests.iter().take(IX_REQUESTS) {
        let index = &built.indexes[usize::from(req.index)];
        let mut id = index.root();
        for _ in 0..=index.depth() {
            if seen.insert((req.index, id)) {
                out.push((req.index, id, index.node(id)));
            }
            match index.descend(id, req.key) {
                Descend::Child(c) => id = c,
                Descend::Leaf { .. } => break,
            }
        }
    }
    out
}

/// Batch-timed `IxCache::insert` of the ranges of the nodes each
/// entry's requests walk, then `IxCache::probe` of the same requests'
/// keys, split into hits and misses with the side-effect-free `peek`.
fn ixcache_costs(entries: &[BuiltWorkload]) -> (f64, f64, f64) {
    let (mut inserts, mut hits, mut misses) = (Vec::new(), Vec::new(), Vec::new());
    for built in entries {
        let mut cache = IxCache::new(IxConfig::with_capacity_bytes(CACHE_BYTES));
        let nodes: Vec<_> = walked_nodes(built)
            .into_iter()
            .filter(|(_, _, info)| info.lo <= info.hi)
            .collect();
        for batch in nodes.chunks(IX_BATCH) {
            let t = Instant::now();
            for &(index, id, info) in batch {
                let range = KeyRange::new(info.lo, info.hi);
                cache.insert(index, id, range, info.level, info.bytes, 0);
            }
            inserts.push(ns_since(t) / batch.len() as f64);
        }
        let probes = built
            .requests
            .iter()
            .take(IX_REQUESTS)
            .map(|r| (r.index, r.key));
        let (hit_keys, miss_keys): (Vec<_>, Vec<_>) =
            probes.partition(|&(index, key)| cache.peek(index, key).is_some());
        for (keys, out) in [(hit_keys, &mut hits), (miss_keys, &mut misses)] {
            for batch in keys.chunks(IX_BATCH) {
                let t = Instant::now();
                for &(index, key) in batch {
                    black_box(cache.probe(index, key));
                }
                out.push(ns_since(t) / batch.len() as f64);
            }
        }
    }
    (midmean(inserts), midmean(hits), midmean(misses))
}
