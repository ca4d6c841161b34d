//! The B+tree mutation algorithm, written once over [`NodeStore`].
//!
//! Every routine reaches nodes only through the store's `read`, `write`,
//! `alloc` and `kill`, and keeps the [`Geometry`] scalars and arena in
//! step, so an in-memory tree and a paged tree given the same geometry
//! and nodes produce identical [`MutationReport`]s and identical trees.
//! A node is written only when its contents change.

use super::{route, Geometry, MutationReport, Node, NodeKind, NodeStore, StaleSpan};
use crate::arena::NodeId;
use metal_sim::obs::MutKind;
use metal_sim::types::{Addr, Key};

/// Records `[lo, hi]` as stale at `level` and every level below it —
/// see [`StaleSpan`] for why a restructure re-fences its whole subtree.
fn push_stale(report: &mut MutationReport, level: u8, lo: Key, hi: Key, op: MutKind) {
    for l in (0..=level).rev() {
        report.stale.push(StaleSpan {
            level: l,
            lo,
            hi,
            op,
        });
    }
}

/// The separators and child pointers of an interior node.
fn interior(n: &mut Node) -> (&mut Vec<Key>, &mut Vec<NodeId>) {
    match &mut n.kind {
        NodeKind::Interior { seps, children } => (seps, children),
        NodeKind::Leaf { .. } => unreachable!("parents are interior"),
    }
}

/// Position of `child` among `parent`'s children, with those children.
fn child_pos(parent: &Node, child: NodeId) -> (usize, &[NodeId]) {
    let NodeKind::Interior { children, .. } = &parent.kind else {
        unreachable!("parents are interior");
    };
    let pos = children.iter().position(|&c| c == child);
    (pos.expect("parent lists its child"), children)
}

/// One key (with its rank) or one child moved between siblings.
enum Entry {
    Key(Key, u64),
    Child(NodeId),
}

impl Geometry {
    /// Inserts `key`, splitting overflowing nodes up the walk path (a
    /// root split grows the tree by one level). Inserting a present key
    /// is a no-op (`applied == false`). The report lists every stale
    /// span a coherent IX-cache must invalidate.
    pub fn insert_key<S: NodeStore>(
        &mut self,
        s: &mut S,
        key: Key,
    ) -> Result<MutationReport, S::Error> {
        let mut report = MutationReport::default();
        let (path, slot) = self.path_to_leaf(s, key)?;
        let Err(at) = slot else {
            return Ok(report);
        };
        let leaf = *path.last().expect("path ends at a leaf");
        let rank = self.next_rank;
        s.write(leaf, |n| {
            let NodeKind::Leaf { keys, ranks, .. } = &mut n.kind else {
                unreachable!("path ends at a leaf");
            };
            keys.insert(at, key);
            ranks.insert(at, rank);
        })?;
        report.applied = true;
        self.wrote(&mut report, &[leaf]);
        // The new record itself (append-only value heap).
        report.writes.push((
            Addr::new(self.data_base.get() + rank * self.record_bytes),
            self.record_bytes.max(1),
        ));
        self.next_rank += 1;
        self.n_keys += 1;

        // Ascend the path: split overflowing nodes, refresh bounds.
        for pos in (0..path.len()).rev() {
            let id = path[pos];
            let over = |n: &Node| n.fill() > self.cap(n);
            let Some((level, lo, hi)) = self.refresh_unless(s, id, over)? else {
                continue;
            };
            let sib = self.split_node(s, id)?;
            report.splits += 1;
            push_stale(&mut report, level, lo, hi, MutKind::Split);
            self.wrote(&mut report, &[id, sib]);
            let (sib_lo, sib_hi) = s.read(sib, |n| (n.lo, n.hi))?;
            if pos == 0 {
                // The root itself split: grow a new root above it.
                let root = Node {
                    level: level + 1,
                    lo: s.read(id, |n| n.lo)?,
                    hi: sib_hi,
                    dead: false,
                    kind: NodeKind::Interior {
                        seps: vec![sib_lo],
                        children: vec![id, sib],
                    },
                };
                self.root = self.alloc(s, root)?;
                self.depth += 1;
                self.wrote(&mut report, &[self.root]);
            } else {
                let parent = path[pos - 1];
                s.write(parent, |n| {
                    let (cpos, _) = child_pos(n, id);
                    let (seps, children) = interior(n);
                    children.insert(cpos + 1, sib);
                    seps.insert(cpos, sib_lo);
                })?;
                self.wrote(&mut report, &[parent]);
            }
        }
        Ok(report)
    }

    /// Deletes `key`, rebalancing or merging underflowing nodes up the
    /// walk path. Deleting an absent key is a no-op (`applied ==
    /// false`). The root is exempt from underflow: depth never shrinks,
    /// and a root leaf may end up empty (its span collapses so it covers
    /// nothing).
    pub fn delete_key<S: NodeStore>(
        &mut self,
        s: &mut S,
        key: Key,
    ) -> Result<MutationReport, S::Error> {
        let mut report = MutationReport::default();
        let (path, slot) = self.path_to_leaf(s, key)?;
        let Ok(at) = slot else {
            return Ok(report);
        };
        let leaf = *path.last().expect("path ends at a leaf");
        s.write(leaf, |n| {
            let NodeKind::Leaf { keys, ranks, .. } = &mut n.kind else {
                unreachable!("path ends at a leaf");
            };
            keys.remove(at);
            ranks.remove(at);
        })?;
        self.n_keys -= 1;
        report.applied = true;
        self.wrote(&mut report, &[leaf]);

        // Ascend the path (root exempt): fix underflow, refresh bounds.
        for pos in (1..path.len()).rev() {
            let id = path[pos];
            let under = |n: &Node| n.fill() < self.min_fill(n);
            if self.refresh_unless(s, id, under)?.is_some() {
                self.rebalance_or_merge(s, path[pos - 1], id, &mut report)?;
            }
        }
        self.refresh_bounds(s, path[0])?;
        Ok(report)
    }

    /// Overflow threshold of `n`'s kind.
    fn cap(&self, n: &Node) -> usize {
        match n.kind {
            NodeKind::Leaf { .. } => self.leaf_cap,
            NodeKind::Interior { .. } => self.fanout,
        }
    }

    /// Underflow threshold of `n`'s kind.
    fn min_fill(&self, n: &Node) -> usize {
        match n.kind {
            NodeKind::Leaf { .. } => (self.leaf_cap / 2).max(1),
            NodeKind::Interior { .. } => (self.fanout / 2).max(2),
        }
    }

    /// Records the write-back of `ids`: their simulated `(addr, bytes)`.
    fn wrote(&self, report: &mut MutationReport, ids: &[NodeId]) {
        for &id in ids {
            let slot = id as usize;
            report
                .writes
                .push((self.arena.addr(slot), self.arena.bytes(slot)));
        }
    }

    /// Places `node` in the arena and the store (slot == id).
    fn alloc<S: NodeStore>(&mut self, s: &mut S, node: Node) -> Result<NodeId, S::Error> {
        let slot = self.arena.alloc(node.model_bytes());
        let id = s.alloc(node)?;
        debug_assert_eq!(slot, id as usize, "slot == id invariant");
        Ok(id)
    }

    /// The root-to-leaf path for `key`, with the key's search result in
    /// the leaf (`Ok(pos)` when present, `Err(insertion point)` if not).
    #[allow(clippy::type_complexity)]
    fn path_to_leaf<S: NodeStore>(
        &self,
        s: &mut S,
        key: Key,
    ) -> Result<(Vec<NodeId>, Result<usize, usize>), S::Error> {
        let mut path = Vec::with_capacity(self.depth as usize);
        let mut id = self.root;
        loop {
            path.push(id);
            let step = s.read(id, |n| match &n.kind {
                NodeKind::Interior { seps, children } => Ok(children[route(seps, key)]),
                NodeKind::Leaf { keys, .. } => Err(keys.binary_search(&key)),
            })?;
            match step {
                Ok(child) => id = child,
                Err(slot) => return Ok((path, slot)),
            }
        }
    }

    /// Recomputes `[lo, hi]` from current contents. An empty (root) leaf
    /// collapses to a single-key span at its old low bound, which a walk
    /// resolves as not-found.
    fn refresh_bounds<S: NodeStore>(&self, s: &mut S, id: NodeId) -> Result<(), S::Error> {
        self.refresh_unless(s, id, |_| false).map(|_| ())
    }

    /// Reads `id` once: when `unfit` holds for it (it must split or
    /// rebalance), returns its level and bounds untouched, else refreshes
    /// its bounds like [`Geometry::refresh_bounds`] and returns `None`.
    fn refresh_unless<S: NodeStore>(
        &self,
        s: &mut S,
        id: NodeId,
        unfit: impl Fn(&Node) -> bool,
    ) -> Result<Option<(u8, Key, Key)>, S::Error> {
        let (unfit, level, old, span) = s.read(id, |n| {
            let span = match &n.kind {
                NodeKind::Leaf { keys, .. } => match (keys.first(), keys.last()) {
                    (Some(&lo), Some(&hi)) => Ok((lo, hi)),
                    _ => Ok((n.lo, n.lo)),
                },
                NodeKind::Interior { children, .. } => Err((
                    children[0],
                    *children.last().expect("interior keeps a child"),
                )),
            };
            (unfit(n), n.level, (n.lo, n.hi), span)
        })?;
        if unfit {
            return Ok(Some((level, old.0, old.1)));
        }
        let new = match span {
            Ok(bounds) => bounds,
            Err((first, last)) => (s.read(first, |n| n.lo)?, s.read(last, |n| n.hi)?),
        };
        if new != old {
            s.write(id, |n| (n.lo, n.hi) = new)?;
        }
        Ok(None)
    }

    /// Low bounds of `children[1..]`: the separators they imply.
    fn seps_of<S: NodeStore>(&self, s: &mut S, children: &[NodeId]) -> Result<Vec<Key>, S::Error> {
        children[1..].iter().map(|&c| s.read(c, |n| n.lo)).collect()
    }

    /// Rebuilds an interior node's separators from its children's low
    /// bounds (no-op for leaves).
    fn rebuild_seps<S: NodeStore>(&self, s: &mut S, id: NodeId) -> Result<(), S::Error> {
        let Some((old, children)) = s.read(id, |n| match &n.kind {
            NodeKind::Interior { seps, children } => Some((seps.clone(), children.clone())),
            NodeKind::Leaf { .. } => None,
        })?
        else {
            return Ok(());
        };
        let seps = self.seps_of(s, &children)?;
        if seps != old {
            s.write(id, |n| *interior(n).0 = seps)?;
        }
        Ok(())
    }

    /// Splits overflowing node `id` in half, returning the new right
    /// sibling, allocated past the value heap. The heap is reserved
    /// lazily, before the first mutation allocates, so split nodes never
    /// alias data records and read-only trees keep their exact bulk-load
    /// footprint.
    fn split_node<S: NodeStore>(&mut self, s: &mut S, id: NodeId) -> Result<NodeId, S::Error> {
        if !self.mut_ready {
            self.arena.skip_to(Addr::new(self.value_heap_end));
            self.mut_ready = true;
        }
        let rid = self.arena.len() as NodeId;
        let (level, half) = s.write(id, |n| {
            let half = match &mut n.kind {
                NodeKind::Leaf { keys, ranks, next } => {
                    let at = keys.len() / 2;
                    let half = NodeKind::Leaf {
                        keys: keys.split_off(at),
                        ranks: ranks.split_off(at),
                        next: *next,
                    };
                    *next = Some(rid);
                    half
                }
                NodeKind::Interior { children, .. } => {
                    let at = children.len() / 2;
                    NodeKind::Interior {
                        seps: Vec::new(),
                        children: children.split_off(at),
                    }
                }
            };
            (n.level, half)
        })?;
        let sib = match half {
            NodeKind::Leaf { keys, ranks, next } => Node {
                level,
                lo: keys[0],
                hi: *keys.last().expect("split halves are non-empty"),
                dead: false,
                kind: NodeKind::Leaf { keys, ranks, next },
            },
            NodeKind::Interior { children, .. } => Node {
                level,
                lo: s.read(children[0], |n| n.lo)?,
                hi: s.read(*children.last().expect("non-empty"), |n| n.hi)?,
                dead: false,
                kind: NodeKind::Interior {
                    seps: self.seps_of(s, &children)?,
                    children,
                },
            },
        };
        let created = self.alloc(s, sib)?;
        debug_assert_eq!(created, rid);
        self.rebuild_seps(s, id)?;
        self.refresh_bounds(s, id)?;
        Ok(rid)
    }

    /// Fixes underflowing `id`: borrow from an adjacent sibling with
    /// surplus, else merge with one (a node left underfull when neither
    /// applies — e.g. an only child — still routes correctly).
    fn rebalance_or_merge<S: NodeStore>(
        &mut self,
        s: &mut S,
        parent: NodeId,
        id: NodeId,
        report: &mut MutationReport,
    ) -> Result<(), S::Error> {
        let (cpos, left, right) = s.read(parent, |n| {
            let (cpos, children) = child_pos(n, id);
            let left = cpos.checked_sub(1).map(|l| children[l]);
            (cpos, left, children.get(cpos + 1).copied())
        })?;
        // Siblings share `id`'s level, hence its kind and thresholds.
        let (level, lo, hi, fill, cap, min) = s.read(id, |n| {
            (n.level, n.lo, n.hi, n.fill(), self.cap(n), self.min_fill(n))
        })?;
        let left = left
            .map(|l| s.read(l, |n| (l, n.lo, n.fill())))
            .transpose()?;
        let right = right
            .map(|r| s.read(r, |n| (r, n.hi, n.fill())))
            .transpose()?;
        let (op, span) = if let Some((l, l_lo, _)) = left.filter(|l| l.2 > min) {
            self.borrow_from_left(s, parent, cpos, l, id)?;
            self.wrote(report, &[l, id, parent]);
            (MutKind::Rebalance, (l_lo, hi))
        } else if let Some((r, r_hi, _)) = right.filter(|r| r.2 > min) {
            self.borrow_from_right(s, parent, cpos, id, r)?;
            self.wrote(report, &[id, r, parent]);
            (MutKind::Rebalance, (lo, r_hi))
        } else if let Some((l, l_lo, _)) = left.filter(|l| l.2 + fill <= cap) {
            self.merge_into_left(s, parent, cpos - 1, l, id)?;
            self.wrote(report, &[l, parent]);
            (MutKind::Merge, (l_lo, hi))
        } else if let Some((r, r_hi, _)) = right.filter(|r| fill + r.2 <= cap) {
            self.merge_into_left(s, parent, cpos, id, r)?;
            self.wrote(report, &[id, parent]);
            (MutKind::Merge, (lo, r_hi))
        } else {
            return Ok(());
        };
        if op == MutKind::Merge {
            report.merges += 1;
        } else {
            report.rebalances += 1;
        }
        push_stale(report, level, span.0, span.1, op);
        Ok(())
    }

    /// Moves the last key/child of `l` to the front of `id` (`l` is the
    /// left sibling at child position `cpos - 1`).
    fn borrow_from_left<S: NodeStore>(
        &self,
        s: &mut S,
        parent: NodeId,
        cpos: usize,
        l: NodeId,
        id: NodeId,
    ) -> Result<(), S::Error> {
        let moved = s.write(l, |n| match &mut n.kind {
            NodeKind::Leaf { keys, ranks, .. } => Entry::Key(
                keys.pop().expect("surplus leaf has keys"),
                ranks.pop().expect("ranks track keys"),
            ),
            NodeKind::Interior { seps, children } => {
                seps.pop();
                Entry::Child(children.pop().expect("surplus interior has children"))
            }
        })?;
        s.write(id, |n| match (&mut n.kind, moved) {
            (NodeKind::Leaf { keys, ranks, .. }, Entry::Key(k, r)) => {
                keys.insert(0, k);
                ranks.insert(0, r);
            }
            (NodeKind::Interior { children, .. }, Entry::Child(c)) => children.insert(0, c),
            _ => unreachable!("siblings share a kind"),
        })?;
        self.rebuild_seps(s, id)?;
        self.refresh_bounds(s, l)?;
        self.refresh_bounds(s, id)?;
        let new_lo = s.read(id, |n| n.lo)?;
        s.write(parent, |n| interior(n).0[cpos - 1] = new_lo)
    }

    /// Moves the first key/child of `r` to the end of `id` (`r` is the
    /// right sibling at child position `cpos + 1`).
    fn borrow_from_right<S: NodeStore>(
        &self,
        s: &mut S,
        parent: NodeId,
        cpos: usize,
        id: NodeId,
        r: NodeId,
    ) -> Result<(), S::Error> {
        let moved = s.write(r, |n| match &mut n.kind {
            NodeKind::Leaf { keys, ranks, .. } => Entry::Key(keys.remove(0), ranks.remove(0)),
            NodeKind::Interior { seps, children } => {
                if !seps.is_empty() {
                    seps.remove(0);
                }
                Entry::Child(children.remove(0))
            }
        })?;
        s.write(id, |n| match (&mut n.kind, moved) {
            (NodeKind::Leaf { keys, ranks, .. }, Entry::Key(k, rk)) => {
                keys.push(k);
                ranks.push(rk);
            }
            (NodeKind::Interior { children, .. }, Entry::Child(c)) => children.push(c),
            _ => unreachable!("siblings share a kind"),
        })?;
        self.rebuild_seps(s, id)?;
        self.rebuild_seps(s, r)?;
        self.refresh_bounds(s, id)?;
        self.refresh_bounds(s, r)?;
        let new_lo = s.read(r, |n| n.lo)?;
        s.write(parent, |n| interior(n).0[cpos] = new_lo)
    }

    /// Folds `r` into its left sibling `l` and drops `r` from `parent`
    /// (`sep_idx` is the separator between them; the removed child sits
    /// at `sep_idx + 1`). `r` becomes a dead node.
    fn merge_into_left<S: NodeStore>(
        &self,
        s: &mut S,
        parent: NodeId,
        sep_idx: usize,
        l: NodeId,
        r: NodeId,
    ) -> Result<(), S::Error> {
        let contents = s.kill(r)?;
        s.write(l, |n| match (&mut n.kind, contents) {
            (
                NodeKind::Leaf { keys, ranks, next },
                NodeKind::Leaf {
                    keys: k,
                    ranks: rk,
                    next: nx,
                },
            ) => {
                keys.extend(k);
                ranks.extend(rk);
                *next = nx;
            }
            (NodeKind::Interior { children, .. }, NodeKind::Interior { children: cs, .. }) => {
                children.extend(cs)
            }
            _ => unreachable!("siblings share a kind"),
        })?;
        self.rebuild_seps(s, l)?;
        self.refresh_bounds(s, l)?;
        s.write(parent, |n| {
            let (seps, children) = interior(n);
            seps.remove(sep_idx);
            children.remove(sep_idx + 1);
        })
    }
}
