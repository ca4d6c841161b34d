//! Serialization of [`Node`]s for paged storage.
//!
//! A node is encoded little-endian into a self-describing byte payload
//! that one block-file extent of the native backend holds. Serialization
//! is infallible; deserialization returns a contextful error so a
//! corrupted or truncated payload surfaces as a diagnosis, not a panic.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! tag:u8 (0 interior, 1 leaf)  dead:u8  level:u8  pad:u8
//! lo:u64  hi:u64
//! interior: n_seps:u32  n_children:u32  seps[n]:u64  children[m]:u32
//! leaf:     n_keys:u32  has_next:u32    keys[n]:u64  ranks[n]:u64  next:u32
//! ```
//!
//! A [`Geometry`] encodes as its scalars, the first node placed past the
//! value heap (`u32::MAX` when none) and every node's modeled byte size
//! in id order; decoding replays the arena from those sizes.

use super::{Geometry, Node, NodeKind};
use crate::arena::{Arena, NodeId};
use metal_sim::types::Addr;

impl Node {
    /// Serializes the node into a fresh payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        let tag = match self.kind {
            NodeKind::Interior { .. } => 0u8,
            NodeKind::Leaf { .. } => 1u8,
        };
        out.extend_from_slice(&[tag, self.dead as u8, self.level, 0]);
        out.extend_from_slice(&self.lo.to_le_bytes());
        out.extend_from_slice(&self.hi.to_le_bytes());
        match &self.kind {
            NodeKind::Interior { seps, children } => {
                out.extend_from_slice(&(seps.len() as u32).to_le_bytes());
                out.extend_from_slice(&(children.len() as u32).to_le_bytes());
                for s in seps {
                    out.extend_from_slice(&s.to_le_bytes());
                }
                for c in children {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            NodeKind::Leaf { keys, ranks, next } => {
                out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                out.extend_from_slice(&(next.is_some() as u32).to_le_bytes());
                for k in keys {
                    out.extend_from_slice(&k.to_le_bytes());
                }
                for r in ranks {
                    out.extend_from_slice(&r.to_le_bytes());
                }
                out.extend_from_slice(&next.unwrap_or(0).to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a node payload, reporting what was malformed when
    /// the bytes do not decode.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(bytes);
        let tag = r.u8()?;
        let dead = r.u8()? != 0;
        let level = r.u8()?;
        r.u8()?; // pad
        let lo = r.u64()?;
        let hi = r.u64()?;
        let kind = match tag {
            0 => {
                let n_seps = r.u32()? as usize;
                let n_children = r.u32()? as usize;
                if n_children > (1 << 24) || n_seps > (1 << 24) {
                    return Err(format!(
                        "implausible interior node: {n_seps} seps, {n_children} children"
                    ));
                }
                let mut seps = Vec::with_capacity(n_seps.min(r.left() / 8));
                for _ in 0..n_seps {
                    seps.push(r.u64()?);
                }
                let mut children = Vec::with_capacity(n_children.min(r.left() / 4));
                for _ in 0..n_children {
                    children.push(r.u32()?);
                }
                NodeKind::Interior { seps, children }
            }
            1 => {
                let n_keys = r.u32()? as usize;
                let has_next = r.u32()?;
                if n_keys > (1 << 24) || has_next > 1 {
                    return Err(format!(
                        "implausible leaf node: {n_keys} keys, has_next {has_next}"
                    ));
                }
                let mut keys = Vec::with_capacity(n_keys.min(r.left() / 8));
                for _ in 0..n_keys {
                    keys.push(r.u64()?);
                }
                let mut ranks = Vec::with_capacity(n_keys.min(r.left() / 8));
                for _ in 0..n_keys {
                    ranks.push(r.u64()?);
                }
                let next_id = r.u32()?;
                NodeKind::Leaf {
                    keys,
                    ranks,
                    next: (has_next == 1).then_some(next_id),
                }
            }
            t => return Err(format!("unknown node tag {t}")),
        };
        Ok(Node {
            level,
            lo,
            hi,
            dead,
            kind,
        })
    }
}

impl Geometry {
    /// Appends the geometry to `out` (layout in the module docs).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let arena = &self.arena;
        let boundary = (0..arena.len())
            .find(|&id| self.mut_ready && arena.addr(id).get() >= self.value_heap_end)
            .map_or(NodeId::MAX, |id| id as NodeId);
        out.extend_from_slice(&self.root.to_le_bytes());
        out.extend_from_slice(&[self.depth, self.mut_ready as u8]);
        for v in [
            self.leaf_cap as u64,
            self.fanout as u64,
            self.n_keys,
            self.next_rank,
            arena.base().get(),
            self.data_base.get(),
            self.record_bytes,
            self.value_heap_end,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&boundary.to_le_bytes());
        out.extend_from_slice(&(arena.len() as u32).to_le_bytes());
        for id in 0..arena.len() {
            out.extend_from_slice(&arena.bytes(id).to_le_bytes());
        }
    }

    /// Reads a geometry written by [`Geometry::encode`], replaying the
    /// arena allocation by allocation. A root or mutation boundary
    /// outside the node table, or an implausible node size, is an error.
    pub fn decode(r: &mut ByteReader) -> Result<Self, String> {
        let root = r.u32()?;
        let depth = r.u8()?;
        let mut_ready = r.u8()? != 0;
        let leaf_cap = r.u64()? as usize;
        let fanout = r.u64()? as usize;
        let n_keys = r.u64()?;
        let next_rank = r.u64()?;
        let mut arena = Arena::new(Addr::new(r.u64()?));
        let data_base = Addr::new(r.u64()?);
        let record_bytes = r.u64()?;
        let value_heap_end = r.u64()?;
        let boundary = r.u32()?;
        let n_nodes = r.u32()?;
        if root >= n_nodes {
            return Err(format!("root {root} out of range ({n_nodes} nodes)"));
        }
        if boundary != NodeId::MAX && boundary > n_nodes {
            return Err(format!(
                "mutation boundary {boundary} out of range ({n_nodes} nodes)"
            ));
        }
        for id in 0..n_nodes {
            let bytes = r.u64()?;
            if bytes > u64::from(u32::MAX) {
                return Err(format!("node {id} claims {bytes} bytes"));
            }
            if id == boundary {
                arena.skip_to(Addr::new(value_heap_end));
            }
            arena.alloc(bytes);
        }
        if mut_ready {
            arena.skip_to(Addr::new(value_heap_end));
        }
        Ok(Geometry {
            root,
            depth,
            leaf_cap,
            fanout,
            n_keys,
            next_rank,
            data_base,
            record_bytes,
            value_heap_end,
            mut_ready,
            arena,
        })
    }
}

/// Little-endian reader over a byte payload: the node codec's, and the
/// paged tree directory's. Running past the end is an error naming the
/// offset, never a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn left(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.left() {
            return Err(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len()
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::NodeId;

    fn leaf(n: usize, next: Option<NodeId>) -> Node {
        Node {
            level: 0,
            lo: 10,
            hi: 10 + n as u64,
            dead: false,
            kind: NodeKind::Leaf {
                keys: (0..n as u64).map(|k| 10 + k).collect(),
                ranks: (0..n as u64).map(|k| 1000 + k).collect(),
                next,
            },
        }
    }

    fn interior(n: usize) -> Node {
        Node {
            level: 3,
            lo: 0,
            hi: u64::MAX,
            dead: false,
            kind: NodeKind::Interior {
                seps: (1..n as u64).collect(),
                children: (0..n as u32).collect(),
            },
        }
    }

    #[test]
    fn round_trip_across_node_shapes() {
        for node in [
            leaf(0, None),
            leaf(1, Some(7)),
            leaf(9, Some(0)),
            leaf(512, None),
            interior(2),
            interior(256),
            Node {
                dead: true,
                ..leaf(0, None)
            },
        ] {
            let bytes = node.encode();
            assert_eq!(Node::decode(&bytes).unwrap(), node);
        }
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let bytes = leaf(9, Some(3)).encode();
        for cut in [0, 1, 5, bytes.len() - 1] {
            let err = Node::decode(&bytes[..cut]).expect_err("truncation detected");
            assert!(err.contains("truncated"), "{err}");
        }
    }

    #[test]
    fn bad_tag_and_implausible_counts_are_errors() {
        let mut bytes = leaf(2, None).encode();
        bytes[0] = 9;
        assert!(Node::decode(&bytes).unwrap_err().contains("tag"));
        let mut bytes = interior(4).encode();
        // Blow up the children count field (header is 20 bytes, then
        // n_seps at 20..24 and n_children at 24..28).
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Node::decode(&bytes).unwrap_err();
        assert!(err.contains("implausible"), "{err}");
    }
}
