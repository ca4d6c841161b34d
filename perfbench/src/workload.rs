//! The three benchmark workloads: which builder makes each one, at what
//! size, and from which seed.

use metal_index::bptree::BPlusTree;
use metal_workloads::crud::uniform_std_v1;
use metal_workloads::{BuiltWorkload, Scale, Workload};

/// A benchmark workload (the `--workload` argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read-only WHERE lookups over one B+tree with a drifting hotspot.
    WhereRead,
    /// `uniform_std_v1` at 30% writes: splits, merges, invalidations.
    CrudW30,
    /// The 11-entry Table 2 roster, five index families.
    Table2Sweep,
}

/// Keys and walks of every roster entry of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Keys in each entry's primary index.
    pub keys: u64,
    /// Walks in each entry's request stream.
    pub walks: u64,
}

impl Kind {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Kind; 3] = [Kind::WhereRead, Kind::CrudW30, Kind::Table2Sweep];

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WhereRead => "where-read",
            Kind::CrudW30 => "crud-w30",
            Kind::Table2Sweep => "table2-sweep",
        }
    }

    /// The benchmark's input size. The table2 sweep runs 11 entries per
    /// round, so each is smaller; 35 k keys is still past the point where
    /// the IX-cache cost of `sets-s` under `metal-ix` grows faster than
    /// the key count.
    pub fn size(self) -> Size {
        match self {
            Kind::WhereRead => Size {
                keys: 100_000,
                walks: 20_000,
            },
            Kind::CrudW30 => Size {
                keys: 50_000,
                walks: 8_000,
            },
            Kind::Table2Sweep => Size {
                keys: 35_000,
                walks: 4_000,
            },
        }
    }
}

/// Builds the workload's roster at `size` from `seed`: one entry for
/// `where-read` and `crud-w30`, eleven for `table2-sweep`.
pub fn build(kind: Kind, size: Size, seed: u64) -> Vec<BuiltWorkload> {
    let scale = Scale::bench()
        .with_keys(size.keys)
        .with_walks(size.walks)
        .with_seed(seed);
    match kind {
        Kind::WhereRead => vec![Workload::Where.build(scale)],
        Kind::CrudW30 => vec![uniform_std_v1(scale, 30)],
        Kind::Table2Sweep => Workload::all()
            .into_iter()
            .map(|w| w.build(scale))
            .collect(),
    }
}

/// The entry's indexes as B+trees, or `None` when one of them is another
/// index family (the native backend executes B+trees only).
pub fn btrees(built: &BuiltWorkload) -> Option<Vec<&BPlusTree>> {
    built.indexes.iter().map(|i| i.as_bptree()).collect()
}

/// Whether the benchmark runs `built` on the native backend too. On the
/// table2 sweep only `join` does: two paged trees in one experiment, a
/// shape the other workloads lack, at a fraction of the cost of all
/// five B+tree entries (native calls rebuild their trees every time).
pub fn runs_native(kind: Kind, built: &BuiltWorkload) -> bool {
    btrees(built).is_some() && (kind != Kind::Table2Sweep || built.name == "join")
}
