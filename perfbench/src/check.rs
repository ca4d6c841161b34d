//! Output checks behind `failed_walk_frac`.
//!
//! Three checks count walks with a wrong outcome as failed:
//!
//! 1. every design's `found_walks` equals the simulated `stream` run's;
//! 2. on entries made only of B+trees, `stream` equals the count from
//!    replaying the request stream against a `BTreeSet` (inserts and
//!    deletes applied in order; a walk is found when its key is present
//!    before its own write, the rule of `models.rs::note_outcome`);
//! 3. every native run's semantic outcome columns (the `fig_native`
//!    columns) equal the simulated run of the same design, at each width.
//!
//! A run that panics counts all of its walks as failed. So does a repeat
//! of a call whose outcome differs from the first round's.

use metal_core::request::OpKind;
use metal_core::runner::RunReport;
use metal_sim::stats::RunStats;
use metal_workloads::BuiltWorkload;
use std::collections::{BTreeMap, BTreeSet};

/// The semantic outcome of one run: the columns both backends, every
/// width and every repeat must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    walks: u64,
    found: u64,
    writes: u64,
    splits: u64,
    merges: u64,
    probes: u64,
    misses: u64,
    inserts: u64,
    bypasses: u64,
    invalidated: u64,
    hit_levels: Vec<u64>,
}

impl Outcome {
    /// The outcome columns of `stats`.
    pub fn of(stats: &RunStats) -> Outcome {
        Outcome {
            walks: stats.walks,
            found: stats.found_walks,
            writes: stats.write_walks,
            splits: stats.node_splits,
            merges: stats.node_merges,
            probes: stats.probes,
            misses: stats.misses,
            inserts: stats.inserts,
            bypasses: stats.bypasses,
            invalidated: stats.entries_invalidated,
            hit_levels: stats.hit_levels.clone(),
        }
    }

    fn columns(&self) -> [u64; 10] {
        [
            self.walks,
            self.found,
            self.writes,
            self.splits,
            self.merges,
            self.probes,
            self.misses,
            self.inserts,
            self.bypasses,
            self.invalidated,
        ]
    }
}

/// Walks two outcomes disagree on: 0 when they are equal, else the
/// largest difference in any column, and at least 1.
fn mismatched(got: &Outcome, want: &Outcome) -> u64 {
    if got == want {
        return 0;
    }
    let cols = got.columns().into_iter().zip(want.columns());
    let levels = got.hit_levels.iter().zip(&want.hit_levels);
    cols.chain(levels.map(|(a, b)| (*a, *b)))
        .map(|(a, b)| a.abs_diff(b))
        .max()
        .unwrap_or(0)
        .max(1)
}

/// Found walks of `built` by replaying its request stream against one
/// `BTreeSet` per index, or `None` when an index is not a B+tree.
pub fn oracle_found(built: &BuiltWorkload) -> Option<u64> {
    let mut sets: Vec<BTreeSet<u64>> = crate::workload::btrees(built)?
        .into_iter()
        .map(|t| t.range(0, u64::MAX).into_iter().collect())
        .collect();
    let mut found = 0;
    for req in &built.requests {
        let set = &mut sets[usize::from(req.index)];
        if set.contains(&req.key) {
            found += 1;
        }
        match req.op {
            OpKind::Insert => {
                set.insert(req.key);
            }
            OpKind::Delete => {
                set.remove(&req.key);
            }
            OpKind::Select | OpKind::Update => {}
        }
    }
    Some(found)
}

/// Which backend and width ran a call, as the checks need it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ran {
    /// The simulator.
    Sim,
    /// The native backend at this MLP width.
    Native(usize),
}

/// Tally of attempted and failed walks over every call of one run.
#[derive(Debug, Default)]
pub struct Checker {
    oracle: Vec<Option<u64>>,
    stream_found: BTreeMap<usize, u64>,
    expected: BTreeMap<(usize, String), Outcome>,
    /// Walks attempted.
    pub attempted: u64,
    /// Walks with a wrong outcome.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl Checker {
    /// A checker for a roster whose entries replay to `oracle` found
    /// counts (`None` where no replay exists).
    pub fn new(oracle: Vec<Option<u64>>) -> Checker {
        Checker {
            oracle,
            ..Checker::default()
        }
    }

    /// Checks one call of `walks` walks of `design` on roster entry
    /// `entry`; `report` is `None` when the call panicked. Within a round
    /// the simulated `stream` run of an entry comes first and every
    /// native run after the simulated run of its design.
    pub fn record(
        &mut self,
        entry: usize,
        design: &str,
        ran: Ran,
        walks: u64,
        report: Option<&RunReport>,
    ) {
        self.attempted += walks;
        let label = match ran {
            Ran::Sim => format!("sim {design}"),
            Ran::Native(w) => format!("native {design} w{w}"),
        };
        let Some(report) = report else {
            self.failed += walks;
            self.notes.push(format!("entry {entry}: {label} panicked"));
            return;
        };
        let got = Outcome::of(&report.stats);
        let mut bad = 0;
        match ran {
            Ran::Sim => {
                if design == "stream" && !self.stream_found.contains_key(&entry) {
                    self.stream_found.insert(entry, got.found);
                    if let Some(Some(want)) = self.oracle.get(entry) {
                        if got.found != *want {
                            self.notes.push(format!(
                                "entry {entry}: sim stream found {} walks, BTreeSet replay {want}",
                                got.found
                            ));
                            bad = got.found.abs_diff(*want);
                        }
                    }
                }
                if let Some(&want) = self.stream_found.get(&entry) {
                    if got.found != want {
                        self.notes.push(format!(
                            "entry {entry}: {label} found {} walks, sim stream {want}",
                            got.found
                        ));
                        bad = bad.max(got.found.abs_diff(want));
                    }
                }
                let key = (entry, design.to_string());
                match self.expected.get(&key) {
                    Some(first) if *first != got => {
                        self.notes.push(format!(
                            "entry {entry}: {label} differs from its first round"
                        ));
                        bad = bad.max(mismatched(&got, first));
                    }
                    Some(_) => {}
                    None => {
                        self.expected.insert(key, got);
                    }
                }
            }
            Ran::Native(_) => match self.expected.get(&(entry, design.to_string())) {
                Some(want) if *want != got => {
                    self.notes.push(format!(
                        "entry {entry}: {label} outcome {got:?} differs from sim {want:?}"
                    ));
                    bad = mismatched(&got, want);
                }
                Some(_) => {}
                None => {
                    self.notes
                        .push(format!("entry {entry}: {label} ran before its sim run"));
                    bad = walks;
                }
            },
        }
        self.failed += bad.min(walks);
    }

    /// The process exit code: non-zero when any walk failed.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build, Kind, Size};
    use metal_core::runner::{run_design, Backend, RunConfig};

    const TINY: Size = Size {
        keys: 3_000,
        walks: 400,
    };

    fn run(built: &BuiltWorkload, design: &str, backend: Backend) -> RunReport {
        let spec = metal_bench::figure_designs(built, 64 * 1024)
            .into_iter()
            .find(|(name, _)| name == design)
            .expect("a figure design")
            .1;
        let cfg = RunConfig::default()
            .with_shards(1)
            .with_lanes(built.tiles)
            .with_backend(backend);
        run_design(&spec, &built.experiment(), &cfg)
    }

    fn checked_crud() -> (BuiltWorkload, Checker, u64) {
        let built = build(Kind::CrudW30, TINY, 5).remove(0);
        let mut checker = Checker::new(vec![oracle_found(&built)]);
        let walks = built.requests.len() as u64;
        checker.record(
            0,
            "stream",
            Ran::Sim,
            walks,
            Some(&run(&built, "stream", Backend::Sim)),
        );
        (built, checker, walks)
    }

    #[test]
    fn honest_runs_pass() {
        let (built, mut checker, walks) = checked_crud();
        let sim = run(&built, "metal", Backend::Sim);
        checker.record(0, "metal", Ran::Sim, walks, Some(&sim));
        let native = run(&built, "metal", Backend::Native);
        checker.record(0, "metal", Ran::Native(1), walks, Some(&native));
        assert_eq!(checker.failed, 0, "{:?}", checker.notes);
        assert_eq!(checker.attempted, 3 * walks);
        assert_eq!(checker.exit_code(), 0);
    }

    #[test]
    fn found_walks_off_by_one_fails() {
        let (built, mut checker, walks) = checked_crud();
        let mut forged = run(&built, "metal-ix", Backend::Sim);
        forged.stats.found_walks += 1;
        checker.record(0, "metal-ix", Ran::Sim, walks, Some(&forged));
        assert_eq!(checker.failed, 1, "{:?}", checker.notes);
        assert_ne!(checker.exit_code(), 0);
    }

    #[test]
    fn changed_native_counter_fails() {
        let (built, mut checker, walks) = checked_crud();
        let sim = run(&built, "metal", Backend::Sim);
        checker.record(0, "metal", Ran::Sim, walks, Some(&sim));
        let mut forged = run(&built, "metal", Backend::Native);
        forged.stats.inserts += 1;
        checker.record(0, "metal", Ran::Native(8), walks, Some(&forged));
        assert_eq!(checker.failed, 1, "{:?}", checker.notes);
        assert_ne!(checker.exit_code(), 0);
    }

    #[test]
    fn panicked_run_fails_every_walk() {
        let (_, mut checker, walks) = checked_crud();
        checker.record(0, "metal", Ran::Native(1), walks, None);
        assert_eq!(checker.failed, walks);
        assert_ne!(checker.exit_code(), 0);
    }

    #[test]
    fn oracle_disagreement_fails() {
        let built = build(Kind::WhereRead, TINY, 5).remove(0);
        let want = oracle_found(&built).expect("WHERE is one B+tree");
        let mut checker = Checker::new(vec![Some(want + 2)]);
        let walks = built.requests.len() as u64;
        checker.record(
            0,
            "stream",
            Ran::Sim,
            walks,
            Some(&run(&built, "stream", Backend::Sim)),
        );
        assert_eq!(checker.failed, 2, "{:?}", checker.notes);
    }
}
