//! Timed rounds of `run_design` calls and the metrics derived from them.
//!
//! Load model: a closed loop. One caller issues every call of a round
//! back to back and each call replays its entry's whole request stream,
//! so a rate is walks completed per host second at the workload's input
//! size. Each call runs on one worker (`with_shards(1)`) and builds its
//! IX-cache, modelled caches and (natively) its paged trees from
//! scratch, as every caller of `run_design` does. Rounds repeat until
//! the run's time is spent; each rate is the median over rounds, scaled
//! to the reference host speed (see [`crate::calib`]).

use crate::calib::Calibration;
use crate::check::{oracle_found, Checker, Ran};
use crate::layers::{self, UnitCosts};
use crate::report::Metric;
use crate::trace::Tracer;
use crate::workload::{self, Kind, Size};
use metal_core::models::DesignSpec;
use metal_core::native::{materialize_tree, supports_native, NativeMetrics};
use metal_core::request::OpKind;
use metal_core::runner::{run_design, Backend, ObsConfig, RunConfig, RunReport, ShardCtx};
use metal_sim::obs::{CountingSink, SharedSink};
use metal_workloads::BuiltWorkload;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Capacity of every design's cache (the paper's 64 kB default).
pub const CACHE_BYTES: usize = 64 * 1024;
/// MLP widths of the native runs.
const WIDTHS: [usize; 2] = [1, 8];
/// The designs the native backend executes.
const NATIVE_DESIGNS: [&str; 3] = ["stream", "metal-ix", "metal"];
/// The six figure designs.
const SIM_DESIGNS: [&str; 6] = [
    "stream", "address", "fa-opt", "x-cache", "metal-ix", "metal",
];
/// Simulator rate groups: the three address caches are one group.
const SIM_GROUPS: [(&str, &[&str]); 4] = [
    ("stream", &["stream"]),
    ("addr-caches", &["address", "fa-opt", "x-cache"]),
    ("metal-ix", &["metal-ix"]),
    ("metal", &["metal"]),
];
/// Every event kind the simulator and the native backend emit.
const EVENT_KINDS: [&str; 13] = [
    "walk_start",
    "walk_end",
    "walk_breakdown",
    "dram_fetch",
    "ix_probe",
    "insert",
    "bypass",
    "fill",
    "coalesce",
    "evict",
    "split",
    "invalidate",
    "tuner_decision",
];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Calibration blocks timed before each set-up.
const SETUP_BLOCKS: usize = 8;
/// Rounds per run even when they overrun `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Calibration blocks per round at least, spread over its calls.
const BLOCKS_PER_ROUND: usize = 96;

/// Median of `v` (NaN when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One `run_design` call of a round.
struct Call {
    entry: usize,
    design: String,
    spec: DesignSpec,
    ran: Ran,
}

impl Call {
    fn label(&self) -> String {
        match self.ran {
            Ran::Sim => format!("run_design.sim.{}", self.design),
            Ran::Native(w) => format!("run_design.native.{}.w{w}", self.design),
        }
    }

    fn is(&self, ran: Ran, designs: &[&str]) -> bool {
        self.ran == ran && designs.contains(&self.design.as_str())
    }
}

/// Every call of one round: per entry, the six designs in the simulator
/// (`stream` first, the reference of the found check), then, on entries
/// the workload runs natively, the native designs at each width.
fn calls(kind: Kind, entries: &[BuiltWorkload]) -> Vec<Call> {
    let mut out = Vec::new();
    for (entry, built) in entries.iter().enumerate() {
        let designs = metal_bench::figure_designs(built, CACHE_BYTES);
        for (design, spec) in &designs {
            out.push(Call {
                entry,
                design: design.clone(),
                spec: spec.clone(),
                ran: Ran::Sim,
            });
        }
        if !workload::runs_native(kind, built) {
            continue;
        }
        for (design, spec) in designs.into_iter().filter(|(_, s)| supports_native(s)) {
            for w in WIDTHS {
                out.push(Call {
                    entry,
                    design: design.clone(),
                    spec: spec.clone(),
                    ran: Ran::Native(w),
                });
            }
        }
    }
    out
}

/// The counters the metrics use from one call's report. The report
/// itself is dropped at once, so peak memory does not depend on how many
/// reports a round would otherwise keep.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    walks: u64,
    probes: u64,
    misses: u64,
    inserts: u64,
    bypasses: u64,
    levels_skipped: u64,
    invalidated: u64,
    dram_node_reads: u64,
    stall_cycles: u64,
    cycles: u64,
    exec_cycles: u64,
    native: NativeMetrics,
}

impl Counts {
    fn of(r: &RunReport) -> Counts {
        let s = &r.stats;
        Counts {
            walks: s.walks,
            probes: s.probes,
            misses: s.misses,
            inserts: s.inserts,
            bypasses: s.bypasses,
            levels_skipped: s.levels_skipped,
            invalidated: s.entries_invalidated,
            dram_node_reads: s.dram_node_reads,
            stall_cycles: s.breakdown.stall_cycles,
            cycles: s.breakdown.total(),
            exec_cycles: s.exec_cycles.get(),
            native: r.native.unwrap_or_default(),
        }
    }

    fn add(&mut self, o: &Counts) {
        self.walks += o.walks;
        self.probes += o.probes;
        self.misses += o.misses;
        self.inserts += o.inserts;
        self.bypasses += o.bypasses;
        self.levels_skipped += o.levels_skipped;
        self.invalidated += o.invalidated;
        self.dram_node_reads += o.dram_node_reads;
        self.stall_cycles += o.stall_cycles;
        self.cycles += o.cycles;
        self.exec_cycles += o.exec_cycles;
        self.native.merge(&o.native);
    }
}

/// One round: host seconds and counts per call, aligned with the calls
/// (`None` where the call panicked), and how much slower than the
/// reference the host ran meanwhile.
struct Round {
    secs: Vec<f64>,
    counts: Vec<Option<Counts>>,
    slowdown: f64,
}

impl Round {
    /// Counts summed over the picked calls.
    fn sum(&self, calls: &[Call], pick: impl Fn(&Call) -> bool) -> Counts {
        let mut s = Counts::default();
        for (_, c) in calls
            .iter()
            .zip(&self.counts)
            .filter(|(call, _)| pick(call))
        {
            if let Some(c) = c {
                s.add(c);
            }
        }
        s
    }
}

/// The untraced and traced rounds of a run, and the first traced
/// round's event counts.
struct Rounds {
    untraced: Vec<Round>,
    traced: Vec<Round>,
    events: BTreeMap<&'static str, u64>,
}

thread_local! {
    /// The counting sinks of the calls observed on this thread.
    static SINKS: RefCell<Vec<Rc<RefCell<CountingSink>>>> = const { RefCell::new(Vec::new()) };
}

/// Observability config that attaches a fresh `CountingSink` to every
/// simulation. Each call runs one shard on the calling thread, so the
/// sinks land in this thread's list.
fn counting_obs() -> ObsConfig {
    let factory = |_: &ShardCtx| {
        let sink = Rc::new(RefCell::new(CountingSink::new()));
        SINKS.with(|s| s.borrow_mut().push(sink.clone()));
        Some(sink as SharedSink)
    };
    ObsConfig {
        sink_factory: Some(Arc::new(factory)),
        ..ObsConfig::default()
    }
}

/// Drains the counting sinks, summing their per-kind counts.
fn take_counts() -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for sink in SINKS.with(|s| std::mem::take(&mut *s.borrow_mut())) {
        for (kind, n) in sink.borrow().counts() {
            *out.entry(*kind).or_insert(0) += n;
        }
    }
    out
}

/// Host seconds and report of one call (`None` when it panicked).
fn execute(call: &Call, built: &BuiltWorkload, obs: ObsConfig) -> (f64, Option<RunReport>) {
    let (backend, width) = match call.ran {
        Ran::Sim => (Backend::Sim, 1),
        Ran::Native(w) => (Backend::Native, w),
    };
    let cfg = RunConfig::default()
        .with_shards(1)
        .with_lanes(built.tiles)
        .with_backend(backend)
        .with_mlp_width(width)
        .with_obs(obs);
    let exp = built.experiment();
    let t = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| run_design(&call.spec, &exp, &cfg))).ok();
    (t.elapsed().as_secs_f64(), report)
}

/// A built roster plus its set-up times (medians over the set-ups).
struct Setup {
    entries: Vec<BuiltWorkload>,
    total_s: f64,
    /// `total_s` with each set-up scaled by the calibration blocks timed
    /// just before it.
    scaled_total_s: f64,
    build_s: f64,
    materialize_s: f64,
    /// Per roster entry: seconds to materialize its B+tree indexes.
    entry_materialize_s: Vec<f64>,
}

/// Builds the roster and materializes each B+tree index once,
/// `SETUP_REPS` times.
fn setup(kind: Kind, size: Size, seed: u64, tracer: &mut Tracer, cal: &mut Calibration) -> Setup {
    let (mut totals, mut builds, mut mats) = (Vec::new(), Vec::new(), Vec::new());
    let mut scaled = Vec::new();
    let mut per_entry: Vec<Vec<f64>> = Vec::new();
    let mut entries = Vec::new();
    for _ in 0..SETUP_REPS {
        let slowdown = crate::calib::slowdown((0..SETUP_BLOCKS).map(|_| cal.sample()).collect());
        let req = tracer.request();
        let root = tracer.enter("setup", req);
        let t = Instant::now();
        entries = tracer.span("workloads.build", req, || workload::build(kind, size, seed));
        let build_s = t.elapsed().as_secs_f64();
        per_entry.resize(entries.len(), Vec::new());
        let mut mat_s = 0.0;
        for (built, times) in entries.iter().zip(&mut per_entry) {
            let t = Instant::now();
            for tree in built.indexes.iter().filter_map(|i| i.as_bptree()) {
                tracer.span("native.materialize", req, || {
                    drop(materialize_tree(tree).expect("materialize a B+tree index"));
                });
            }
            let s = t.elapsed().as_secs_f64();
            times.push(s);
            mat_s += s;
        }
        tracer.exit(root);
        totals.push(build_s + mat_s);
        scaled.push((build_s + mat_s) / slowdown);
        builds.push(build_s);
        mats.push(mat_s);
    }
    Setup {
        entries,
        total_s: median(totals),
        scaled_total_s: median(scaled),
        build_s: median(builds),
        materialize_s: median(mats),
        entry_materialize_s: per_entry.into_iter().map(median).collect(),
    }
}

/// Everything one run shares between its rounds.
struct Bench<'a> {
    kind: Kind,
    entries: &'a [BuiltWorkload],
    calls: Vec<Call>,
    checker: Checker,
    tracer: Tracer,
    cal: Calibration,
}

impl<'a> Bench<'a> {
    fn new(kind: Kind, set: &'a Setup, tracer: Tracer, cal: Calibration) -> Bench<'a> {
        Bench {
            kind,
            entries: &set.entries,
            calls: calls(kind, &set.entries),
            checker: Checker::new(set.entries.iter().map(oracle_found).collect()),
            tracer,
            cal,
        }
    }

    /// Runs every call once, checking each outcome. With `traced`, each
    /// call runs inside a span and with a counting sink attached.
    fn round(&mut self, traced: bool) -> Round {
        let name = if traced {
            "round.traced"
        } else {
            "round.untraced"
        };
        let root = self.tracer.enter(name, 0);
        let mut round = Round {
            secs: Vec::with_capacity(self.calls.len()),
            counts: Vec::with_capacity(self.calls.len()),
            slowdown: 1.0,
        };
        let blocks = BLOCKS_PER_ROUND.div_ceil(self.calls.len());
        let mut cal = Vec::with_capacity(blocks * self.calls.len());
        for call in &self.calls {
            let built = &self.entries[call.entry];
            let obs = if traced {
                counting_obs()
            } else {
                ObsConfig::default()
            };
            cal.extend((0..blocks).map(|_| self.cal.sample()));
            let req = self.tracer.request();
            let (s, report) = self
                .tracer
                .span(call.label(), req, || execute(call, built, obs));
            let walks = built.requests.len() as u64;
            self.checker
                .record(call.entry, &call.design, call.ran, walks, report.as_ref());
            round.secs.push(s);
            round.counts.push(report.as_ref().map(Counts::of));
        }
        self.tracer.exit(root);
        round.slowdown = crate::calib::slowdown(cal);
        round
    }

    /// Rounds for `secs` seconds (at least `MIN_ROUNDS`); with
    /// `with_traced`, every untraced round is followed by a traced one.
    fn rounds(&mut self, secs: f64, with_traced: bool) -> Rounds {
        let mut out = Rounds {
            untraced: Vec::new(),
            traced: Vec::new(),
            events: BTreeMap::new(),
        };
        let t = Instant::now();
        // Stop before a round that would end past `secs`.
        let mut last = 0.0;
        while out.untraced.len() < MIN_ROUNDS || t.elapsed().as_secs_f64() + last < secs {
            let start = t.elapsed().as_secs_f64();
            out.untraced.push(self.round(false));
            if with_traced {
                take_counts();
                let round = self.round(true);
                let events = take_counts();
                if out.traced.is_empty() {
                    out.events = events;
                }
                out.traced.push(round);
            }
            last = t.elapsed().as_secs_f64() - start;
        }
        out
    }

    /// Median over rounds of the picked calls' walks ÷ their host
    /// seconds, each round scaled to the reference host speed.
    fn rate(&self, rounds: &[Round], pick: impl Fn(&Call) -> bool) -> f64 {
        let per_round = rounds.iter().map(|r| {
            let (mut walks, mut secs) = (0u64, 0f64);
            for (call, &s) in self.calls.iter().zip(&r.secs).filter(|(c, _)| pick(c)) {
                walks += self.entries[call.entry].requests.len() as u64;
                secs += s;
            }
            walks as f64 / secs * r.slowdown
        });
        median(per_round.collect())
    }

    /// Median over rounds of the picked calls' summed host seconds.
    fn seconds(&self, rounds: &[Round], pick: impl Fn(&Call) -> bool) -> f64 {
        let per_round = rounds.iter().map(|r| {
            let picked = self.calls.iter().zip(&r.secs).filter(|(c, _)| pick(c));
            picked.map(|(_, s)| s).sum::<f64>()
        });
        median(per_round.collect())
    }

    /// Modelled speedup of `design` over `stream`: the ratio of
    /// simulated execution cycles, geometric mean over the roster.
    fn model_speedup(&self, round: &Round, design: &str) -> f64 {
        let cycles = |entry: usize, d: &str| {
            let c = round.sum(&self.calls, |c| c.entry == entry && c.is(Ran::Sim, &[d]));
            c.exec_cycles as f64
        };
        let n = self.entries.len();
        let log_sum: f64 = (0..n)
            .map(|e| (cycles(e, "stream") / cycles(e, design)).ln())
            .sum();
        (log_sum / n as f64).exp()
    }
}

fn calibration() -> Calibration {
    Calibration::new(&std::env::temp_dir()).expect("write the calibration file")
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Result of one benchmark run.
pub struct Outcome {
    /// The run's metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Lines printed before the metrics as `#` comments.
    pub notes: Vec<String>,
    /// Attempted and failed walks.
    pub checker: Checker,
    /// The spans (empty for the untraced run).
    pub tracer: Tracer,
}

/// The untraced run: every end-to-end metric.
pub fn untraced(kind: Kind, size: Size, seed: u64, secs: f64) -> Outcome {
    let mut tracer = Tracer::off();
    let mut cal = calibration();
    let set = setup(kind, size, seed, &mut tracer, &mut cal);
    let mut b = Bench::new(kind, &set, tracer, cal);
    let r = b.rounds(secs, false);
    let slowdown = median(r.untraced.iter().map(|r| r.slowdown).collect());

    let mut m = vec![Metric::timed("setup_s", set.scaled_total_s, "s")];
    for (group, designs) in SIM_GROUPS {
        let v = b.rate(&r.untraced, |c| c.is(Ran::Sim, designs));
        m.push(Metric::timed(
            format!("sim_walks_per_s.{group}"),
            v,
            "walks/s",
        ));
    }
    for d in NATIVE_DESIGNS {
        for w in WIDTHS {
            let v = b.rate(&r.untraced, |c| c.is(Ran::Native(w), &[d]));
            m.push(Metric::timed(
                format!("native_walks_per_s.{d}.w{w}"),
                v,
                "walks/s",
            ));
        }
    }
    for d in ["metal", "metal-ix"] {
        let v = b.model_speedup(&r.untraced[0], d);
        m.push(Metric::exact(format!("model_speedup.{d}"), v, "x"));
    }
    m.push(Metric::timed("peak_rss_mb", peak_rss_mb(), "MiB"));
    let notes = vec![format!(
        "host speed: calibration block median {:.3} ms vs reference {:.3} ms, so times are \
         scaled by about {:.4}, round by round (raw setup_s {:.4} s)",
        slowdown * crate::calib::REFERENCE_S * 1e3,
        crate::calib::REFERENCE_S * 1e3,
        1.0 / slowdown,
        set.total_s
    )];
    Outcome {
        metrics: m,
        notes,
        checker: b.checker,
        tracer: b.tracer,
    }
}

/// The traced run: every per-layer metric. Untraced and traced rounds
/// alternate; the ratio of their medians is the tracing overhead. Layer
/// times are raw host times.
pub fn traced(kind: Kind, size: Size, seed: u64, secs: f64) -> Outcome {
    let mut tracer = Tracer::default();
    let mut cal = calibration();
    let set = setup(kind, size, seed, &mut tracer, &mut cal);
    let mut b = Bench::new(kind, &set, tracer, cal);
    let r = b.rounds(secs, true);
    let native: Vec<&BuiltWorkload> = set
        .entries
        .iter()
        .filter(|e| workload::runs_native(kind, e))
        .collect();
    let unit = layers::measure(&native, &set.entries, seed, &mut b.tracer);
    let first = &r.untraced[0];

    let mut m = vec![
        Metric::timed("host.calibration_read_ns", b.cal.read_ns(), "ns"),
        Metric::timed("workloads.build_s", set.build_s, "s"),
        Metric::timed("native.materialize_s", set.materialize_s, "s"),
        Metric::timed("blockfile.load_ns", unit.load_ns, "ns"),
        Metric::timed("codec.decode_ns", unit.decode_ns, "ns"),
        Metric::timed("tree.read_node_ns.cold", unit.read_cold_ns, "ns"),
        Metric::timed("tree.read_node_ns.hot", unit.read_hot_ns, "ns"),
        Metric::timed("tree.read_node_ns.staged", unit.read_staged_ns, "ns"),
        Metric::timed("tree.insert_key_ns", unit.insert_key_ns, "ns"),
        Metric::timed("tree.delete_key_ns", unit.delete_key_ns, "ns"),
        Metric::timed("ixcache.probe_ns.hit", unit.probe_hit_ns, "ns"),
        Metric::timed("ixcache.probe_ns.miss", unit.probe_miss_ns, "ns"),
        Metric::timed("ixcache.insert_ns", unit.ix_insert_ns, "ns"),
    ];
    for d in NATIVE_DESIGNS {
        for w in WIDTHS {
            let n = first.sum(&b.calls, |c| c.is(Ran::Native(w), &[d])).native;
            let per_walk = |v| ratio(v, n.walks);
            for (what, v) in [
                ("page_reads", n.page_reads),
                ("cold_reads", n.cold_reads),
                ("hot_hits", n.hot_hits),
                ("staged_hits", n.staged_hits),
            ] {
                let name = format!("native.{what}_per_walk.{d}.w{w}");
                m.push(Metric::exact(name, per_walk(v), "1/walk"));
            }
        }
        let w1 = first.sum(&b.calls, |c| c.is(Ran::Native(1), &[d])).native;
        let w8 = first.sum(&b.calls, |c| c.is(Ran::Native(8), &[d])).native;
        for (name, v, unit) in [
            (
                format!("page_writes_per_walk.{d}"),
                ratio(w1.page_writes, w1.walks),
                "1/walk",
            ),
            (
                format!("node_writes_per_walk.{d}"),
                ratio(w1.node_writes, w1.walks),
                "1/walk",
            ),
            (
                format!("prefetched_per_walk.{d}.w8"),
                ratio(w8.prefetched, w8.walks),
                "1/walk",
            ),
            (
                format!("staged_hits_per_prefetch.{d}.w8"),
                ratio(w8.staged_hits, w8.prefetched),
                "ratio",
            ),
        ] {
            m.push(Metric::exact(format!("native.{name}"), v, unit));
        }
    }
    for d in ["metal-ix", "metal"] {
        let s = first.sum(&b.calls, |c| c.is(Ran::Sim, &[d]));
        for (name, v, unit) in [
            ("hit_rate", ratio(s.probes - s.misses, s.probes), "ratio"),
            ("inserts_per_walk", ratio(s.inserts, s.walks), "1/walk"),
            ("bypasses_per_walk", ratio(s.bypasses, s.walks), "1/walk"),
            (
                "levels_skipped_per_walk",
                ratio(s.levels_skipped, s.walks),
                "1/walk",
            ),
            (
                "invalidated_per_walk",
                ratio(s.invalidated, s.walks),
                "1/walk",
            ),
        ] {
            m.push(Metric::exact(format!("ixcache.{name}.{d}"), v, unit));
        }
    }
    for d in SIM_DESIGNS {
        let s = first.sum(&b.calls, |c| c.is(Ran::Sim, &[d]));
        let host_ns = b.seconds(&r.untraced, |c| c.is(Ran::Sim, &[d])) * 1e9;
        let events = s.walks + s.dram_node_reads + s.probes;
        m.push(Metric::timed(
            format!("sim.host_ns_per_event.{d}"),
            host_ns / events as f64,
            "ns",
        ));
        for (name, v, unit) in [
            ("miss_rate", ratio(s.misses, s.probes), "ratio"),
            (
                "dram_reads_per_walk",
                ratio(s.dram_node_reads, s.walks),
                "1/walk",
            ),
            ("stall_frac", ratio(s.stall_cycles, s.cycles), "ratio"),
        ] {
            m.push(Metric::exact(format!("model.{name}.{d}"), v, unit));
        }
    }
    let traced_walks = r.traced[0].sum(&b.calls, |_| true).walks;
    for kind in EVENT_KINDS {
        let n = r.events.get(kind).copied().unwrap_or(0);
        m.push(Metric::exact(
            format!("obs.events_per_walk.{kind}"),
            ratio(n, traced_walks),
            "1/walk",
        ));
    }
    let all = |_: &Call| true;
    let overhead = b.seconds(&r.traced, all) / b.seconds(&r.untraced, all) - 1.0;
    m.push(Metric::timed("obs.trace_overhead_frac", overhead, "ratio"));
    for d in NATIVE_DESIGNS {
        let v = residual(&b, &set, &r, d, &unit);
        m.push(Metric::timed(
            format!("native.residual_frac.{d}.w1"),
            v,
            "ratio",
        ));
    }

    let notes = set
        .entries
        .iter()
        .enumerate()
        .map(|(e, built)| {
            let s = b.seconds(&r.untraced, |c| c.entry == e && c.ran == Ran::Sim);
            format!(
                "sweep.host_s.{} {s:.4} s (its simulated calls in one round, median)",
                built.name
            )
        })
        .collect();
    Outcome {
        metrics: m,
        notes,
        checker: b.checker,
        tracer: b.tracer,
    }
}

/// `1 − Σ(per-layer count × per-layer unit cost) ÷ measured time` of the
/// native width-1 calls of `design`: the share of their host time the
/// layer costs do not explain (negative when they over-explain it).
fn residual(b: &Bench, set: &Setup, r: &Rounds, design: &str, unit: &UnitCosts) -> f64 {
    let pick = |c: &Call| c.is(Ran::Native(1), &[design]);
    let measured_ns = b.seconds(&r.untraced, pick) * 1e9;
    let c = r.untraced[0].sum(&b.calls, pick);
    let n = c.native;
    let native = || {
        set.entries
            .iter()
            .zip(&set.entry_materialize_s)
            .filter(|(e, _)| workload::runs_native(b.kind, e))
    };
    let materialize_s: f64 = native().map(|(_, s)| s).sum();
    let ops = |op: OpKind| {
        native()
            .flat_map(|(e, _)| &e.requests)
            .filter(|q| q.op == op)
            .count() as f64
    };
    let predicted_ns = materialize_s * 1e9
        + n.cold_reads as f64 * unit.read_cold_ns
        + n.hot_hits as f64 * unit.read_hot_ns
        + n.staged_hits as f64 * unit.read_staged_ns
        + (c.probes - c.misses) as f64 * unit.probe_hit_ns
        + c.misses as f64 * unit.probe_miss_ns
        + c.inserts as f64 * unit.ix_insert_ns
        + ops(OpKind::Insert) * unit.insert_key_ns
        + ops(OpKind::Delete) * unit.delete_key_ns;
    1.0 - predicted_ns / measured_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        keys: 3_000,
        walks: 300,
    };

    fn exact(out: &Outcome) -> Vec<(String, u64)> {
        out.metrics
            .iter()
            .filter(|m| m.exact)
            .map(|m| (m.name.clone(), m.value.to_bits()))
            .collect()
    }

    #[test]
    fn same_seed_gives_bit_identical_model_metrics_and_counts() {
        for kind in [Kind::WhereRead, Kind::CrudW30] {
            for run in [untraced, traced] {
                let (a, b) = (run(kind, TINY, 11, 0.0), run(kind, TINY, 11, 0.0));
                assert!(exact(&a).iter().any(|(n, _)| n.starts_with("model")));
                assert_eq!(exact(&a), exact(&b), "{}", kind.name());
                assert_eq!(
                    (a.checker.failed, b.checker.failed),
                    (0, 0),
                    "{:?}",
                    a.checker.notes
                );
            }
        }
    }

    #[test]
    fn another_seed_changes_the_request_stream() {
        for kind in Kind::ALL {
            let (a, b) = (
                workload::build(kind, TINY, 11),
                workload::build(kind, TINY, 12),
            );
            assert_eq!(a.len(), b.len());
            assert!(
                a.iter().zip(&b).any(|(x, y)| x.requests != y.requests),
                "{}",
                kind.name()
            );
        }
    }

    /// The `name`s listed in one section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn every_workload_reports_exactly_the_listed_metrics() {
        let (end_to_end, per_layer) = (listed("end_to_end"), listed("per_layer"));
        assert!(per_layer.len() <= 128);
        for kind in Kind::ALL {
            let names = |o: Outcome| o.metrics.into_iter().map(|m| m.name).collect::<Vec<_>>();
            assert_eq!(
                names(untraced(kind, TINY, 3, 0.0)),
                end_to_end,
                "{}",
                kind.name()
            );
            assert_eq!(
                names(traced(kind, TINY, 3, 0.0)),
                per_layer,
                "{}",
                kind.name()
            );
        }
    }
}
