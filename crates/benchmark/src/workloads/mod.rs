//! The four workloads and the machinery they share: run configuration,
//! result records, the closed-loop client, and oracle sampling.

pub mod churn;
pub mod device;
pub mod join;
pub mod resident;

use crate::inputs::{Op, OpKind};
use crate::json::Json;
use crate::oracle::{brute_force, Answer};
use crate::spec::{self, MetricSpec};
use crate::stats;
use flat_core::{DbOptions, FlatDb, FlatError, Neighbor, ShardOptions, ShardedDb};
use flat_geom::Aabb;
use flat_rtree::{Entry, Hit};
use flat_storage::{PageStore, SchedulerConfig, PAGE_SIZE};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Default element count of the neuron dataset (450 neurons × 1000
/// segments) and of the two join datasets together.
pub const DEFAULT_ELEMENTS: usize = 450_000;

/// Every this-many-th operation of a script keeps its full result for
/// the brute-force oracle (checked after timing ends).
pub const ORACLE_STRIDE: usize = 50;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// One of [`spec::WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// `true` for the traced (per-layer ladder) run.
    pub traced: bool,
    /// Dataset size. Workload definitions assume [`DEFAULT_ELEMENTS`];
    /// smaller values exist for the smoke test.
    pub elements: usize,
    /// Multiplies fixed operation counts (ladder scripts, warm-up and
    /// count passes, crash cycles) — never the dataset.
    pub ops_scale: f64,
}

impl RunConfig {
    /// A default-scale configuration.
    pub fn new(workload: &str, seed: u64, seconds: f64, traced: bool) -> RunConfig {
        RunConfig {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            elements: DEFAULT_ELEMENTS,
            ops_scale: 1.0,
        }
    }

    /// `count` scaled by `ops_scale`; a non-zero count stays at least 1.
    pub fn ops(&self, count: usize) -> usize {
        ((count as f64 * self.ops_scale).round() as usize).max(count.min(1))
    }
}

/// Failure accounting: operations attempted vs operations that returned
/// an error or diverged from the oracle.
#[derive(Debug, Default, Clone)]
pub struct Checker {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub messages: Vec<String>,
}

impl Checker {
    /// Counts `n` attempted operations that succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one attempted check; records `describe()` if it failed.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(describe());
        }
    }

    /// Counts one failure of an already-counted attempt.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Folds another checker in.
    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The configuration that produced it.
    pub config: RunConfig,
    /// Failure accounting.
    pub checker: Checker,
    /// `BENCHMARK.json`'s metrics: every end-to-end metric (untraced) or
    /// every per-layer metric (traced), in spec order.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    /// The user-facing metrics only some workloads report, for this
    /// workload (untraced runs only).
    pub specific: Vec<(&'static MetricSpec, f64)>,
    /// Human-readable detail: sample counts, the layer table.
    pub notes: Vec<String>,
    /// Span summary of a traced run.
    pub trace: Option<Json>,
}

/// Collects metric values by name and checks them against the spec.
#[derive(Debug, Default)]
pub struct MetricSet {
    values: Vec<(&'static str, f64)>,
}

impl MetricSet {
    /// Records `name = value` (last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Adds `value` to `name` (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let current = self.get(name).unwrap_or(0.0);
        self.set(name, current + value);
    }

    /// The recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Resolves against `specs`: every recorded name must be a spec'd
    /// metric; spec'd metrics never recorded take `missing` (0 for a
    /// layer the workload does not exercise) or panic if `missing` is
    /// `None` — an end-to-end metric must always be measured.
    pub fn resolve(
        &self,
        specs: impl Iterator<Item = &'static MetricSpec>,
        missing: Option<f64>,
    ) -> Vec<(&'static MetricSpec, f64)> {
        let specs: Vec<&'static MetricSpec> = specs.collect();
        for (name, _) in &self.values {
            assert!(
                specs.iter().any(|m| m.name == *name),
                "metric {name} is not in the spec"
            );
        }
        specs
            .into_iter()
            .map(|m| {
                let value = self.get(m.name).or(missing).unwrap_or_else(|| {
                    panic!("metric {} was not measured", m.name);
                });
                (m, value)
            })
            .collect()
    }
}

/// A raw library result, kept un-reduced so reducing it never sits inside
/// a timed section.
#[derive(Debug, Clone)]
pub enum Raw {
    /// A range result.
    Hits(Vec<Hit>),
    /// A kNN result.
    Neighbors(Vec<Neighbor>),
    /// An aggregate count.
    Count(u64),
}

impl Raw {
    /// Result cardinality.
    pub fn len(&self) -> u64 {
        match self {
            Raw::Hits(h) => h.len() as u64,
            Raw::Neighbors(n) => n.len() as u64,
            Raw::Count(c) => *c,
        }
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The oracle-comparable reduction.
    pub fn answer(&self) -> Answer {
        match self {
            Raw::Hits(h) => Answer::from_hits(h),
            Raw::Neighbors(n) => Answer::from_neighbors(n),
            Raw::Count(c) => Answer::Count(*c),
        }
    }
}

/// Issues `op` against a [`FlatDb`] the way a client would: a fresh
/// snapshot per operation.
pub fn db_read<S: PageStore>(db: &FlatDb<S>, op: &Op) -> Result<Raw, FlatError> {
    let snap = db.reader();
    Ok(match op {
        Op::Range(_, query) => Raw::Hits(snap.range(query)?),
        Op::Knn(point, k) => Raw::Neighbors(snap.knn(*point, *k)?),
        Op::Agg(query) => Raw::Count(snap.aggregate_count(query)?),
    })
}

/// Issues `op` against a [`ShardedDb`].
pub fn shard_read<S: PageStore + Send + Sync + 'static>(
    db: &ShardedDb<S>,
    op: &Op,
) -> Result<Raw, FlatError> {
    Ok(match op {
        Op::Range(_, query) => Raw::Hits(db.range_query(query)?),
        Op::Knn(point, k) => Raw::Neighbors(db.knn_query(*point, *k)?),
        Op::Agg(query) => Raw::Count(db.aggregate_count(query)?),
    })
}

/// Operations completed and wall time of one pass.
#[derive(Debug, Clone, Copy)]
pub struct PassWall {
    /// Read operations the pass completed.
    pub ops: u64,
    /// Seconds it took.
    pub seconds: f64,
}

/// One timed operation of a client.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Which latency bucket.
    pub kind: OpKind,
    /// The pass the operation was issued in.
    pub pass: u32,
    /// Its script position.
    pub position: u32,
    /// Latency in microseconds.
    pub us: f64,
}

/// What one closed-loop client observed.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Every timed operation, in issue order.
    pub timed: Vec<Sample>,
    /// Operations completed.
    pub ops: u64,
    /// Operations that returned `Err`.
    pub errors: u64,
    /// Result cardinalities that changed between repeats of one query.
    pub unstable: u64,
    /// `(script position, result)` of the oracle samples.
    pub samples: Vec<(usize, Raw)>,
}

impl ClientLog {
    /// Folds another client's log in.
    pub fn absorb(&mut self, other: ClientLog) {
        self.timed.extend(other.timed);
        self.ops += other.ops;
        self.errors += other.errors;
        self.unstable += other.unstable;
        self.samples.extend(other.samples);
    }

    fn of(&self, kind: OpKind) -> impl Iterator<Item = &Sample> {
        self.timed.iter().filter(move |s| s.kind == kind)
    }

    /// Every latency of `kind`, microseconds.
    pub fn latencies_us(&self, kind: OpKind) -> Vec<f64> {
        self.of(kind).map(|s| s.us).collect()
    }

    /// Median, over the distinct queries of `kind`, of each query's
    /// fastest repeat — a diagnostic for static data: what the phase would
    /// have measured on an undisturbed machine. Never a gated value.
    pub fn best_of_repeats_p50_us(&self, kind: OpKind) -> f64 {
        let mut best: BTreeMap<u32, f64> = BTreeMap::new();
        for sample in self.of(kind) {
            let slot = best.entry(sample.position).or_insert(f64::INFINITY);
            *slot = slot.min(sample.us);
        }
        stats::median(&best.into_values().collect::<Vec<f64>>())
    }

    /// Operations issued in `pass`.
    pub fn ops_in_pass(&self, pass: u32) -> u64 {
        self.timed.iter().filter(|s| s.pass == pass).count() as u64
    }
}

/// One closed-loop client: issues script operations one at a time,
/// timing each call into the library and nothing else.
///
/// The first time a script position runs, every [`ORACLE_STRIDE`]-th one
/// keeps its full result for the oracle (when `sample` is set); when a
/// position repeats, the client only confirms the query returns the same
/// number of results (`static_data` — under concurrent writes that count
/// legitimately changes).
pub struct Client<'a, R> {
    script: &'a [Op],
    run: R,
    sample: bool,
    static_data: bool,
    first_len: Vec<Option<u64>>,
    /// What the client has observed so far.
    pub log: ClientLog,
}

/// The median pass's rate (`None` without passes).
pub fn median_pass_rate(passes: &[PassWall]) -> Option<f64> {
    let rates: Vec<f64> = passes
        .iter()
        .filter(|p| p.seconds > 0.0)
        .map(|p| p.ops as f64 / p.seconds)
        .collect();
    (!rates.is_empty()).then(|| stats::median(&rates))
}

impl<'a, R: Fn(&Op) -> Result<Raw, FlatError>> Client<'a, R> {
    /// A client over `script` that issues operations through `run`.
    pub fn new(script: &'a [Op], run: R, sample: bool, static_data: bool) -> Self {
        Client {
            script,
            run,
            sample,
            static_data,
            first_len: vec![None; script.len()],
            log: ClientLog::default(),
        }
    }

    /// Issues the operation at script `position`, as part of `pass`,
    /// and waits for it.
    pub fn issue(&mut self, position: usize, pass: u32) {
        let op = &self.script[position];
        let start = Instant::now();
        let result = (self.run)(op);
        let elapsed = start.elapsed();
        self.log.ops += 1;
        self.log.timed.push(Sample {
            kind: op.kind(),
            pass,
            position: position as u32,
            us: elapsed.as_secs_f64() * 1e6,
        });
        match result {
            Err(_) => self.log.errors += 1,
            Ok(raw) => match self.first_len[position] {
                None => {
                    self.first_len[position] = Some(raw.len());
                    if self.sample && position.is_multiple_of(ORACLE_STRIDE) {
                        self.log.samples.push((position, raw));
                    }
                }
                Some(len) if self.static_data && len != raw.len() => self.log.unstable += 1,
                Some(_) => {}
            },
        }
    }
}

/// Runs `positions` of `script` in order, cyclically, as one closed-loop
/// client: the next operation is issued when the previous one returns,
/// until `stop()` says so (checked between operations; at least one
/// operation always runs). `pass()` names the pass an operation belongs
/// to at the moment it is issued.
pub fn closed_loop(
    script: &[Op],
    positions: &[usize],
    run: impl Fn(&Op) -> Result<Raw, FlatError>,
    stop: impl Fn() -> bool,
    pass: impl Fn() -> u32,
    sample: bool,
    static_data: bool,
) -> ClientLog {
    let mut client = Client::new(script, run, sample, static_data);
    for &position in positions.iter().cycle() {
        if client.log.ops > 0 && stop() {
            break;
        }
        client.issue(position, pass());
    }
    client.log
}

/// One client running whole passes of `script` until `deadline` has
/// passed (checked between passes; at least one pass runs): every pass
/// repeats the same operations, which is what makes passes comparable.
pub fn timed_passes(
    script: &[Op],
    run: impl Fn(&Op) -> Result<Raw, FlatError>,
    deadline: Instant,
) -> (ClientLog, Vec<PassWall>) {
    let mut client = Client::new(script, run, true, true);
    let mut walls = Vec::new();
    for pass in 0.. {
        let start = Instant::now();
        for position in 0..script.len() {
            client.issue(position, pass);
        }
        walls.push(PassWall {
            ops: script.len() as u64,
            seconds: start.elapsed().as_secs_f64(),
        });
        if Instant::now() >= deadline {
            break;
        }
    }
    (client.log, walls)
}

/// Splits script positions among `clients`, round-robin *per kind*, so
/// every client sees the same mix (a plain parity split can hand all of
/// a rare kind to one client).
pub fn split_positions(script: &[Op], clients: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); clients];
    let mut seen = [0usize; 4];
    for (position, op) in script.iter().enumerate() {
        let kind = op.kind().index();
        out[seen[kind] % clients].push(position);
        seen[kind] += 1;
    }
    out
}

/// Folds a client log into the failure accounting and checks its oracle
/// samples against a linear scan of `entries`.
pub fn verify_log(checker: &mut Checker, log: &ClientLog, script: &[Op], entries: &[Entry]) {
    checker.passed(log.ops);
    for _ in 0..log.errors {
        checker.fail("a read operation returned Err".into());
    }
    for _ in 0..log.unstable {
        checker.fail("a repeated query changed its result size on static data".into());
    }
    for (position, raw) in &log.samples {
        let expected = brute_force(entries, &script[*position]);
        checker.check(raw.answer() == expected, || {
            format!(
                "op {position} ({:?}) returned {} results, oracle {}",
                script[*position].kind(),
                raw.len(),
                expected.len()
            )
        });
    }
}

/// What a timed phase observed, ready to be reduced to metrics.
#[derive(Debug)]
pub struct Phase<'a> {
    /// Every client's samples.
    pub log: &'a ClientLog,
    /// The read kinds this workload issues.
    pub kinds: &'a [OpKind],
    /// The phase's passes (empty where it has none).
    pub passes: &'a [PassWall],
    /// Read operations completed by all clients.
    pub read_ops: u64,
    /// Wall time of the phase.
    pub wall: Duration,
    /// Whether the passes repeat the same queries over static data.
    pub repeats: bool,
}

impl Phase<'_> {
    /// Records the sustained read rate (`query_per_s`: the median pass's
    /// rate, or the whole phase's where it has no passes) and the median
    /// latency of each kind over every sample of the phase, plus notes
    /// with the sample counts and the tails.
    ///
    /// Medians and sustained rates on purpose: a best-of-repeats figure
    /// is steadier on a shared machine, but it is blind to anything
    /// periodic — reclaim stalls, lock contention, checkpoint
    /// interference. Where passes repeat, the best-of-repeats medians are
    /// printed beside the gated ones as a diagnostic.
    pub fn report(
        &self,
        metrics: &mut MetricSet,
        specific: &mut MetricSet,
        notes: &mut Vec<String>,
    ) {
        let whole_rate = self.read_ops as f64 / self.wall.as_secs_f64();
        metrics.set(
            "query_per_s",
            median_pass_rate(self.passes).unwrap_or(whole_rate),
        );
        notes.push(format!(
            "timed phase: {:.2} s wall, {} read ops ({:.1}/s over the whole phase), {} passes",
            self.wall.as_secs_f64(),
            self.read_ops,
            whole_rate,
            self.passes.len(),
        ));
        for &kind in self.kinds {
            let name = match kind {
                OpKind::Sn => "sn_p50_us",
                OpKind::Lss => "lss_p50_us",
                OpKind::Knn => "knn_p50_us",
                OpKind::Agg => "agg_p50_us",
            };
            let latencies = self.log.latencies_us(kind);
            specific.set(name, stats::median(&latencies));
            let mut note = format!(
                "{name}: {} samples, p90 {:.1} us, p99 {:.1} us",
                latencies.len(),
                stats::quantile(&latencies, 0.9),
                stats::quantile(&latencies, 0.99),
            );
            if self.repeats {
                note.push_str(&format!(
                    "; median of each query's fastest repeat {:.1} us (diagnostic)",
                    self.log.best_of_repeats_p50_us(kind)
                ));
            }
            notes.push(note);
        }
    }
}

/// Set-ups per run behind `setup_s`.
const SETUPS: usize = 5;

/// Runs `setup` five times and returns the last state with the
/// median set-up time: one timing of a sub-second build is at the mercy
/// of the allocator and the scheduler, the median of five is not.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take()); // free the previous build before timing the next
        let start = Instant::now();
        state = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (state.expect("SETUPS > 0"), stats::median(&times))
}

/// Replays the first quarter of `script`, untimed, to fill the cache (it
/// touches nearly every page; the rest fault in from the memory store at
/// memcpy cost during the first of the timed passes, whose median does
/// not see one pass).
pub fn warm_up<S: PageStore>(db: &FlatDb<S>, script: &[Op]) -> Result<(), FlatError> {
    for op in &script[..(script.len() / 4).max(1)] {
        db_read(db, op)?;
    }
    Ok(())
}

/// Bytes `db` occupies on its backing store (allocated minus free pages).
pub fn stored_bytes<S: PageStore>(db: &FlatDb<S>) -> u64 {
    let store = db.store();
    (store.num_pages() - store.num_free()) * PAGE_SIZE as u64
}

/// Shard options over a fixed `domain` with stable element ids, a cache
/// of `pool_pages` per shard and the default scheduler.
pub fn shard_options(domain: Aabb, pool_pages: usize) -> ShardOptions {
    ShardOptions {
        index: DbOptions::updatable(domain).index,
        pool_pages,
        scheduler: SchedulerConfig::default(),
    }
}

/// Cold page reads per query, the paper's protocol: the cache is cleared
/// before each of the first `count` script operations and the physical
/// reads they cause are averaged.
pub fn cold_reads_per_query<S: PageStore>(
    db: &FlatDb<S>,
    script: &[Op],
    count: usize,
    checker: &mut Checker,
) -> f64 {
    let ops = &script[..count.min(script.len())];
    let mut physical = 0u64;
    for op in ops {
        db.clear_cache();
        let before = db.io_stats().total_physical_reads();
        checker.check(db_read(db, op).is_ok(), || {
            "a cold read returned Err".into()
        });
        physical += db.io_stats().total_physical_reads() - before;
    }
    physical as f64 / ops.len() as f64
}

/// Dispatches one run to its workload.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    if spec::workload(&config.workload).is_none() {
        return Err(format!(
            "unknown workload {:?} (expected one of: {})",
            config.workload,
            spec::WORKLOADS.map(|w| w.name).join(", ")
        ));
    }
    let result = match (config.workload.as_str(), config.traced) {
        ("resident_reads", false) => resident::run(config),
        ("resident_reads", true) => resident::run_traced(config),
        ("device_reads", false) => device::run(config),
        ("device_reads", true) => device::run_traced(config),
        ("churn_durable", false) => churn::run(config),
        ("churn_durable", true) => churn::run_traced(config),
        ("join_analytics", false) => join::run(config),
        ("join_analytics", true) => join::run_traced(config),
        _ => unreachable!("workload names were checked above"),
    };
    result.map_err(|e| format!("{} failed: {e}", config.workload))
}

/// Assembles an untraced run's result.
pub fn finish_untraced(
    config: &RunConfig,
    checker: Checker,
    metrics: &MetricSet,
    specific: &MetricSet,
    notes: Vec<String>,
) -> RunResult {
    RunResult {
        config: config.clone(),
        checker,
        metrics: metrics.resolve(spec::end_to_end(), None),
        specific: specific.resolve(spec::workload_specific(&config.workload), None),
        notes,
        trace: None,
    }
}

/// Assembles a traced run's result; layers the workload does not
/// exercise report 0.
pub fn finish_traced(
    config: &RunConfig,
    checker: Checker,
    metrics: &MetricSet,
    notes: Vec<String>,
    trace: Json,
) -> RunResult {
    RunResult {
        config: config.clone(),
        checker,
        metrics: metrics.resolve(spec::per_layer_metrics(), Some(0.0)),
        specific: Vec::new(),
        notes,
        trace: Some(trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::script;
    use flat_geom::{Aabb, Point3};

    #[test]
    fn clients_share_every_kind_evenly() {
        let domain = Aabb::new(Point3::splat(0.0), Point3::splat(10.0));
        let ops = script(&domain, 3, [40, 4, 40, 4]);
        let shares = split_positions(&ops, 2);
        let mut seen = vec![false; ops.len()];
        for share in &shares {
            for kind in OpKind::ALL {
                let n = share.iter().filter(|&&p| ops[p].kind() == kind).count();
                assert_eq!(n, [20, 2, 20, 2][kind.index()]);
            }
            assert!(share.windows(2).all(|w| w[0] < w[1]), "script order kept");
            for &p in share {
                assert!(!std::mem::replace(&mut seen[p], true), "position {p} twice");
            }
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn phases_reduce_to_medians() {
        // Two passes over two queries; pass 1 is disturbed.
        let sample = |pass, position, us| Sample {
            kind: OpKind::Sn,
            pass,
            position,
            us,
        };
        let mut log = ClientLog::default();
        for (pass, position, us) in [(0, 0, 10.0), (0, 1, 30.0), (1, 0, 50.0), (1, 1, 20.0)] {
            log.timed.push(sample(pass, position, us));
        }
        assert_eq!(log.latencies_us(OpKind::Sn), [10.0, 30.0, 50.0, 20.0]);
        assert!(log.latencies_us(OpKind::Lss).is_empty());
        assert_eq!(log.ops_in_pass(1), 2);
        // The diagnostic: query 0 -> 10, query 1 -> 20.
        assert_eq!(log.best_of_repeats_p50_us(OpKind::Sn), 15.0);
        let pass = |seconds| PassWall { ops: 10, seconds };
        let passes = [pass(2.0), pass(1.0), pass(5.0)];
        assert_eq!(median_pass_rate(&passes), Some(5.0));
        assert_eq!(median_pass_rate(&[]), None);

        let (mut metrics, mut specific, mut notes) = Default::default();
        Phase {
            log: &log,
            kinds: &[OpKind::Sn],
            passes: &passes,
            read_ops: 30,
            wall: Duration::from_secs(8),
            repeats: true,
        }
        .report(&mut metrics, &mut specific, &mut notes);
        assert_eq!(metrics.get("query_per_s"), Some(5.0));
        assert_eq!(specific.get("sn_p50_us"), Some(25.0));
        assert_eq!(specific.get("knn_p50_us"), None);
    }

    #[test]
    fn metric_sets_resolve_against_the_spec() {
        let mut set = MetricSet::default();
        set.set("cache.hit_rate", 0.5);
        set.add("cache.hit_rate", 0.25);
        let resolved = set.resolve(spec::per_layer_metrics(), Some(0.0));
        assert_eq!(resolved.len(), spec::per_layer_metrics().count());
        let hit = resolved
            .iter()
            .find(|(m, _)| m.name == "cache.hit_rate")
            .unwrap();
        assert_eq!(hit.1, 0.75);
        assert!(resolved.iter().filter(|(_, v)| *v != 0.0).count() == 1);
    }

    #[test]
    #[should_panic(expected = "not in the spec")]
    fn unknown_metric_names_are_rejected() {
        let mut set = MetricSet::default();
        set.set("no.such.metric", 1.0);
        set.resolve(spec::per_layer_metrics(), Some(0.0));
    }
}
