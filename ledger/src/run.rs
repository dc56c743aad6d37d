//! One benchmark run: set-up, one untimed warm-up slice, timed slices of
//! identical op count from a single closed-loop client, then the checks —
//! outside the timed phase.

use std::time::Instant;

use kmachine::{Engine, RunMetrics};
use knn_core::{BatchAnswer, CoreError, KnnAnswer, KnnCluster, Neighbor};
use knn_points::{Metric, PointId, ScalarPoint, VecPoint};
use rayon::prelude::*;

use crate::host::{self, splitmix64};
use crate::layers;
use crate::oracle::{judge, Shadow};
use crate::spec;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Inputs, Shape, ALGORITHM};

/// Timed slices every run completes, however slow the host: the counters
/// and the checked sample come from exactly these, so they repeat for a
/// seed whatever the clock does.
const COUNTED_SLICES: usize = 8;
const SMOKE_SLICES: usize = 2;
/// Slice 0 of the op stream is the untimed warm-up.
const FIRST_TIMED_SLICE: u64 = 1;
/// Upper limit on timed slices (bounds memory on a very fast host).
const MAX_SLICES: usize = 256;
/// Full set-ups per run; `setup_s` is their median. A set-up that takes
/// milliseconds is repeated until a second is spent, so its median is as
/// steady as a slow one's.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const CHEAP_SETUP_BUDGET_S: f64 = 1.0;

/// Every workload uses the cluster's default metric.
pub const METRIC: Metric = Metric::Euclidean;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub spans: Option<String>,
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Context that is not a metric: sample counts, pool, profile.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The result object: the four keys the benchmark contract fixes, plus
    /// the run's identity when `extended` (result files for `--diff`).
    pub fn json(&self, extended: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec::find(name).expect("only registered metrics are reported").unit;
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        if extended {
            out.push_str(&format!(
                ", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}",
                self.workload, self.seed, self.trace
            ));
            for (key, value) in &self.notes {
                out.push_str(&format!(", \"{key}\": \"{value}\""));
            }
        }
        out.push('}');
        out
    }

    /// Every metric by name with value, unit, direction and bound.
    pub fn print(&self) {
        println!(
            "== {} seed {} ({}) ==",
            self.workload,
            self.seed,
            if self.trace { "traced run, per-layer" } else { "end to end" }
        );
        for (key, value) in &self.notes {
            println!("  # {key}: {value}");
        }
        for (name, value) in &self.metrics {
            let m = spec::find(name).expect("only registered metrics are reported");
            let bound = m.bound.map_or(String::new(), |b| format!("  bound {b}"));
            println!(
                "  {:<42} {:>16.6} {:<7} better: {}{bound}",
                m.name,
                value,
                m.unit,
                m.better.name()
            );
        }
        println!(
            "  outputs {}: attempted {}, failed {}",
            if self.correct { "correct" } else { "WRONG" },
            self.attempted,
            self.failed
        );
    }
}

/// Run workload `name`.
pub fn run(name: &str, opts: &Options) -> Result<Outcome, String> {
    let shape = workloads::shape(name, opts.smoke)
        .ok_or_else(|| format!("unknown workload {name:?} (see --list)"))?;
    let pool_size = host::cpus().min(2);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(pool_size)
        .build()
        .map_err(|e| e.to_string())?;
    let mut outcome = pool.install(|| match (shape.vector, opts.trace) {
        (false, false) => end_to_end::<ScalarPoint>(&shape, opts),
        (true, false) => end_to_end::<VecPoint>(&shape, opts),
        (false, true) => layers::traced::<ScalarPoint>(&shape, opts),
        (true, true) => layers::traced::<VecPoint>(&shape, opts),
    })?;
    outcome.notes.push(("host_cpus", host::cpus().to_string()));
    outcome.notes.push(("pool", pool_size.to_string()));
    outcome.notes.push(("profile", profile().to_string()));
    let expected = if opts.trace { spec::PER_LAYER } else { spec::END_TO_END };
    let reported: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    let wanted: Vec<&str> = expected.iter().map(|m| m.name).collect();
    assert_eq!(reported, wanted, "a run reports exactly its table of metrics, in order");
    if let Some((name, value)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{name} is not finite ({value})"));
    }
    Ok(outcome)
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Protocol plus election cost of the counted queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub rounds: u64,
    pub messages: u64,
    pub bits: u64,
    pub queries: u64,
}

impl Counters {
    fn add(&mut self, metrics: &RunMetrics, election: Option<&RunMetrics>) {
        for m in std::iter::once(metrics).chain(election) {
            self.rounds += m.rounds;
            self.messages += m.messages;
            self.bits += m.bits;
        }
    }

    pub fn merge(&mut self, other: &Counters) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.queries += other.queries;
    }

    pub fn per_query(&self) -> (f64, f64, f64) {
        let q = self.queries.max(1) as f64;
        (self.rounds as f64 / q, self.messages as f64 / q, self.bits as f64 / 1e3 / q)
    }
}

/// One answered query kept for the checks.
#[derive(Debug, Clone)]
pub struct Kept<P> {
    pub query: P,
    /// Inserts done before the query ran.
    pub inserts_before: usize,
    pub neighbors: Vec<Neighbor>,
}

/// What one slice yields.
#[derive(Debug)]
pub struct SliceResult<P> {
    /// Ops issued (queries + inserts) and how many of them returned `Err`.
    pub attempted: u64,
    pub errors: u64,
    pub wall_s: f64,
    pub query_ms: Vec<f64>,
    pub insert_ms: Vec<f64>,
    pub counters: Counters,
    pub kept: Vec<Kept<P>>,
}

enum Reply {
    One(Result<KnnAnswer, CoreError>),
    Batch(Result<BatchAnswer, CoreError>),
}

/// The single closed-loop client: it issues the workload's op stream slice
/// by slice against one loaded cluster.
pub struct Driver<'a, P: Inputs> {
    pub shape: &'a Shape,
    pub seed: u64,
    pub cluster: KnnCluster<P>,
    pub next_slice: u64,
    pub inserted: Vec<(PointId, P)>,
}

/// Time `work`, as a span when a tracer is given; milliseconds.
fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    op: u64,
    work: impl FnOnce() -> R,
) -> (R, f64) {
    let start = Instant::now();
    let result = match tracer {
        Some(t) => t.span(name, op, |_| work()),
        None => work(),
    };
    (result, start.elapsed().as_secs_f64() * 1e3)
}

impl<'a, P: Inputs> Driver<'a, P> {
    pub fn new(shape: &'a Shape, seed: u64, cluster: KnnCluster<P>) -> Self {
        Driver { shape, seed, cluster, next_slice: 0, inserted: Vec::new() }
    }

    /// Run the next slice of the op stream. Inputs are generated before the
    /// clock starts; replies are only collected while it runs and folded
    /// into counters and kept answers after it stops.
    pub fn run_slice(&mut self, mut tracer: Option<&mut Tracer>) -> SliceResult<P> {
        let shape = self.shape;
        let index = self.next_slice;
        self.next_slice += 1;
        let inputs = workloads::slice::<P>(shape, self.seed, index);
        let mut inserts = inputs.inserts.into_iter();
        let mut replies: Vec<(usize, Reply)> = Vec::with_capacity(shape.rounds_per_slice);
        let mut query_ms = Vec::with_capacity(shape.rounds_per_slice);
        let mut insert_ms = Vec::with_capacity(shape.inserts_per_slice());
        let mut errors = 0;

        let start = Instant::now();
        for (round, queries) in inputs.queries.chunks(shape.batch).enumerate() {
            let op = index << 32 | round as u64;
            for point in inserts.by_ref().take(shape.inserts_per_round) {
                let cluster = &mut self.cluster;
                let (result, ms) =
                    timed(&mut tracer, "cluster.insert", op, || cluster.insert(point.clone()));
                insert_ms.push(ms);
                match result {
                    Ok((id, _machine)) => self.inserted.push((id, point)),
                    Err(_) => errors += 1,
                }
            }
            let cluster = &self.cluster;
            let (reply, ms) = if shape.batch == 1 {
                timed(&mut tracer, "cluster.query", op, || {
                    Reply::One(cluster.query_with(ALGORITHM, &queries[0], shape.ell))
                })
            } else {
                timed(&mut tracer, "cluster.query_batch", op, || {
                    Reply::Batch(cluster.query_batch_with(ALGORITHM, queries, shape.ell))
                })
            };
            query_ms.push(ms);
            replies.push((self.inserted.len(), reply));
        }
        let wall_s = start.elapsed().as_secs_f64();

        let mut counters = Counters::default();
        let mut kept = Vec::with_capacity(shape.queries_per_slice());
        for ((inserts_before, reply), queries) in
            replies.into_iter().zip(inputs.queries.chunks(shape.batch))
        {
            let answers = match reply {
                Reply::One(Ok(answer)) => {
                    counters.add(&answer.metrics, answer.election_metrics.as_ref());
                    vec![answer]
                }
                Reply::Batch(Ok(batch)) if batch.answers.len() == queries.len() => {
                    counters.add(&batch.metrics, batch.election_metrics.as_ref());
                    batch.answers
                }
                _ => {
                    errors += queries.len() as u64;
                    continue;
                }
            };
            counters.queries += queries.len() as u64;
            for (query, answer) in queries.iter().zip(answers) {
                kept.push(Kept {
                    query: query.clone(),
                    inserts_before,
                    neighbors: answer.neighbors,
                });
            }
        }
        let attempted = (shape.queries_per_slice() + shape.inserts_per_slice()) as u64;
        SliceResult { attempted, errors, wall_s, query_ms, insert_ms, counters, kept }
    }
}

/// One full set-up: generate the data, build the cluster, load it.
/// Returns the loaded cluster and the seconds it took.
fn setup<P: Inputs>(shape: &Shape, seed: u64) -> (KnnCluster<P>, f64) {
    let start = Instant::now();
    let mut cluster = workloads::cluster::<P>(shape);
    P::data(shape, seed).load_into(&mut cluster);
    (cluster, start.elapsed().as_secs_f64())
}

/// How many timed slices a run must complete.
fn min_slices(opts: &Options) -> usize {
    if opts.smoke {
        SMOKE_SLICES
    } else {
        COUNTED_SLICES
    }
}

/// The checks' result.
struct Checked {
    wrong: u64,
    recall: f64,
    sample: usize,
}

/// Check a seeded sample of the kept answers against the oracle over the
/// shadow dataset as of each op.
fn check<P: Inputs>(shape: &Shape, seed: u64, kept: &[Kept<P>], shadow: &Shadow<P>) -> Checked {
    let mut order: Vec<(u64, usize)> =
        (0..kept.len()).map(|i| (splitmix64(seed ^ 0xC4EC ^ i as u64), i)).collect();
    order.sort_unstable();
    order.truncate(shape.checked);
    let by_id = (!shape.exact()).then(|| shadow.by_id());
    let verdicts: Vec<_> = order
        .par_iter()
        .map(|&(_, i)| {
            let k = &kept[i];
            let truth = shadow.top(&k.query, shape.ell, k.inserts_before, METRIC);
            judge(&k.neighbors, &truth, shape.exact(), |n| {
                by_id.as_ref().and_then(|map| map.get(&n.id)).is_some_and(|(point, since)| {
                    *since <= k.inserts_before && point.distance(&k.query, METRIC) == n.dist
                })
            })
        })
        .collect();
    Checked {
        wrong: verdicts.iter().filter(|v| v.wrong).count() as u64,
        recall: verdicts.iter().map(|v| v.recall).sum::<f64>() / verdicts.len().max(1) as f64,
        sample: verdicts.len(),
    }
}

/// On a workload that runs another engine than sync: replay the first
/// timed slice through `Engine::Sync` on the same cluster and count every
/// query whose answer differs, plus the whole slice when the per-query
/// counters do. Only workloads without inserts can be replayed.
fn engine_cross_check<P: Inputs>(driver: &mut Driver<'_, P>, first: &SliceResult<P>) -> u64 {
    assert_eq!(driver.shape.inserts_per_round, 0, "replay needs an unchanged dataset");
    driver.cluster.set_engine(Engine::Sync);
    driver.next_slice = FIRST_TIMED_SLICE;
    let replay = driver.run_slice(None);
    let differing =
        replay.kept.iter().zip(&first.kept).filter(|(a, b)| a.neighbors != b.neighbors).count();
    let counters_differ = replay.counters != first.counters;
    replay.errors + differing as u64 + if counters_differ { first.counters.queries } else { 0 }
}

fn end_to_end<P: Inputs>(shape: &Shape, opts: &Options) -> Result<Outcome, String> {
    let (cluster, first_setup_s) = setup::<P>(shape, opts.seed);
    let mut driver = Driver::new(shape, opts.seed, cluster);

    driver.run_slice(None);
    let need = min_slices(opts);
    let mut slices: Vec<SliceResult<P>> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    while slices.len() < need
        || (start.elapsed().as_secs_f64() < opts.seconds && slices.len() < MAX_SLICES)
    {
        let mut result = driver.run_slice(None);
        if slices.len() >= need {
            result.kept = Vec::new();
        }
        slices.push(result);
        if slices.len() == need {
            // Read where every run has done the same ops, whatever the clock.
            peak_rss_mb = host::peak_rss_mb();
        }
    }

    // The other set-ups come after the memory reading, so that the peak is
    // one cluster's, and are dropped at once.
    let mut setup_s = vec![first_setup_s];
    while !opts.smoke
        && (setup_s.len() < MIN_SETUPS
            || (setup_s.iter().sum::<f64>() < CHEAP_SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS))
    {
        setup_s.push(setup::<P>(shape, opts.seed).1);
    }

    let mut counters = Counters::default();
    slices[..need].iter().for_each(|s| counters.merge(&s.counters));
    let mut cross_wrong = 0;
    if shape.engine != Engine::Sync {
        cross_wrong = engine_cross_check(&mut driver, &slices[0]);
    }
    let kept: Vec<Kept<P>> = slices.iter_mut().flat_map(|s| std::mem::take(&mut s.kept)).collect();
    let shadow =
        Shadow { base: P::data(shape, opts.seed), inserted: std::mem::take(&mut driver.inserted) };
    let checked = check(shape, opts.seed, &kept, &shadow);

    let walls: Vec<f64> = slices.iter().map(|s| s.wall_s).collect();
    let query_ms: Vec<f64> = slices.iter().flat_map(|s| s.query_ms.iter().copied()).collect();
    let insert_ms: Vec<f64> = slices.iter().flat_map(|s| s.insert_ms.iter().copied()).collect();
    let (p95_at, p95) = stats::high_percentile(&query_ms, 0.95);
    let (rounds, msgs, kbits) = counters.per_query();
    let attempted = slices.iter().map(|s| s.attempted).sum();
    let failed = slices.iter().map(|s| s.errors).sum::<u64>() + checked.wrong + cross_wrong;
    let mut notes = vec![
        ("setups", setup_s.len().to_string()),
        ("timed_slices", slices.len().to_string()),
        ("query_ms", format!("p{:.0} {p95:.4} over {} calls", p95_at * 100.0, query_ms.len())),
        (
            "slice_wall_s",
            format!(
                "fastest {:.4}, median {:.4}, slowest {:.4}",
                walls.iter().copied().fold(f64::INFINITY, f64::min),
                stats::median(&walls),
                walls.iter().copied().fold(0.0, f64::max)
            ),
        ),
        ("checked_answers", checked.sample.to_string()),
    ];
    if !insert_ms.is_empty() {
        let (q, high) = stats::high_percentile(&insert_ms, 0.95);
        notes.push((
            "insert_ms",
            format!(
                "p50 {:.4}, p{:.0} {high:.4} over {} inserts",
                stats::median(&insert_ms),
                q * 100.0,
                insert_ms.len()
            ),
        ));
    }
    Ok(Outcome {
        workload: shape.name,
        seed: opts.seed,
        trace: false,
        correct: failed == 0 && (!shape.exact() || checked.recall == 1.0),
        attempted,
        failed,
        metrics: vec![
            ("setup_s", stats::median(&setup_s)),
            ("qps", stats::best_slice_rate(shape.queries_per_slice(), &walls)),
            ("query_p50_ms", stats::median(&query_ms)),
            ("recall", checked.recall),
            ("rounds_per_query", rounds),
            ("msgs_per_query", msgs),
            ("kbits_per_query", kbits),
            ("peak_rss_mb", peak_rss_mb),
        ],
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(trace: bool) -> Options {
        Options { seed: 11, seconds: 0.0, trace, smoke: true, spans: None }
    }

    #[test]
    fn smoke_pass_of_every_workload_repeats_exactly() {
        let start = Instant::now();
        let exact = ["rounds_per_query", "msgs_per_query", "kbits_per_query", "recall"];
        let mut first_runs = Vec::new();
        for w in spec::WORKLOADS {
            let a = run(w.name, &smoke(false)).expect(w.name);
            let b = run(w.name, &smoke(false)).expect(w.name);
            assert!(a.correct && a.failed == 0 && a.attempted > 0, "{}: {a:?}", w.name);
            for name in exact {
                assert_eq!(a.value(name), b.value(name), "{} {name}", w.name);
            }
            if workloads::shape(w.name, true).expect("registered").exact() {
                assert_eq!(a.value("recall"), Some(1.0), "{}", w.name);
            }
            assert!(a.metrics.iter().all(|(_, v)| *v > 0.0), "{}: a metric is 0: {a:?}", w.name);
            first_runs.push(a);
        }
        // The event engine changes the clock, never the cost model.
        let by_name = |name: &str| first_runs.iter().find(|o| o.workload == name).expect("ran");
        for name in exact {
            assert_eq!(
                by_name("scalar_batch").value(name),
                by_name("scalar_batch_event").value(name)
            );
        }
        assert!(start.elapsed().as_secs() < 10, "smoke pass took {:?}", start.elapsed());
    }

    #[test]
    fn traced_smoke_run_reports_every_per_layer_metric() {
        for name in ["scalar_single", "vector_nsw_churn"] {
            let out = run(name, &smoke(true)).expect(name);
            assert!(out.correct, "{name}: {out:?}");
            assert_eq!(out.metrics.len(), spec::PER_LAYER.len());
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            workload: "scalar_batch",
            seed: 3,
            trace: false,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("qps", 1234.5), ("setup_s", 0.25)],
            notes: vec![("pool", "2".to_string())],
        };
        let line = crate::json::parse(&out.json(false)).expect("valid JSON");
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let qps = line.get("metrics").and_then(|m| m.get("qps")).expect("qps");
        assert_eq!(qps.get("value").and_then(crate::json::Json::as_f64), Some(1234.5));
        assert_eq!(qps.get("unit").and_then(crate::json::Json::as_str), Some("1/s"));
        let extended = crate::json::parse(&out.json(true)).expect("valid JSON");
        assert_eq!(
            extended.get("workload").and_then(crate::json::Json::as_str),
            Some("scalar_batch")
        );
    }
}
