//! A PANDA-like **distributed k-d tree** baseline (Patwary et al., IPDPS
//! 2016 — the paper's reference \[14\]).
//!
//! The paper's related-work section observes that k-d-tree-based
//! distributed ℓ-NN pays for a *construction phase* that globally
//! redistributes the input ("necessarily involves global redistribution of
//! points … their message complexity would be costly"). This module
//! reproduces that trade-off honestly, simplified to one splitting level:
//!
//! * **Build** ([`KdBuildProtocol`]): machines sample axis-0 coordinates;
//!   the leader computes k quantile bins; every point is then *shipped* to
//!   its bin's owner (the expensive all-to-all), which builds a local
//!   k-d tree over what it receives.
//! * **Query** ([`DistributedKdForest::query`]): the bin owner answers an
//!   ℓ-NN probe locally; if the candidate ball crosses bin boundaries, the
//!   overlapping owners are probed too and the answers merged. Queries are
//!   cheap — the point of the design — but the build cost dominates unless
//!   many queries amortize it. The `baselines` table of the `paper` binary
//!   sets that build bill beside the per-query cost of the paper's
//!   algorithms.
//!
//! The build is implemented as a protocol over the k-machine model so its
//! rounds/messages/bits are measured by the same engine as everything
//! else; points travel as `64·d`-bit payloads, unlike the id+distance keys
//! of the paper's algorithms — that asymmetry *is* the finding.

use kmachine::{Ctx, MachineId, Payload, Protocol, Step};
use knn_kdtree::KdTree;
use knn_points::{Dist, DistKey, Metric, PointId, Record, VecPoint};
use rand::RngExt;

/// A point in flight during redistribution.
#[derive(Debug, Clone)]
pub struct WirePoint {
    /// The point's id.
    pub id: PointId,
    /// Full coordinates — this is what makes redistribution expensive.
    pub coords: Vec<f64>,
}

/// Messages of the distributed build.
#[derive(Debug, Clone)]
pub enum KdMsg {
    /// Machine → leader: sampled axis-0 coordinates.
    Sample(Vec<f64>),
    /// Leader → all: the k−1 bin split coordinates.
    Splits(Vec<f64>),
    /// Machine → machine: a batch of points for the destination's bin;
    /// `last` marks the sender's final batch to that destination.
    Points {
        /// The points.
        batch: Vec<WirePoint>,
        /// Final batch flag.
        last: bool,
    },
}

impl Payload for KdMsg {
    fn size_bits(&self) -> u64 {
        match self {
            KdMsg::Sample(v) => 32 + 64 * v.len() as u64,
            KdMsg::Splits(v) => 32 + 64 * v.len() as u64,
            KdMsg::Points { batch, .. } => {
                33 + batch.iter().map(|p| 64 + 64 * p.coords.len() as u64).sum::<u64>()
            }
        }
    }
}

/// Per-machine result of the distributed build.
pub struct BuiltShard {
    /// The local tree over the points this machine now owns.
    pub tree: KdTree,
    /// The global split coordinates (length k−1).
    pub splits: Vec<f64>,
}

enum BuildPhase {
    Init,
    CollectSamples,
    AwaitSplits,
    Exchange,
}

/// The construction protocol: sample → split → redistribute → build.
pub struct KdBuildProtocol {
    id: MachineId,
    k: usize,
    leader: MachineId,
    /// Samples per machine for the quantile estimate.
    sample_size: usize,
    /// Points per redistribution batch.
    batch: usize,
    local: Vec<Record<VecPoint>>,
    phase: BuildPhase,
    samples: Vec<f64>,
    pending_samples: usize,
    splits: Vec<f64>,
    received: Vec<(PointId, Box<[f64]>)>,
    finished_senders: usize,
}

impl KdBuildProtocol {
    /// Machine `id` of `k`, contributing `local` points.
    pub fn new(
        id: MachineId,
        k: usize,
        leader: MachineId,
        sample_size: usize,
        batch: usize,
        local: Vec<Record<VecPoint>>,
    ) -> Self {
        assert!(batch >= 1);
        KdBuildProtocol {
            id,
            k,
            leader,
            sample_size: sample_size.max(1),
            batch,
            local,
            phase: BuildPhase::Init,
            samples: Vec::new(),
            pending_samples: 0,
            splits: Vec::new(),
            received: Vec::new(),
            finished_senders: 0,
        }
    }

    fn my_samples(&mut self, ctx: &mut Ctx<'_, KdMsg>) -> Vec<f64> {
        if self.local.is_empty() {
            return Vec::new();
        }
        (0..self.sample_size)
            .map(|_| {
                let i = ctx.rng().random_range(0..self.local.len());
                self.local[i].point.0[0]
            })
            .collect()
    }

    /// Which bin (machine) owns axis-0 coordinate `x` under `splits`.
    pub fn bin_of(splits: &[f64], x: f64) -> usize {
        splits.partition_point(|&s| s < x)
    }

    /// Redistribute local points according to the splits.
    fn exchange(&mut self, ctx: &mut Ctx<'_, KdMsg>) {
        let mut outgoing: Vec<Vec<WirePoint>> = (0..self.k).map(|_| Vec::new()).collect();
        for r in self.local.drain(..) {
            let bin = Self::bin_of(&self.splits, r.point.0[0]);
            let wire = WirePoint { id: r.id, coords: r.point.0.to_vec() };
            outgoing[bin].push(wire);
        }
        for (dst, points) in outgoing.into_iter().enumerate() {
            if dst == self.id {
                self.received
                    .extend(points.into_iter().map(|p| (p.id, p.coords.into_boxed_slice())));
                continue;
            }
            if points.is_empty() {
                ctx.send(dst, KdMsg::Points { batch: Vec::new(), last: true });
            } else {
                let chunks: Vec<Vec<WirePoint>> =
                    points.chunks(self.batch).map(|c| c.to_vec()).collect();
                let n = chunks.len();
                for (i, chunk) in chunks.into_iter().enumerate() {
                    ctx.send(dst, KdMsg::Points { batch: chunk, last: i + 1 == n });
                }
            }
        }
        self.phase = BuildPhase::Exchange;
    }

    fn try_finish(&mut self) -> Step<BuiltShard> {
        if self.finished_senders == self.k - 1 {
            let mut points = std::mem::take(&mut self.received);
            // Deterministic build regardless of arrival interleaving.
            points.sort_by_key(|(id, _)| *id);
            Step::Done(BuiltShard { tree: KdTree::build(points), splits: self.splits.clone() })
        } else {
            // Only another `last` marker can finish the build.
            Step::Wait
        }
    }
}

impl Protocol for KdBuildProtocol {
    type Msg = KdMsg;
    type Output = BuiltShard;

    /// A build machine that already ran its exchange burst can salvage: all
    /// its outgoing points are on the wire (in-flight sends still deliver
    /// after a fail-stop), so the survivors' bins stay complete, and the
    /// salvaged output is the tree over whatever this bin had received by
    /// the crash. Points still in flight *to* the crashed bin are lost with
    /// it — fail-stop recovery accepts that loss, and callers see the crash
    /// in [`kmachine::FaultMetrics::crashed`]. Before the exchange the
    /// machine still holds undistributed points, so nothing is salvageable.
    fn on_crash(&mut self) -> Option<BuiltShard> {
        matches!(self.phase, BuildPhase::Exchange).then(|| {
            let mut points = std::mem::take(&mut self.received);
            points.sort_by_key(|(id, _)| *id);
            BuiltShard { tree: KdTree::build(points), splits: self.splits.clone() }
        })
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, KdMsg>) -> Step<BuiltShard> {
        if matches!(self.phase, BuildPhase::Init) {
            let samples = self.my_samples(ctx);
            if ctx.k() == 1 {
                let points =
                    self.local.drain(..).map(|r| (r.id, r.point.0.clone())).collect::<Vec<_>>();
                return Step::Done(BuiltShard { tree: KdTree::build(points), splits: Vec::new() });
            }
            if self.id == self.leader {
                self.samples = samples;
                self.pending_samples = self.k - 1;
                self.phase = BuildPhase::CollectSamples;
            } else {
                ctx.send(self.leader, KdMsg::Sample(samples));
                self.phase = BuildPhase::AwaitSplits;
            }
            return Step::Wait;
        }

        for env in ctx.inbox() {
            match &env.msg {
                KdMsg::Sample(v) => {
                    self.samples.extend_from_slice(v);
                    self.pending_samples -= 1;
                    if self.pending_samples == 0 {
                        // Quantile splits from the pooled sample.
                        self.samples.sort_by(f64::total_cmp);
                        let mut splits = Vec::with_capacity(self.k - 1);
                        if !self.samples.is_empty() {
                            for j in 1..self.k {
                                let idx = (j * self.samples.len()) / self.k;
                                splits.push(self.samples[idx.min(self.samples.len() - 1)]);
                            }
                        } else {
                            splits = vec![0.0; self.k - 1];
                        }
                        self.splits = splits;
                        ctx.broadcast(KdMsg::Splits(self.splits.clone()));
                        self.exchange(ctx);
                    }
                }
                KdMsg::Splits(splits) => {
                    self.splits.clone_from(splits);
                    self.exchange(ctx);
                }
                KdMsg::Points { batch, last } => {
                    self.received.extend(batch.iter().map(|p| (p.id, p.coords.as_slice().into())));
                    self.finished_senders += usize::from(*last);
                }
            }
        }
        if matches!(self.phase, BuildPhase::Exchange) {
            return self.try_finish();
        }
        // Collecting samples or awaiting the splits: reply-driven.
        Step::Wait
    }
}

/// The queryable result of a distributed build: every machine's tree plus
/// the shared splits. Queries are evaluated directly (sequentially), not
/// over the engine: the build is the only phase whose communication the
/// `baselines` table reports. Query routing is left unmeasured there; what
/// [`DistributedKdForest::query`] returns is the number of machines a probe
/// contacts.
pub struct DistributedKdForest {
    /// Per-machine trees.
    pub shards: Vec<KdTree>,
    /// Bin boundaries (length k−1).
    pub splits: Vec<f64>,
}

impl DistributedKdForest {
    /// Assemble from per-machine build outputs.
    pub fn from_outputs(outputs: Vec<BuiltShard>) -> Self {
        let splits = outputs.first().map(|b| b.splits.clone()).unwrap_or_default();
        DistributedKdForest { shards: outputs.into_iter().map(|b| b.tree).collect(), splits }
    }

    /// Exact ℓ-NN: probe the owner bin, then every bin overlapping the
    /// candidate ball, and merge. Returns `(answer, probes)` where `probes`
    /// is the number of machines that had to be contacted.
    pub fn query(&self, q: &[f64], ell: usize, metric: Metric) -> (Vec<(Dist, PointId)>, usize) {
        if self.shards.is_empty() || ell == 0 {
            return (Vec::new(), 0);
        }
        let owner = KdBuildProtocol::bin_of(&self.splits, q[0]);
        let mut probes = vec![false; self.shards.len()];
        probes[owner] = true;
        let mut candidates = self.shards[owner].knn(q, ell, metric);

        // Expand to bins whose slab intersects the current candidate ball;
        // if the owner had fewer than ℓ points the radius is unknown, so
        // probe everyone (the honest degenerate case).
        let radius =
            if candidates.len() == ell { candidates.last().map(|&(d, _)| d) } else { None };
        for (i, shard) in self.shards.iter().enumerate() {
            if probes[i] || shard.is_empty() {
                continue;
            }
            let overlap = match radius {
                None => true,
                Some(r) => slab_overlaps(&self.splits, i, q[0], r, metric),
            };
            if overlap {
                probes[i] = true;
                candidates.extend(shard.knn(q, ell, metric));
            }
        }
        let mut keyed: Vec<DistKey> =
            candidates.into_iter().map(|(d, id)| DistKey::new(d, id)).collect();
        keyed.sort_unstable();
        keyed.truncate(ell);
        (keyed.into_iter().map(|k| (k.dist, k.id)).collect(), probes.iter().filter(|&&p| p).count())
    }
}

/// Does bin `i`'s axis-0 slab come within `radius` of coordinate `x`?
fn slab_overlaps(splits: &[f64], i: usize, x: f64, radius: Dist, metric: Metric) -> bool {
    let lo = if i == 0 { f64::NEG_INFINITY } else { splits[i - 1] };
    let hi = if i == splits.len() { f64::INFINITY } else { splits[i] };
    let gap = if x < lo {
        lo - x
    } else if x > hi {
        x - hi
    } else {
        0.0
    };
    if gap == 0.0 {
        return true;
    }
    // Axis gap lower-bounds every Minkowski norm; compare in Dist space.
    let bound = match metric {
        Metric::SquaredEuclidean => Dist::from_f64(gap * gap),
        Metric::Hamming => return true, // No geometric bound: must probe.
        _ => Dist::from_f64(gap),
    };
    bound <= radius
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmachine::engine::run_sync;
    use kmachine::NetConfig;
    use knn_points::{brute_force_knn, IdAssigner};
    use rand::{rngs::StdRng, SeedableRng};

    fn random_records(n: usize, dims: usize, seed: u64) -> Vec<Record<VecPoint>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = IdAssigner::new(seed);
        (0..n)
            .map(|_| Record {
                id: ids.next_id(),
                point: VecPoint::new(
                    (0..dims).map(|_| rng.random_range(-100.0..100.0)).collect::<Vec<f64>>(),
                ),
                label: None,
            })
            .collect()
    }

    fn build_forest(
        shards: Vec<Vec<Record<VecPoint>>>,
        seed: u64,
    ) -> (DistributedKdForest, kmachine::RunMetrics) {
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(seed);
        let protos: Vec<KdBuildProtocol> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| KdBuildProtocol::new(i, k, 0, 32, 4, local))
            .collect();
        let out = run_sync(&cfg, protos).expect("kd build");
        (DistributedKdForest::from_outputs(out.outputs), out.metrics)
    }

    #[test]
    fn build_conserves_points() {
        let records = random_records(300, 2, 1);
        let shards: Vec<Vec<Record<VecPoint>>> = records.chunks(75).map(|c| c.to_vec()).collect();
        let (forest, metrics) = build_forest(shards, 1);
        assert_eq!(forest.shards.iter().map(KdTree::len).sum::<usize>(), 300);
        // Redistribution must have moved real point payloads.
        assert!(metrics.bits > 300 * 64 / 2, "bits = {}", metrics.bits);
    }

    #[test]
    fn query_matches_brute_force() {
        let records = random_records(400, 3, 2);
        let shards: Vec<Vec<Record<VecPoint>>> = records.chunks(100).map(|c| c.to_vec()).collect();
        let (forest, _) = build_forest(shards, 2);
        let mut rng = StdRng::seed_from_u64(9);
        for t in 0..20 {
            let q: Vec<f64> = (0..3).map(|_| rng.random_range(-100.0..100.0)).collect();
            let (got, probes) = forest.query(&q, 7, Metric::Euclidean);
            let want: Vec<(Dist, PointId)> =
                brute_force_knn(&records, &VecPoint::new(q), 7, Metric::Euclidean)
                    .into_iter()
                    .map(|(key, _)| (key.dist, key.id))
                    .collect();
            assert_eq!(got, want, "query {t}");
            assert!((1..=4).contains(&probes));
        }
    }

    #[test]
    fn queries_usually_touch_few_bins() {
        let records = random_records(2000, 2, 3);
        let shards: Vec<Vec<Record<VecPoint>>> = records.chunks(250).map(|c| c.to_vec()).collect();
        let (forest, _) = build_forest(shards, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let mut total_probes = 0usize;
        let queries = 50;
        for _ in 0..queries {
            let q: Vec<f64> = (0..2).map(|_| rng.random_range(-100.0..100.0)).collect();
            let (_, probes) = forest.query(&q, 5, Metric::Euclidean);
            total_probes += probes;
        }
        let avg = total_probes as f64 / queries as f64;
        assert!(avg < 4.0, "average probes too high: {avg}");
    }

    #[test]
    fn build_cost_scales_with_data_not_ell() {
        // The redistribution ships ~n points regardless of any query
        // parameter — the paper's criticism in one assertion.
        let small = random_records(100, 2, 4);
        let large = random_records(1000, 2, 5);
        let (_, m_small) = build_forest(small.chunks(25).map(|c| c.to_vec()).collect(), 4);
        let (_, m_large) = build_forest(large.chunks(250).map(|c| c.to_vec()).collect(), 5);
        assert!(m_large.bits > 5 * m_small.bits, "{} vs {}", m_large.bits, m_small.bits);
    }

    #[test]
    fn post_exchange_crash_salvages_survivor_bins() {
        // Worker 2 crashes after its exchange burst: its outgoing batches
        // are already on the wire and still deliver, so every survivor's
        // bin stays complete; only points routed *to* bin 2 can be lost.
        let records = random_records(120, 2, 8);
        let shards: Vec<Vec<Record<VecPoint>>> = records.chunks(40).map(|c| c.to_vec()).collect();
        // Unlimited bandwidth keeps the phase schedule tight: workers
        // receive the splits in round 2 and exchange in the same round, so
        // by round 3 worker 2 has shipped everything.
        let clean = {
            let protos: Vec<KdBuildProtocol> = shards
                .iter()
                .enumerate()
                .map(|(i, local)| KdBuildProtocol::new(i, 3, 0, 32, 4, local.clone()))
                .collect();
            run_sync(
                &NetConfig::new(3).with_seed(8).with_bandwidth(kmachine::BandwidthMode::Unlimited),
                protos,
            )
            .unwrap()
        };
        let cfg = NetConfig::new(3)
            .with_seed(8)
            .with_bandwidth(kmachine::BandwidthMode::Unlimited)
            .with_faults(kmachine::FaultPlan::default().with_crash(2, 3));
        let protos: Vec<KdBuildProtocol> = shards
            .iter()
            .enumerate()
            .map(|(i, local)| KdBuildProtocol::new(i, 3, 0, 32, 4, local.clone()))
            .collect();
        let out = run_sync(&cfg, protos).expect("post-exchange crash is salvaged in-run");
        assert_eq!(out.faults.crashed, vec![2]);
        for survivor in [0, 1] {
            assert_eq!(
                out.outputs[survivor].tree.len(),
                clean.outputs[survivor].tree.len(),
                "survivor {survivor}'s bin must be complete"
            );
        }
        let total: usize = out.outputs.iter().map(|b| b.tree.len()).sum();
        assert!(total <= 120, "salvage never invents points");
    }

    #[test]
    fn pre_exchange_crash_is_unsalvageable() {
        // Dead before shipping its points: the redistribution cannot
        // complete without them, so the run fails with the typed error.
        let records = random_records(90, 2, 9);
        let shards: Vec<Vec<Record<VecPoint>>> = records.chunks(30).map(|c| c.to_vec()).collect();
        let cfg = NetConfig::new(3)
            .with_seed(9)
            .with_faults(kmachine::FaultPlan::default().with_crash(1, 0));
        let protos: Vec<KdBuildProtocol> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| KdBuildProtocol::new(i, 3, 0, 32, 4, local))
            .collect();
        let err = match run_sync(&cfg, protos) {
            Err(e) => e,
            Ok(_) => panic!("pre-exchange crash must not complete"),
        };
        assert!(
            matches!(err, kmachine::EngineError::Crashed { machine: 1, .. }),
            "expected an unsalvageable crash: {err:?}"
        );
    }

    #[test]
    fn empty_and_single_machine() {
        let (forest, _) = build_forest(vec![vec![], vec![]], 6);
        assert_eq!(forest.query(&[0.0], 3, Metric::Euclidean).0.len(), 0);

        let records = random_records(50, 2, 7);
        let k1 = vec![records.clone()];
        let cfg = NetConfig::new(1).with_seed(0);
        let out = run_sync(&cfg, vec![KdBuildProtocol::new(0, 1, 0, 8, 4, records)]).unwrap();
        assert_eq!(out.outputs[0].tree.len(), 50);
        assert_eq!(out.metrics.messages, 0);
        drop(k1);
    }
}
