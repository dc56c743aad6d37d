//! Binary search over the **value domain** — the style of distributed ℓ-NN
//! the paper cites as prior work (\[3\] Cahsai et al., \[18\] Yang et al.).
//!
//! Instead of comparing keys, the leader bisects the numeric interval
//! `[min, max]` and asks every machine how many keys fall at or below the
//! midpoint. Round complexity is `O(log V)` where `V` is the spread of the
//! *values* — independent of n and ℓ, but dependent on the value domain,
//! which is exactly why it sits outside the comparison-based lower bound
//! the paper's `O(log ℓ)` result is measured against (§1.3, footnote 2:
//! algorithms using only comparisons cannot beat `Ω(log n)` for median
//! finding; bisection sidesteps the bound by exploiting value structure).

use kmachine::{Ctx, MachineId, Payload, Protocol, SnapshotReader, SnapshotWriter, Step};
use knn_points::NumericKey;

/// Messages of the value-domain bisection protocol. Key values travel as
/// order-preserving `u128` ordinals.
#[derive(Debug, Clone)]
pub enum BsMsg {
    /// Leader → all: report `(count, min, max)` ordinals of your keys.
    Query,
    /// Reply to [`BsMsg::Query`] (`None`s when the machine has no keys).
    Report {
        /// Number of local keys.
        count: u64,
        /// Smallest local ordinal.
        min: Option<u128>,
        /// Largest local ordinal.
        max: Option<u128>,
    },
    /// Leader → all: how many of your keys have ordinal `≤ threshold`?
    Count {
        /// Bisection midpoint.
        threshold: u128,
    },
    /// Reply to [`BsMsg::Count`].
    Size(u64),
    /// Leader → all: output keys with ordinal `≤ threshold` (`None` =
    /// empty answer).
    Finished {
        /// Final boundary ordinal.
        threshold: Option<u128>,
    },
}

impl Payload for BsMsg {
    fn size_bits(&self) -> u64 {
        match self {
            BsMsg::Query => 3,
            BsMsg::Report { .. } => 3 + 64 + 2 * 129,
            BsMsg::Count { .. } => 3 + 128,
            BsMsg::Size(_) => 3 + 64,
            BsMsg::Finished { .. } => 3 + 129,
        }
    }
}

#[derive(Clone, Copy)]
enum BsPhase {
    Init,
    AwaitReports,
    AwaitSizes { mid: u128 },
    Worker,
}

/// Per-machine instance of value-domain bisection selection.
pub struct BinSearchProtocol<K: NumericKey> {
    id: MachineId,
    k: usize,
    leader: MachineId,
    ell: u64,
    /// Local top-ℓ candidates, sorted by ordinal (== key order).
    local: Vec<K>,
    ordinals: Vec<u128>,
    phase: BsPhase,
    // Leader bisection state: the boundary lies in [lo, hi].
    lo: u128,
    hi: u128,
    ell_cap: u64,
    total: u64,
    acc: u64,
    min_seen: Option<u128>,
    max_seen: Option<u128>,
    pending: usize,
    /// Leader: workers that reported a nonzero key count — the only ones
    /// probed during bisection (empty workers go silent after the census).
    active: usize,
    /// Worker: the census report went out (after which an empty worker is
    /// provably silent forever).
    reported: bool,
    /// Completed bisection iterations (leader; for the baselines table).
    pub iterations: u64,
}

impl<K: NumericKey> BinSearchProtocol<K> {
    /// Machine `id` of `k`, selecting the `ell` smallest keys among every
    /// machine's `local` candidates (sorted ascending, at most `ell`).
    pub fn new(id: MachineId, k: usize, leader: MachineId, ell: u64, local: Vec<K>) -> Self {
        super::debug_assert_candidates(&local, ell);
        BinSearchProtocol {
            id,
            k,
            leader,
            ell,
            ordinals: local.iter().map(|k| k.to_ordinal()).collect(),
            local,
            phase: BsPhase::Init,
            lo: 0,
            hi: 0,
            ell_cap: ell,
            total: 0,
            acc: 0,
            min_seen: None,
            max_seen: None,
            pending: 0,
            active: 0,
            reported: false,
            iterations: 0,
        }
    }

    /// Raw-materialized-keys constructor for tests (sorts and truncates).
    pub fn from_keys(id: MachineId, k: usize, leader: MachineId, ell: u64, keys: Vec<K>) -> Self {
        Self::new(id, k, leader, ell, super::top_ell(keys, ell))
    }

    fn count_leq(&self, threshold: u128) -> u64 {
        self.ordinals.partition_point(|&o| o <= threshold) as u64
    }

    fn output_for(&self, threshold: Option<u128>) -> Vec<K> {
        match threshold {
            None => Vec::new(),
            Some(t) => {
                let end = self.ordinals.partition_point(|&o| o <= t);
                self.local[..end].to_vec()
            }
        }
    }

    /// Leader: bisection steps — either finish or probe the midpoint. When
    /// no worker holds keys (`active == 0`) the probes would go unanswered
    /// (empty workers are silent), so the leader bisects locally to
    /// completion instead — every key it is counting is its own.
    fn step(&mut self, ctx: &mut Ctx<'_, BsMsg>) -> Option<Option<u128>> {
        loop {
            if self.ell_cap == 0 {
                return Some(None);
            }
            if self.lo >= self.hi {
                return Some(Some(self.lo));
            }
            self.iterations += 1;
            let mid = self.lo + (self.hi - self.lo) / 2;
            self.acc = self.count_leq(mid);
            if self.active > 0 {
                ctx.broadcast(BsMsg::Count { threshold: mid });
                // Only workers with keys answer probes.
                self.pending = self.active;
                self.phase = BsPhase::AwaitSizes { mid };
                return None;
            }
            if self.acc == self.ell_cap {
                return Some(Some(mid));
            }
            if self.acc > self.ell_cap {
                self.hi = mid;
            } else {
                self.lo = mid + 1;
            }
        }
    }

    fn finish(&mut self, threshold: Option<u128>, ctx: &mut Ctx<'_, BsMsg>) -> Step<Vec<K>> {
        ctx.broadcast(BsMsg::Finished { threshold });
        Step::Done(self.output_for(threshold))
    }
}

impl<K: NumericKey> Protocol for BinSearchProtocol<K> {
    type Msg = BsMsg;
    type Output = Vec<K>;

    /// A machine that ran its round 0 and holds no keys provably
    /// contributes nothing, so a crash there salvages an (exact!) empty
    /// output. Any other crash — keys on board, or dead before round 0 ran
    /// — may lose answer members or the coordinator: unsalvageable, and the
    /// runner retries over the survivors.
    fn on_crash(&mut self) -> Option<Vec<K>> {
        (!matches!(self.phase, BsPhase::Init) && self.ordinals.is_empty()).then(Vec::new)
    }

    /// Full bisection state — keys as ordinals, the phase discriminant, and
    /// every leader counter — so a rejoining machine resumes mid-bisection.
    /// Nothing to checkpoint before round 0 has run: a pre-round-0 crash
    /// replays from the pristine protocol.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        let mut w = SnapshotWriter::new();
        match self.phase {
            BsPhase::Init => return None,
            BsPhase::AwaitReports => w.u32(1),
            BsPhase::AwaitSizes { mid } => {
                w.u32(2);
                w.u128(mid);
            }
            BsPhase::Worker => w.u32(3),
        }
        w.u64(self.ordinals.len() as u64);
        for &o in &self.ordinals {
            w.u128(o);
        }
        w.u128(self.lo);
        w.u128(self.hi);
        w.u64(self.ell_cap);
        w.u64(self.total);
        w.u64(self.acc);
        for bound in [self.min_seen, self.max_seen] {
            w.flag(bound.is_some());
            w.u128(bound.unwrap_or(0));
        }
        w.u64(self.pending as u64);
        w.u64(self.active as u64);
        w.flag(self.reported);
        w.u64(self.iterations);
        Some(w.finish())
    }

    fn restore(&mut self, blob: &[u8]) -> bool {
        let mut r = SnapshotReader::new(blob);
        let phase = match r.u32() {
            Some(1) => BsPhase::AwaitReports,
            Some(2) => match r.u128() {
                Some(mid) => BsPhase::AwaitSizes { mid },
                None => return false,
            },
            Some(3) => BsPhase::Worker,
            _ => return false,
        };
        let Some(n) = r.u64() else { return false };
        let Some(ordinals) = (0..n).map(|_| r.u128()).collect::<Option<Vec<u128>>>() else {
            return false;
        };
        let (Some(lo), Some(hi)) = (r.u128(), r.u128()) else { return false };
        let (Some(ell_cap), Some(total), Some(acc)) = (r.u64(), r.u64(), r.u64()) else {
            return false;
        };
        let mut bounds = [None, None];
        for b in &mut bounds {
            let (Some(present), Some(v)) = (r.flag(), r.u128()) else { return false };
            *b = present.then_some(v);
        }
        let (Some(pending), Some(active)) = (r.u64(), r.u64()) else { return false };
        let (Some(reported), Some(iterations)) = (r.flag(), r.u64()) else { return false };
        if !r.done() {
            return false;
        }
        self.local = ordinals.iter().map(|&o| K::from_ordinal(o)).collect();
        self.ordinals = ordinals;
        self.phase = phase;
        self.lo = lo;
        self.hi = hi;
        self.ell_cap = ell_cap;
        self.total = total;
        self.acc = acc;
        self.min_seen = bounds[0];
        self.max_seen = bounds[1];
        self.pending = pending as usize;
        self.active = active as usize;
        self.reported = reported;
        self.iterations = iterations;
        true
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, BsMsg>) -> Step<Vec<K>> {
        debug_assert_eq!(ctx.id(), self.id, "protocol wired to the wrong machine");
        if matches!(self.phase, BsPhase::Init) {
            if ctx.id() == self.leader {
                if ctx.k() == 1 {
                    let end = (self.ell as usize).min(self.local.len());
                    return Step::Done(self.local[..end].to_vec());
                }
                ctx.broadcast(BsMsg::Query);
                self.total = self.ordinals.len() as u64;
                self.min_seen = self.ordinals.first().copied();
                self.max_seen = self.ordinals.last().copied();
                self.pending = self.k - 1;
                self.phase = BsPhase::AwaitReports;
            } else {
                self.phase = BsPhase::Worker;
            }
            return Step::Wait;
        }

        // Workers answer probes and the leader collects replies: both only
        // ever react to mail.
        if ctx.id() != self.leader {
            for env in ctx.inbox() {
                match env.msg {
                    BsMsg::Query => {
                        ctx.send(
                            self.leader,
                            BsMsg::Report {
                                count: self.ordinals.len() as u64,
                                min: self.ordinals.first().copied(),
                                max: self.ordinals.last().copied(),
                            },
                        );
                        self.reported = true;
                    }
                    BsMsg::Count { threshold } => {
                        // Empty workers stay silent: their count is always
                        // 0 and the leader does not wait for them.
                        if !self.ordinals.is_empty() {
                            ctx.send(self.leader, BsMsg::Size(self.count_leq(threshold)));
                        }
                    }
                    BsMsg::Finished { threshold } => return Step::Done(self.output_for(threshold)),
                    ref other => panic!("worker received a leader-only message {other:?}"),
                }
            }
            return Step::Wait;
        }

        for env in ctx.inbox() {
            match env.msg {
                BsMsg::Report { count, min, max } => {
                    self.total += count;
                    if count > 0 {
                        self.active += 1;
                    }
                    if let Some(m) = min {
                        if self.min_seen.is_none_or(|g| m < g) {
                            self.min_seen = Some(m);
                        }
                    }
                    if let Some(m) = max {
                        if self.max_seen.is_none_or(|g| m > g) {
                            self.max_seen = Some(m);
                        }
                    }
                    self.pending -= 1;
                    if self.pending == 0 {
                        self.ell_cap = self.ell.min(self.total);
                        if self.ell_cap == 0 {
                            return self.finish(None, ctx);
                        }
                        if self.ell_cap == self.total {
                            return self.finish(self.max_seen, ctx);
                        }
                        self.lo = self.min_seen.expect("total > 0");
                        self.hi = self.max_seen.expect("total > 0");
                        if let Some(t) = self.step(ctx) {
                            return self.finish(t, ctx);
                        }
                    }
                }
                BsMsg::Size(c) => {
                    self.acc += c;
                    self.pending -= 1;
                    if self.pending == 0 {
                        let BsPhase::AwaitSizes { mid } = self.phase else {
                            panic!("Size outside bisection")
                        };
                        if self.acc == self.ell_cap {
                            // {x ≤ mid} is exactly the answer set.
                            return self.finish(Some(mid), ctx);
                        }
                        if self.acc > self.ell_cap {
                            self.hi = mid;
                        } else {
                            self.lo = mid + 1;
                        }
                        if let Some(t) = self.step(ctx) {
                            return self.finish(t, ctx);
                        }
                    }
                }
                ref other => panic!("leader received an unexpected message {other:?}"),
            }
        }
        Step::Wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmachine::engine::run_sync;
    use kmachine::NetConfig;
    use knn_workloads::partition::{PartitionStrategy, ALL_STRATEGIES};
    use proptest::prelude::*;

    fn run_bs(shards: Vec<Vec<u64>>, ell: u64, seed: u64) -> (Vec<u64>, kmachine::RunMetrics) {
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(seed);
        let protos: Vec<BinSearchProtocol<u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| BinSearchProtocol::from_keys(i, k, 0, ell, local))
            .collect();
        let out = run_sync(&cfg, protos).expect("binsearch run");
        let mut merged: Vec<u64> = out.outputs.into_iter().flatten().collect();
        merged.sort_unstable();
        (merged, out.metrics)
    }

    fn expected(shards: &[Vec<u64>], ell: usize) -> Vec<u64> {
        let mut all: Vec<u64> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        all.truncate(ell);
        all
    }

    #[test]
    fn selects_correctly() {
        let shards = vec![vec![10, 40, 70], vec![20, 50, 80], vec![30, 60, 90]];
        let (got, _) = run_bs(shards.clone(), 4, 1);
        assert_eq!(got, expected(&shards, 4));
    }

    #[test]
    fn edge_cases() {
        assert_eq!(run_bs(vec![vec![3, 1], vec![2]], 0, 1).0, Vec::<u64>::new());
        assert_eq!(run_bs(vec![vec![3, 1], vec![2]], 3, 2).0, vec![1, 2, 3]);
        assert_eq!(run_bs(vec![vec![3, 1], vec![2]], 99, 3).0, vec![1, 2, 3]);
        assert_eq!(run_bs(vec![vec![], vec![]], 5, 4).0, Vec::<u64>::new());
        assert_eq!(run_bs(vec![vec![5]], 1, 5).0, vec![5]);
        assert_eq!(run_bs(vec![vec![], vec![5], vec![]], 1, 6).0, vec![5]);
    }

    #[test]
    fn bisection_with_empty_shards_stays_correct() {
        // Empty workers answer the census once and then never speak; the
        // leader probes only the nonzero ones. ell < total forces real
        // bisection iterations through the silent-worker path.
        let shards = vec![vec![100u64, 5, 61, 999, 77], vec![], vec![42, 7, 500, 8]];
        let (got, _) = run_bs(shards.clone(), 4, 9);
        assert_eq!(got, expected(&shards, 4));
        // All keys on the leader: probes would go unanswered, so the
        // leader bisects locally.
        let shards = vec![vec![13u64, 2, 88, 41, 900, 7], vec![], vec![]];
        let (got, m) = run_bs(shards.clone(), 3, 10);
        assert_eq!(got, expected(&shards, 3));
        // Census + final broadcast only — no probe traffic at all.
        assert_eq!(m.messages, 2 + 2 + 2);
    }

    #[test]
    fn adjacent_values_still_separable() {
        // The bisection must cope with keys that differ by 1.
        let shards = vec![vec![100, 101], vec![102, 103], vec![104]];
        let (got, _) = run_bs(shards, 3, 7);
        assert_eq!(got, vec![100, 101, 102]);
    }

    #[test]
    fn rounds_scale_with_value_spread_not_n() {
        // Same n, tiny value domain vs huge value domain.
        let narrow: Vec<u64> = (0..4096u64).map(|i| 1000 + i % 64).collect();
        let wide: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let shards_n = PartitionStrategy::RoundRobin.split(narrow, 8, 0);
        let shards_w = PartitionStrategy::RoundRobin.split(wide, 8, 0);
        let (_, mn) = run_bs(shards_n, 100, 1);
        let (_, mw) = run_bs(shards_w, 100, 1);
        assert!(
            mn.rounds < mw.rounds,
            "narrow domain should need fewer rounds: {} vs {}",
            mn.rounds,
            mw.rounds
        );
        // Spread ≤ 64 values ⇒ ≤ ~6 bisections ⇒ ≤ ~12+4 rounds.
        assert!(mn.rounds <= 20, "narrow rounds = {}", mn.rounds);
    }

    #[test]
    fn checkpoint_round_trips_mid_bisection() {
        let mut p = BinSearchProtocol::<u64>::from_keys(0, 3, 0, 4, vec![9, 3, 7]);
        assert!(p.checkpoint().is_none(), "nothing to checkpoint before round 0 has run");
        assert_eq!((&p.local, &p.ordinals), (&vec![3, 7, 9], &vec![3, 7, 9]));
        p.phase = BsPhase::AwaitSizes { mid: 6 };
        p.lo = 3;
        p.hi = 9;
        p.ell_cap = 4;
        p.total = 8;
        p.acc = 1;
        p.min_seen = Some(1);
        p.max_seen = Some(42);
        p.pending = 2;
        p.active = 2;
        p.iterations = 3;
        let blob = p.checkpoint().expect("a started protocol is serializable");
        let mut q = BinSearchProtocol::<u64>::from_keys(0, 3, 0, 4, vec![1]);
        assert!(q.restore(&blob));
        assert_eq!(q.local, vec![3, 7, 9]);
        assert_eq!(q.ordinals, vec![3, 7, 9]);
        assert!(matches!(q.phase, BsPhase::AwaitSizes { mid: 6 }));
        assert_eq!((q.lo, q.hi, q.ell_cap, q.total, q.acc), (3, 9, 4, 8, 1));
        assert_eq!((q.min_seen, q.max_seen), (Some(1), Some(42)));
        assert_eq!((q.pending, q.active, q.iterations), (2, 2, 3));
        assert!(!q.restore(&blob[..blob.len() - 2]), "truncated blobs are rejected");
    }

    #[test]
    fn rejoin_mid_bisection_is_byte_identical() {
        // A wide value domain forces dozens of bisection rounds, so the
        // outage lands mid-search for both the leader and a worker.
        let wide: Vec<u64> = (0..256u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let shards = PartitionStrategy::RoundRobin.split(wide, 4, 0);
        let mk = |shards: &[Vec<u64>]| {
            shards
                .iter()
                .enumerate()
                .map(|(i, l)| BinSearchProtocol::from_keys(i, 4, 0, 9, l.clone()))
                .collect::<Vec<_>>()
        };
        let cfg = NetConfig::new(4).with_seed(3);
        let clean = run_sync(&cfg, mk(&shards)).unwrap();
        for machine in [0usize, 1] {
            let out = run_sync(&cfg.clone().with_rejoin(machine, 5, 9), mk(&shards)).unwrap();
            assert_eq!(out.outputs, clean.outputs, "machine {machine}");
            assert_eq!(out.metrics.messages, clean.metrics.messages, "machine {machine}");
            assert_eq!(out.metrics.bits, clean.metrics.bits, "machine {machine}");
            assert_eq!(out.recovery.rejoined, vec![machine]);
            assert!(out.recovery.replayed_rounds >= 1, "machine {machine}");
            assert!(out.faults.crashed.is_empty(), "machine {machine}");
        }
    }

    #[test]
    fn deterministic_like_saukas_song() {
        let all: Vec<u64> = (0..512u64).map(|i| i.wrapping_mul(2654435761)).collect();
        let shards = PartitionStrategy::RoundRobin.split(all, 4, 0);
        let (a, ma) = run_bs(shards.clone(), 17, 1);
        let (b, mb) = run_bs(shards, 17, 2222);
        assert_eq!(a, b);
        assert_eq!(ma.rounds, mb.rounds);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_matches_sequential(
            values in proptest::collection::hash_set(any::<u64>(), 0..150),
            k in 1usize..8,
            ell in 0u64..40,
            strat_idx in 0usize..5,
            seed in 0u64..200,
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let want = expected(std::slice::from_ref(&values), ell as usize);
            let shards = ALL_STRATEGIES[strat_idx].split(values, k, seed);
            let (got, _) = run_bs(shards, ell, seed);
            prop_assert_eq!(got, want);
        }
    }
}
