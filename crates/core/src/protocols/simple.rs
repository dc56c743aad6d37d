//! The **simple method** — the baseline the paper's experiment compares
//! against (§3).
//!
//! Every machine finds its local ℓ nearest points, ships *all ℓ of them* to
//! the leader, and the leader selects the final ℓ among the `kℓ` received
//! candidates. Under the model's `B = Θ(log n)` bandwidth this costs
//! `Θ(ℓ)` rounds (each link carries O(1) keys per round) and `Θ(kℓ)`
//! messages — exponentially more rounds than Algorithm 2's `O(log ℓ)`.

use kmachine::{
    Ctx, MachineId, Payload, Protocol, SnapshotReader, SnapshotWriter, Step, ENVELOPE_HEADER_BITS,
};
use knn_points::{Key, NumericKey};

/// Messages of the simple gather baseline.
#[derive(Debug, Clone)]
pub enum SimpleMsg<K: Key> {
    /// A chunk of the sender's local top-ℓ keys; `last` marks the final
    /// chunk. Chunks are sized by the runner to one link-round each, so the
    /// paper's O(kℓ) message count is reproduced faithfully rather than
    /// bypassed with one giant message.
    Batch {
        /// The keys in this chunk (ascending within the sender).
        keys: Vec<K>,
        /// True on the sender's final chunk.
        last: bool,
    },
    /// Leader → all: the ℓ-th smallest key overall; output your keys
    /// `≤ boundary` (`None` = empty answer).
    Boundary {
        /// Upper bound of the answer set.
        boundary: Option<K>,
    },
}

impl<K: NumericKey> Payload for SimpleMsg<K> {
    fn size_bits(&self) -> u64 {
        match self {
            SimpleMsg::Batch { keys, .. } => ENVELOPE_HEADER_BITS + K::BITS * keys.len() as u64,
            SimpleMsg::Boundary { .. } => 2 + K::BITS,
        }
    }

    /// A wire-level lie perturbs the announced key *values* through their
    /// total-order ordinals, keyed on the deterministic `word` — variant
    /// structure, key counts, and [`Payload::size_bits`] are unchanged, so
    /// the lie is engine-invariant and only the data is wrong.
    fn tamper(&mut self, word: u64) -> bool {
        let perturb = |k: &mut K, salt: u64| {
            let bits = tamper_mix(word ^ salt);
            let shifted = if K::BITS > 64 {
                (bits as u128) << 64
            } else {
                u128::from(bits) & ord_mask::<K>()
            };
            *k = K::from_ordinal(k.to_ordinal() ^ shifted);
        };
        match self {
            SimpleMsg::Batch { keys, .. } => {
                for (i, k) in keys.iter_mut().enumerate() {
                    perturb(k, i as u64);
                }
                !keys.is_empty()
            }
            SimpleMsg::Boundary { boundary } => match boundary {
                Some(b) => {
                    perturb(b, u64::MAX);
                    true
                }
                None => false,
            },
        }
    }
}

/// Nonzero splitmix64 finalizer for [`SimpleMsg::tamper`]: a lie must
/// actually change the value.
fn tamper_mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) | 1
}

/// Mask keeping a perturbed ordinal inside the key's `K::BITS`-bit domain.
fn ord_mask<K: NumericKey>() -> u128 {
    if K::BITS >= 128 {
        u128::MAX
    } else {
        (1u128 << K::BITS) - 1
    }
}

/// Per-machine instance of the simple gather baseline.
///
/// `K: NumericKey` (not just [`Key`]) so the protocol can serialize its
/// state through the keys' total-order ordinals for
/// [`Protocol::checkpoint`] / [`Protocol::restore`].
pub struct SimpleProtocol<K: NumericKey> {
    id: MachineId,
    leader: MachineId,
    ell: u64,
    /// Keys per [`SimpleMsg::Batch`]; pick
    /// `⌊(B − ENVELOPE_HEADER_BITS) / K::BITS⌋.max(1)` to model one full
    /// link-round per message.
    chunk: usize,
    /// Local top-ℓ, sorted.
    candidates: Vec<K>,
    /// Round 0 has run (or a checkpoint taken after it was restored).
    started: bool,
    // Leader scratch.
    gathered: Vec<K>,
    /// Leader: which machines have delivered their final chunk (`true` for
    /// the leader itself). Per-sender — not a count — so an observably
    /// crashed sender can be written off without hanging the gather.
    finished: Vec<bool>,
}

impl<K: NumericKey> SimpleProtocol<K> {
    /// Machine `id`, gathering everyone's `candidates` — the local top-`ell`,
    /// sorted ascending — at `leader`.
    pub fn new(
        id: MachineId,
        leader: MachineId,
        ell: u64,
        chunk: usize,
        candidates: Vec<K>,
    ) -> Self {
        assert!(chunk >= 1, "chunk must be at least 1 key");
        super::debug_assert_candidates(&candidates, ell);
        SimpleProtocol {
            id,
            leader,
            ell,
            chunk,
            candidates,
            started: false,
            gathered: Vec::new(),
            finished: Vec::new(),
        }
    }

    /// Raw-materialized-keys constructor for tests (sorts and truncates).
    pub fn from_keys(
        id: MachineId,
        leader: MachineId,
        ell: u64,
        chunk: usize,
        keys: Vec<K>,
    ) -> Self {
        Self::new(id, leader, ell, chunk, super::top_ell(keys, ell))
    }

    fn finish(&self, boundary: Option<K>) -> Vec<K> {
        match boundary {
            None => Vec::new(),
            Some(b) => {
                let end = self.candidates.partition_point(|x| *x <= b);
                self.candidates[..end].to_vec()
            }
        }
    }
}

impl<K: NumericKey> Protocol for SimpleProtocol<K> {
    type Msg = SimpleMsg<K>;
    type Output = Vec<K>;

    /// A machine that crashed before round 0, or had no candidates, sent the
    /// gather nothing: the protocol still terminates (the leader writes off
    /// observably crashed senders) and the survivors' outputs are exactly
    /// their share of the survivors' answer, so the crash is salvageable
    /// with an empty contribution. One that already streamed candidates may
    /// have placed them in the leader's gather and boundary — an answer it
    /// can no longer claim — so it salvages nothing and the run is retried
    /// over the survivors.
    fn on_crash(&mut self) -> Option<Vec<K>> {
        (!self.started || self.candidates.is_empty()).then(Vec::new)
    }

    /// Serializable once round 0 has run: candidates, the leader's gather
    /// scratch, and the per-sender finish flags, all keys as total-order
    /// ordinals. Before that there is nothing to checkpoint: a pre-round-0
    /// crash replays from the pristine protocol instead.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        if !self.started {
            return None;
        }
        let mut w = SnapshotWriter::new();
        w.u64(self.candidates.len() as u64);
        for k in &self.candidates {
            w.u128(k.to_ordinal());
        }
        w.u64(self.gathered.len() as u64);
        for k in &self.gathered {
            w.u128(k.to_ordinal());
        }
        w.u64(self.finished.len() as u64);
        for &f in &self.finished {
            w.flag(f);
        }
        Some(w.finish())
    }

    fn restore(&mut self, blob: &[u8]) -> bool {
        let mut r = SnapshotReader::new(blob);
        let read_keys = |r: &mut SnapshotReader<'_>| -> Option<Vec<K>> {
            let n = r.u64()?;
            (0..n).map(|_| r.u128().map(K::from_ordinal)).collect()
        };
        let Some(candidates) = read_keys(&mut r) else { return false };
        let Some(gathered) = read_keys(&mut r) else { return false };
        let Some(n) = r.u64() else { return false };
        let Some(finished) = (0..n).map(|_| r.flag()).collect::<Option<Vec<bool>>>() else {
            return false;
        };
        if !r.done() {
            return false;
        }
        self.started = true;
        self.candidates = candidates;
        self.gathered = gathered;
        self.finished = finished;
        true
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, SimpleMsg<K>>) -> Step<Vec<K>> {
        debug_assert_eq!(ctx.id(), self.id, "protocol wired to the wrong machine");
        if ctx.round() == 0 {
            self.started = true;
            if ctx.id() != self.leader {
                // Stream the whole local top-ℓ; the bandwidth-limited link
                // delivers it over ⌈ℓ/chunk⌉ rounds.
                if self.candidates.is_empty() {
                    ctx.send(self.leader, SimpleMsg::Batch { keys: Vec::new(), last: true });
                } else {
                    let chunks: Vec<&[K]> = self.candidates.chunks(self.chunk).collect();
                    let n = chunks.len();
                    for (i, chunk) in chunks.into_iter().enumerate() {
                        ctx.send(
                            self.leader,
                            SimpleMsg::Batch { keys: chunk.to_vec(), last: i + 1 == n },
                        );
                    }
                }
                // From here on a worker only reads the leader's boundary.
                return Step::Wait;
            }
            if ctx.k() == 1 {
                return Step::Done(self.candidates.clone());
            }
            self.gathered = self.candidates.clone();
            self.finished = vec![false; ctx.k()];
            self.finished[self.id] = true;
            return Step::Continue;
        }

        if ctx.id() == self.leader {
            for env in ctx.inbox() {
                let SimpleMsg::Batch { keys, last } = &env.msg else {
                    panic!("leader received a non-batch message");
                };
                self.gathered.extend_from_slice(keys);
                if *last {
                    self.finished[env.src] = true;
                }
            }
            // A sender counts as finished once its final chunk arrived —
            // or once it is observably crashed: a fail-stop machine will
            // never complete its stream, so waiting would deadlock. Its
            // in-flight chunks may still arrive after we finish; fail-stop
            // recovery accepts that loss and the answer is flagged
            // degraded by the runner.
            let all_in = (0..ctx.k()).all(|s| self.finished[s] || ctx.crashed(s));
            if all_in {
                // All kℓ candidates are in: select the final ℓ.
                self.gathered.sort_unstable();
                let boundary = if self.ell == 0 || self.gathered.is_empty() {
                    None
                } else {
                    let idx = (self.ell as usize).min(self.gathered.len()) - 1;
                    Some(self.gathered[idx])
                };
                ctx.broadcast(SimpleMsg::Boundary { boundary });
                return Step::Done(self.finish(boundary));
            }
            // Not `Wait`: `ctx.crashed(s)` turns true with the round number,
            // not with mail, so an empty inbox can still complete the gather.
            return Step::Continue;
        }

        if let Some(SimpleMsg::Boundary { boundary }) = ctx.first_from(self.leader) {
            return Step::Done(self.finish(*boundary));
        }
        Step::Wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmachine::engine::{run_event, run_sync};
    use kmachine::{BandwidthMode, FaultPlan, NetConfig};
    use knn_workloads::partition::{PartitionStrategy, ALL_STRATEGIES};
    use proptest::prelude::*;

    fn run_simple(
        shards: Vec<Vec<u64>>,
        ell: u64,
        seed: u64,
        chunk: usize,
    ) -> (Vec<u64>, kmachine::RunMetrics) {
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(seed);
        let protos: Vec<SimpleProtocol<u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| SimpleProtocol::from_keys(i, 0, ell, chunk, local))
            .collect();
        let out = run_sync(&cfg, protos).expect("simple run");
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
    fn gathers_and_selects() {
        let shards = vec![vec![100, 5, 200], vec![7, 300, 2], vec![50, 60, 1]];
        let (got, _) = run_simple(shards.clone(), 4, 1, 4);
        assert_eq!(got, expected(&shards, 4));
    }

    #[test]
    fn all_strategies_and_edges() {
        let all: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(48271) % 10_000).collect();
        for strat in ALL_STRATEGIES {
            let shards = strat.split(all.clone(), 5, 3);
            let (got, _) = run_simple(shards, 20, 3, 4);
            assert_eq!(got, expected(std::slice::from_ref(&all), 20), "{strat:?}");
        }
        // Edge cases.
        assert_eq!(run_simple(vec![vec![], vec![]], 5, 0, 4).0, Vec::<u64>::new());
        assert_eq!(run_simple(vec![vec![1], vec![]], 0, 0, 4).0, Vec::<u64>::new());
        assert_eq!(run_simple(vec![vec![2, 1]], 9, 0, 4).0, vec![1, 2]);
    }

    #[test]
    fn rounds_scale_linearly_with_ell() {
        // Θ(ℓ) rounds: with 128-bit batches of 1 key over a 512-bit link...
        // chunk=1 gives one key per message; bandwidth 128 bits/round gives
        // one message per round — so rounds ≈ ℓ.
        let k = 4;
        let data: Vec<u64> = (0..4096).collect();
        let mk = |ell: u64| {
            let shards = PartitionStrategy::Shuffled.split(data.clone(), k, 1);
            let cfg = NetConfig::new(k)
                .with_seed(1)
                .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 97 });
            let protos: Vec<SimpleProtocol<u64>> = shards
                .into_iter()
                .enumerate()
                .map(|(i, local)| SimpleProtocol::from_keys(i, 0, ell, 1, local))
                .collect();
            run_sync(&cfg, protos).unwrap().metrics.rounds
        };
        let r64 = mk(64);
        let r256 = mk(256);
        assert!(r64 >= 64, "r64 = {r64}");
        let ratio = r256 as f64 / r64 as f64;
        assert!(
            (3.0..5.0).contains(&ratio),
            "rounds should scale ~4x when ℓ quadruples: {r64} -> {r256}"
        );
    }

    #[test]
    fn message_count_is_k_times_ell_over_chunk() {
        let k = 6;
        let ell = 32u64;
        let shards: Vec<Vec<u64>> =
            (0..k as u64).map(|i| (0..200).map(|j| i * 1000 + j).collect()).collect();
        let (_, m) = run_simple(shards, ell, 2, 1);
        // (k-1) machines send ell keys each + final boundary broadcast.
        assert_eq!(m.messages, (k as u64 - 1) * ell + (k as u64 - 1));
    }

    #[test]
    fn leader_writes_off_a_crashed_worker() {
        // Machine 1 crashes before it ever sends: the leader observes the
        // horizon, selects over the surviving candidates, and the crashed
        // machine salvages an empty output — no stall, no error.
        let shards = vec![vec![10u64, 20, 30], vec![1, 2, 3], vec![100, 200, 300]];
        let cfg = NetConfig::new(3).with_faults(FaultPlan::default().with_crash(1, 0));
        let protos: Vec<SimpleProtocol<u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| SimpleProtocol::from_keys(i, 0, 4, 2, local))
            .collect();
        let out = run_sync(&cfg, protos).expect("crash is salvaged in-run");
        assert_eq!(out.faults.crashed, vec![1]);
        assert!(out.outputs[1].is_empty());
        let mut merged: Vec<u64> = out.outputs.into_iter().flatten().collect();
        merged.sort_unstable();
        // Machine 1's keys are lost; the best 4 of the survivors win.
        assert_eq!(merged, vec![10, 20, 30, 100]);
    }

    #[test]
    fn tamper_lies_without_changing_shape_or_size() {
        use knn_points::{Dist, DistKey, PointId};
        let mut batch = SimpleMsg::Batch { keys: vec![10u64, 20, 30], last: true };
        let clean_bits = batch.size_bits();
        assert!(batch.tamper(0xDEAD_BEEF));
        let SimpleMsg::Batch { keys, last } = &batch else { panic!("variant changed") };
        assert!(*last, "flags are not data; they must survive");
        assert_eq!(keys.len(), 3);
        assert_ne!(keys, &[10, 20, 30], "a lie must change the values");
        assert_eq!(batch.size_bits(), clean_bits, "size accounting must survive tampering");
        // The same word fabricates the same lie (engine invariance).
        let mut again = SimpleMsg::Batch { keys: vec![10u64, 20, 30], last: true };
        again.tamper(0xDEAD_BEEF);
        let SimpleMsg::Batch { keys: k2, .. } = &again else { unreachable!() };
        assert_eq!(keys, k2);
        // A DistKey lie perturbs the distance half and keeps the id, so
        // audits can still attribute the claim to a point.
        let key = DistKey::new(Dist::from_u64(7), PointId(42));
        let mut b = SimpleMsg::Boundary { boundary: Some(key) };
        assert!(b.tamper(1));
        let SimpleMsg::Boundary { boundary: Some(lied) } = b else { panic!("variant changed") };
        assert_ne!(lied, key);
        assert_eq!(lied.id, PointId(42));
        // An empty batch and a None boundary have nothing to lie about.
        assert!(!SimpleMsg::<u64>::Batch { keys: vec![], last: true }.tamper(1));
        assert!(!SimpleMsg::<u64>::Boundary { boundary: None }.tamper(1));
    }

    #[test]
    fn checkpoint_round_trips_and_gates_on_materialization() {
        let mut p = SimpleProtocol::<u64>::from_keys(0, 0, 4, 2, vec![30, 10, 20]);
        assert!(p.checkpoint().is_none(), "nothing to checkpoint before round 0 has run");
        p.started = true;
        assert_eq!(p.candidates, vec![10, 20, 30]);
        p.gathered = vec![10, 20, 30, 5];
        p.finished = vec![true, false, true];
        let blob = p.checkpoint().expect("a started protocol is serializable");
        let mut q = SimpleProtocol::<u64>::from_keys(0, 0, 4, 2, vec![99]);
        assert!(q.restore(&blob));
        assert_eq!(q.candidates, vec![10, 20, 30]);
        assert_eq!(q.gathered, vec![10, 20, 30, 5]);
        assert_eq!(q.finished, vec![true, false, true]);
        assert!(q.started);
        assert!(!q.restore(&blob[..blob.len() - 1]), "truncated blobs are rejected");
    }

    #[test]
    fn leader_rejoin_is_byte_identical_to_fault_free() {
        // Tight bandwidth stretches the gather over many rounds, so the
        // leader's outage interrupts it mid-stream; the checkpointed rejoin
        // must replay to the exact fault-free answer and costs.
        let shards = vec![vec![10u64, 20, 30, 40], vec![1, 2, 3, 4], vec![100, 200, 300, 400]];
        let mk = |shards: &[Vec<u64>]| {
            shards
                .iter()
                .enumerate()
                .map(|(i, l)| SimpleProtocol::from_keys(i, 0, 6, 1, l.clone()))
                .collect::<Vec<_>>()
        };
        let base = NetConfig::new(3)
            .with_seed(9)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 161 });
        let clean = run_sync(&base, mk(&shards)).unwrap();
        let out = run_sync(&base.clone().with_rejoin(0, 2, 4), mk(&shards)).unwrap();
        assert_eq!(out.outputs, clean.outputs);
        assert_eq!(out.metrics.messages, clean.metrics.messages);
        assert_eq!(out.metrics.bits, clean.metrics.bits);
        assert_eq!(out.recovery.rejoined, vec![0]);
        assert!(out.recovery.checkpoints > 0);
        assert!(out.faults.crashed.is_empty(), "a rejoin is a pause, not a fail-stop");
    }

    #[test]
    fn engines_agree() {
        let shards = vec![vec![9u64, 8, 7], vec![1, 2, 3], vec![4, 5, 6]];
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(5).with_event_workers(2);
        let mk = |shards: &[Vec<u64>]| {
            shards
                .iter()
                .enumerate()
                .map(|(i, l)| SimpleProtocol::from_keys(i, 0, 4, 2, l.clone()))
                .collect::<Vec<_>>()
        };
        let a = run_sync(&cfg, mk(&shards)).unwrap();
        let b = run_event(&cfg, mk(&shards)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
        assert_eq!(a.metrics.messages, b.metrics.messages);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_simple_matches_sequential(
            values in proptest::collection::hash_set(any::<u64>(), 0..120),
            k in 1usize..7,
            ell in 0u64..30,
            chunk in 1usize..9,
            seed in 0u64..200,
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let want = expected(std::slice::from_ref(&values), ell as usize);
            let shards = PartitionStrategy::RoundRobin.split(values, k, seed);
            let (got, _) = run_simple(shards, ell, seed, chunk);
            prop_assert_eq!(got, want);
        }
    }
}
