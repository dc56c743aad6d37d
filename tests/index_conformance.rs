//! Index conformance suite: every claim the shard indices make, checked
//! against exact oracles.
//!
//! Two oracles pin the NSW graph backend down:
//!
//! * the **brute-force `(distance, id)` scan** ([`knn_core::local::brute_top`])
//!   at the index level — recall at the default `ef`, *exact parity* once
//!   `ef` covers the shard (the knob saturates at exact by construction),
//!   genuineness of every claim, and deterministic tie-breaks;
//! * the **brute-force ℓ-NN over every record the test holds**
//!   ([`knn_points::brute_force_knn`]: the loaded data plus each record it
//!   inserted, under the id `insert` returned) at the cluster level — the
//!   end-to-end reference the served answers are measured against,
//!   including after live [`KnnCluster::insert`]s. Every cluster query
//!   reads the shard index, so the reference is kept outside the cluster.
//!
//! The insert-as-query equivalence tests pin the other tentpole property:
//! bulk load and empty-then-insert produce byte-identical serving behavior
//! at every pool size.
//!
//! A `HashMap` of every held id checks the cluster's own id bookkeeping
//! (one sorted id column per shard): labels resolve, `insert` issues fresh
//! ids, and reused ids are refused, whatever the id layout.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use knn_core::cluster::KnnCluster;
use knn_core::local::{brute_top, dist_keys, recall};
use knn_core::runner::Algorithm;
use knn_core::{CoreError, IndexBackend, IndexedPoint, NswIndex, NswParams, ShardIndex};
use knn_points::{
    brute_force_knn, BitsPoint, Dataset, DistKey, IdAssigner, Label, Metric, Point, PointId,
    Record, ScalarPoint, VecPoint,
};
use knn_workloads::vector::uniform_cube;
use knn_workloads::{GaussianMixture, PartitionStrategy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use rayon::ThreadPoolBuilder;

fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(f)
}

/// The seeded vector workload of the acceptance criterion: a labeled
/// Gaussian mixture, round-robin sharded so every machine sees every class.
fn vector_shards(k: usize, per_shard: usize, dims: usize, seed: u64) -> Vec<Dataset<VecPoint>> {
    let mixture = GaussianMixture { dims, clusters: 10, spread: 1.5, range: 20.0 };
    let mut ids = IdAssigner::new(seed);
    let data = Dataset::from_labeled(mixture.generate(k * per_shard, seed), &mut ids);
    PartitionStrategy::RoundRobin
        .split(data.records, k, seed)
        .into_iter()
        .map(Dataset::new)
        .collect()
}

/// Queries from the *same* mixture distribution as [`vector_shards`] (same
/// centers, fresh noise) — near-neighbor-rich, the regime recall matters in.
fn vector_queries(n: usize, dims: usize, seed: u64) -> Vec<VecPoint> {
    let mixture = GaussianMixture { dims, clusters: 10, spread: 1.5, range: 20.0 };
    mixture.generate_with(n, seed, seed ^ 0xABCD).into_iter().map(|(p, _)| p).collect()
}

fn vec_cluster(
    k: usize,
    seed: u64,
    backend: IndexBackend,
    shards: Vec<Dataset<VecPoint>>,
) -> KnnCluster<VecPoint> {
    let mut cluster: KnnCluster<VecPoint> =
        KnnCluster::builder().machines(k).seed(seed).index_backend(backend).build();
    cluster.load_shards(shards).expect("shard count");
    cluster
}

fn answer_keys(answer: &knn_core::cluster::KnnAnswer) -> Vec<DistKey> {
    answer.neighbors.iter().map(|n| DistKey::new(n.dist, n.id)).collect()
}

/// The exact ℓ-NN of `q` over `records`, by full sort — no cluster, no index.
fn oracle<P: Point>(records: &[Record<P>], q: &P, ell: usize) -> Vec<DistKey> {
    brute_force_knn(records, q, ell, Metric::Euclidean).into_iter().map(|(key, _)| key).collect()
}

/// **Acceptance criterion.** On the seeded vector workload, the NSW-backed
/// batched path reaches mean recall ≥ 0.95 at the default `ef` against the
/// brute-force ℓ-NN over the records the cluster was loaded with.
#[test]
fn nsw_recall_beats_095_at_default_ef_on_the_seeded_vector_workload() {
    let (k, per_shard, dims, ell, seed) = (4usize, 1024usize, 8usize, 10usize, 42u64);
    let shards = vector_shards(k, per_shard, dims, seed);
    let records: Vec<Record<VecPoint>> = shards.iter().flat_map(|d| d.records.clone()).collect();
    let cluster = vec_cluster(k, seed, IndexBackend::nsw(), shards);
    let queries = vector_queries(32, dims, seed);
    let batch = cluster.query_batch(&queries, ell).expect("nsw batch");
    let mut total = 0.0;
    for (q, got) in queries.iter().zip(&batch.answers) {
        let r = recall(&answer_keys(got), &oracle(&records, q, ell));
        assert!(r >= 0.5, "catastrophic recall {r} on one query");
        total += r;
    }
    let mean = total / queries.len() as f64;
    assert!(
        mean >= 0.95,
        "mean recall {mean} < 0.95 at default ef (params {:?})",
        NswParams::default()
    );
}

/// With the default `ef` saturating every shard (per-shard n ≤ ef), the
/// NSW-backed cluster is exact end-to-end: byte-identical answers *and*
/// byte-identical protocol costs to the exact-backend cluster, for every
/// algorithm.
#[test]
fn saturated_nsw_cluster_equals_the_exact_backend_end_to_end() {
    let (k, per_shard, dims, ell, seed) = (3usize, 60usize, 5usize, 7usize, 7u64);
    assert!(per_shard <= NswParams::default().ef_search);
    let shards = vector_shards(k, per_shard, dims, seed);
    let exact = vec_cluster(k, seed, IndexBackend::Exact, shards.clone());
    let nsw = vec_cluster(k, seed, IndexBackend::nsw(), shards);
    let queries = vector_queries(6, dims, seed);
    for algo in Algorithm::ALL {
        let want = exact.query_batch_with(algo, &queries, ell).expect("exact batch");
        let got = nsw.query_batch_with(algo, &queries, ell).expect("nsw batch");
        assert_eq!(got.metrics, want.metrics, "{algo:?}: protocol costs diverged");
        for (g, w) in got.answers.iter().zip(&want.answers) {
            assert_eq!(g.neighbors, w.neighbors, "{algo:?}: answers diverged");
        }
    }
}

/// **Insert-as-query equivalence.** A cluster bulk-loaded with P and a
/// cluster loaded empty then fed every record of P through
/// `insert_record_into` serve byte-identical batches — answers and
/// per-batch costs — across RAYON pool sizes {1, 2, 8}, on both backends.
#[test]
fn bulk_load_equals_empty_then_insert_across_engines_and_pools() {
    let (k, per_shard, dims, ell, seed) = (3usize, 150usize, 6usize, 9usize, 11u64);
    let shards = vector_shards(k, per_shard, dims, seed);
    let queries = vector_queries(5, dims, seed);
    for backend in [IndexBackend::Exact, IndexBackend::nsw()] {
        let mut reference: Option<knn_core::cluster::BatchAnswer> = None;
        for pool in [1usize, 2, 8] {
            let (bulk, grown) = with_pool(pool, || {
                let bulk = vec_cluster(k, seed, backend, shards.clone());
                let empty = vec![Dataset::new(Vec::new()); k];
                let mut grown = vec_cluster(k, seed, backend, empty);
                for (m, shard) in shards.iter().enumerate() {
                    for record in &shard.records {
                        grown.insert_record_into(m, record.clone()).expect("insert");
                    }
                }
                let bulk = bulk.query_batch(&queries, ell).expect("bulk batch");
                let grown = grown.query_batch(&queries, ell).expect("grown batch");
                (bulk, grown)
            });
            let label = format!("{:?}/pool {pool}", backend.name());
            assert_eq!(bulk.metrics, grown.metrics, "costs diverged: {label}");
            for (b, g) in bulk.answers.iter().zip(&grown.answers) {
                assert_eq!(b.neighbors, g.neighbors, "answers diverged: {label}");
            }
            let want = reference.get_or_insert(bulk.clone());
            assert_eq!(bulk.metrics, want.metrics, "pool variance: {label}");
            for (b, w) in bulk.answers.iter().zip(&want.answers) {
                assert_eq!(b.neighbors, w.neighbors, "pool variance: {label}");
            }
        }
    }
}

/// **Acceptance criterion.** `KnnCluster::insert` serves queries over new
/// points without a reload: points inserted into a live NSW cluster in a
/// region the loaded data never touched are found by the very next batch,
/// identically across pool sizes, and in exact agreement with the
/// brute-force ℓ-NN over the loaded and the inserted records.
#[test]
fn live_inserts_serve_without_reload_deterministically() {
    let (k, per_shard, dims, ell, seed) = (3usize, 150usize, 6usize, 5usize, 13u64);
    let shards = vector_shards(k, per_shard, dims, seed);
    // The mixture lives in roughly [-25, 25]^d; the probe region is far out.
    let probe = VecPoint::new(vec![60.0; 6]);
    let mut reference: Option<Vec<knn_core::cluster::Neighbor>> = None;
    for pool in [1usize, 2, 8] {
        let neighbors = with_pool(pool, || {
            let mut cluster = vec_cluster(k, seed, IndexBackend::nsw(), shards.clone());
            let mut records: Vec<Record<VecPoint>> =
                shards.iter().flat_map(|d| d.records.clone()).collect();
            let mut inserted = Vec::new();
            for i in 0..ell {
                let point = VecPoint::new(vec![60.0 + i as f64 * 0.25; 6]);
                let (id, machine) = cluster.insert(point.clone()).expect("insert");
                records.push(Record { id, point, label: None });
                inserted.push((id, machine));
            }
            let batch = cluster.query_batch(std::slice::from_ref(&probe), ell).expect("batch");
            let got = batch.answers[0].neighbors.clone();
            // Every answer is an inserted point — nothing loaded is
            // within 35 units of the probe region.
            for n in &got {
                assert!(
                    inserted.iter().any(|&(id, m)| id == n.id && m == n.machine),
                    "answer {n:?} is not one of the live inserts"
                );
            }
            // The exact ℓ-NN over everything loaded and inserted agrees.
            assert_eq!(answer_keys(&batch.answers[0]), oracle(&records, &probe, ell));
            got
        });
        let want = reference.get_or_insert(neighbors.clone());
        assert_eq!(&neighbors, want, "pool {pool} diverged");
    }
}

/// **Exact-backend churn.** The exact indices take inserts in place — a
/// shifted sorted array, a grown and occasionally re-balanced k-d tree — so
/// every serving path is checked against an index-free oracle: after every
/// burst of inserts, `query_batch` under each of the four algorithms and
/// the sequential `query` must equal the brute-force ℓ-NN over the records
/// the test loaded and inserted, at pools 1 and 2.
fn exact_churn_equals_the_scanning_oracle<P: IndexedPoint>(
    base: Vec<P>,
    inserts: Vec<P>,
    queries: Vec<P>,
) {
    let (k, ell, seed) = (3usize, 6usize, 23u64);
    for pool in [1usize, 2] {
        with_pool(pool, || {
            let mut cluster: KnnCluster<P> = KnnCluster::builder().machines(k).seed(seed).build();
            let mut ids = IdAssigner::new(seed);
            let data = Dataset::from_points(base.clone(), &mut ids);
            let mut records = data.records.clone();
            cluster.load(data, PartitionStrategy::Shuffled);
            for (burst, points) in inserts.chunks(8).enumerate() {
                for point in points {
                    let (id, _) = cluster.insert(point.clone()).expect("insert");
                    records.push(Record { id, point: point.clone(), label: None });
                }
                let want: Vec<Vec<DistKey>> =
                    queries.iter().map(|q| oracle(&records, q, ell)).collect();
                let sequential: Vec<Vec<DistKey>> = queries
                    .iter()
                    .map(|q| answer_keys(&cluster.query(q, ell).expect("query")))
                    .collect();
                assert_eq!(sequential, want, "query@{pool} after burst {burst}");
                for algo in Algorithm::ALL {
                    let batch = cluster.query_batch_with(algo, &queries, ell).expect("batch");
                    let got: Vec<Vec<DistKey>> = batch.answers.iter().map(answer_keys).collect();
                    assert_eq!(got, want, "{algo:?}@{pool} after burst {burst}");
                }
            }
            assert_eq!(cluster.total_points(), base.len() + inserts.len());
        });
    }
}

/// A sorted run, a run of copies of one point, then a seeded scatter.
fn churn_stream<P>(point: impl Fn(u64) -> P) -> Vec<P> {
    let sorted = (0..24u64).map(|i| 1_000 + i * 3);
    let duplicate = std::iter::repeat_n(1_030u64, 16);
    let random = (0..24u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1_200);
    sorted.chain(duplicate).chain(random).map(point).collect()
}

#[test]
fn exact_scalar_churn_equals_the_scanning_oracle() {
    let base = (0..90u64).map(|i| ScalarPoint(i * 11 % 997)).collect();
    let queries = [0u64, 500, 1_030, 1_031, 1_100].map(ScalarPoint).to_vec();
    exact_churn_equals_the_scanning_oracle(base, churn_stream(ScalarPoint), queries);
}

#[test]
fn exact_vector_churn_equals_the_scanning_oracle() {
    // Every axis ascends with the stream value: the sorted run is the order
    // that turns an unbalanced k-d tree into a list.
    let point = |v: u64| VecPoint::new(vec![v as f64, (v / 2) as f64, (v / 3) as f64]);
    let base = (0..90u64).map(|i| point(i * 11 % 997)).collect();
    let queries = [0u64, 500, 1_030, 1_031, 1_100].map(point).to_vec();
    exact_churn_equals_the_scanning_oracle(base, churn_stream(point), queries);
}

/// Every NSW claim is genuine at *any* `ef`: a real `(distance, id)` pair
/// of an indexed record, strictly ascending, never more than requested.
#[test]
fn nsw_claims_are_genuine_sorted_and_bounded_at_every_ef() {
    let records = indexed_vec_records(220, 7, 17);
    let index = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
    let truth: Vec<DistKey> = {
        let q = VecPoint::new(vec![5.0; 7]);
        let mut keys = dist_keys(&records, &q, Metric::Euclidean);
        keys.sort_unstable();
        keys
    };
    let q = VecPoint::new(vec![5.0; 7]);
    for ef in [1usize, 4, 16, 64, 220, 1000] {
        let got = index.search(&records, &q, 12, ef);
        assert!(got.len() <= 12);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "ef {ef}: not strictly ascending");
        for key in &got {
            assert!(truth.binary_search(key).is_ok(), "ef {ef}: fabricated claim {key:?}");
        }
    }
}

/// Deterministic tie-breaks under heavy duplication: many records at the
/// same coordinates, NSW at saturating `ef` returns exactly the oracle's
/// `(distance, id)` order — ties broken by id, stable across repeated calls.
#[test]
fn duplicate_points_break_ties_by_id_exactly() {
    let mut ids = IdAssigner::new(23);
    let records: Vec<Record<VecPoint>> = (0..90)
        .map(|i| Record {
            id: ids.next_id(),
            // 30 distinct locations, each held by 3 records.
            point: VecPoint::new(vec![(i % 30) as f64, ((i % 30) * 2) as f64]),
            label: None,
        })
        .collect();
    let index = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
    let q = VecPoint::new(vec![7.3, 14.1]);
    for ell in [1usize, 3, 9, 90] {
        let got = index.search(&records, &q, ell, records.len());
        let want = brute_top(&records, &q, ell, Metric::Euclidean);
        assert_eq!(got, want, "ell {ell}");
        assert_eq!(got, index.search(&records, &q, ell, records.len()), "unstable repeat");
    }
}

/// The NSW graph carries [`BitsPoint`] under Hamming distance — the type
/// whose *exact* index is a brute scan — with exact parity at saturating
/// `ef` and useful recall at the default.
#[test]
fn nsw_serves_bits_points_under_hamming() {
    let mut ids = IdAssigner::new(29);
    let records: Vec<Record<BitsPoint>> = (0..200u64)
        .map(|i| Record {
            id: ids.next_id(),
            point: BitsPoint::new(vec![i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i / 7]),
            label: None,
        })
        .collect();
    let index = NswIndex::build(&records, NswParams::default(), Metric::Hamming);
    let mut total = 0.0;
    let queries = 12u64;
    for s in 0..queries {
        let q = BitsPoint::new(vec![s.wrapping_mul(0xD134_2543_DE82_EF95), s]);
        let want = brute_top(&records, &q, 8, Metric::Hamming);
        assert_eq!(index.search(&records, &q, 8, records.len()), want, "ef = n parity");
        total += recall(&index.search(&records, &q, 8, 64), &want);
    }
    let mean = total / queries as f64;
    assert!(mean >= 0.8, "bits mean recall {mean} too low at default ef");
}

/// A [`ShardIndex`] asked for a metric other than its NSW build metric must
/// not use the graph (its geometry is wrong) — it falls back to the exact
/// scan, byte-identical to the oracle.
#[test]
fn metric_mismatch_falls_back_to_the_exact_scan() {
    let records = indexed_vec_records(80, 4, 31);
    let shard: ShardIndex<VecPoint> =
        ShardIndex::build(&records, IndexBackend::nsw(), Metric::Euclidean);
    let q = VecPoint::new(vec![12.0; 4]);
    for metric in [Metric::Manhattan, Metric::Chebyshev, Metric::Hamming] {
        let got = shard.top(&records, &q, 6, metric);
        assert_eq!(got, brute_top(&records, &q, 6, metric), "{metric:?}");
    }
}

/// Labels resolve exactly where they exist. A cluster loaded with unlabeled
/// shards answers `label: None` everywhere. A point added by
/// `insert_labeled`, and a labeled record added by `insert_record_into` on
/// another shard, then carry their labels through every query path, and
/// their unlabeled neighbours stay `None`. A cluster loaded with the same
/// points labeled answers the same neighbours, each with its own label.
#[test]
fn labels_resolve_exactly_where_they_exist() {
    let k = 4;
    let mut ids = IdAssigner::new(3);
    let points: Vec<Vec<(PointId, u64)>> = (0..k as u64)
        .map(|m| (0..60).map(|i| (ids.next_id(), m * 1000 + i * 7)).collect())
        .collect();
    let shards = |label: &dyn Fn(PointId) -> Option<Label>| -> Vec<Dataset<ScalarPoint>> {
        points
            .iter()
            .map(|shard| {
                let records = shard
                    .iter()
                    .map(|&(id, v)| Record { id, point: ScalarPoint(v), label: label(id) })
                    .collect();
                Dataset::new(records)
            })
            .collect()
    };
    let queries: Vec<ScalarPoint> = [0, 999, 2_500, 3_413, 90_000].map(ScalarPoint).to_vec();
    let ell = 25;

    let mut cluster: KnnCluster<ScalarPoint> = KnnCluster::builder().machines(k).build();
    cluster.load_shards(shards(&|_| None)).expect("one shard per machine");
    let unlabeled: Vec<_> = queries.iter().map(|q| cluster.query(q, ell).expect("query")).collect();
    for answer in &unlabeled {
        assert!(answer.neighbors.iter().all(|n| n.label.is_none()));
    }

    // Same points, labeled: same neighbours, each with its record's label.
    let class = |id: PointId| Some(Label::Class((id.0 % 5) as u32));
    let mut labeled: KnnCluster<ScalarPoint> = KnnCluster::builder().machines(k).build();
    labeled.load_shards(shards(&class)).expect("one shard per machine");
    for (q, plain) in queries.iter().zip(&unlabeled) {
        let answer = labeled.query(q, ell).expect("query");
        assert_eq!(answer_keys(&answer), answer_keys(plain));
        for n in &answer.neighbors {
            assert_eq!(n.label, class(n.id), "id {}", n.id.0);
        }
    }

    // One labeled point by `insert_labeled`, one labeled record on another
    // shard by `insert_record_into`, each far from the rest.
    let (by_insert, machine) =
        cluster.insert_labeled(ScalarPoint(1_000_000), Some(Label::Class(7))).expect("insert");
    let by_record = PointId(u64::MAX - 5);
    let record =
        Record { id: by_record, point: ScalarPoint(2_000_000), label: Some(Label::Value(2.5)) };
    cluster.insert_record_into((machine + 1) % k, record).expect("fresh id");
    let want = |id: PointId| match id {
        id if id == by_insert => Some(Label::Class(7)),
        id if id == by_record => Some(Label::Value(2.5)),
        _ => None,
    };
    let near = [ScalarPoint(1_000_003), ScalarPoint(2_000_003)];
    let nearest = [by_insert, by_record];
    let batch = cluster.query_batch(&near, 3).expect("batch").answers;
    let approx_batch = cluster.query_batch_approx(&near, 3).expect("approx batch").answers;
    for (j, q) in near.iter().enumerate() {
        let single = cluster.query(q, 3).expect("query");
        let approx = cluster.query_approx(q, 3).expect("approx query");
        for (path, answer) in [
            ("query", &single),
            ("query_approx", &approx),
            ("query_batch", &batch[j]),
            ("query_batch_approx", &approx_batch[j]),
        ] {
            assert_eq!(answer.neighbors[0].id, nearest[j], "{path}");
            for n in &answer.neighbors {
                assert_eq!(n.label, want(n.id), "{path}, id {}", n.id.0);
            }
        }
    }
}

fn indexed_vec_records(n: usize, dims: usize, seed: u64) -> Vec<Record<VecPoint>> {
    let mut ids = IdAssigner::new(seed);
    uniform_cube(n, dims, -40.0, 40.0, seed)
        .into_iter()
        .map(|point| Record { id: ids.next_id(), point, label: None })
        .collect()
}

/// Per-shard ids in one of four layouts: 0 assigner streams (one per
/// machine, increasing along the shard), 1 dense small ids dealt
/// round-robin, 2 assigner streams shuffled inside each shard, 3 uniform
/// `u64`s with `0` on the first machine and `u64::MAX` on the last.
fn id_layout(layout: u8, k: usize, per_shard: usize, rng: &mut StdRng) -> Vec<Vec<u64>> {
    let streams = |rng: &mut StdRng| -> Vec<Vec<u64>> {
        let seed = rng.random();
        (0..k)
            .map(|m| IdAssigner::with_stream(seed, m as u64).assign(per_shard))
            .map(|ids| ids.into_iter().map(|id| id.0).collect())
            .collect()
    };
    match layout {
        0 => streams(rng),
        1 => (0..k).map(|m| (0..per_shard).map(|i| (i * k + m) as u64).collect()).collect(),
        2 => {
            let mut shards = streams(rng);
            shards.iter_mut().for_each(|ids| ids.shuffle(rng));
            shards
        }
        _ => {
            let mut seen = HashSet::from([0, u64::MAX]);
            let mut fresh = || loop {
                let id: u64 = rng.random();
                if seen.insert(id) {
                    break id;
                }
            };
            let mut shards: Vec<Vec<u64>> =
                (0..k).map(|_| (0..per_shard).map(|_| fresh()).collect()).collect();
            shards[0].push(0);
            shards[k - 1].push(u64::MAX);
            shards
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cluster's id bookkeeping through its public API, against a
    /// `HashMap` oracle of every id it holds: load one of four id layouts,
    /// interleave `insert`s with `insert_record_into`s of ids below,
    /// between, above and equal to held ones on any machine, then an
    /// ℓ = n query must return every point with its own machine and label.
    /// Every reused id is refused with `DuplicateId` naming it.
    #[test]
    fn prop_ids_resolve_and_refuse_reuse_on_every_layout(
        layout in 0u8..4,
        k in 1usize..5,
        per_shard in 1usize..30,
        ops in 0usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut held: HashMap<u64, (usize, Option<Label>)> = HashMap::new();
        let mut labels = 0u32;
        let mut fresh_label = || {
            labels += 1;
            Some(Label::Class(labels))
        };
        let shards: Vec<Dataset<ScalarPoint>> = id_layout(layout, k, per_shard, &mut rng)
            .into_iter()
            .enumerate()
            .map(|(machine, ids)| {
                let records = ids
                    .into_iter()
                    .map(|id| {
                        let label = fresh_label();
                        held.insert(id, (machine, label));
                        let point = ScalarPoint(rng.random_range(0..1000));
                        Record { id: PointId(id), point, label }
                    })
                    .collect();
                Dataset::new(records)
            })
            .collect();
        let mut cluster: KnnCluster<ScalarPoint> = KnnCluster::builder().machines(k).build();
        cluster.load_shards(shards).expect("one shard per machine");

        for _ in 0..ops {
            let (point, label) = (ScalarPoint(rng.random_range(0..1000)), fresh_label());
            let mut sorted: Vec<u64> = held.keys().copied().collect();
            sorted.sort_unstable();
            let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
            if rng.random_bool(0.3) {
                // `insert` issues one past the largest held id (saturating).
                let want = max.saturating_add(1);
                match cluster.insert_labeled(point, label) {
                    Ok((id, machine)) => {
                        prop_assert_eq!(id, PointId(want));
                        prop_assert!(!held.contains_key(&want) && machine < k);
                        held.insert(want, (machine, label));
                    }
                    Err(err) => {
                        prop_assert!(held.contains_key(&want));
                        prop_assert_eq!(err, CoreError::DuplicateId { id: PointId(want) });
                    }
                }
                continue;
            }
            let id = match rng.random_range(0..4) {
                0 => rng.random_range(0..=min),
                1 => {
                    let (a, b) = (*sorted.choose(&mut rng).unwrap(), *sorted.choose(&mut rng).unwrap());
                    rng.random_range(a.min(b)..=a.max(b))
                }
                2 => max.saturating_add(rng.random_range(1..4)),
                _ => *sorted.choose(&mut rng).unwrap(),
            };
            let machine = rng.random_range(0..k);
            let got = cluster.insert_record_into(machine, Record { id: PointId(id), point, label });
            match held.entry(id) {
                Entry::Occupied(_) => {
                    prop_assert_eq!(got, Err(CoreError::DuplicateId { id: PointId(id) }));
                }
                Entry::Vacant(slot) => {
                    prop_assert_eq!(got, Ok(()));
                    slot.insert((machine, label));
                }
            }
        }

        prop_assert_eq!(cluster.total_points(), held.len());
        let answer = cluster.query(&ScalarPoint(500), held.len()).expect("query");
        let ids: HashSet<u64> = answer.neighbors.iter().map(|n| n.id.0).collect();
        prop_assert_eq!(ids.len(), held.len());
        for n in &answer.neighbors {
            prop_assert_eq!(held.get(&n.id.0), Some(&(n.machine, n.label)), "id {}", n.id.0);
        }
    }

    /// Oracle recall property suite over dims {1..8} × seeds: at the
    /// default `ef` the NSW top-ℓ keeps its recall floor against the
    /// brute-force oracle, at `ef = n` it *equals* the oracle, and both
    /// searches are deterministic and strictly `(distance, id)`-ordered.
    #[test]
    fn prop_nsw_recall_and_exact_parity(
        dims in 1usize..=8,
        n in 1usize..260,
        ell in 1usize..14,
        seed in any::<u32>(),
    ) {
        let records = indexed_vec_records(n, dims, u64::from(seed));
        let params = NswParams::default();
        let index = NswIndex::build(&records, params, Metric::Euclidean);
        prop_assert_eq!(index.len(), n);
        let q = VecPoint::new(
            (0..dims).map(|d| ((seed as usize + d * 17) % 80) as f64 - 40.0).collect::<Vec<f64>>(),
        );
        let want = brute_top(&records, &q, ell, Metric::Euclidean);

        // ef = n: structural exactness.
        let exact = index.search(&records, &q, ell, n);
        prop_assert_eq!(&exact, &want, "ef = n must be oracle parity");

        // Default ef: genuine, sorted, deterministic, recall-floored.
        let got = index.search(&records, &q, ell, params.ef_search);
        prop_assert_eq!(&got, &index.search(&records, &q, ell, params.ef_search));
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
        let r = recall(&got, &want);
        // ef_search = 64 covers shards up to n = 64 exactly; beyond that
        // the graph search keeps a high floor on uniform data.
        if n <= params.ef_search {
            prop_assert!((r - 1.0).abs() < f64::EPSILON, "saturated ef must be exact, recall {}", r);
        } else {
            prop_assert!(r >= 0.6, "recall {} collapsed at default ef (n {}, dims {})", r, n, dims);
        }
    }

    /// Bulk-build vs incremental insert is graph-identical for every point
    /// type shape — the insert-as-query property at the index level.
    #[test]
    fn prop_bulk_equals_incremental(
        n in 1usize..160,
        dims in 1usize..6,
        seed in any::<u32>(),
    ) {
        let records = indexed_vec_records(n, dims, u64::from(seed) ^ 0x5ca1ab1e);
        let bulk = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
        let mut grown = NswIndex::new(NswParams::default(), Metric::Euclidean);
        for pos in 0..records.len() {
            grown.insert(&records, pos);
        }
        prop_assert_eq!(bulk, grown);
    }

    /// The scalar NSW graph against the scalar exact oracle — the 1-d
    /// specialization whose exact index (sorted array) is the sharpest
    /// available cross-check.
    #[test]
    fn prop_scalar_nsw_matches_sorted_array_at_saturating_ef(
        values in proptest::collection::vec(any::<u32>(), 1..120),
        q in any::<u32>(),
        ell in 1usize..20,
        seed in 0u64..50,
    ) {
        let mut ids = IdAssigner::new(seed);
        let records: Vec<Record<ScalarPoint>> = values
            .iter()
            .map(|&v| Record { id: ids.next_id(), point: ScalarPoint(u64::from(v)), label: None })
            .collect();
        let index = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
        let got = index.search(&records, &ScalarPoint(u64::from(q)), ell, records.len());
        let shard: ShardIndex<ScalarPoint> =
            ShardIndex::build(&records, IndexBackend::Exact, Metric::Euclidean);
        let want = shard.top(&records, &ScalarPoint(u64::from(q)), ell, Metric::Euclidean);
        prop_assert_eq!(got, want);
    }
}
