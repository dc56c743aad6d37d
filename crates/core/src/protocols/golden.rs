//! Golden counters for the two leaders that select one order statistic:
//! Algorithm 2's prune threshold (exact and prune-only) and the simple
//! gather's boundary — and, on the same cells, for the three selections
//! that search for their boundary instead: Saukas–Song, value-domain
//! bisection and standalone Algorithm 1.
//!
//! Algorithm 2 answers exactly whatever rank its leader reads — the count
//! round rolls a short prune back, and an over-wide one only costs
//! selection work — so there a wrong rank shows in the counters alone. This test
//! pins `(rounds, messages, bits)`, the leader's [`KnnStats`] and a digest
//! of every answer on fixed cells, so any change to what a leader selects
//! (or to the sampling stream feeding it) fails here.

use kmachine::engine::run_sync;
use kmachine::{NetConfig, Protocol};
use knn_points::{Dist, DistKey, PointId};

use super::binsearch::BinSearchProtocol;
use super::saukas_song::SaukasSongProtocol;
use super::{top_ell, KnnParams, KnnProtocol, KnnStats, SelectCore, SimpleProtocol};
use crate::splitmix64;

/// One fixed cell: `k` machines of `per_machine` keys each, distances drawn
/// from `0..span` (`span = 8`: every distance is shared by many points).
#[derive(Debug, Clone, Copy)]
struct Cell {
    seed: u64,
    k: usize,
    ell: u64,
    per_machine: u64,
    span: u64,
}

/// The counters one run leaves behind: `(rounds, messages, bits, survivors,
/// rolled_back, select_iterations, answer length, answer digest)`, the
/// three [`KnnStats`] fields zero for Simple.
type Row = (u64, u64, u64, u64, bool, u64, usize, u64);

/// `(seed, k, ell, per_machine, span)`: ℓ ∈ {1, 10, 64, 300} × k ∈ {2, 8,
/// 16} on duplicate-heavy distances, then distinct distances, short shards,
/// ℓ past the population, and five machines of 56 keys at ℓ = 200. Then
/// both sides of Algorithm 2's short cut at the sampling stage (ℓ at most
/// the sample size m, or every list shorter than m): lists of exactly
/// m = 75 keys at ℓ = 75, which finish there; all-empty shards, which
/// finish there too; lists of exactly m = 92 keys at ℓ = 200, past the
/// population, where the prune keeps the global rank-161 key of 184 and
/// is rolled back; and lists of exactly m = 75 keys at ℓ = 76, which may be
/// samples and so still prune.
const CELLS: [(u64, usize, u64, u64, u64); 24] = [
    (1, 2, 1, 30, 8),
    (2, 8, 1, 30, 8),
    (3, 16, 1, 30, 8),
    (4, 2, 10, 40, 8),
    (5, 8, 10, 40, 8),
    (6, 16, 10, 40, 8),
    (7, 2, 64, 150, 8),
    (8, 8, 64, 150, 8),
    (9, 16, 64, 150, 8),
    (10, 2, 300, 500, 8),
    (11, 8, 300, 500, 8),
    (12, 16, 300, 400, 8),
    (13, 8, 64, 150, 1 << 40),
    (14, 16, 64, 100, 1 << 40),
    (15, 8, 300, 400, 1 << 40),
    (16, 16, 300, 320, 1 << 40),
    (17, 2, 10, 6, 8),
    (18, 8, 300, 20, 8),
    (19, 16, 10, 12, 1 << 40),
    (20, 5, 200, 56, 8),
    (21, 4, 75, 75, 8),
    (22, 4, 10, 0, 8),
    (23, 2, 200, 92, 8),
    (24, 4, 76, 75, 8),
];

fn shards(cell: Cell) -> Vec<Vec<DistKey>> {
    (0..cell.k as u64)
        .map(|m| {
            (0..cell.per_machine)
                .map(|i| {
                    let id = m * cell.per_machine + i;
                    let dist = splitmix64(cell.seed.wrapping_mul(0x9E37_79B9) ^ id) % cell.span;
                    DistKey::new(Dist::from_u64(dist), PointId(id))
                })
                .collect()
        })
        .collect()
}

/// Order-sensitive digest of the merged, sorted answer.
fn digest(keys: &[DistKey]) -> u64 {
    keys.iter().fold(splitmix64(keys.len() as u64), |h, key| {
        splitmix64(h ^ key.dist.encoding()) ^ splitmix64(key.id.0)
    })
}

fn oracle(shards: &[Vec<DistKey>], ell: u64) -> Vec<DistKey> {
    let mut all: Vec<DistKey> = shards.concat();
    all.sort_unstable();
    all.truncate(ell as usize);
    all
}

/// The run's [`Row`] and its merged answer, sorted.
fn row(
    metrics: &kmachine::RunMetrics,
    stats: Option<KnnStats>,
    mut keys: Vec<DistKey>,
) -> (Row, Vec<DistKey>) {
    keys.sort_unstable();
    let (survivors, rolled_back, iterations) =
        stats.map_or((0, false, 0), |s| (s.survivors, s.rolled_back, s.select_iterations));
    let row = (
        metrics.rounds,
        metrics.messages,
        metrics.bits,
        survivors,
        rolled_back,
        iterations,
        keys.len(),
        digest(&keys),
    );
    (row, keys)
}

fn run_knn(cell: Cell, prune_only: bool) -> (Row, Vec<DistKey>) {
    let protos: Vec<KnnProtocol<DistKey>> = shards(cell)
        .into_iter()
        .enumerate()
        .map(|(i, keys)| {
            let keys = top_ell(keys, cell.ell);
            let p = KnnProtocol::new(i, cell.k, 0, cell.ell, KnnParams::default(), keys);
            if prune_only {
                p.prune_only()
            } else {
                p
            }
        })
        .collect();
    let out = run_sync(&NetConfig::new(cell.k).with_seed(cell.seed), protos).expect("knn run");
    let stats = out.outputs[0].stats;
    let keys: Vec<DistKey> = out.outputs.into_iter().flat_map(|o| o.keys).collect();
    row(&out.metrics, stats, keys)
}

fn run_simple(cell: Cell) -> (Row, Vec<DistKey>) {
    let protos: Vec<SimpleProtocol<DistKey>> = shards(cell)
        .into_iter()
        .enumerate()
        .map(|(i, keys)| SimpleProtocol::new(i, 0, cell.ell, 3, top_ell(keys, cell.ell)))
        .collect();
    let out = run_sync(&NetConfig::new(cell.k).with_seed(cell.seed), protos).expect("simple run");
    let keys: Vec<DistKey> = out.outputs.into_iter().flatten().collect();
    row(&out.metrics, None, keys)
}

/// `[exact, prune_only, simple]` per cell, as leaders that sort their
/// gathered keys and index the sorted array compute them.
const GOLDEN: &[[Row; 3]] = &[
    [
        (2, 2, 295, 1, false, 0, 1, 13841807650539198248),
        (2, 2, 295, 1, false, 0, 1, 13841807650539198248),
        (2, 2, 291, 0, false, 0, 1, 13841807650539198248),
    ],
    [
        (2, 14, 2065, 1, false, 0, 1, 13574134261113728177),
        (2, 14, 2065, 1, false, 0, 1, 13574134261113728177),
        (2, 14, 2037, 0, false, 0, 1, 13574134261113728177),
    ],
    [
        (2, 30, 4425, 1, false, 0, 1, 14937180907163565535),
        (2, 30, 4425, 1, false, 0, 1, 14937180907163565535),
        (2, 30, 4365, 0, false, 0, 1, 14937180907163565535),
    ],
    [
        (4, 2, 1447, 10, false, 0, 10, 15755260687232373844),
        (4, 2, 1447, 10, false, 0, 10, 15755260687232373844),
        (4, 5, 1542, 0, false, 0, 10, 15755260687232373844),
    ],
    [
        (4, 14, 10129, 10, false, 0, 10, 13673728752688025644),
        (4, 14, 10129, 10, false, 0, 10, 13673728752688025644),
        (4, 35, 10794, 0, false, 0, 10, 13673728752688025644),
    ],
    [
        (4, 30, 21705, 10, false, 0, 10, 14052561751692259966),
        (4, 30, 21705, 10, false, 0, 10, 14052561751692259966),
        (4, 75, 23130, 0, false, 0, 10, 14052561751692259966),
    ],
    [
        (18, 2, 8359, 64, false, 0, 64, 2714178820992688065),
        (18, 2, 8359, 64, false, 0, 64, 2714178820992688065),
        (19, 23, 9048, 0, false, 0, 64, 2714178820992688065),
    ],
    [
        (18, 14, 58513, 64, false, 0, 64, 12925103624508307759),
        (18, 14, 58513, 64, false, 0, 64, 12925103624508307759),
        (19, 161, 63336, 0, false, 0, 64, 12925103624508307759),
    ],
    [
        (18, 30, 125385, 64, false, 0, 64, 6763023444296478912),
        (18, 30, 125385, 64, false, 0, 64, 6763023444296478912),
        (19, 345, 135720, 0, false, 0, 64, 6763023444296478912),
    ],
    [
        (62, 39, 19087, 511, false, 11, 300, 17558316535980223590),
        (28, 4, 12970, 511, false, 0, 511, 1379090368414250839),
        (83, 101, 41830, 0, false, 0, 300, 17558316535980223590),
    ],
    [
        (90, 289, 134993, 543, false, 15, 300, 7074097420133193687),
        (28, 28, 90790, 543, false, 0, 543, 10527376565551803854),
        (83, 707, 292810, 0, false, 0, 300, 7074097420133193687),
    ],
    [
        (78, 489, 266289, 617, false, 12, 300, 15389461252946697081),
        (28, 60, 194550, 617, false, 0, 617, 7853840287814881971),
        (83, 1515, 627450, 0, false, 0, 300, 15389461252946697081),
    ],
    [
        (18, 14, 58513, 64, false, 0, 64, 15528919946034381645),
        (18, 14, 58513, 64, false, 0, 64, 15528919946034381645),
        (19, 161, 63336, 0, false, 0, 64, 15528919946034381645),
    ],
    [
        (18, 30, 125385, 64, false, 0, 64, 3804151898658775499),
        (18, 30, 125385, 64, false, 0, 64, 3804151898658775499),
        (19, 345, 135720, 0, false, 0, 64, 3804151898658775499),
    ],
    [
        (78, 241, 126809, 554, false, 12, 300, 1090936155017380795),
        (28, 28, 90790, 554, false, 0, 554, 3808232086654202255),
        (83, 707, 292810, 0, false, 0, 300, 1090936155017380795),
    ],
    [
        (98, 649, 293249, 494, false, 17, 300, 10051968186893872866),
        (28, 60, 194550, 494, false, 0, 494, 476682649341260384),
        (83, 1515, 627450, 0, false, 0, 300, 10051968186893872866),
    ],
    [
        (3, 2, 935, 10, false, 0, 10, 15702822649178678733),
        (3, 2, 935, 10, false, 0, 10, 15702822649178678733),
        (3, 3, 964, 0, false, 0, 10, 15702822649178678733),
    ],
    [
        (7, 14, 19089, 160, false, 0, 160, 8242128997488158843),
        (7, 14, 19089, 160, false, 0, 160, 8242128997488158843),
        (7, 56, 20447, 0, false, 0, 160, 8242128997488158843),
    ],
    [
        (4, 30, 21705, 10, false, 0, 10, 1901694933958515602),
        (4, 30, 21705, 10, false, 0, 10, 1901694933958515602),
        (4, 75, 23130, 0, false, 0, 10, 1901694933958515602),
    ],
    [
        (16, 8, 29340, 200, false, 0, 200, 9637995746394353599),
        (16, 8, 29340, 200, false, 0, 200, 9637995746394353599),
        (17, 80, 31700, 0, false, 0, 200, 9637995746394353599),
    ],
    [
        (20, 6, 29301, 75, false, 0, 75, 14814359634429823016),
        (20, 6, 29301, 75, false, 0, 75, 14814359634429823016),
        (22, 78, 31665, 0, false, 0, 75, 14814359634429823016),
    ],
    [
        (2, 6, 501, 0, false, 0, 0, 16294208416658607535),
        (2, 6, 501, 0, false, 0, 0, 16294208416658607535),
        (2, 6, 489, 0, false, 0, 0, 16294208416658607535),
    ],
    [
        (29, 7, 12543, 161, true, 0, 184, 13291197687808801080),
        (27, 4, 12074, 161, true, 0, 184, 13291197687808801080),
        (26, 32, 12929, 0, false, 0, 184, 13291197687808801080),
    ],
    [
        (60, 109, 46073, 132, false, 13, 76, 2364945524684328041),
        (22, 12, 29694, 132, false, 0, 132, 18298937179868749156),
        (22, 78, 31665, 0, false, 0, 76, 2364945524684328041),
    ],
];

/// What a selection baseline's run leaves behind: `(rounds, messages, bits,
/// answer length, answer digest)`.
type BaseRow = (u64, u64, u64, usize, u64);

/// Run one instance per machine and fold the run into its [`BaseRow`] and
/// merged, sorted answer.
fn run_plain<P>(cell: Cell, protos: Vec<P>) -> (BaseRow, Vec<DistKey>)
where
    P: Protocol<Output = Vec<DistKey>>,
{
    let out = run_sync(&NetConfig::new(cell.k).with_seed(cell.seed), protos).expect("run");
    let mut keys: Vec<DistKey> = out.outputs.into_iter().flatten().collect();
    keys.sort_unstable();
    let m = &out.metrics;
    ((m.rounds, m.messages, m.bits, keys.len(), digest(&keys)), keys)
}

/// `[saukas_song, binsearch, algorithm_1]` per cell: the first two over each
/// machine's sorted top ℓ, Algorithm 1 over its whole raw shard.
const GOLDEN_BASELINES: &[[BaseRow; 3]] = &[
    [
        (5, 5, 917, 1, 13841807650539198248),
        (5, 5, 658, 1, 13841807650539198248),
        (11, 11, 1832, 1, 13841807650539198248),
    ],
    [
        (13, 91, 17395, 1, 13574134261113728177),
        (9, 63, 7378, 1, 13574134261113728177),
        (17, 83, 13549, 1, 13574134261113728177),
    ],
    [
        (17, 255, 49035, 1, 14937180907163565535),
        (123, 1845, 185100, 1, 14937180907163565535),
        (17, 171, 27693, 1, 14937180907163565535),
    ],
    [
        (33, 33, 6405, 10, 15755260687232373844),
        (121, 121, 12142, 10, 15755260687232373844),
        (15, 15, 2550, 10, 15755260687232373844),
    ],
    [
        (29, 203, 39347, 10, 13673728752688025644),
        (121, 847, 84994, 10, 13673728752688025644),
        (25, 115, 18909, 10, 13673728752688025644),
    ],
    [
        (37, 555, 107835, 10, 14052561751692259966),
        (131, 1965, 196980, 10, 14052561751692259966),
        (25, 235, 38285, 10, 14052561751692259966),
    ],
    [
        (25, 25, 4837, 64, 2714178820992688065),
        (129, 129, 12934, 64, 2714178820992688065),
        (31, 31, 5294, 64, 2714178820992688065),
    ],
    [
        (37, 259, 50323, 64, 12925103624508307759),
        (119, 833, 83608, 64, 12925103624508307759),
        (63, 261, 43420, 64, 12925103624508307759),
    ],
    [
        (41, 615, 119595, 64, 6763023444296478912),
        (125, 1875, 188070, 64, 6763023444296478912),
        (55, 461, 75748, 64, 6763023444296478912),
    ],
    [
        (33, 33, 6405, 300, 17558316535980223590),
        (133, 133, 13330, 300, 17558316535980223590),
        (51, 51, 8692, 300, 17558316535980223590),
    ],
    [
        (45, 315, 61299, 300, 7074097420133193687),
        (131, 917, 91924, 300, 7074097420133193687),
        (37, 163, 26949, 300, 7074097420133193687),
    ],
    [
        (49, 735, 143115, 300, 15389461252946697081),
        (125, 1875, 188070, 300, 15389461252946697081),
        (47, 397, 65156, 300, 15389461252946697081),
    ],
    [
        (33, 231, 44835, 64, 15528919946034381645),
        (29, 203, 21238, 64, 15528919946034381645),
        (61, 259, 43029, 64, 15528919946034381645),
    ],
    [
        (37, 555, 107835, 64, 3804151898658775499),
        (29, 435, 45510, 64, 3804151898658775499),
        (19, 173, 28084, 64, 3804151898658775499),
    ],
    [
        (41, 287, 55811, 300, 1090936155017380795),
        (25, 175, 18466, 300, 1090936155017380795),
        (41, 179, 29629, 300, 1090936155017380795),
    ],
    [
        (41, 615, 119595, 300, 10051968186893872866),
        (29, 435, 45510, 300, 10051968186893872866),
        (41, 363, 59469, 300, 10051968186893872866),
    ],
    [
        (13, 13, 2485, 10, 15702822649178678733),
        (9, 9, 1054, 10, 15702822649178678733),
        (11, 11, 1832, 10, 15702822649178678733),
    ],
    [
        (3, 21, 4130, 160, 8242128997488158843),
        (3, 21, 3220, 160, 8242128997488158843),
        (3, 21, 3220, 160, 8242128997488158843),
    ],
    [
        (33, 495, 96075, 10, 1901694933958515602),
        (15, 225, 24720, 10, 1901694933958515602),
        (33, 299, 48877, 10, 1901694933958515602),
    ],
    [
        (29, 116, 22484, 200, 9637995746394353599),
        (129, 516, 51736, 200, 9637995746394353599),
        (69, 186, 31249, 200, 9637995746394353599),
    ],
    [
        (29, 87, 16863, 75, 14814359634429823016),
        (121, 363, 36426, 75, 14814359634429823016),
        (27, 69, 11382, 75, 14814359634429823016),
    ],
    [
        (3, 9, 1770, 0, 16294208416658607535),
        (3, 9, 1380, 0, 16294208416658607535),
        (3, 9, 1380, 0, 16294208416658607535),
    ],
    [
        (3, 3, 590, 184, 13291197687808801080),
        (3, 3, 460, 184, 13291197687808801080),
        (3, 3, 460, 184, 13291197687808801080),
    ],
    [
        (9, 27, 5103, 76, 2364945524684328041),
        (131, 393, 39396, 76, 2364945524684328041),
        (39, 97, 16088, 76, 2364945524684328041),
    ],
];

#[test]
fn baselines_keep_their_counters_and_answer_exactly() {
    let mut got = Vec::new();
    for &(seed, k, ell, per_machine, span) in &CELLS {
        let cell = Cell { seed, k, ell, per_machine, span };
        let want = oracle(&shards(cell), ell);
        let mut row = Vec::new();
        let ss = shards(cell)
            .into_iter()
            .enumerate()
            .map(|(i, keys)| SaukasSongProtocol::new(i, k, 0, ell, top_ell(keys, ell)))
            .collect();
        row.push(run_plain(cell, ss));
        let bs = shards(cell)
            .into_iter()
            .enumerate()
            .map(|(i, keys)| BinSearchProtocol::new(i, k, 0, ell, top_ell(keys, ell)))
            .collect();
        row.push(run_plain(cell, bs));
        let alg1 = shards(cell)
            .into_iter()
            .enumerate()
            .map(|(i, keys)| SelectCore::new(i, k, 0, ell, keys))
            .collect();
        row.push(run_plain(cell, alg1));
        for (what, (_, keys)) in ["saukas-song", "binsearch", "algorithm 1"].iter().zip(&row) {
            assert_eq!(*keys, want, "{what} answers exactly: {cell:?}");
        }
        got.push([row[0].0, row[1].0, row[2].0]);
    }
    if got[..] != GOLDEN_BASELINES[..] {
        let printed: Vec<String> = got.iter().map(|cell| format!("    {cell:?},")).collect();
        panic!("baseline counters moved; this commit prints:\n{}", printed.join("\n"));
    }
}

#[test]
fn leaders_select_the_same_rank_as_their_sort() {
    let mut got = Vec::new();
    for &(seed, k, ell, per_machine, span) in &CELLS {
        let cell = Cell { seed, k, ell, per_machine, span };
        let want = oracle(&shards(cell), ell);
        let (exact, keys) = run_knn(cell, false);
        assert_eq!(keys, want, "Algorithm 2 answers exactly: {cell:?}");
        let (approx, keys) = run_knn(cell, true);
        assert_eq!(keys[..want.len()], want[..], "prune-only keeps the exact prefix: {cell:?}");
        let (simple, keys) = run_simple(cell);
        assert_eq!(keys, want, "the simple gather answers exactly: {cell:?}");
        got.push([exact, approx, simple]);
    }
    if got[..] != GOLDEN[..] {
        let printed: Vec<String> = got.iter().map(|cell| format!("    {cell:?},")).collect();
        panic!("leader counters moved; this commit prints:\n{}", printed.join("\n"));
    }
}
