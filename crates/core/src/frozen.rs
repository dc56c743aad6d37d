//! **Frozen names.** [`ClusterBuilder::engine`], [`KnnCluster::set_engine`]
//! and the [`QueryOptions::engine`](crate::QueryOptions::engine) field are
//! what is left of a choice between two schedulers, one of which was
//! measured and deleted (see `kmachine`'s `frozen.rs`). They do nothing:
//! every query runs the one lockstep engine. They exist because the frozen
//! benchmark package (`ledger/`) compiles against them; nothing else in the
//! workspace may mention them, and they go in the next `[benchmark]`
//! refresh (ROADMAP).

use kmachine::Engine;

use crate::cluster::{ClusterBuilder, KnnCluster};
use crate::local::IndexedPoint;

impl ClusterBuilder {
    /// Inert: returns `self` unchanged.
    pub fn engine(self, _engine: Engine) -> Self {
        self
    }
}

impl<P: IndexedPoint> KnnCluster<P> {
    /// Inert: changes nothing.
    pub fn set_engine(&mut self, _engine: Engine) {}
}

#[cfg(test)]
mod tests {
    use knn_points::{Dataset, IdAssigner, ScalarPoint};
    use knn_workloads::PartitionStrategy;

    use super::*;
    use crate::runner::{run_query, Algorithm, QueryOptions};

    #[test]
    fn the_frozen_engine_options_are_inert() {
        let data = || {
            let mut ids = IdAssigner::new(0);
            Dataset::from_points((0..200u64).map(|i| ScalarPoint(i * 7)).collect(), &mut ids)
        };
        let loaded = |builder: ClusterBuilder| {
            let mut cluster: KnnCluster<ScalarPoint> = builder.build();
            cluster.load(data(), PartitionStrategy::Shuffled);
            cluster
        };
        let queries: Vec<ScalarPoint> = (0..5).map(|i| ScalarPoint(i * 250)).collect();
        let answer = |cluster: &KnnCluster<ScalarPoint>| {
            let batch = cluster.query_batch(&queries, 4).unwrap();
            let single = cluster.query(&queries[0], 4).unwrap();
            let neighbors: Vec<_> = batch.answers.iter().map(|a| a.neighbors.clone()).collect();
            (neighbors, batch.report.metrics, single.neighbors, single.report.metrics)
        };
        let base = KnnCluster::builder().machines(4).seed(3);
        let want = answer(&loaded(base.clone()));
        let shards = vec![data(); 4];
        let scan = |engine| {
            let opts = QueryOptions { engine, seed: 3, ..Default::default() };
            let out = run_query(&shards, &queries[0], 4, Algorithm::Knn, &opts).unwrap();
            (out.local_keys, out.report.metrics)
        };
        let want_scan = scan(Engine::Sync);
        for engine in [Engine::Sync, Engine::Event, Engine::Threaded] {
            assert_eq!(answer(&loaded(base.clone().engine(engine))), want, "{engine:?}");
            let mut cluster = loaded(base.clone());
            cluster.set_engine(engine);
            assert_eq!(answer(&cluster), want, "{engine:?}");
            assert_eq!(scan(engine), want_scan, "{engine:?}");
        }
    }
}
