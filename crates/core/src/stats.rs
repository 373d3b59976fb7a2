//! The Statistics Collector.
//!
//! While queries execute, Space Odyssey records (§3.2.1):
//!
//! 1. how often every combination `C = {DS1, …, DSN}` of datasets is queried
//!    together, and
//! 2. which partitions were retrieved in the context of `C`.
//!
//! The Merger consults these statistics to decide *when* to merge (the count
//! exceeds the merge threshold `mt`) and *what* to merge (the recorded
//! partitions).

use crate::partition::PartitionKey;
use odyssey_geom::DatasetSet;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Statistics of one dataset combination.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComboStats {
    /// Number of queries that requested exactly this combination.
    pub count: u64,
    /// Partitions retrieved while answering those queries (keys are shared
    /// across datasets, so one entry covers the region in every dataset of
    /// the combination).
    pub retrieved: BTreeSet<PartitionKey>,
}

/// Collects per-combination access statistics.
#[derive(Debug, Clone, Default)]
pub struct StatsCollector {
    combos: HashMap<DatasetSet, ComboStats>,
}

impl StatsCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        StatsCollector::default()
    }

    /// Records one query for `combination` that retrieved the given
    /// partitions. Returns the keys that were new to the combination's
    /// retrieved set — the only merge candidates no earlier query has put
    /// before the Merger.
    pub fn record(
        &mut self,
        combination: DatasetSet,
        retrieved: &[PartitionKey],
    ) -> Vec<PartitionKey> {
        let entry = self.combos.entry(combination).or_default();
        entry.count += 1;
        retrieved
            .iter()
            .copied()
            .filter(|key| entry.retrieved.insert(*key))
            .collect()
    }

    /// Number of times `combination` has been queried.
    pub fn count(&self, combination: DatasetSet) -> u64 {
        self.combos.get(&combination).map(|c| c.count).unwrap_or(0)
    }

    /// The partitions retrieved so far in the context of `combination`.
    pub fn retrieved(&self, combination: DatasetSet) -> Option<&BTreeSet<PartitionKey>> {
        self.combos.get(&combination).map(|c| &c.retrieved)
    }

    /// Number of distinct combinations observed.
    pub fn distinct_combinations(&self) -> usize {
        self.combos.len()
    }

    /// The combination queried most often, if any.
    pub fn hottest(&self) -> Option<(DatasetSet, u64)> {
        self.combos
            .iter()
            .max_by_key(|(set, stats)| (stats.count, std::cmp::Reverse(set.0)))
            .map(|(set, stats)| (*set, stats.count))
    }

    /// Iterates over every recorded combination and its statistics.
    pub fn iter(&self) -> impl Iterator<Item = (&DatasetSet, &ComboStats)> {
        self.combos.iter()
    }

    /// Reinstates one combination's statistics wholesale (checkpoint
    /// restore); replaces any existing entry for the combination.
    pub fn restore_combo(
        &mut self,
        combination: DatasetSet,
        count: u64,
        retrieved: impl IntoIterator<Item = PartitionKey>,
    ) {
        self.combos.insert(
            combination,
            ComboStats {
                count,
                retrieved: retrieved.into_iter().collect(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_geom::{DatasetId, DatasetSet};

    fn key(level: u32, x: u32) -> PartitionKey {
        PartitionKey {
            level,
            x,
            y: 0,
            z: 0,
        }
    }

    fn combo(ids: &[u16]) -> DatasetSet {
        DatasetSet::from_ids(ids.iter().map(|&i| DatasetId(i)))
    }

    #[test]
    fn counts_accumulate_per_combination() {
        let mut s = StatsCollector::new();
        assert_eq!(s.count(combo(&[0, 1])), 0);
        s.record(combo(&[0, 1]), &[key(1, 0)]);
        s.record(combo(&[0, 1]), &[key(1, 1)]);
        s.record(combo(&[0, 2]), &[key(1, 0)]);
        assert_eq!(s.count(combo(&[0, 1])), 2);
        assert_eq!(s.count(combo(&[0, 2])), 1);
        assert_eq!(s.distinct_combinations(), 2);
    }

    #[test]
    fn retrieved_partitions_are_unioned_without_duplicates() {
        let mut s = StatsCollector::new();
        s.record(combo(&[0, 1, 2]), &[key(1, 0), key(1, 1)]);
        s.record(combo(&[0, 1, 2]), &[key(1, 1), key(2, 5)]);
        let retrieved = s.retrieved(combo(&[0, 1, 2])).unwrap();
        assert_eq!(retrieved.len(), 3);
        assert!(retrieved.contains(&key(2, 5)));
        assert!(s.retrieved(combo(&[3])).is_none());
    }

    #[test]
    fn record_reports_the_newly_retrieved_keys() {
        let mut s = StatsCollector::new();
        let c = combo(&[0, 1, 2]);
        assert_eq!(
            s.record(c, &[key(1, 0), key(1, 1)]),
            vec![key(1, 0), key(1, 1)]
        );
        assert_eq!(s.record(c, &[key(1, 1), key(2, 5)]), vec![key(2, 5)]);
        assert!(s.record(c, &[key(1, 0)]).is_empty());
        assert_eq!(s.record(combo(&[0]), &[key(1, 0)]), vec![key(1, 0)]);
    }

    #[test]
    fn hottest_combination() {
        let mut s = StatsCollector::new();
        assert!(s.hottest().is_none());
        s.record(combo(&[0]), &[]);
        s.record(combo(&[1, 2]), &[]);
        s.record(combo(&[1, 2]), &[]);
        assert_eq!(s.hottest(), Some((combo(&[1, 2]), 2)));
    }

    #[test]
    fn order_of_datasets_does_not_matter() {
        let mut s = StatsCollector::new();
        s.record(combo(&[2, 0, 1]), &[]);
        s.record(combo(&[0, 1, 2]), &[]);
        assert_eq!(s.count(combo(&[1, 2, 0])), 2);
    }

    #[test]
    fn iteration_exposes_all_combos() {
        let mut s = StatsCollector::new();
        s.record(combo(&[0]), &[key(1, 0)]);
        s.record(combo(&[1]), &[key(1, 1)]);
        let total: u64 = s.iter().map(|(_, c)| c.count).sum();
        assert_eq!(total, 2);
    }
}
