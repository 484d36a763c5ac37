//! The materialized granule store: the functional data path.
//!
//! A [`DataStore`] holds the granules a compute node currently owns, each a
//! sorted row map over its key range. This is the fully materialized path
//! used by functional tests, examples, and small-scale scenarios; the
//! large simulated experiments account accesses without materializing rows
//! (docs/ARCHITECTURE.md, "Cost of a request on `ClusterSim`").
//!
//! On `LocalCluster` a row's value is a window into the WAL record that
//! wrote it, not a copy (docs/ARCHITECTURE.md, "Cost of a commit on
//! `LocalCluster`").

use bytes::Bytes;
use marlin_common::{GranuleId, KeyRange, TableId};
use std::collections::BTreeMap;

/// One owned granule: a key range plus its rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Granule {
    /// Key range covered (half-open).
    pub range: KeyRange,
    /// Materialized rows.
    pub rows: BTreeMap<u64, Bytes>,
}

impl Granule {
    /// An empty granule over `range`.
    #[must_use]
    pub fn new(range: KeyRange) -> Self {
        Granule {
            range,
            rows: BTreeMap::new(),
        }
    }

    /// Total bytes of row values (accounting).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.rows.values().map(|v| v.len() as u64).sum()
    }
}

/// The granules a node owns, keyed by `(table, granule)`.
#[derive(Debug, Default)]
pub struct DataStore {
    granules: BTreeMap<(TableId, GranuleId), Granule>,
}

impl DataStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        DataStore::default()
    }

    /// Install a granule (initial load or migration arrival). Replaces any
    /// existing granule with the same identity.
    pub fn install(&mut self, table: TableId, id: GranuleId, granule: Granule) {
        self.granules.insert((table, id), granule);
    }

    /// Remove and return a granule (migration departure).
    pub fn remove(&mut self, table: TableId, id: GranuleId) -> Option<Granule> {
        self.granules.remove(&(table, id))
    }

    /// Whether the node holds this granule.
    #[must_use]
    pub fn holds(&self, table: TableId, id: GranuleId) -> bool {
        self.granules.contains_key(&(table, id))
    }

    /// Borrow a granule.
    #[must_use]
    pub fn granule(&self, table: TableId, id: GranuleId) -> Option<&Granule> {
        self.granules.get(&(table, id))
    }

    /// Mutably borrow a granule. A row written through it must fall in the
    /// granule's range.
    pub fn granule_mut(&mut self, table: TableId, id: GranuleId) -> Option<&mut Granule> {
        self.granules.get_mut(&(table, id))
    }

    /// Scan all rows of a granule in key order.
    #[must_use]
    pub fn scan(&self, table: TableId, id: GranuleId) -> Vec<(u64, Bytes)> {
        self.granules
            .get(&(table, id))
            .map(|g| g.rows.iter().map(|(k, v)| (*k, v.clone())).collect())
            .unwrap_or_default()
    }

    /// Number of held granules.
    #[must_use]
    pub fn count(&self) -> usize {
        self.granules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> DataStore {
        let mut ds = DataStore::new();
        ds.install(
            TableId(0),
            GranuleId(0),
            Granule::new(KeyRange::new(0, 100)),
        );
        ds.install(
            TableId(0),
            GranuleId(1),
            Granule::new(KeyRange::new(100, 200)),
        );
        ds
    }

    fn write(ds: &mut DataStore, id: GranuleId, key: u64, value: &'static [u8]) {
        let g = ds.granule_mut(TableId(0), id).unwrap();
        assert!(g.range.contains(key));
        g.rows.insert(key, Bytes::from_static(value));
    }

    fn read(ds: &DataStore, id: GranuleId, key: u64) -> Option<Bytes> {
        ds.granule(TableId(0), id).unwrap().rows.get(&key).cloned()
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut ds = setup();
        write(&mut ds, GranuleId(0), 42, b"v");
        assert_eq!(read(&ds, GranuleId(0), 42), Some(Bytes::from_static(b"v")));
        assert_eq!(read(&ds, GranuleId(0), 43), None);
        assert!(ds.granule(TableId(0), GranuleId(9)).is_none());
        assert!(ds.granule_mut(TableId(0), GranuleId(9)).is_none());
    }

    #[test]
    fn migration_moves_rows_wholesale() {
        let mut src = setup();
        let mut dst = DataStore::new();
        write(&mut src, GranuleId(1), 150, b"x");
        let g = src.remove(TableId(0), GranuleId(1)).unwrap();
        assert!(!src.holds(TableId(0), GranuleId(1)));
        dst.install(TableId(0), GranuleId(1), g);
        assert_eq!(
            read(&dst, GranuleId(1), 150),
            Some(Bytes::from_static(b"x"))
        );
    }

    #[test]
    fn scan_is_key_ordered() {
        let mut ds = setup();
        for key in [30u64, 10, 20] {
            write(&mut ds, GranuleId(0), key, b"r");
        }
        let keys: Vec<u64> = ds
            .scan(TableId(0), GranuleId(0))
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![10, 20, 30]);
    }

    #[test]
    fn count_and_holds_report_identities() {
        let ds = setup();
        assert_eq!(ds.count(), 2);
        assert!(ds.holds(TableId(0), GranuleId(0)) && ds.holds(TableId(0), GranuleId(1)));
        assert!(!ds.holds(TableId(1), GranuleId(0)));
    }

    #[test]
    fn granule_bytes_accounts_values() {
        let mut g = Granule::new(KeyRange::new(0, 10));
        g.rows.insert(1, Bytes::from_static(b"abc"));
        g.rows.insert(2, Bytes::from_static(b"de"));
        assert_eq!(g.bytes(), 5);
    }
}
