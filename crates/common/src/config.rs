//! Cluster and data-layout configuration shared by the engine, the
//! coordination layer, and the evaluation harness.

use crate::ids::{GranuleId, NodeId, TableId};
use crate::keyrange::KeyRange;

/// How a user table is laid out into granules.
///
/// Granules are the paper's unit of ownership and migration (§4.1). The
/// layout is fixed at load time; migrations change *ownership*, never the
/// key ranges themselves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GranuleLayout {
    /// The table being described.
    pub table: TableId,
    /// Full key space of the table.
    pub keyspace: KeyRange,
    /// Number of granules the key space is split into.
    pub granule_count: u64,
    /// Nominal granule size in bytes (64 KB in the paper's implementation;
    /// TPC-C uses ~1 MB warehouses). Only used for accounting.
    pub granule_bytes: u64,
    /// Nominal tuple size in bytes (1 KB for YCSB).
    pub tuple_bytes: u32,
}

impl GranuleLayout {
    /// Uniform layout: split `keyspace` into `granule_count` equal ranges.
    #[must_use]
    pub fn uniform(
        table: TableId,
        keyspace: KeyRange,
        granule_count: u64,
        granule_bytes: u64,
        tuple_bytes: u32,
    ) -> Self {
        assert!(granule_count > 0, "a table needs at least one granule");
        assert!(
            keyspace.len() >= granule_count,
            "keyspace must have at least one key per granule"
        );
        GranuleLayout {
            table,
            keyspace,
            granule_count,
            granule_bytes,
            tuple_bytes,
        }
    }

    /// The granule that holds `key`, or `None` if the key is outside the
    /// table's key space.
    #[must_use]
    pub fn granule_of(&self, key: u64) -> Option<GranuleId> {
        if !self.keyspace.contains(key) {
            return None;
        }
        let offset = u128::from(key - self.keyspace.lo);
        let width = u128::from(self.keyspace.len());
        let count = u128::from(self.granule_count);
        // Exact inverse of `range_of`: granule g covers
        // [floor(width*g/count), floor(width*(g+1)/count)), so the granule
        // of offset o is the largest g with floor(width*g/count) <= o,
        // i.e. g = floor(((o+1)*count - 1) / width).
        let g = (((offset + 1) * count - 1) / width) as u64;
        Some(GranuleId(g.min(self.granule_count - 1)))
    }

    /// Key range covered by granule `g`.
    #[must_use]
    pub fn range_of(&self, g: GranuleId) -> KeyRange {
        assert!(g.0 < self.granule_count, "granule {g} out of bounds");
        let width = u128::from(self.keyspace.len());
        let count = u128::from(self.granule_count);
        let lo = self.keyspace.lo + (width * u128::from(g.0) / count) as u64;
        let hi = self.keyspace.lo + (width * (u128::from(g.0) + 1) / count) as u64;
        KeyRange::new(lo, hi)
    }

    /// Iterate over all granule IDs of the table.
    pub fn granules(&self) -> impl Iterator<Item = GranuleId> {
        (0..self.granule_count).map(GranuleId)
    }

    /// Number of pages per granule given a page size.
    #[must_use]
    pub fn pages_per_granule(&self, page_bytes: u64) -> u32 {
        (self.granule_bytes.div_ceil(page_bytes)).max(1) as u32
    }
}

/// Static description of a cluster at bootstrap.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Nodes present at time zero (scale-out adds more later).
    pub initial_nodes: Vec<NodeId>,
    /// Layouts of all user tables.
    pub tables: Vec<GranuleLayout>,
    /// Page size in bytes.
    pub page_bytes: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            initial_nodes: (0..4).map(NodeId).collect(),
            tables: vec![GranuleLayout::uniform(
                TableId(0),
                KeyRange::new(0, 1 << 20),
                1024,
                64 * 1024,
                1024,
            )],
            page_bytes: 16 * 1024,
        }
    }
}

impl ClusterConfig {
    /// Initial round-robin assignment of granules to the initial nodes.
    ///
    /// Contiguous blocks (not striped) so each node owns a compact key
    /// range, matching the paper's scale-out examples (Figure 6).
    #[must_use]
    pub fn initial_assignment(&self) -> Vec<(TableId, GranuleId, NodeId)> {
        let mut out = Vec::new();
        let n = self.initial_nodes.len() as u64;
        for layout in &self.tables {
            for g in layout.granules() {
                let idx =
                    (u128::from(g.0) * u128::from(n) / u128::from(layout.granule_count)) as usize;
                out.push((layout.table, g, self.initial_nodes[idx]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> GranuleLayout {
        GranuleLayout::uniform(TableId(0), KeyRange::new(0, 1000), 10, 64 << 10, 1024)
    }

    #[test]
    fn granule_of_matches_range_of() {
        let l = layout();
        for key in [0u64, 99, 100, 450, 999] {
            let g = l.granule_of(key).unwrap();
            assert!(
                l.range_of(g).contains(key),
                "key {key} not in {:?}",
                l.range_of(g)
            );
        }
        assert_eq!(l.granule_of(1000), None);
    }

    #[test]
    fn ranges_tile_the_keyspace() {
        let l = layout();
        let mut cursor = 0;
        for g in l.granules() {
            let r = l.range_of(g);
            assert_eq!(r.lo, cursor);
            cursor = r.hi;
        }
        assert_eq!(cursor, 1000);
    }

    #[test]
    fn uneven_split_still_tiles() {
        let l = GranuleLayout::uniform(TableId(0), KeyRange::new(5, 108), 7, 64 << 10, 100);
        let mut cursor = 5;
        for g in l.granules() {
            let r = l.range_of(g);
            assert_eq!(r.lo, cursor);
            assert!(!r.is_empty());
            cursor = r.hi;
        }
        assert_eq!(cursor, 108);
        for key in 5..108 {
            let g = l.granule_of(key).unwrap();
            assert!(l.range_of(g).contains(key));
        }
    }

    #[test]
    fn initial_assignment_is_contiguous_and_balanced() {
        let cfg = ClusterConfig {
            initial_nodes: vec![NodeId(0), NodeId(1)],
            tables: vec![layout()],
            ..ClusterConfig::default()
        };
        let assign = cfg.initial_assignment();
        assert_eq!(assign.len(), 10);
        let n0 = assign.iter().filter(|(_, _, n)| *n == NodeId(0)).count();
        let n1 = assign.iter().filter(|(_, _, n)| *n == NodeId(1)).count();
        assert_eq!(n0, 5);
        assert_eq!(n1, 5);
        // Contiguity: node of granule i never decreases.
        let mut last = NodeId(0);
        for (_, _, n) in &assign {
            assert!(*n >= last);
            last = *n;
        }
    }

    #[test]
    fn pages_per_granule_rounds_up() {
        let l = layout();
        assert_eq!(l.pages_per_granule(16 << 10), 4);
        assert_eq!(l.pages_per_granule(60 << 10), 2);
        assert_eq!(l.pages_per_granule(1 << 20), 1);
    }
}
