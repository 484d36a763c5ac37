//! Strongly typed identifiers used throughout the workspace.
//!
//! Each identifier is a transparent newtype over an integer so that mixing
//! up, say, a [`NodeId`] and a [`GranuleId`] is a compile error rather than
//! a data-corruption bug. All IDs are `Copy`, ordered, and hashable so they
//! can serve as map keys in protocol state.

use std::fmt;

/// Identifier of a compute node in the cluster.
///
/// Node IDs are assigned once at provisioning time and never reused; the
/// membership is ordered by `NodeId` (the §4.4.2 heartbeat ring).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

/// Identifier of a data granule — the paper's unit of data ownership and
/// migration (64 KB fine-grained partitions, §4.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GranuleId(pub u64);

/// Identifier of a user or system table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TableId(pub u32);

/// Globally unique transaction identifier.
///
/// The high 32 bits carry the originating node (or client), the low 32 bits
/// a per-origin sequence number, so IDs can be minted without coordination.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u64);

impl TxnId {
    /// Mint a transaction ID from an origin node and a local sequence number.
    #[must_use]
    pub fn new(origin: NodeId, seq: u32) -> Self {
        TxnId((u64::from(origin.0) << 32) | u64::from(seq))
    }

    /// The node (or client) that originated this transaction.
    #[must_use]
    pub fn origin(self) -> NodeId {
        NodeId((self.0 >> 32) as u32)
    }

    /// The per-origin sequence number.
    #[must_use]
    pub fn seq(self) -> u32 {
        (self.0 & 0xffff_ffff) as u32
    }
}

/// Identifier of a closed-loop client in the evaluation harness.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u32);

/// Identifier of a deployment region (geo-distributed experiments, §6.5).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionId(pub u16);

/// Identifier of a page in the disaggregated page store.
///
/// Pages are addressed by `(table, granule, index-within-granule)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId {
    pub table: TableId,
    pub granule: GranuleId,
    pub index: u32,
}

/// Log sequence number: the version of a shared log.
///
/// `Lsn(n)` means "n records have been appended"; a fresh log has
/// [`Lsn::ZERO`]. The conditional append API (`Append@LSN`, paper §4.3.1)
/// succeeds only if the log's current LSN equals the caller's expected LSN.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The LSN of an empty log.
    pub const ZERO: Lsn = Lsn(0);

    /// The LSN after appending `records` more records at `self`.
    #[must_use]
    pub fn advance(self, records: u64) -> Lsn {
        Lsn(self.0 + records)
    }

    /// The next LSN (one more record appended).
    #[must_use]
    pub fn next(self) -> Lsn {
        self.advance(1)
    }
}

/// Identity of a log instance in the disaggregated storage layer.
///
/// The paper distinguishes three kinds of logs (§4.1, Figure 5):
/// - the single, unowned **SysLog** recording MTable (membership) changes;
/// - one **GLog** per node recording that node's GTable partition changes;
/// - one **data WAL** per node recording user-table updates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogId {
    /// The global membership log. No exclusive owner; all nodes may append.
    SysLog,
    /// The GTable log of the given node's metadata partition.
    GLog(NodeId),
    /// The data write-ahead log of the given node.
    DataWal(NodeId),
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Debug for GranuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

impl fmt::Display for GranuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

impl fmt::Debug for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Txn({}:{})", self.origin(), self.seq())
    }
}

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lsn({})", self.0)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P({:?}/{:?}/{})", self.table, self.granule, self.index)
    }
}

impl fmt::Debug for LogId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogId::SysLog => write!(f, "SysLog"),
            LogId::GLog(n) => write!(f, "GLog({n})"),
            LogId::DataWal(n) => write!(f, "DataWal({n})"),
        }
    }
}

impl fmt::Display for LogId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_round_trips_origin_and_seq() {
        let id = TxnId::new(NodeId(7), 42);
        assert_eq!(id.origin(), NodeId(7));
        assert_eq!(id.seq(), 42);
    }

    #[test]
    fn txn_id_ordering_is_origin_major() {
        let a = TxnId::new(NodeId(1), u32::MAX);
        let b = TxnId::new(NodeId(2), 0);
        assert!(a < b);
    }

    #[test]
    fn lsn_advance_and_next() {
        assert_eq!(Lsn::ZERO.next(), Lsn(1));
        assert_eq!(Lsn(5).advance(3), Lsn(8));
        assert!(Lsn(2) < Lsn(10));
    }

    #[test]
    fn log_id_display_names() {
        assert_eq!(LogId::SysLog.to_string(), "SysLog");
        assert_eq!(LogId::GLog(NodeId(3)).to_string(), "GLog(N3)");
        assert_eq!(LogId::DataWal(NodeId(1)).to_string(), "DataWal(N1)");
    }

    #[test]
    fn ids_are_usable_as_map_keys() {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<LogId, Lsn> = BTreeMap::new();
        m.insert(LogId::SysLog, Lsn(1));
        m.insert(LogId::GLog(NodeId(0)), Lsn(2));
        assert_eq!(m.len(), 2);
        assert_eq!(m[&LogId::SysLog], Lsn(1));
    }
}
