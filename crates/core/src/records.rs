//! Wire format of coordination records stored in SysLog and GLogs.
//!
//! Two record families exist (Figure 5):
//!
//! - [`SysRecord`] — membership changes appended to the single, unowned
//!   SysLog. `AddNodeTxn`/`DeleteNodeTxn` are single-participant
//!   transactions, so their records are final at append time (one-phase).
//! - [`GRecord`] — granule-ownership changes appended to per-node GLogs.
//!   Cross-node transactions (`MigrationTxn`, `RecoveryMigrTxn`) commit in
//!   two phases per Algorithm 2: phase one appends a [`GRecord::Prepared`]
//!   record bundling `VOTE-YES` with the updates (one conditional append =
//!   one vote), phase two appends a [`GRecord::Decision`] record. Readers
//!   materializing a GTable partition buffer prepared swaps until the
//!   matching decision arrives. Single-participant bootstrap records
//!   ([`GRecord::Install`]) and one-phase commits ([`GRecord::OnePhase`])
//!   apply immediately.
//!
//! Encoding is length-prefixed little-endian, independent of any external
//! serialization framework, and intentionally strict: decoders return
//! `None` on any malformed input.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use marlin_common::{GranuleId, KeyRange, LogId, NodeId, TableId, TxnId};

fn put_log_id(buf: &mut BytesMut, log: LogId) {
    match log {
        LogId::SysLog => buf.put_u8(0),
        LogId::GLog(n) => {
            buf.put_u8(1);
            buf.put_u32_le(n.0);
        }
        LogId::DataWal(n) => {
            buf.put_u8(2);
            buf.put_u32_le(n.0);
        }
    }
}

fn get_log_id(buf: &mut &[u8]) -> Option<LogId> {
    if !buf.has_remaining() {
        return None;
    }
    match buf.get_u8() {
        0 => Some(LogId::SysLog),
        1 if buf.remaining() >= 4 => Some(LogId::GLog(NodeId(buf.get_u32_le()))),
        2 if buf.remaining() >= 4 => Some(LogId::DataWal(NodeId(buf.get_u32_le()))),
        _ => None,
    }
}

const SYS_ADD: u8 = 1;
const SYS_DELETE: u8 = 2;
const G_INSTALL: u8 = 10;
const G_ONE_PHASE: u8 = 11;
const G_PREPARED: u8 = 12;
const G_DECISION: u8 = 13;

/// A membership record in the SysLog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SysRecord {
    /// `AddNodeTxn`: register a node and its server address.
    AddNode { node: NodeId, addr: String },
    /// `DeleteNodeTxn`: remove a node (scale-in or failover, Figure 7 step 4).
    DeleteNode { node: NodeId },
}

impl SysRecord {
    /// Encode into a log payload.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            SysRecord::AddNode { node, addr } => {
                buf.put_u8(SYS_ADD);
                buf.put_u32_le(node.0);
                buf.put_u32_le(addr.len() as u32);
                buf.put_slice(addr.as_bytes());
            }
            SysRecord::DeleteNode { node } => {
                buf.put_u8(SYS_DELETE);
                buf.put_u32_le(node.0);
            }
        }
        buf.freeze()
    }

    /// Decode from a log payload.
    #[must_use]
    pub fn decode(payload: &Bytes) -> Option<Self> {
        let mut buf: &[u8] = payload;
        if !buf.has_remaining() {
            return None;
        }
        let rec = match buf.get_u8() {
            SYS_ADD => {
                if buf.remaining() < 8 {
                    return None;
                }
                let node = NodeId(buf.get_u32_le());
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return None;
                }
                let addr = std::str::from_utf8(&buf[..len]).ok()?.to_owned();
                buf.advance(len);
                SysRecord::AddNode { node, addr }
            }
            SYS_DELETE => {
                if buf.remaining() < 4 {
                    return None;
                }
                SysRecord::DeleteNode {
                    node: NodeId(buf.get_u32_le()),
                }
            }
            _ => return None,
        };
        if buf.has_remaining() {
            return None;
        }
        Some(rec)
    }
}

/// One granule-ownership change: swap the owner of `granule` from `old` to
/// `new`. Swaps never delete entries (invariant I3, "Owner Exists"); the
/// key range rides along so a destination partition can create the entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnershipSwap {
    pub table: TableId,
    pub granule: GranuleId,
    pub range: KeyRange,
    pub old: NodeId,
    pub new: NodeId,
}

/// A granule-ownership record in a GLog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GRecord {
    /// Bootstrap: install a granule entry with its initial owner.
    Install {
        table: TableId,
        granule: GranuleId,
        range: KeyRange,
        owner: NodeId,
    },
    /// A committed single-participant transaction's swaps (one-phase).
    OnePhase {
        txn: TxnId,
        swaps: Vec<OwnershipSwap>,
    },
    /// Phase one of MarlinCommit's 2PC: `VOTE-YES` bundled with the updates
    /// for this log (Algorithm 2 line 8). Provisional until decided.
    /// `participants` lists every participant log of the transaction so
    /// that a third party can run the Cornus-style termination protocol
    /// (§4.3.2) by inspecting the other participants' logs.
    Prepared {
        txn: TxnId,
        swaps: Vec<OwnershipSwap>,
        participants: Vec<LogId>,
    },
    /// Phase two: the transaction's outcome.
    Decision { txn: TxnId, commit: bool },
}

fn put_swap(buf: &mut BytesMut, s: &OwnershipSwap) {
    buf.put_u32_le(s.table.0);
    buf.put_u64_le(s.granule.0);
    buf.put_u64_le(s.range.lo);
    buf.put_u64_le(s.range.hi);
    buf.put_u32_le(s.old.0);
    buf.put_u32_le(s.new.0);
}

fn get_swap(buf: &mut &[u8]) -> Option<OwnershipSwap> {
    if buf.remaining() < 4 + 8 + 8 + 8 + 4 + 4 {
        return None;
    }
    let table = TableId(buf.get_u32_le());
    let granule = GranuleId(buf.get_u64_le());
    let lo = buf.get_u64_le();
    let hi = buf.get_u64_le();
    if lo > hi {
        return None;
    }
    let old = NodeId(buf.get_u32_le());
    let new = NodeId(buf.get_u32_le());
    Some(OwnershipSwap {
        table,
        granule,
        range: KeyRange::new(lo, hi),
        old,
        new,
    })
}

fn put_swaps(buf: &mut BytesMut, kind: u8, txn: TxnId, swaps: &[OwnershipSwap]) {
    buf.put_u8(kind);
    buf.put_u64_le(txn.0);
    buf.put_u32_le(swaps.len() as u32);
    for s in swaps {
        put_swap(buf, s);
    }
}

fn get_swaps(buf: &mut &[u8]) -> Option<(TxnId, Vec<OwnershipSwap>)> {
    if buf.remaining() < 12 {
        return None;
    }
    let txn = TxnId(buf.get_u64_le());
    let count = buf.get_u32_le() as usize;
    let mut swaps = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        swaps.push(get_swap(buf)?);
    }
    Some((txn, swaps))
}

impl GRecord {
    /// Encode into a log payload.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            GRecord::Install {
                table,
                granule,
                range,
                owner,
            } => {
                buf.put_u8(G_INSTALL);
                buf.put_u32_le(table.0);
                buf.put_u64_le(granule.0);
                buf.put_u64_le(range.lo);
                buf.put_u64_le(range.hi);
                buf.put_u32_le(owner.0);
            }
            GRecord::OnePhase { txn, swaps } => put_swaps(&mut buf, G_ONE_PHASE, *txn, swaps),
            GRecord::Prepared {
                txn,
                swaps,
                participants,
            } => {
                put_swaps(&mut buf, G_PREPARED, *txn, swaps);
                buf.put_u32_le(participants.len() as u32);
                for p in participants {
                    put_log_id(&mut buf, *p);
                }
            }
            GRecord::Decision { txn, commit } => {
                buf.put_u8(G_DECISION);
                buf.put_u64_le(txn.0);
                buf.put_u8(u8::from(*commit));
            }
        }
        buf.freeze()
    }

    /// Decode from a log payload.
    #[must_use]
    pub fn decode(payload: &Bytes) -> Option<Self> {
        let mut buf: &[u8] = payload;
        if !buf.has_remaining() {
            return None;
        }
        let rec = match buf.get_u8() {
            G_INSTALL => {
                if buf.remaining() < 4 + 8 + 8 + 8 + 4 {
                    return None;
                }
                let table = TableId(buf.get_u32_le());
                let granule = GranuleId(buf.get_u64_le());
                let lo = buf.get_u64_le();
                let hi = buf.get_u64_le();
                if lo > hi {
                    return None;
                }
                let owner = NodeId(buf.get_u32_le());
                GRecord::Install {
                    table,
                    granule,
                    range: KeyRange::new(lo, hi),
                    owner,
                }
            }
            G_ONE_PHASE => {
                let (txn, swaps) = get_swaps(&mut buf)?;
                GRecord::OnePhase { txn, swaps }
            }
            G_PREPARED => {
                let (txn, swaps) = get_swaps(&mut buf)?;
                if buf.remaining() < 4 {
                    return None;
                }
                let n = buf.get_u32_le() as usize;
                let mut participants = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    participants.push(get_log_id(&mut buf)?);
                }
                GRecord::Prepared {
                    txn,
                    swaps,
                    participants,
                }
            }
            G_DECISION => {
                if buf.remaining() < 9 {
                    return None;
                }
                let txn = TxnId(buf.get_u64_le());
                let commit = match buf.get_u8() {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                GRecord::Decision { txn, commit }
            }
            _ => return None,
        };
        if buf.has_remaining() {
            return None;
        }
        Some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn swap(g: u64, old: u32, new: u32) -> OwnershipSwap {
        OwnershipSwap {
            table: TableId(0),
            granule: GranuleId(g),
            range: KeyRange::new(g * 100, (g + 1) * 100),
            old: NodeId(old),
            new: NodeId(new),
        }
    }

    #[test]
    fn sys_records_round_trip() {
        for rec in [
            SysRecord::AddNode {
                node: NodeId(3),
                addr: "10.0.0.3:5000".into(),
            },
            SysRecord::AddNode {
                node: NodeId(0),
                addr: String::new(),
            },
            SysRecord::DeleteNode { node: NodeId(7) },
        ] {
            assert_eq!(SysRecord::decode(&rec.encode()), Some(rec));
        }
    }

    #[test]
    fn g_records_round_trip() {
        for rec in [
            GRecord::Install {
                table: TableId(1),
                granule: GranuleId(5),
                range: KeyRange::new(0, 64),
                owner: NodeId(2),
            },
            GRecord::OnePhase {
                txn: TxnId(9),
                swaps: vec![swap(1, 0, 1)],
            },
            GRecord::Prepared {
                txn: TxnId(10),
                swaps: vec![swap(2, 1, 2), swap(3, 1, 2)],
                participants: vec![LogId::GLog(NodeId(1)), LogId::GLog(NodeId(2))],
            },
            GRecord::Prepared {
                txn: TxnId(11),
                swaps: vec![],
                participants: vec![LogId::SysLog],
            },
            GRecord::Decision {
                txn: TxnId(10),
                commit: true,
            },
            GRecord::Decision {
                txn: TxnId(10),
                commit: false,
            },
        ] {
            assert_eq!(GRecord::decode(&rec.encode()), Some(rec));
        }
    }

    #[test]
    fn cross_family_decode_fails() {
        let sys = SysRecord::DeleteNode { node: NodeId(1) }.encode();
        assert_eq!(GRecord::decode(&sys), None);
        let g = GRecord::Decision {
            txn: TxnId(1),
            commit: true,
        }
        .encode();
        assert_eq!(SysRecord::decode(&g), None);
    }

    #[test]
    fn truncated_and_trailing_garbage_rejected() {
        let rec = GRecord::Prepared {
            txn: TxnId(1),
            swaps: vec![swap(1, 0, 1)],
            participants: vec![LogId::GLog(NodeId(0))],
        };
        let encoded = rec.encode();
        let truncated = encoded.slice(0..encoded.len() - 1);
        assert_eq!(GRecord::decode(&truncated), None);
        let mut padded = BytesMut::from(encoded.as_ref());
        padded.put_u8(0);
        assert_eq!(GRecord::decode(&padded.freeze()), None);
        assert_eq!(SysRecord::decode(&Bytes::new()), None);
        assert_eq!(GRecord::decode(&Bytes::new()), None);
    }

    #[test]
    fn every_strict_prefix_and_a_flipped_tag_are_rejected() {
        let g_records = [
            GRecord::Install {
                table: TableId(1),
                granule: GranuleId(5),
                range: KeyRange::new(0, 64),
                owner: NodeId(2),
            },
            GRecord::OnePhase {
                txn: TxnId(9),
                swaps: vec![swap(1, 0, 1), swap(2, 0, 1)],
            },
            GRecord::OnePhase {
                txn: TxnId(9),
                swaps: vec![],
            },
            GRecord::Prepared {
                txn: TxnId(10),
                swaps: vec![swap(2, 1, 2)],
                participants: vec![
                    LogId::SysLog,
                    LogId::GLog(NodeId(1)),
                    LogId::DataWal(NodeId(2)),
                ],
            },
            GRecord::Decision {
                txn: TxnId(10),
                commit: true,
            },
        ];
        let sys_records = [
            SysRecord::AddNode {
                node: NodeId(3),
                addr: "10.0.0.3".into(),
            },
            SysRecord::AddNode {
                node: NodeId(0),
                addr: String::new(),
            },
            SysRecord::DeleteNode { node: NodeId(7) },
        ];
        let hostile = |encoded: Bytes| {
            let mut flipped = encoded.to_vec();
            flipped[0] ^= 0xFF;
            (0..encoded.len())
                .map(move |len| encoded.slice(0..len))
                .chain([Bytes::from(flipped)])
        };
        for rec in g_records {
            for bad in hostile(rec.encode()) {
                assert_eq!(GRecord::decode(&bad), None, "{rec:?} from {bad:?}");
            }
        }
        for rec in sys_records {
            for bad in hostile(rec.encode()) {
                assert_eq!(SysRecord::decode(&bad), None, "{rec:?} from {bad:?}");
            }
        }
    }

    proptest! {
        #[test]
        fn g_record_round_trip_arbitrary(
            txn in any::<u64>(),
            kind in 0u8..3,
            swaps in proptest::collection::vec((0u64..1000, 0u32..64, 0u32..64), 0..8),
        ) {
            let swaps: Vec<OwnershipSwap> = swaps.into_iter().map(|(g, o, n)| swap(g, o, n)).collect();
            let rec = match kind {
                0 => GRecord::OnePhase { txn: TxnId(txn), swaps },
                1 => GRecord::Prepared {
                    txn: TxnId(txn),
                    swaps,
                    participants: vec![LogId::SysLog, LogId::GLog(NodeId(3))],
                },
                _ => GRecord::Decision { txn: TxnId(txn), commit: txn.is_multiple_of(2) },
            };
            prop_assert_eq!(GRecord::decode(&rec.encode()), Some(rec));
        }

        #[test]
        fn decoders_never_panic_on_fuzz(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let payload = Bytes::from(data);
            let _ = SysRecord::decode(&payload);
            let _ = GRecord::decode(&payload);
        }
    }
}
