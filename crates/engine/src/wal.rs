//! The WAL payload of a data transaction.
//!
//! Upon commit, a transaction sends only its updates to the WAL (§3.2).
//! A [`TxnUpdateRecord`] carries its row writes, and
//! [`TxnUpdateRecord::encode_page_updates`] is what a commit appends: the
//! page-level updates the storage replay service applies, framed by
//! `marlin-storage::wire`. Each row write is one delta on its page,
//! little-endian:
//!
//! ```text
//! key u64 | len u32 | bytes
//! ```
//!
//! [`TxnUpdateRecord::rows_from_page_deltas`] reads rows back from a
//! page's delta chain.

use bytes::{Buf, Bytes};
use marlin_common::{GranuleId, PageId, TableId};
use marlin_storage::PageUpdateWriter;
use std::ops::Range;

/// Bytes in front of the value in a row delta: `key u64 | len u32`.
const DELTA_HEADER: usize = 8 + 4;

/// One row write inside a transaction. The value is borrowed from the
/// caller: a commit copies it once, into the payload it appends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowWrite<'a> {
    pub table: TableId,
    pub granule: GranuleId,
    pub key: u64,
    /// Page within the granule this row maps to (computed by the caller
    /// from the granule layout).
    pub page_index: u32,
    /// New row value.
    pub value: &'a [u8],
}

impl RowWrite<'_> {
    /// The page this write lands on.
    #[must_use]
    pub fn page(&self) -> PageId {
        PageId {
            table: self.table,
            granule: self.granule,
            index: self.page_index,
        }
    }
}

/// The WAL record of one committed transaction: its row writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnUpdateRecord<'a> {
    pub writes: Vec<RowWrite<'a>>,
}

/// A commit payload, and where each write's delta lies inside it.
pub struct CommitPayload {
    payload: Bytes,
    /// Per write, in order: the byte range of its delta in `payload`.
    deltas: Vec<Range<usize>>,
}

impl CommitPayload {
    /// The bytes the commit appends.
    #[must_use]
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Each write's value, in write order, as a window into the payload.
    /// A committed row keeps its window, so it shares its bytes with the
    /// log record instead of holding a copy.
    pub fn values(&self) -> impl Iterator<Item = Bytes> + '_ {
        self.deltas
            .iter()
            .map(|d| self.payload.slice(d.start + DELTA_HEADER..d.end))
    }
}

impl TxnUpdateRecord<'_> {
    /// The commit payload the replay service materializes: one page
    /// update per row write, a delta on its page carrying
    /// `key u64 | len u32 | value` so a cold-cache reader can reconstruct
    /// rows from `GetPage@LSN`. The framing is
    /// [`marlin_storage::PageUpdateWriter`]'s; the payload is built in one
    /// pass, with no delta allocated per write, and comes back with where
    /// each write's delta lies in it.
    #[must_use]
    pub fn encode_page_updates(&self) -> CommitPayload {
        let bytes = self
            .writes
            .iter()
            .map(|w| DELTA_HEADER + w.value.len())
            .sum();
        let mut out = PageUpdateWriter::new(self.writes.len(), bytes);
        let mut deltas = Vec::with_capacity(self.writes.len());
        for w in &self.writes {
            deltas.push(out.put_delta(
                w.page(),
                &[
                    &w.key.to_le_bytes(),
                    &(w.value.len() as u32).to_le_bytes(),
                    w.value,
                ],
            ));
        }
        CommitPayload {
            payload: out.finish(),
            deltas,
        }
    }

    /// The same updates as [`Self::encode_page_updates`], one allocated
    /// delta each. Only the tests use it: as the oracle the one-pass
    /// payload is checked against, and to build recovery logs.
    #[cfg(test)]
    pub(crate) fn to_page_updates(&self) -> Vec<marlin_storage::PageUpdate> {
        use bytes::{BufMut, BytesMut};
        self.writes
            .iter()
            .map(|w| {
                let mut delta = BytesMut::with_capacity(DELTA_HEADER + w.value.len());
                delta.put_u64_le(w.key);
                delta.put_u32_le(w.value.len() as u32);
                delta.put_slice(w.value);
                marlin_storage::PageUpdate {
                    page: w.page(),
                    write: marlin_storage::PageWrite::Delta(delta.freeze()),
                }
            })
            .collect()
    }

    /// Reconstruct `key -> value` rows from a page's delta chain (the
    /// inverse of [`Self::encode_page_updates`]'s deltas on the read path).
    /// Each value is a window into its delta, not a copy.
    #[must_use]
    pub fn rows_from_page_deltas(deltas: &[Bytes]) -> Vec<(u64, Bytes)> {
        let mut rows = Vec::new();
        for delta in deltas {
            let mut buf = delta.clone();
            while buf.remaining() >= DELTA_HEADER {
                let key = buf.get_u64_le();
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    break;
                }
                rows.push((key, buf.copy_to_bytes(len)));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_storage::PageWrite;
    use proptest::prelude::*;

    fn record() -> TxnUpdateRecord<'static> {
        TxnUpdateRecord {
            writes: vec![
                RowWrite {
                    table: TableId(0),
                    granule: GranuleId(4),
                    key: 1000,
                    page_index: 1,
                    value: b"hello",
                },
                RowWrite {
                    table: TableId(1),
                    granule: GranuleId(9),
                    key: 2000,
                    page_index: 0,
                    value: b"",
                },
            ],
        }
    }

    /// Records over owned values, as the proptests generate them.
    fn record_of(writes: &[(u32, u64, u64, u32, Vec<u8>)]) -> TxnUpdateRecord<'_> {
        TxnUpdateRecord {
            writes: writes
                .iter()
                .map(|(t, g, k, p, v)| RowWrite {
                    table: TableId(*t),
                    granule: GranuleId(*g),
                    key: *k,
                    page_index: *p,
                    value: v,
                })
                .collect(),
        }
    }

    #[test]
    fn page_updates_target_the_right_pages() {
        let r = record();
        let updates = r.to_page_updates();
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[0].page, r.writes[0].page());
        assert_eq!(updates[1].page, r.writes[1].page());
    }

    #[test]
    fn rows_reconstruct_from_deltas_in_order() {
        let r = TxnUpdateRecord {
            writes: vec![
                RowWrite {
                    table: TableId(0),
                    granule: GranuleId(0),
                    key: 5,
                    page_index: 0,
                    value: b"v1",
                },
                RowWrite {
                    table: TableId(0),
                    granule: GranuleId(0),
                    key: 5,
                    page_index: 0,
                    value: b"v2",
                },
            ],
        };
        let deltas: Vec<Bytes> = r
            .to_page_updates()
            .into_iter()
            .map(|u| match u.write {
                PageWrite::Delta(d) => d,
                PageWrite::Full(_) => panic!("row writes are deltas"),
            })
            .collect();
        let rows = TxnUpdateRecord::rows_from_page_deltas(&deltas);
        // Later delta wins when materialized into a map.
        assert_eq!(
            rows,
            vec![
                (5, Bytes::from_static(b"v1")),
                (5, Bytes::from_static(b"v2"))
            ]
        );
    }

    proptest! {
        /// The one-pass commit payload is the two-step encoding byte for
        /// byte — no writes, empty values, several tables and granules —
        /// replay decodes it back to the record's page updates, and each
        /// value window holds its write's value inside the payload.
        #[test]
        fn one_pass_payload_is_the_two_step_encoding(
            writes in proptest::collection::vec(
                (0u32..3, 0u64..4, any::<u64>(), 0u32..16, proptest::collection::vec(any::<u8>(), 0..3)),
                0..12,
            )
        ) {
            let r = record_of(&writes);
            let encoded = r.encode_page_updates();
            let payload = encoded.payload();
            prop_assert_eq!(payload, &marlin_storage::encode_page_updates(&r.to_page_updates()));
            prop_assert_eq!(marlin_storage::decode_page_updates(payload), Some(r.to_page_updates()));
            let span = payload.as_ptr_range();
            let values: Vec<Bytes> = encoded.values().collect();
            prop_assert_eq!(values.len(), r.writes.len());
            for (value, w) in values.iter().zip(&r.writes) {
                prop_assert_eq!(&value[..], w.value);
                let window = value.as_ptr_range();
                prop_assert!(span.start <= window.start && window.end <= span.end);
            }
        }
    }
}
