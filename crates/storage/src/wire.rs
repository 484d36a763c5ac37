//! Wire format for page updates carried in log payloads.
//!
//! The storage layer does not interpret transaction semantics, but its
//! replay service must be able to materialize log records into pages
//! (§3.1). The contract between compute and storage is therefore a list of
//! [`PageUpdate`]s per log record, length-prefix framed. Encoding is
//! deliberately simple (no external serializer): `u32` little-endian
//! lengths and raw bytes.
//!
//! Layout of an encoded record payload:
//!
//! ```text
//! u32 update_count
//! repeat update_count times:
//!   u32 table | u64 granule | u32 page_index | u8 kind | u32 len | bytes
//! ```
//!
//! `kind` is 0 for a full page image (replace), 1 for a delta (append to
//! the page's delta chain).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use marlin_common::{GranuleId, PageId, TableId};
use std::ops::Range;

/// How a page update is applied by replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageWrite {
    /// Replace the page's content with this image.
    Full(Bytes),
    /// Append this delta to the page (the page store keeps a base image
    /// plus a delta chain, mirroring log-structured page materialization).
    Delta(Bytes),
}

impl PageWrite {
    /// Size in bytes of the carried image or delta.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            PageWrite::Full(b) | PageWrite::Delta(b) => b.len(),
        }
    }

    /// Whether the write carries no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One page update inside a log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageUpdate {
    /// The page being updated.
    pub page: PageId,
    /// The content change.
    pub write: PageWrite,
}

/// Encode a list of page updates into a log payload.
#[must_use]
pub fn encode_page_updates(updates: &[PageUpdate]) -> Bytes {
    let bytes = updates.iter().map(|u| u.write.len()).sum();
    let mut out = PageUpdateWriter::new(updates.len(), bytes);
    for u in updates {
        let (kind, bytes) = match &u.write {
            PageWrite::Full(b) => (KIND_FULL, b),
            PageWrite::Delta(b) => (KIND_DELTA, b),
        };
        out.put(u.page, kind, &[&bytes[..]]);
    }
    out.finish()
}

/// Writes a payload in this module's layout one update at a time, into
/// one exactly-sized buffer, for a caller that holds each update's bytes
/// as parts rather than as a [`PageUpdate`]. [`encode_page_updates`] is
/// this writer over a slice.
///
/// Each write reports where its bytes lie in the finished payload, so a
/// caller can keep windows into the payload instead of copies of them.
pub struct PageUpdateWriter {
    buf: BytesMut,
    /// Updates promised to [`Self::new`] and not yet written.
    left: usize,
}

impl PageUpdateWriter {
    /// A writer for exactly `count` updates whose writes carry
    /// `write_bytes` bytes in total.
    #[must_use]
    pub fn new(count: usize, write_bytes: usize) -> Self {
        let mut buf = BytesMut::with_capacity(4 + count * MIN_UPDATE_BYTES + write_bytes);
        buf.put_u32_le(count as u32);
        Self { buf, left: count }
    }

    /// Append a delta on `page` whose bytes are `parts` concatenated.
    /// Returns the byte range of the delta in the finished payload.
    pub fn put_delta(&mut self, page: PageId, parts: &[&[u8]]) -> Range<usize> {
        self.put(page, KIND_DELTA, parts)
    }

    fn put(&mut self, page: PageId, kind: u8, parts: &[&[u8]]) -> Range<usize> {
        debug_assert!(self.left > 0, "more updates than promised");
        self.left -= 1;
        self.buf.put_u32_le(page.table.0);
        self.buf.put_u64_le(page.granule.0);
        self.buf.put_u32_le(page.index);
        self.buf.put_u8(kind);
        let len: usize = parts.iter().map(|p| p.len()).sum();
        self.buf.put_u32_le(len as u32);
        let start = self.buf.len();
        for part in parts {
            self.buf.put_slice(part);
        }
        start..start + len
    }

    /// The payload; every promised update must have been written.
    #[must_use]
    pub fn finish(self) -> Bytes {
        debug_assert_eq!(self.left, 0, "fewer updates than promised");
        self.buf.freeze()
    }
}

/// `kind` of a full page image.
const KIND_FULL: u8 = 0;
/// `kind` of a delta.
const KIND_DELTA: u8 = 1;

/// Encoded size of an update with an empty write: page id, kind, length.
const MIN_UPDATE_BYTES: usize = 4 + 8 + 4 + 1 + 4;

/// Decode a log payload into page updates. Returns `None` if the payload is
/// not in the page-update format (e.g. a system-table record, which replay
/// handles separately).
#[must_use]
pub fn decode_page_updates(payload: &Bytes) -> Option<Vec<PageUpdate>> {
    let mut buf = payload.clone();
    if buf.remaining() < 4 {
        return None;
    }
    let count = buf.get_u32_le() as usize;
    // Replay tries every log record, coordination records included, whose
    // first bytes read as a count in the millions: reserve only for a
    // count the payload can hold.
    if count > buf.remaining() / MIN_UPDATE_BYTES {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.remaining() < MIN_UPDATE_BYTES {
            return None;
        }
        let table = TableId(buf.get_u32_le());
        let granule = GranuleId(buf.get_u64_le());
        let index = buf.get_u32_le();
        let kind = buf.get_u8();
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return None;
        }
        let bytes = buf.copy_to_bytes(len);
        let write = match kind {
            KIND_FULL => PageWrite::Full(bytes),
            KIND_DELTA => PageWrite::Delta(bytes),
            _ => return None,
        };
        out.push(PageUpdate {
            page: PageId {
                table,
                granule,
                index,
            },
            write,
        });
    }
    if buf.has_remaining() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn page(t: u32, g: u64, i: u32) -> PageId {
        PageId {
            table: TableId(t),
            granule: GranuleId(g),
            index: i,
        }
    }

    #[test]
    fn round_trip_mixed_updates() {
        let updates = vec![
            PageUpdate {
                page: page(1, 2, 3),
                write: PageWrite::Full(Bytes::from_static(b"full")),
            },
            PageUpdate {
                page: page(0, 9, 0),
                write: PageWrite::Delta(Bytes::from_static(b"d")),
            },
            PageUpdate {
                page: page(7, 0, 1),
                write: PageWrite::Full(Bytes::new()),
            },
        ];
        let encoded = encode_page_updates(&updates);
        let decoded = decode_page_updates(&encoded).unwrap();
        assert_eq!(decoded, updates);
    }

    #[test]
    fn empty_update_list_round_trips() {
        let encoded = encode_page_updates(&[]);
        assert_eq!(decode_page_updates(&encoded).unwrap(), vec![]);
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert_eq!(decode_page_updates(&Bytes::from_static(b"zz")), None);
        // Claimed count larger than content.
        let mut bad = BytesMut::new();
        bad.put_u32_le(5);
        bad.put_u8(1);
        assert_eq!(decode_page_updates(&bad.freeze()), None);
        // A count no payload of this size can hold — what a coordination
        // record's first bytes look like to replay — is refused before any
        // reservation: u32::MAX updates would be a 200 GiB `Vec`.
        let mut huge = BytesMut::new();
        huge.put_u32_le(u32::MAX);
        huge.put_slice(&[0u8; 64]);
        assert_eq!(decode_page_updates(&huge.freeze()), None);
        // Trailing junk after valid updates.
        let mut tail = BytesMut::from(encode_page_updates(&[]).as_ref());
        tail.put_u8(0xFF);
        assert_eq!(decode_page_updates(&tail.freeze()), None);
    }

    #[test]
    fn writer_reports_where_each_delta_lies() {
        let mut out = PageUpdateWriter::new(3, 5);
        let a = out.put_delta(page(0, 1, 2), &[b"ab", b"c"]);
        let b = out.put_delta(page(3, 4, 5), &[]);
        let c = out.put_delta(page(6, 7, 8), &[b"de"]);
        let payload = out.finish();
        assert_eq!(&payload[a], b"abc");
        assert!(b.is_empty());
        assert_eq!(&payload[c.clone()], b"de");
        assert_eq!(c.end, payload.len());
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_u32_le(0);
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        buf.put_u8(9); // bad kind
        buf.put_u32_le(0);
        assert_eq!(decode_page_updates(&buf.freeze()), None);
    }

    proptest! {
        #[test]
        fn round_trip_arbitrary(
            entries in proptest::collection::vec(
                (0u32..100, 0u64..10_000, 0u32..64, proptest::collection::vec(any::<u8>(), 0..128), any::<bool>()),
                0..20,
            )
        ) {
            let updates: Vec<PageUpdate> = entries
                .into_iter()
                .map(|(t, g, i, data, full)| PageUpdate {
                    page: page(t, g, i),
                    write: if full {
                        PageWrite::Full(Bytes::from(data))
                    } else {
                        PageWrite::Delta(Bytes::from(data))
                    },
                })
                .collect();
            let decoded = decode_page_updates(&encode_page_updates(&updates));
            prop_assert_eq!(decoded, Some(updates));
        }
    }
}
