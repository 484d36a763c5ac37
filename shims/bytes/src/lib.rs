//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal, API-compatible implementation of the subset the
//! Marlin codebase uses: [`Bytes`] (a cheaply cloneable, sliceable,
//! immutable byte buffer), [`BytesMut`] (a growable builder that freezes
//! into `Bytes`), and the [`Buf`]/[`BufMut`] cursor traits with the
//! little-endian accessors the wire codecs rely on.
//!
//! Semantics match the real crate for everything exercised here: `Bytes`
//! clones share the underlying allocation, `Buf` reads advance an internal
//! cursor without copying, and `copy_to_bytes` returns a zero-copy slice
//! of the shared allocation.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
///
/// The window is two `u32`s, which makes a handle 24 bytes, not 32: rows,
/// log records and page delta chains hold one handle per value, so on the
/// `LocalCluster` runtime the handles are several MiB of the resident
/// set. No buffer here comes near 4 GiB, and `from_vec` refuses one.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: u32,
    end: u32,
}

impl Bytes {
    /// An empty buffer (no allocation).
    #[must_use]
    pub fn new() -> Self {
        Bytes {
            data: Arc::from(&[][..]),
            start: 0,
            end: 0,
        }
    }

    /// A buffer holding a copy of a static slice.
    #[must_use]
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from_vec(bytes.to_vec())
    }

    /// A buffer holding a copy of `data`.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from_vec(data.to_vec())
    }

    fn from_vec(v: Vec<u8>) -> Self {
        let end = u32::try_from(v.len()).expect("buffer under 4 GiB");
        Bytes {
            data: Arc::from(v),
            start: 0,
            end,
        }
    }

    /// Length of the buffer in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The whole buffer as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start as usize..self.end as usize]
    }

    /// A zero-copy sub-slice `[at, len)`; `self` keeps `[0, at)`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at as u32,
        };
        self.start += at as u32;
        head
    }

    /// A zero-copy slice of the buffer.
    #[must_use]
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice out of bounds"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start as u32,
            end: self.start + range.end as u32,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_vec(v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Self {
        m.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

fn fmt_byte_string(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for &b in bytes {
        if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
            write!(f, "{}", b as char)?;
        } else {
            write!(f, "\\x{b:02x}")?;
        }
    }
    write!(f, "\"")
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_byte_string(self.as_slice(), f)
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from_vec(iter.into_iter().collect())
    }
}

/// A growable byte buffer that can be frozen into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty builder with reserved capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the builder is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Convert into an immutable [`Bytes`] without copying.
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from_vec(self.buf)
    }

    /// The content as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Ensure room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Clear the content, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend);
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { buf: s.to_vec() }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_byte_string(&self.buf, f)
    }
}

/// Read cursor over a byte source.
pub trait Buf {
    /// Bytes left between the cursor and the end.
    fn remaining(&self) -> usize;

    /// The bytes after the cursor.
    fn chunk(&self) -> &[u8];

    /// Advance the cursor by `cnt`.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        assert!(self.remaining() >= 1, "get_u8 past end");
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_into(&mut b);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_into(&mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_into(&mut b);
        u64::from_le_bytes(b)
    }

    /// Copy exactly `dst.len()` bytes and advance.
    fn copy_into(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "read past end of buffer");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Copy the next `len` bytes out as a `Bytes` and advance.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "copy_to_bytes past end");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt as u32;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(len <= self.len(), "copy_to_bytes past end");
        let out = self.slice(0..len);
        self.start += len as u32;
        out
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write cursor that appends to a byte sink.
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_little_endian() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u16_le(0xBEEF);
        m.put_u32_le(0xDEAD_BEEF);
        m.put_u64_le(u64::MAX - 3);
        m.put_slice(b"tail");
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16_le(), 0xBEEF);
        assert_eq!(b.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(b.get_u64_le(), u64::MAX - 3);
        assert_eq!(b.copy_to_bytes(4), Bytes::from_static(b"tail"));
        assert!(!b.has_remaining());
    }

    #[test]
    fn clones_share_and_cursor_is_per_handle() {
        let a = Bytes::from_static(b"hello");
        let mut b = a.clone();
        b.advance(2);
        assert_eq!(a.as_slice(), b"hello");
        assert_eq!(b.as_slice(), b"llo");
    }

    #[test]
    fn copy_to_bytes_is_zero_copy_slice() {
        let mut b = Bytes::from_static(b"abcdef");
        let head = b.copy_to_bytes(3);
        assert_eq!(head.as_slice(), b"abc");
        assert_eq!(b.as_slice(), b"def");
    }
}
