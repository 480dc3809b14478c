//! Offline shim for the `bytes` crate: cheap-to-clone immutable buffers,
//! a growable builder, and the little-endian cursor traits used by
//! `rgb_core::wire`.
//!
//! Every method is `#[inline]`: the workspace builds without LTO, so a call
//! into this crate that is not marked inlinable stays an out-of-line call —
//! and the wire codec makes one per integer it reads or writes.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Immutable, cheaply clonable byte buffer (`Arc`-backed).
///
/// Backed by `Arc<Vec<u8>>` rather than `Arc<[u8]>` so both directions are
/// zero-copy, like the real crate: [`BytesMut::freeze`] moves the `Vec` into
/// the `Arc` (an `Arc<[u8]>` would re-allocate and copy every frame), and
/// [`Bytes::try_into_mut`] moves it back out of a unique handle, so a frame
/// buffer and its `Arc` can be reused for the next frame instead of being
/// freed and allocated again on the simulator's per-send hot path.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    inner: Arc<Vec<u8>>,
}

impl Bytes {
    /// Empty buffer.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy a slice into a fresh buffer.
    #[inline]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { inner: Arc::new(data.to_vec()) }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the buffer holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Take the buffer back for writing. Succeeds only for the unique
    /// handle (no clone of it alive); otherwise the handle is returned
    /// unchanged. The contents and the capacity are kept, and so is the
    /// `Arc` allocation: a later [`BytesMut::freeze`] reuses it.
    #[inline]
    pub fn try_into_mut(mut self) -> Result<BytesMut, Bytes> {
        match Arc::get_mut(&mut self.inner) {
            Some(vec) => {
                let inner = std::mem::take(vec);
                Ok(BytesMut { inner, shell: Some(self.inner) })
            }
            None => Err(self),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        Bytes { inner: Arc::new(v) }
    }
}

impl From<&[u8]> for Bytes {
    #[inline]
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        write!(f, "\"")
    }
}

/// Growable byte buffer that freezes into [`Bytes`].
///
/// Equality, `Debug` and `Clone` see the contents only.
#[derive(Default)]
pub struct BytesMut {
    inner: Vec<u8>,
    /// The emptied `Arc` of the [`Bytes`] this buffer was reclaimed from
    /// ([`Bytes::try_into_mut`]), parked so [`BytesMut::freeze`] can put the
    /// `Vec` back into it. Never cloned, so it stays unique.
    shell: Option<Arc<Vec<u8>>>,
}

impl BytesMut {
    /// Empty buffer.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty buffer with reserved capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { inner: Vec::with_capacity(cap), shell: None }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the buffer holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Bytes the buffer can hold without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Drop the contents, keeping the capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Make room for at least `additional` more bytes.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional);
    }

    /// Convert into an immutable [`Bytes`].
    #[inline]
    pub fn freeze(self) -> Bytes {
        match self.shell {
            Some(mut shell) => {
                *Arc::get_mut(&mut shell).expect("the parked Arc is never shared") = self.inner;
                Bytes { inner: shell }
            }
            None => Bytes::from(self.inner),
        }
    }

    /// Append a slice.
    #[inline]
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.inner.extend_from_slice(data);
    }
}

impl Clone for BytesMut {
    #[inline]
    fn clone(&self) -> Self {
        BytesMut { inner: self.inner.clone(), shell: None }
    }
}

impl PartialEq for BytesMut {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
    }
}

impl Eq for BytesMut {}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut").field("inner", &self.inner).finish()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

/// Read cursor over a byte source. Accessors panic on underflow, exactly
/// like the real crate; callers check [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// View of the unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consume `n` bytes.
    fn advance(&mut self, n: usize);

    /// Read one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Read a little-endian `u16`.
    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        raw.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_le_bytes(raw)
    }

    /// Read a little-endian `u32`.
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(raw)
    }

    /// Read a little-endian `u64`.
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(raw)
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Append-only write cursor.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, data: &[u8]);

    /// Append one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, data: &[u8]) {
        self.extend_from_slice(data);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, data: &[u8]) {
        self.extend_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u8(7);
        buf.put_u16_le(300);
        buf.put_u32_le(70_000);
        buf.put_u64_le(u64::MAX - 1);
        let frozen = buf.freeze();
        let mut cur: &[u8] = &frozen;
        assert_eq!(cur.remaining(), 15);
        assert_eq!(cur.get_u8(), 7);
        assert_eq!(cur.get_u16_le(), 300);
        assert_eq!(cur.get_u32_le(), 70_000);
        assert_eq!(cur.get_u64_le(), u64::MAX - 1);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn bytes_clone_is_shallow_and_equal() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn try_into_mut_on_a_unique_handle_keeps_capacity_and_round_trips() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32_le(9);
        let cap = buf.capacity();
        let mut back = buf.freeze().try_into_mut().expect("unique handle");
        assert_eq!(&back[..], &9u32.to_le_bytes());
        assert_eq!(back.capacity(), cap, "the Vec came back, not a copy");
        back.clear();
        back.reserve(8);
        assert_eq!(back.capacity(), cap, "room enough already");
        back.put_u64_le(11);
        let again = back.freeze();
        assert_eq!(&again[..], &11u64.to_le_bytes());
        // The reclaimed handle is an ordinary one: clonable, reclaimable.
        let twin = again.clone();
        assert_eq!(again, twin);
        drop(twin);
        assert_eq!(again.try_into_mut().expect("unique again").capacity(), cap);
    }

    #[test]
    fn try_into_mut_on_a_shared_handle_fails_and_leaves_both_readable() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        let a = a.try_into_mut().expect_err("shared handle");
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(&b[..], &[1, 2, 3]);
        drop(b);
        assert_eq!(&a.try_into_mut().expect("last handle is unique")[..], &[1, 2, 3]);
    }

    #[test]
    fn bytes_mut_equality_debug_and_clone_see_contents_only() {
        let mut plain = BytesMut::new();
        plain.put_slice(&[5, 6]);
        let reclaimed = Bytes::from(vec![5, 6]).try_into_mut().expect("unique handle");
        assert_eq!(plain, reclaimed);
        assert_eq!(format!("{plain:?}"), format!("{reclaimed:?}"));
        let copy = reclaimed.clone();
        assert_eq!(copy, reclaimed);
        // Both freeze independently: the clone did not share the parked Arc.
        assert_eq!(copy.freeze(), reclaimed.freeze());
        assert_eq!(BytesMut::default(), BytesMut::new());
    }
}
