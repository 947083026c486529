//! In-repo byte buffers for the wire codecs, and the one definition of
//! a well-formed wire primitive.
//!
//! A minimal, dependency-free replacement for the `bytes` crate,
//! providing exactly what the codecs need: [`BytesMut`], a growable
//! `Vec<u8>`-backed write buffer, and [`Bytes`], an immutable,
//! cheaply-cloneable view that doubles as a read cursor. Cloning or
//! slicing a [`Bytes`] shares the underlying allocation (`Arc<[u8]>`),
//! so passing migration payloads between daemons never copies the
//! payload itself.
//!
//! Reading is fallible only: every `read_*` returns
//! [`VmError::Decode`] on input the matching `put_*` could not have
//! written — a short buffer, a flag byte other than 0 or 1, a varint
//! that is longer than it needs to be or too wide for the integer it
//! fills, a count larger than its cap or than the bytes left to hold its
//! elements. The messenger, program, frame and checkpoint codecs are
//! written on these and nothing else, so they share one strictness.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

use crate::error::VmError;

#[cold]
fn bad(msg: String) -> VmError {
    VmError::Decode(msg)
}

#[cold]
fn truncated() -> VmError {
    VmError::Decode("truncated input".to_string())
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// An immutable, reference-counted byte buffer with a read cursor.
///
/// The `read_*` methods consume from the front of the view. Slicing and
/// cloning are O(1) and share storage.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// A buffer copied from a static slice.
    pub fn from_static(s: &'static [u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }

    /// Remaining (unread) length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether no unread bytes remain.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] if the buffer is empty.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, VmError> {
        if self.start == self.end {
            return Err(truncated());
        }
        let b = self.data[self.start];
        self.start += 1;
        Ok(b)
    }

    /// Read a flag byte: exactly 0 or 1.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] on truncation or any other byte.
    #[inline]
    pub fn read_bool(&mut self) -> Result<bool, VmError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(bad(format!("flag byte {t} is neither 0 nor 1"))),
        }
    }

    /// Read a one-byte tag and return the variant it indexes.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] on truncation or a tag past the last variant.
    #[inline]
    pub fn read_tag<T: Copy>(&mut self, what: &str, variants: &[T]) -> Result<T, VmError> {
        let t = self.read_u8()?;
        variants.get(usize::from(t)).copied().ok_or_else(|| bad(format!("unknown {what} tag {t}")))
    }

    /// Read an LEB128 varint in its shortest encoding.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] on truncation, on a value past `u64::MAX`, and
    /// on a multi-byte encoding whose last group is zero (a padded
    /// encoding would let a corrupted byte decode to the same value).
    #[inline]
    pub fn read_varint(&mut self) -> Result<u64, VmError> {
        match self.read_u8()? {
            byte @ 0..=0x7f => Ok(u64::from(byte)),
            byte => self.read_varint_tail(byte),
        }
    }

    /// The second and later groups of a varint whose first byte was
    /// `first` (continuation bit set).
    fn read_varint_tail(&mut self, first: u8) -> Result<u64, VmError> {
        let mut v = u64::from(first & 0x7f);
        for shift in (7..64).step_by(7) {
            let byte = self.read_u8()?;
            let group = u64::from(byte & 0x7f);
            // The tenth group can only hold bit 63: anything above would
            // be shifted out of the u64 and decode the same as its
            // absence.
            if shift == 63 && group > 1 {
                return Err(bad("varint overflows u64".to_string()));
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 {
                    return Err(bad("varint is not minimally encoded".to_string()));
                }
                return Ok(v);
            }
        }
        Err(bad("varint too long".to_string()))
    }

    /// Read a varint that must fit 32 bits.
    ///
    /// # Errors
    ///
    /// As [`Bytes::read_varint`], plus a value above `u32::MAX`.
    #[inline]
    pub fn read_u32(&mut self) -> Result<u32, VmError> {
        let v = self.read_varint()?;
        u32::try_from(v).map_err(|_| bad(format!("{v} overflows u32")))
    }

    /// Read a varint that must fit 16 bits (daemon ids, table indices).
    ///
    /// # Errors
    ///
    /// As [`Bytes::read_varint`], plus a value above `u16::MAX`.
    #[inline]
    pub fn read_u16(&mut self) -> Result<u16, VmError> {
        let v = self.read_varint()?;
        u16::try_from(v).map_err(|_| bad(format!("{v} overflows u16")))
    }

    /// Read a zigzag-mapped signed varint.
    ///
    /// # Errors
    ///
    /// As [`Bytes::read_varint`].
    #[inline]
    pub fn read_zigzag(&mut self) -> Result<i64, VmError> {
        self.read_varint().map(unzigzag)
    }

    /// Read a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] if fewer than 8 bytes remain.
    #[inline]
    pub fn read_f64(&mut self) -> Result<f64, VmError> {
        let r = self.take(8)?;
        Ok(f64::from_le_bytes(self.data[r].try_into().expect("take(8) yields 8 bytes")))
    }

    /// Read a fixed-width little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] if fewer than 2 bytes remain.
    pub fn read_u16_le(&mut self) -> Result<u16, VmError> {
        self.take_array().map(u16::from_le_bytes)
    }

    /// Read a fixed-width little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] if fewer than 4 bytes remain.
    pub fn read_u32_le(&mut self) -> Result<u32, VmError> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Read a fixed-width little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] if fewer than 8 bytes remain.
    pub fn read_u64_le(&mut self) -> Result<u64, VmError> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Read `n` little-endian `f64`s (a matrix body), checking that they
    /// fit before allocating for them.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] if fewer than `8 * n` bytes remain.
    pub fn read_f64s(&mut self, n: u64) -> Result<Vec<f64>, VmError> {
        let n = self.fits(n, 8)?;
        let r = self.take(n * 8)?;
        let chunks = self.data[r].chunks_exact(8);
        Ok(chunks.map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk"))).collect())
    }

    /// Read an element count: a varint no larger than `max` and no larger
    /// than the bytes that remain, since every element costs at least one
    /// byte. The result is safe to pre-allocate for.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] if the count breaks either bound.
    #[inline]
    pub fn read_count(&mut self, max: usize) -> Result<usize, VmError> {
        let n = self.read_varint()?;
        if n > max as u64 {
            return Err(bad(format!("count {n} exceeds the cap of {max}")));
        }
        self.fits(n, 1)
    }

    /// Read a counted sequence: [`Bytes::read_count`], then `read` once per
    /// element into a vector sized by that (already bounded) count.
    ///
    /// # Errors
    ///
    /// The count's bounds, or the first element error.
    pub fn read_seq<T>(
        &mut self,
        max: usize,
        mut read: impl FnMut(&mut Bytes) -> Result<T, VmError>,
    ) -> Result<Vec<T>, VmError> {
        let n = self.read_count(max)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Read a length-prefixed byte string as a shared-storage view.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] if the length exceeds what remains.
    #[inline]
    pub fn read_bytes(&mut self) -> Result<Bytes, VmError> {
        let n = self.read_varint()?;
        let r = self.take(self.fits(n, 1)?)?;
        Ok(Bytes { data: self.data.clone(), start: r.start, end: r.end })
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the buffer so
    /// the caller copies it once, into whatever owns it.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] on truncation or invalid UTF-8.
    pub fn read_str(&mut self) -> Result<&str, VmError> {
        let n = self.read_varint()?;
        let r = self.take(self.fits(n, 1)?)?;
        std::str::from_utf8(&self.data[r]).map_err(|_| bad("invalid utf8".to_string()))
    }

    /// Require that everything has been read.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] if bytes remain after `what`.
    pub fn finish(&self, what: &str) -> Result<(), VmError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(bad(format!("{} trailing bytes after {what}", self.len())))
        }
    }

    /// `n` elements of at least `elem_bytes` (> 0) bytes each must still
    /// fit: the one bound every length read from the wire passes before
    /// anything is allocated for it.
    #[inline]
    fn fits(&self, n: u64, elem_bytes: usize) -> Result<usize, VmError> {
        match usize::try_from(n) {
            Ok(n) if n <= self.len() / elem_bytes => Ok(n),
            _ => Err(bad(format!(
                "{n} elements of {elem_bytes} bytes do not fit the {} bytes left",
                self.len()
            ))),
        }
    }

    /// Consume the next `n` bytes; returns their range in `data`.
    #[inline]
    fn take(&mut self, n: usize) -> Result<std::ops::Range<usize>, VmError> {
        if self.len() < n {
            return Err(truncated());
        }
        let r = self.start..self.start + n;
        self.start = r.end;
        Ok(r)
    }

    /// Consume the next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], VmError> {
        let r = self.take(N)?;
        Ok(self.data[r].try_into().expect("take(N) yields N bytes"))
    }

    /// A shared-storage sub-view of the unread bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of bounds");
        Bytes { data: self.data.clone(), start: self.start + lo, end: self.start + hi }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: v.into(), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// A growable write buffer, frozen into [`Bytes`] when complete.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(n: usize) -> BytesMut {
        BytesMut { buf: Vec::with_capacity(n) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Append a slice.
    pub fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Append a flag byte (0 or 1).
    pub fn put_bool(&mut self, b: bool) {
        self.put_u8(u8::from(b));
    }

    /// Append an LEB128 varint, shortest form.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.put_u8(byte);
                return;
            }
            self.put_u8(byte | 0x80);
        }
    }

    /// Append a signed integer, zigzag-mapped so small magnitudes stay
    /// small.
    pub fn put_zigzag(&mut self, v: i64) {
        self.put_varint(zigzag(v));
    }

    /// Append a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a fixed-width little-endian `u16`.
    pub fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a fixed-width little-endian `u32`.
    pub fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a fixed-width little-endian `u64`.
    pub fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a counted sequence: the length, then `put` per element.
    pub fn put_seq<T>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        mut put: impl FnMut(&mut BytesMut, T),
    ) {
        self.put_varint(items.len() as u64);
        for item in items {
            put(self, item);
        }
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, s: &[u8]) {
        self.put_varint(s.len() as u64);
        self.put_slice(s);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Freeze into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> BytesMut {
        BytesMut { buf: s.to_vec() }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_freeze_read_round_trip() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(7);
        w.put_bool(true);
        w.put_f64(2.5);
        w.put_zigzag(-654_321);
        w.put_str("héllo");
        w.put_bytes(b"abc");
        w.put_u16_le(0xBEEF);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(u64::MAX - 1);
        assert_eq!(&w[w.len() - 14..w.len() - 12], &[0xEF, 0xBE], "little-endian");
        let mut r = w.freeze();
        assert_eq!(r.read_u8(), Ok(7));
        assert_eq!(r.read_bool(), Ok(true));
        assert_eq!(r.read_f64(), Ok(2.5));
        assert_eq!(r.read_zigzag(), Ok(-654_321));
        assert_eq!(r.read_str(), Ok("héllo"));
        let before = r.clone();
        let tail = r.read_bytes().unwrap();
        assert_eq!(&*tail, b"abc");
        assert!(Arc::ptr_eq(&tail.data, &before.data), "read_bytes shares storage");
        assert_eq!(r.read_u16_le(), Ok(0xBEEF));
        assert_eq!(r.read_u32_le(), Ok(0xDEAD_BEEF));
        assert_eq!(r.read_u64_le(), Ok(u64::MAX - 1));
        assert_eq!(r.finish("test"), Ok(()));
        assert!(before.finish("test").is_err());
    }

    #[test]
    fn slices_share_storage_and_compare_by_content() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let mid = b.slice(1..4);
        assert_eq!(&*mid, &[2, 3, 4]);
        assert_eq!(mid, Bytes::from(vec![2u8, 3, 4]));
        // Slicing after partial reads is relative to the unread view.
        let mut r = b.clone();
        r.read_u8().unwrap();
        r.read_u8().unwrap();
        assert_eq!(&*r.slice(..2), &[3, 4]);
    }

    #[test]
    fn empty_buffer_behaves() {
        let b = Bytes::new();
        assert!(b.is_empty());
        assert_eq!(b, Bytes::from(Vec::new()));
    }

    #[test]
    fn reads_past_the_end_are_errors() {
        assert!(Bytes::new().read_u8().is_err());
        assert!(Bytes::from(vec![0u8; 7]).read_f64().is_err());
        assert!(Bytes::from(vec![0u8; 1]).read_u16_le().is_err());
        assert!(Bytes::from(vec![0u8; 3]).read_u32_le().is_err());
        assert!(Bytes::from(vec![0u8; 7]).read_u64_le().is_err());
        // A view ends where it was sliced, not where its storage ends.
        let mut view = Bytes::from(vec![1u8, 2, 3]).slice(..1);
        assert_eq!(view.read_u8(), Ok(1));
        assert!(view.read_u8().is_err());
        assert!(Bytes::from(vec![3u8, b'a', b'b']).read_bytes().is_err());
        assert!(Bytes::from(vec![2u8, 0xff, 0xfe]).read_str().is_err(), "invalid utf8");
    }

    #[test]
    fn flags_and_tags_are_strict() {
        assert!(Bytes::from(vec![2u8]).read_bool().is_err());
        assert_eq!(Bytes::from(vec![1u8]).read_tag("t", &['a', 'b']), Ok('b'));
        assert!(Bytes::from(vec![2u8]).read_tag("t", &['a', 'b']).is_err());
    }

    #[test]
    fn varints_round_trip_minimal_and_in_width() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::from(u32::MAX), u64::MAX] {
            let mut w = BytesMut::new();
            w.put_varint(v);
            assert_eq!(w.freeze().read_varint(), Ok(v));
        }
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 123_456] {
            let mut w = BytesMut::new();
            w.put_zigzag(v);
            assert_eq!(w.freeze().read_zigzag(), Ok(v));
        }
        // 5 padded to two bytes, 0 padded to two bytes, and an eleventh
        // group: all values `put_varint` writes shorter.
        for padded in [&[0x85u8, 0x00][..], &[0x80, 0x00], &[0xff; 11]] {
            assert!(Bytes::from(padded).read_varint().is_err(), "{padded:?}");
        }
        let wide = |v: u64| {
            let mut w = BytesMut::new();
            w.put_varint(v);
            w.freeze()
        };
        assert_eq!(wide(0xffff).read_u16(), Ok(0xffff));
        assert!(wide(0x1_0005).read_u16().is_err(), "must not truncate to 5");
        assert_eq!(wide(0xffff_ffff).read_u32(), Ok(0xffff_ffff));
        assert!(wide(0x1_0000_0005).read_u32().is_err());
    }

    #[test]
    fn counts_are_bounded_by_cap_and_by_remaining() {
        let buf = |n: u64, tail: usize| {
            let mut w = BytesMut::new();
            w.put_varint(n);
            w.put_slice(&vec![0u8; tail]);
            w.freeze()
        };
        assert_eq!(buf(3, 3).read_count(8), Ok(3));
        assert!(buf(9, 16).read_count(8).is_err(), "over the cap");
        assert!(buf(4, 3).read_count(8).is_err(), "more elements than bytes");
        assert!(buf(u64::MAX, 3).read_count(usize::MAX).is_err());
        assert_eq!(buf(0, 16).slice(1..).read_f64s(2).map(|v| v.len()), Ok(2));
        assert!(buf(0, 15).slice(1..).read_f64s(2).is_err());
        assert!(buf(0, 15).slice(1..).read_f64s(u64::MAX).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1u8]).slice(..5);
    }
}
