//! The 4 KB page and its fixed-size object-record codec.
//!
//! The paper sets the disk page size to 4 KB; every index implementation in
//! this repository stores spatial objects in pages of that size. An object
//! record is 64 bytes (id, dataset id, MBR), so a page holds up to 63 records
//! after a 16-byte header.
//!
//! Header layout: bytes 0..4 magic, 4..6 record count, 6..12 reserved,
//! 12..16 a CRC-32 of the rest of the page ([`PAGE_CHECKSUM_OFFSET`]). The
//! checksum is owned by the [`crate::StorageManager`]: every page is stamped
//! exactly once on its way to the device and verified on every device read,
//! surfacing [`StorageError::CorruptPage`] on a mismatch. Code that builds
//! pages by hand only has to leave the slot alone.
//!
//! # Shared frames
//!
//! A [`Page`] is a handle on a reference-counted 4 KB frame: cloning one is a
//! refcount bump, not a copy, so the buffer pool, an in-memory file and any
//! number of readers can hold the same bytes. Mutation goes through
//! [`Page::as_bytes_mut`], which copies the frame first if anyone else still
//! holds it (copy-on-write) — a reader can never change what the pool or a
//! file has.

use crate::crc::{crc32_finish, crc32_update};
use crate::error::{StorageError, StorageResult};
use odyssey_geom::{Aabb, DatasetId, ObjectId, SpatialObject, Vec3};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;

/// Size of one disk page in bytes (the paper's configuration).
pub const PAGE_SIZE: usize = 4096;

/// Bytes occupied by the page header (record count + reserved space).
pub const PAGE_HEADER_SIZE: usize = 16;

/// Size of one serialized object record in bytes.
pub const RECORD_SIZE: usize = 64;

/// Maximum number of object records stored in one page.
pub const OBJECTS_PER_PAGE: usize = (PAGE_SIZE - PAGE_HEADER_SIZE) / RECORD_SIZE;

/// Byte offset of the page checksum inside the (reserved area of the) page
/// header: bytes 12..16 hold a CRC-32 of every other byte of the page.
pub const PAGE_CHECKSUM_OFFSET: usize = 12;

/// Magic bytes identifying an object page (helps catch corruption in tests).
const PAGE_MAGIC: [u8; 4] = *b"SOPG";

/// Checksum of the empty object page (magic, zero records, zero payload), so
/// [`Page::empty`] — which bulk pre-allocation calls per page — costs no CRC.
/// Part of the on-disk format; the unit tests hold it equal to a computed
/// stamp.
const EMPTY_PAGE_CHECKSUM: u32 = 0x658F_D8C8;

/// Index of a page within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId(pub u64);

impl PageId {
    /// Raw page index.
    #[inline]
    pub fn index(self) -> u64 {
        self.0
    }
}

/// An in-memory image of one disk page: a cheap handle on a shared,
/// copy-on-write frame (see the module docs).
///
/// A page is always exactly [`PAGE_SIZE`] bytes. Helper methods encode and
/// decode object records; raw byte access is available for the few callers
/// (e.g. R-tree node pages) that use their own layout.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    frame: Arc<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("records", &self.record_count().unwrap_or(0))
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::empty()
    }
}

impl Page {
    /// A fresh all-zero frame (no header): the buffer a device read fills.
    pub(crate) fn zeroed() -> Self {
        Page {
            frame: Arc::new([0u8; PAGE_SIZE]),
        }
    }

    /// Creates a zeroed page with a valid, stamped empty-object-page header.
    pub fn empty() -> Self {
        let mut page = Page::zeroed();
        let bytes = page.as_bytes_mut();
        bytes[..4].copy_from_slice(&PAGE_MAGIC);
        bytes[PAGE_CHECKSUM_OFFSET..PAGE_CHECKSUM_OFFSET + 4]
            .copy_from_slice(&EMPTY_PAGE_CHECKSUM.to_le_bytes());
        page
    }

    /// Wraps raw bytes as a page.
    ///
    /// # Panics
    /// Panics if `bytes` is not exactly [`PAGE_SIZE`] long.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        assert_eq!(
            bytes.len(),
            PAGE_SIZE,
            "a page must be exactly {PAGE_SIZE} bytes"
        );
        let mut page = Page::zeroed();
        page.as_bytes_mut().copy_from_slice(&bytes);
        page
    }

    /// Builds a stamped page holding the given object records.
    ///
    /// # Errors
    /// Returns [`StorageError::PageOverflow`] if more than
    /// [`OBJECTS_PER_PAGE`] objects are supplied.
    pub fn from_objects(objects: &[SpatialObject]) -> StorageResult<Self> {
        let mut page = Page::zeroed();
        page.set_objects(objects)?;
        Ok(page)
    }

    /// Re-encodes this page to hold exactly `objects`, stamped — byte for
    /// byte what [`Page::from_objects`] builds. The bulk writers encode run
    /// after run through one scratch page with this: the frame is reused
    /// while nobody else holds it and replaced (not copied) when a file or
    /// the pool kept the previous contents.
    ///
    /// # Errors
    /// Returns [`StorageError::PageOverflow`] (leaving the page untouched) if
    /// more than [`OBJECTS_PER_PAGE`] objects are supplied.
    pub(crate) fn set_objects(&mut self, objects: &[SpatialObject]) -> StorageResult<()> {
        if objects.len() > OBJECTS_PER_PAGE {
            return Err(StorageError::PageOverflow {
                requested: objects.len(),
                capacity: OBJECTS_PER_PAGE,
            });
        }
        if Arc::get_mut(&mut self.frame).is_none() {
            *self = Page::zeroed();
        }
        let bytes = self.as_bytes_mut();
        bytes[..4].copy_from_slice(&PAGE_MAGIC);
        bytes[4..6].copy_from_slice(&(objects.len() as u16).to_le_bytes());
        bytes[6..PAGE_HEADER_SIZE].fill(0);
        let (records, unused) = bytes[PAGE_HEADER_SIZE..].split_at_mut(objects.len() * RECORD_SIZE);
        for (obj, buf) in objects.iter().zip(records.chunks_exact_mut(RECORD_SIZE)) {
            encode_record(obj, buf);
        }
        unused.fill(0);
        self.stamp_checksum();
        Ok(())
    }

    /// Raw byte view of the page.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.frame[..]
    }

    /// Mutable raw byte view of the page. If the frame is shared (the buffer
    /// pool, a file or another handle holds it too) it is copied first, so
    /// the other holders keep the bytes they had.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut Arc::make_mut(&mut self.frame)[..]
    }

    /// Number of object records stored in the page.
    ///
    /// # Errors
    /// Returns [`StorageError::Corrupt`] if the header is not an object page
    /// header or the count exceeds the page capacity.
    pub fn record_count(&self) -> StorageResult<usize> {
        if self.frame[..4] != PAGE_MAGIC {
            return Err(StorageError::Corrupt("missing object-page magic".into()));
        }
        let count = u16::from_le_bytes([self.frame[4], self.frame[5]]) as usize;
        if count > OBJECTS_PER_PAGE {
            return Err(StorageError::Corrupt(format!(
                "record count {count} exceeds page capacity {OBJECTS_PER_PAGE}"
            )));
        }
        Ok(count)
    }

    /// CRC-32 of the page contents, excluding the checksum slot itself.
    fn content_checksum(&self) -> u32 {
        let state = crc32_update(0xFFFF_FFFF, &self.frame[..PAGE_CHECKSUM_OFFSET]);
        crc32_finish(crc32_update(state, &self.frame[PAGE_CHECKSUM_OFFSET + 4..]))
    }

    fn stored_checksum(&self) -> u32 {
        let f = &self.frame;
        u32::from_le_bytes([
            f[PAGE_CHECKSUM_OFFSET],
            f[PAGE_CHECKSUM_OFFSET + 1],
            f[PAGE_CHECKSUM_OFFSET + 2],
            f[PAGE_CHECKSUM_OFFSET + 3],
        ])
    }

    fn set_stored_checksum(&mut self, crc: u32) {
        self.as_bytes_mut()[PAGE_CHECKSUM_OFFSET..PAGE_CHECKSUM_OFFSET + 4]
            .copy_from_slice(&crc.to_le_bytes());
    }

    /// Writes the content checksum into the header's checksum slot. Pages
    /// built by [`Page::empty`] and [`Page::from_objects`] arrive stamped;
    /// the storage manager restamps a hand-mutated page on its write paths.
    pub fn stamp_checksum(&mut self) {
        let crc = self.content_checksum();
        self.set_stored_checksum(crc);
    }

    /// This page with a valid checksum — itself when the slot already
    /// matches, a restamped copy when it was mutated by hand — for one CRC
    /// either way.
    pub(crate) fn stamped(&self) -> Cow<'_, Page> {
        let crc = self.content_checksum();
        if self.stored_checksum() == crc {
            Cow::Borrowed(self)
        } else {
            let mut page = self.clone();
            page.set_stored_checksum(crc);
            Cow::Owned(page)
        }
    }

    /// Verifies the stored checksum against the page contents.
    pub fn verify_checksum(&self) -> bool {
        self.stored_checksum() == self.content_checksum()
    }

    /// Decodes every object record stored in the page.
    pub fn objects(&self) -> StorageResult<Vec<SpatialObject>> {
        let mut out = Vec::new();
        self.objects_into(&mut out)?;
        Ok(out)
    }

    /// Decodes the records of the page directly into `out`, avoiding an
    /// intermediate allocation on hot read paths.
    pub fn objects_into(&self, out: &mut Vec<SpatialObject>) -> StorageResult<usize> {
        let count = self.record_count()?;
        out.reserve(count);
        let records = &self.frame[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + count * RECORD_SIZE];
        for buf in records.chunks_exact(RECORD_SIZE) {
            out.push(decode_record(buf)?);
        }
        Ok(count)
    }
}

fn encode_record(obj: &SpatialObject, buf: &mut [u8]) {
    debug_assert_eq!(buf.len(), RECORD_SIZE);
    buf[0..8].copy_from_slice(&obj.id.0.to_le_bytes());
    buf[8..10].copy_from_slice(&obj.dataset.0.to_le_bytes());
    // bytes 10..16 reserved.
    let mut off = 16;
    for v in [
        obj.mbr.min.x,
        obj.mbr.min.y,
        obj.mbr.min.z,
        obj.mbr.max.x,
        obj.mbr.max.y,
        obj.mbr.max.z,
    ] {
        buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
        off += 8;
    }
}

fn decode_record(buf: &[u8]) -> StorageResult<SpatialObject> {
    debug_assert_eq!(buf.len(), RECORD_SIZE);
    let id = u64::from_le_bytes(buf[0..8].try_into().expect("record id slice")); // analyzer: allow(fixed-width slice of a RECORD_SIZE buffer)
    let dataset = u16::from_le_bytes(buf[8..10].try_into().expect("record dataset slice")); // analyzer: allow(fixed-width slice of a RECORD_SIZE buffer)
    let mut vals = [0f64; 6];
    for (i, v) in vals.iter_mut().enumerate() {
        let off = 16 + i * 8;
        // analyzer: allow(fixed-width slice of a RECORD_SIZE buffer)
        *v = f64::from_le_bytes(buf[off..off + 8].try_into().expect("record float slice"));
    }
    let min = Vec3::new(vals[0], vals[1], vals[2]);
    let max = Vec3::new(vals[3], vals[4], vals[5]);
    if !(min.is_finite() && max.is_finite()) {
        return Err(StorageError::Corrupt("non-finite MBR in record".into()));
    }
    Ok(SpatialObject::new(
        ObjectId(id),
        DatasetId(dataset),
        Aabb::from_min_max(min, max),
    ))
}

/// Packs a slice of objects into as many pages as needed, filling each page
/// to capacity in order.
pub fn pack_objects(objects: &[SpatialObject]) -> Vec<Page> {
    objects
        .chunks(OBJECTS_PER_PAGE)
        .map(|chunk| Page::from_objects(chunk).expect("chunk size bounded by OBJECTS_PER_PAGE")) // analyzer: allow(chunk len is bounded by OBJECTS_PER_PAGE)
        .collect()
}

/// Number of pages needed to store `n` objects.
#[inline]
pub fn pages_needed(n: usize) -> u64 {
    (n as u64).div_ceil(OBJECTS_PER_PAGE as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(id: u64, ds: u16, lo: f64, hi: f64) -> SpatialObject {
        SpatialObject::new(
            ObjectId(id),
            DatasetId(ds),
            Aabb::from_min_max(Vec3::splat(lo), Vec3::splat(hi)),
        )
    }

    #[test]
    fn layout_constants_are_consistent() {
        assert_eq!(PAGE_SIZE, 4096);
        assert_eq!(OBJECTS_PER_PAGE, 63);
        const { assert!(PAGE_HEADER_SIZE + OBJECTS_PER_PAGE * RECORD_SIZE <= PAGE_SIZE) };
    }

    #[test]
    fn empty_page_has_zero_records() {
        let p = Page::empty();
        assert_eq!(p.record_count().unwrap(), 0);
        assert!(p.objects().unwrap().is_empty());
        assert_eq!(p.as_bytes().len(), PAGE_SIZE);
    }

    #[test]
    fn roundtrip_objects() {
        let objs: Vec<_> = (0..OBJECTS_PER_PAGE as u64)
            .map(|i| obj(i, (i % 5) as u16, i as f64, i as f64 + 1.0))
            .collect();
        let page = Page::from_objects(&objs).unwrap();
        assert_eq!(page.record_count().unwrap(), OBJECTS_PER_PAGE);
        assert_eq!(page.objects().unwrap(), objs);
    }

    #[test]
    fn overflow_is_detected() {
        let objs: Vec<_> = (0..OBJECTS_PER_PAGE as u64 + 1)
            .map(|i| obj(i, 0, 0.0, 1.0))
            .collect();
        assert!(matches!(
            Page::from_objects(&objs),
            Err(StorageError::PageOverflow { .. })
        ));
    }

    #[test]
    fn corrupt_magic_detected() {
        let mut p = Page::from_objects(&[obj(1, 2, 0.0, 1.0)]).unwrap();
        p.as_bytes_mut()[0] = b'X';
        assert!(matches!(p.record_count(), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn corrupt_count_detected() {
        let mut p = Page::empty();
        p.as_bytes_mut()[4..6].copy_from_slice(&1000u16.to_le_bytes());
        assert!(matches!(p.record_count(), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn corrupt_float_detected() {
        let mut p = Page::from_objects(&[obj(1, 2, 0.0, 1.0)]).unwrap();
        // Overwrite the MBR with NaN bits.
        let nan = f64::NAN.to_le_bytes();
        p.as_bytes_mut()[PAGE_HEADER_SIZE + 16..PAGE_HEADER_SIZE + 24].copy_from_slice(&nan);
        assert!(p.objects().is_err());
    }

    #[test]
    fn bytes_roundtrip() {
        let objs = vec![obj(7, 3, -1.0, 2.5)];
        let page = Page::from_objects(&objs).unwrap();
        let restored = Page::from_bytes(page.as_bytes().to_vec());
        assert_eq!(restored.objects().unwrap(), objs);
        assert_eq!(restored, page);
    }

    #[test]
    #[should_panic(expected = "exactly")]
    fn wrong_size_bytes_panics() {
        let _ = Page::from_bytes(vec![0u8; 100]);
    }

    #[test]
    fn pack_objects_splits_into_pages() {
        let objs: Vec<_> = (0..150u64).map(|i| obj(i, 0, 0.0, 1.0)).collect();
        let pages = pack_objects(&objs);
        assert_eq!(pages.len(), 3);
        let total: usize = pages.iter().map(|p| p.record_count().unwrap()).sum();
        assert_eq!(total, 150);
        // Order is preserved.
        let mut all = Vec::new();
        for p in &pages {
            p.objects_into(&mut all).unwrap();
        }
        assert_eq!(all, objs);
    }

    #[test]
    fn pages_needed_math() {
        assert_eq!(pages_needed(0), 0);
        assert_eq!(pages_needed(1), 1);
        assert_eq!(pages_needed(OBJECTS_PER_PAGE), 1);
        assert_eq!(pages_needed(OBJECTS_PER_PAGE + 1), 2);
        assert_eq!(pages_needed(10 * OBJECTS_PER_PAGE), 10);
    }

    #[test]
    fn objects_into_appends() {
        let p1 = Page::from_objects(&[obj(1, 0, 0.0, 1.0)]).unwrap();
        let p2 = Page::from_objects(&[obj(2, 0, 0.0, 1.0)]).unwrap();
        let mut out = Vec::new();
        p1.objects_into(&mut out).unwrap();
        p2.objects_into(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, ObjectId(1));
        assert_eq!(out[1].id, ObjectId(2));
    }

    #[test]
    fn checksum_stamp_and_verify() {
        // Freshly built pages are stamped.
        assert!(Page::empty().verify_checksum());
        let mut p = Page::from_objects(&[obj(1, 2, 0.0, 1.0)]).unwrap();
        assert!(p.verify_checksum());
        // Any mutation invalidates until restamped — including mutations of
        // the reserved header bytes outside the checksum slot.
        p.as_bytes_mut()[PAGE_HEADER_SIZE + 3] ^= 0x40;
        assert!(!p.verify_checksum());
        p.stamp_checksum();
        assert!(p.verify_checksum());
        p.as_bytes_mut()[6] ^= 0x01;
        assert!(!p.verify_checksum());
        // Corrupting the slot itself is also detected.
        p.stamp_checksum();
        p.as_bytes_mut()[PAGE_CHECKSUM_OFFSET] ^= 0xFF;
        assert!(!p.verify_checksum());
    }

    #[test]
    fn empty_page_constant_matches_a_computed_stamp() {
        let empty = Page::empty();
        let mut restamped = empty.clone();
        restamped.stamp_checksum();
        assert_eq!(restamped, empty);
        // An empty page is what encoding zero objects produces.
        assert_eq!(Page::from_objects(&[]).unwrap(), empty);
    }

    #[test]
    fn clones_share_a_frame_until_one_is_written() {
        let original = Page::from_objects(&[obj(1, 2, 0.0, 1.0)]).unwrap();
        let mut copy = original.clone();
        assert!(std::ptr::eq(original.as_bytes(), copy.as_bytes()));
        copy.as_bytes_mut()[PAGE_HEADER_SIZE] ^= 0xFF;
        assert!(!std::ptr::eq(original.as_bytes(), copy.as_bytes()));
        assert!(original.verify_checksum(), "the other holder is untouched");
        assert_ne!(copy, original);
        assert!(!copy.verify_checksum());
    }

    #[test]
    fn set_objects_rebuilds_exactly_what_from_objects_builds() {
        let full: Vec<_> = (0..OBJECTS_PER_PAGE as u64)
            .map(|i| obj(i, 3, i as f64, i as f64 + 2.0))
            .collect();
        // Whatever the scratch page held — more records, fewer, garbage in
        // the reserved header bytes — the result is byte-identical.
        let mut scratch = Page::from_objects(&full).unwrap();
        scratch.as_bytes_mut()[7] = 0xEE;
        for n in [5usize, 0, OBJECTS_PER_PAGE, 1] {
            scratch.set_objects(&full[..n]).unwrap();
            assert_eq!(scratch, Page::from_objects(&full[..n]).unwrap(), "{n}");
            assert!(scratch.verify_checksum());
        }
        // A holder of the previous contents keeps them.
        let kept = scratch.clone();
        scratch.set_objects(&full[..9]).unwrap();
        assert_eq!(kept.record_count().unwrap(), 1);
        assert_eq!(scratch.record_count().unwrap(), 9);
        // Overflow leaves the page as it was.
        let too_many: Vec<_> = (0..=OBJECTS_PER_PAGE as u64)
            .map(|i| obj(i, 0, 0.0, 1.0))
            .collect();
        assert!(scratch.set_objects(&too_many).is_err());
        assert_eq!(scratch.record_count().unwrap(), 9);
    }

    #[test]
    fn debug_format_shows_record_count() {
        let p = Page::from_objects(&[obj(1, 0, 0.0, 1.0), obj(2, 0, 0.0, 1.0)]).unwrap();
        assert!(format!("{p:?}").contains('2'));
    }
}
