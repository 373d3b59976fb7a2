//! Golden constants pinning the on-disk format.
//!
//! Every value below was captured from the commit *before* the page service
//! path was rebuilt (fast CRC-32, shared page frames, single stamp per
//! write). The bytes a store holds are bit-identical across that change, so
//! a directory written by the older code opens and verifies unchanged; if
//! one of these constants moves, the format moved.

use odyssey_geom::{Aabb, DatasetId, ObjectId, SpatialObject, Vec3};
use odyssey_storage::page::PAGE_CHECKSUM_OFFSET;
use odyssey_storage::{
    crc32, DiskFile, Manifest, ManifestFileEntry, MetaWal, Page, OBJECTS_PER_PAGE, PAGE_SIZE,
};

fn checksum_slot(page: &Page) -> u32 {
    let slot = &page.as_bytes()[PAGE_CHECKSUM_OFFSET..PAGE_CHECKSUM_OFFSET + 4];
    u32::from_le_bytes(slot.try_into().unwrap())
}

fn fixed_objects() -> Vec<SpatialObject> {
    (0..OBJECTS_PER_PAGE as u64)
        .map(|i| {
            let lo = Vec3::new(i as f64 * 0.5, 100.0 - i as f64, (i * i) as f64 / 7.0);
            SpatialObject::new(
                ObjectId(i * 1_000_003 + 17),
                DatasetId((i % 11) as u16),
                Aabb::from_min_max(lo, lo + Vec3::new(1.25, 2.5, 0.125)),
            )
        })
        .collect()
}

#[test]
fn page_checksums_are_pinned() {
    let empty = Page::empty();
    assert_eq!(checksum_slot(&empty), 0x658F_D8C8);
    assert_eq!(crc32(empty.as_bytes()), 0x43BC_F583);
    assert!(empty.verify_checksum());

    let full = Page::from_objects(&fixed_objects()).unwrap();
    assert_eq!(checksum_slot(&full), 0x618B_4767);
    assert_eq!(crc32(full.as_bytes()), 0x9097_4AFD);
    assert!(full.verify_checksum());

    let partial = Page::from_objects(&fixed_objects()[..5]).unwrap();
    assert_eq!(checksum_slot(&partial), 0x5E25_537A);
}

#[test]
fn wal_image_is_pinned() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("wal.sowl");
    let wal = MetaWal::create(Box::new(DiskFile::create(&path).unwrap()), 42).unwrap();
    let record: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
    wal.append(&record).unwrap();
    // A second record that spans a page boundary.
    let long: Vec<u8> = (0..5000u32).map(|i| (i % 253) as u8).collect();
    wal.append(&long).unwrap();
    drop(wal);
    let image = std::fs::read(&path).unwrap();
    assert_eq!(image.len(), 3 * PAGE_SIZE);
    // Header page: magic, version 1, epoch, CRC of the first 16 bytes.
    assert_eq!(&image[..4], b"SOWL");
    assert_eq!(image[4..8], 1u32.to_le_bytes());
    assert_eq!(image[8..16], 42u64.to_le_bytes());
    assert_eq!(image[16..20], 0x05BB_F4DFu32.to_le_bytes());
    // First frame: magic ∥ length ∥ crc32(payload) ∥ payload.
    let frame = &image[PAGE_SIZE..];
    assert_eq!(frame[..4], 0x57A1_5EC5u32.to_le_bytes());
    assert_eq!(frame[4..8], 200u32.to_le_bytes());
    assert_eq!(frame[8..12], 0x0FF1_6903u32.to_le_bytes());
    assert_eq!(&frame[12..212], &record[..]);
    assert_eq!(crc32(&image), 0x5554_26A0);
}

#[test]
fn manifest_image_is_pinned() {
    let manifest = Manifest {
        epoch: 9,
        file_slots: 4,
        files: vec![
            ManifestFileEntry {
                id: 0,
                name: "raw_ds0".into(),
                pages: 12,
            },
            ManifestFileEntry {
                id: 3,
                name: "odyssey_ds1".into(),
                pages: 345,
            },
        ],
        payload: (0..1000u32).map(|i| (i * 31 % 251) as u8).collect(),
    };
    let image = manifest.encode();
    assert_eq!(&image[..4], b"SOMF");
    assert_eq!(image[4..8], 2u32.to_le_bytes());
    let (body, trailer) = image.split_at(image.len() - 4);
    assert_eq!(trailer, 0xCFE1_0F6Au32.to_le_bytes());
    assert_eq!(crc32(body), 0xCFE1_0F6A);
    assert_eq!(Manifest::decode(&image).unwrap(), manifest);
}
