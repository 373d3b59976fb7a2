//! Micro-probes of the storage layers, run once per traced run on a scratch
//! durable store: each times one public call in a loop, from outside.

use crate::data::Data;
use crate::spec::WORLD_SEED;
use crate::stats::percentile;
use crate::workloads::{fatal, Fallible};
use odyssey_geom::SpatialObject;
use odyssey_storage::{
    pack_objects, Page, PageId, StorageManager, StorageOptions, OBJECTS_PER_PAGE,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Pages of the probe file; the scratch pool holds all of them.
const PROBE_PAGES: usize = 128;
const HIT_ROUNDS: usize = 40;
const MISS_ROUNDS: usize = 8;
const CODEC_ROUNDS: usize = 20;
const WAL_APPENDS: usize = 200;

/// Fills `out` with the probe metrics, over `PROBE_PAGES` pages of generated
/// objects.
pub fn run(dir: &Path, out: &mut BTreeMap<&'static str, f64>) -> Fallible<()> {
    let data = Data::generate(1, PROBE_PAGES * OBJECTS_PER_PAGE, WORLD_SEED);
    let sample = data.datasets[0].as_slice();
    let pages = pack_objects(sample);
    let storage = StorageManager::create(StorageOptions::durable(dir, 2 * PROBE_PAGES))
        .map_err(fatal("create probe store"))?;
    let file = storage
        .create_file("probe")
        .map_err(fatal("create probe file"))?;
    for page in &pages {
        storage
            .append_page(file, page)
            .map_err(fatal("append probe page"))?;
    }
    storage.sync_file(file).map_err(fatal("sync probe file"))?;
    let read_all = || -> Fallible<()> {
        for p in 0..pages.len() as u64 {
            black_box(
                storage
                    .read_page(file, PageId(p))
                    .map_err(fatal("read probe page"))?,
            );
        }
        Ok(())
    };

    // Resident pages: the buffer pool's hit path.
    read_all()?;
    let start = Instant::now();
    for _ in 0..HIT_ROUNDS {
        read_all()?;
    }
    out.insert(
        "storage.buffer.hit_ns",
        start.elapsed().as_nanos() as f64 / (HIT_ROUNDS * pages.len()) as f64,
    );

    // Dropped pool: file read + CRC check + pool insert (the operating
    // system's cache still holds the bytes).
    let mut miss_seconds = 0.0;
    for _ in 0..MISS_ROUNDS {
        storage.clear_cache();
        let start = Instant::now();
        read_all()?;
        miss_seconds += start.elapsed().as_secs_f64();
    }
    out.insert(
        "storage.file.miss_us",
        miss_seconds * 1e6 / (MISS_ROUNDS * pages.len()) as f64,
    );

    let mut decoded: Vec<SpatialObject> = Vec::with_capacity(sample.len());
    let start = Instant::now();
    for _ in 0..CODEC_ROUNDS {
        decoded.clear();
        for page in &pages {
            page.objects_into(&mut decoded)
                .map_err(fatal("decode probe page"))?;
        }
        black_box(&decoded);
    }
    let per_object = (CODEC_ROUNDS * sample.len()) as f64;
    out.insert(
        "storage.page.decode_ns_per_object",
        start.elapsed().as_nanos() as f64 / per_object,
    );
    let start = Instant::now();
    for _ in 0..CODEC_ROUNDS {
        for chunk in sample.chunks(OBJECTS_PER_PAGE) {
            black_box(Page::from_objects(chunk).map_err(fatal("encode probe page"))?);
        }
    }
    out.insert(
        "storage.page.encode_ns_per_object",
        start.elapsed().as_nanos() as f64 / per_object,
    );

    // One small metadata record per append, durable when the call returns.
    let record = [0xA5u8; 64];
    let mut appends_us = Vec::with_capacity(WAL_APPENDS);
    for _ in 0..WAL_APPENDS {
        let start = Instant::now();
        storage
            .log_meta(&record)
            .map_err(fatal("append probe WAL record"))?;
        appends_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    out.insert("storage.wal.append_us", percentile(&appends_us, 50.0));

    drop(storage);
    std::fs::remove_dir_all(dir).map_err(fatal("remove probe store"))
}
