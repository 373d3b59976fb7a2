//! Inputs and the ground they are checked on: seeded datasets, the store
//! directory, answer checksums and the brute-force oracle.

use odyssey_core::{OdysseyConfig, SpaceOdyssey};
use odyssey_datagen::{BrainModel, DatasetSpec};
use odyssey_geom::{scan_any_query, Aabb, DatasetId, KnnQuery, Query, QueryAnswer, SpatialObject};
use odyssey_storage::{
    pages_needed, write_raw_dataset, RawDataset, StorageManager, StorageOptions, StorageResult,
    PAGE_SIZE,
};
use std::path::{Path, PathBuf};

/// The generated datasets of one run.
#[derive(Debug)]
pub struct Data {
    pub bounds: Aabb,
    pub datasets: Vec<Vec<SpatialObject>>,
}

impl Data {
    pub fn generate(datasets: usize, objects_per_dataset: usize, seed: u64) -> Data {
        let model = BrainModel::new(DatasetSpec::with_size(datasets, objects_per_dataset, seed));
        Data {
            bounds: model.bounds(),
            datasets: model.generate_all(),
        }
    }

    pub fn objects(&self) -> u64 {
        self.datasets.iter().map(|d| d.len() as u64).sum()
    }

    /// Pages the raw files of these datasets occupy.
    pub fn raw_pages(&self) -> u64 {
        self.datasets.iter().map(|d| pages_needed(d.len())).sum()
    }
}

/// Bytes a user handed over: densely packed 4 KiB pages of `objects`.
pub fn user_bytes(objects: u64) -> u64 {
    pages_needed(objects as usize) * PAGE_SIZE as u64
}

/// A fresh durable store in `dir` holding the raw files of `datasets`, and
/// the engine over it, exactly as a first-time user gets them:
/// `OdysseyConfig::paper` unchanged, cold buffer pool.
pub fn build_store(
    dir: &Path,
    bounds: Aabb,
    datasets: &[Vec<SpatialObject>],
    buffer_pages: usize,
) -> StorageResult<(StorageManager, SpaceOdyssey)> {
    let storage = StorageManager::create(StorageOptions::durable(dir, buffer_pages))?;
    let raws = datasets
        .iter()
        .enumerate()
        .map(|(i, objects)| write_raw_dataset(&storage, DatasetId(i as u16), objects))
        .collect::<StorageResult<Vec<RawDataset>>>()?;
    let engine = SpaceOdyssey::create(OdysseyConfig::paper(bounds), raws, &storage)?;
    storage.clear_cache();
    Ok((storage, engine))
}

/// Where the store directories of this process live; removed on drop.
#[derive(Debug)]
pub struct StoreRoot {
    dir: PathBuf,
}

impl StoreRoot {
    /// `<base>/odyssey-benchmark-<pid>`, so concurrent runs (the crate's own
    /// tests) never share a directory.
    pub fn create(base: &Path) -> std::io::Result<StoreRoot> {
        let dir = base.join(format!("odyssey-benchmark-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(StoreRoot { dir })
    }

    /// The first of `bases` a root can be created under.
    pub fn create_in_first(bases: &[PathBuf]) -> std::io::Result<StoreRoot> {
        let mut last = std::io::Error::other("no store base given");
        for base in bases {
            match StoreRoot::create(base) {
                Ok(root) => return Ok(root),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Filesystem type of the root, from `/proc/mounts` (longest mount-point
    /// prefix); "unknown" when that cannot be read.
    pub fn filesystem(&self) -> String {
        let dir = self.dir.canonicalize().unwrap_or_else(|_| self.dir.clone());
        let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
        mounts
            .lines()
            .filter_map(|line| {
                let mut parts = line.split_whitespace();
                let (_, point, fs) = (parts.next()?, parts.next()?, parts.next()?);
                dir.starts_with(point)
                    .then(|| (point.len(), fs.to_string()))
            })
            .max_by_key(|(len, _)| *len)
            .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
    }
}

impl Drop for StoreRoot {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and replaced
        // by the next run with the same pid.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Bytes of every regular file directly inside `dir` (stores are flat).
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Replaces `dst` with a copy of the flat directory `src`.
pub fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    if dst.exists() {
        std::fs::remove_dir_all(dst)?;
    }
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// `VmHWM` of this process in MB (0 where `/proc` does not say).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// Order-insensitive sum over the identities of `objects`.
pub fn objects_sum(objects: &[SpatialObject]) -> u64 {
    objects
        .iter()
        .map(|o| mix(o.id.0 ^ (u64::from(o.dataset.0) << 48)))
        .fold(0, u64::wrapping_add)
}

/// Order-insensitive checksum of an answer: which objects, and how many.
pub fn answer_checksum(objects: &[SpatialObject], count: u64) -> u64 {
    mix(count).wrapping_add(objects_sum(objects))
}

/// The objects a kNN answer can come from: those of the queried datasets no
/// farther than the k-th nearest (ties included). The oracle sorts whatever
/// it is given, which over whole datasets costs more than every other kind
/// of query together; over this subset its answer is the same.
fn knn_candidates<'a, I>(query: &KnnQuery, objects: I) -> Vec<&'a SpatialObject>
where
    I: IntoIterator<Item = &'a SpatialObject>,
{
    let mut near: Vec<(f64, &SpatialObject)> = objects
        .into_iter()
        .filter(|o| query.datasets.contains(o.dataset))
        .map(|o| (query.distance_squared(o), o))
        .collect();
    if query.k > 0 && near.len() > query.k {
        let (_, kth, _) = near.select_nth_unstable_by(query.k - 1, |a, b| a.0.total_cmp(&b.0));
        let radius = kth.0;
        near.retain(|(d, _)| *d <= radius);
    }
    near.into_iter().map(|(_, o)| o).collect()
}

/// The checksum the brute-force oracle gives `query` over `objects`.
pub fn oracle_checksum<'a, I>(query: &Query, objects: I) -> u64
where
    I: IntoIterator<Item = &'a SpatialObject>,
{
    let answer = match query {
        Query::KNearestNeighbors(knn) => scan_any_query(query, knn_candidates(knn, objects)),
        _ => scan_any_query(query, objects),
    };
    match answer {
        QueryAnswer::Objects(objects) => answer_checksum(&objects, objects.len() as u64),
        QueryAnswer::Count(n) => answer_checksum(&[], n),
    }
}

/// Oracle checksums of a whole query list over static data.
pub fn oracle_checksums(queries: &[Query], data: &Data) -> Vec<u64> {
    queries
        .iter()
        .map(|q| oracle_checksum(q, data.datasets.iter().flatten()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_geom::{ObjectId, Vec3};

    fn obj(id: u64, ds: u16) -> SpatialObject {
        SpatialObject::new(
            ObjectId(id),
            DatasetId(ds),
            Aabb::from_min_max(Vec3::ZERO, Vec3::splat(1.0)),
        )
    }

    #[test]
    fn checksum_ignores_order_but_not_content() {
        let a = [obj(1, 0), obj(2, 0), obj(1, 1)];
        let b = [obj(1, 1), obj(1, 0), obj(2, 0)];
        assert_eq!(answer_checksum(&a, 3), answer_checksum(&b, 3));
        assert_ne!(answer_checksum(&a, 3), answer_checksum(&a[..2], 2));
        assert_ne!(answer_checksum(&[], 3), answer_checksum(&[], 4));
        assert_ne!(
            answer_checksum(&[obj(1, 0)], 1),
            answer_checksum(&[obj(1, 1)], 1)
        );
    }

    #[test]
    fn pruned_knn_oracle_equals_the_full_one() {
        let data = Data::generate(2, 400, 9);
        let probe = data.datasets[0][17].mbr.center();
        for k in [0, 1, 8, 399, 2000] {
            let knn = KnnQuery::new(
                odyssey_geom::QueryId(0),
                probe,
                k,
                odyssey_geom::DatasetSet::first_n(2),
            );
            let all = data.datasets.iter().flatten();
            let full = odyssey_geom::scan_knn_query(&knn, all.clone());
            let pruned = odyssey_geom::scan_knn_query(&knn, knn_candidates(&knn, all));
            assert_eq!(full, pruned, "k = {k}");
        }
    }

    #[test]
    fn user_bytes_rounds_up_to_pages() {
        assert_eq!(user_bytes(1), PAGE_SIZE as u64);
        assert_eq!(user_bytes(0), 0);
    }
}
