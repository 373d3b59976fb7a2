//! # odyssey-storage
//!
//! Paged storage substrate for the Space Odyssey reproduction.
//!
//! The paper measures approaches on spinning disks with the OS cache dropped
//! before every query, so the decisive quantities are *how many pages* an
//! approach touches and *whether it touches them sequentially or randomly*.
//! This crate provides exactly that measurement surface:
//!
//! * [`page`] — the 4 KB page and its object-record codec,
//! * [`mod@file`] — paged files with an in-memory and an on-disk backend,
//! * [`stats`] — I/O counters ([`IoStats`]) distinguishing sequential from
//!   random page accesses,
//! * [`cost`] — a deterministic disk [`CostModel`] turning counters into
//!   simulated seconds (the substitution for the paper's SAS disks),
//! * [`buffer`] — a bounded [`BufferPool`] so the configured memory budget is
//!   honoured,
//! * [`manager`] — the [`StorageManager`] façade every index implementation
//!   uses to create files and read/write object pages,
//! * [`crc`] — the shared CRC-32 implementation behind every on-disk
//!   integrity check,
//! * [`manifest`] — the atomically rewritten superblock + file table +
//!   engine-payload root of a durable store,
//! * [`wal`] — the page-granular, checksummed metadata write-ahead log whose
//!   valid prefix recovery replays over the last manifest,
//! * [`fault`] — site-addressable fault injection ([`FaultPlan`]) and the
//!   fault-surface coverage registry behind the `fault-coverage` feature,
//! * [`sync`] — lock-order-aware [`Shared`]/[`Exclusive`] wrappers carrying a
//!   declared [`LockClass`]; every engine lock goes through them so the
//!   canonical acquisition order is machine-checkable (statically by
//!   `odyssey-analyzer`, at runtime under the `lock-order-check` feature).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod codec;
pub mod cost;
pub mod crc;
pub mod error;
pub mod fault;
pub mod file;
pub mod manager;
pub mod manifest;
pub mod page;
pub mod raw;
pub mod stats;
pub mod sync;
pub mod wal;

pub use buffer::BufferPool;
pub use cost::{CostModel, DeviceProfile};
pub use crc::crc32;
pub use error::{StorageError, StorageResult};
pub use fault::{FaultPlan, FaultState, SiteClass};
pub use file::{DiskFile, FaultHookFile, FaultInjectingFile, FileId, MemFile, PagedFile};
pub use manager::{
    DurabilityOptions, FileSpaceStats, RecoveredState, StorageBackend, StorageManager,
    StorageOptions,
};
pub use manifest::{Manifest, ManifestFileEntry, MANIFEST_FILE_NAME};
pub use page::{pack_objects, pages_needed, Page, PageId, OBJECTS_PER_PAGE, PAGE_SIZE};
pub use raw::{append_to_raw_dataset, scan_raw_dataset, write_raw_dataset, RawDataset};
pub use stats::{IoStats, StatsDelta};
pub use sync::{Exclusive, LockClass, Shared};
pub use wal::{MetaWal, WalRecovery, WAL_FILE_NAME};
