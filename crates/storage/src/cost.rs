//! Deterministic disk cost model.
//!
//! The paper runs on two SAS spinning disks and drops the OS cache before
//! every query, so reported times are dominated by disk seeks and sequential
//! transfer. We cannot (and should not) rely on the benchmark machine having
//! the same disk, so the harness replays every approach through an exact page
//! access trace and converts it to seconds with this model. The *shape* of
//! the paper's figures — who pays indexing cost when, who seeks and who
//! scans — is preserved by construction; absolute values depend only on the
//! chosen parameters (see the README's Benchmarks section).

use crate::stats::IoStats;
use serde::{Deserialize, Serialize};

/// Parameters of the simulated disk and CPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Average time for a random access (seek + rotational latency), seconds.
    pub seek_seconds: f64,
    /// Sequential transfer rate in bytes per second.
    pub transfer_bytes_per_second: f64,
    /// CPU time to examine one object record (decode + intersection test),
    /// seconds.
    pub cpu_seconds_per_object_scanned: f64,
    /// CPU time to encode and place one object record when writing, seconds.
    pub cpu_seconds_per_object_written: f64,
    /// Time to serve one page from the buffer pool, seconds (memory copy).
    pub buffer_hit_seconds: f64,
}

impl Default for CostModel {
    /// The spinning-disk profile of [`CostModel::hdd`], matching the paper's
    /// experimental hardware.
    fn default() -> Self {
        CostModel::hdd()
    }
}

impl CostModel {
    /// Parameters approximating the paper's 10k-RPM SAS disks: ~8 ms random
    /// access, ~150 MB/s sequential transfer, and a CPU that examines an
    /// object in ~100 ns.
    pub fn hdd() -> Self {
        CostModel {
            seek_seconds: 8e-3,
            transfer_bytes_per_second: 150.0 * 1024.0 * 1024.0,
            cpu_seconds_per_object_scanned: 100e-9,
            cpu_seconds_per_object_written: 150e-9,
            buffer_hit_seconds: 2e-6,
        }
    }

    /// A cost model for a fast NVMe-class device; useful in tests and for
    /// sensitivity analysis (the paper's conclusions weaken as seeks get
    /// cheaper, which the ablation bench demonstrates).
    pub fn nvme() -> Self {
        CostModel {
            seek_seconds: 80e-6,
            transfer_bytes_per_second: 2.0 * 1024.0 * 1024.0 * 1024.0,
            cpu_seconds_per_object_scanned: 100e-9,
            cpu_seconds_per_object_written: 150e-9,
            buffer_hit_seconds: 2e-6,
        }
    }

    /// Time to transfer one page sequentially.
    #[inline]
    pub fn page_transfer_seconds(&self) -> f64 {
        crate::page::PAGE_SIZE as f64 / self.transfer_bytes_per_second
    }

    /// Converts a set of I/O counters into simulated seconds.
    ///
    /// Sequential accesses pay only the transfer time; random accesses pay a
    /// seek plus the transfer; buffer hits pay a small memory cost; CPU cost
    /// is proportional to the records examined or written.
    pub fn seconds(&self, stats: &IoStats) -> f64 {
        let transfer = self.page_transfer_seconds();
        let read_cost = stats.sequential_reads as f64 * transfer
            + stats.random_reads as f64 * (self.seek_seconds + transfer);
        let write_cost = stats.sequential_writes as f64 * transfer
            + stats.random_writes as f64 * (self.seek_seconds + transfer);
        let buffer_cost = stats.buffer_hits as f64 * self.buffer_hit_seconds;
        let cpu_cost = stats.objects_scanned as f64 * self.cpu_seconds_per_object_scanned
            + stats.objects_written as f64 * self.cpu_seconds_per_object_written;
        read_cost + write_cost + buffer_cost + cpu_cost
    }
}

/// A named device profile selecting the [`CostModel`] constants the engine's
/// access-path planner (and any other consumer) should reason with.
///
/// The planner used to assume one hard-coded device; making the profile part
/// of the engine configuration lets the same binary plan correctly for
/// spinning disks, NVMe flash, or a custom-calibrated device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeviceProfile {
    /// NVMe-class flash: microsecond seeks, multi-GB/s transfer
    /// ([`CostModel::nvme`]).
    Nvme,
    /// 10k-RPM spinning disk, the paper's hardware ([`CostModel::hdd`]).
    Hdd,
    /// Custom constants, e.g. calibrated against a real device.
    Custom(CostModel),
}

impl DeviceProfile {
    /// The cost-model constants of the profile.
    pub fn cost_model(&self) -> CostModel {
        match self {
            DeviceProfile::Nvme => CostModel::nvme(),
            DeviceProfile::Hdd => CostModel::hdd(),
            DeviceProfile::Custom(model) => *model,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceProfile::Nvme => "nvme",
            DeviceProfile::Hdd => "hdd",
            DeviceProfile::Custom(_) => "custom",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parameters_are_sane() {
        let m = CostModel::default();
        assert!(
            m.seek_seconds > 1e-3,
            "spinning disk seeks are milliseconds"
        );
        assert!(m.page_transfer_seconds() < 1e-3);
        assert!(m.page_transfer_seconds() > 0.0);
        // A seek dominates a single-page sequential transfer on spinning disks.
        assert!(m.seek_seconds > 10.0 * m.page_transfer_seconds());
    }

    #[test]
    fn zero_stats_cost_zero() {
        assert_eq!(CostModel::default().seconds(&IoStats::default()), 0.0);
    }

    #[test]
    fn random_reads_cost_more_than_sequential() {
        let m = CostModel::default();
        let seq = IoStats {
            sequential_reads: 100,
            ..Default::default()
        };
        let rand = IoStats {
            random_reads: 100,
            ..Default::default()
        };
        assert!(m.seconds(&rand) > 10.0 * m.seconds(&seq));
    }

    #[test]
    fn cost_is_additive() {
        let m = CostModel::default();
        let a = IoStats {
            sequential_reads: 10,
            random_reads: 5,
            objects_scanned: 100,
            ..Default::default()
        };
        let b = IoStats {
            sequential_writes: 7,
            random_writes: 2,
            objects_written: 50,
            ..Default::default()
        };
        let mut both = a;
        both.merge(&b);
        let sum = m.seconds(&a) + m.seconds(&b);
        assert!((m.seconds(&both) - sum).abs() < 1e-12);
    }

    #[test]
    fn nvme_is_faster_than_sas_for_random_io() {
        let stats = IoStats {
            random_reads: 1000,
            ..Default::default()
        };
        assert!(CostModel::nvme().seconds(&stats) < CostModel::default().seconds(&stats) / 10.0);
    }

    #[test]
    fn device_profiles_resolve_to_their_models() {
        assert_eq!(DeviceProfile::Nvme.cost_model(), CostModel::nvme());
        assert_eq!(DeviceProfile::Hdd.cost_model(), CostModel::hdd());
        assert_eq!(DeviceProfile::Hdd.cost_model(), CostModel::default());
        let custom = CostModel {
            seek_seconds: 1e-3,
            ..CostModel::nvme()
        };
        assert_eq!(DeviceProfile::Custom(custom).cost_model(), custom);
        assert_eq!(DeviceProfile::Nvme.name(), "nvme");
        assert_eq!(DeviceProfile::Hdd.name(), "hdd");
        assert_eq!(DeviceProfile::Custom(custom).name(), "custom");
    }

    #[test]
    fn seconds_on_each_profile_orders_devices_by_speed() {
        // A seek-heavy trace: the profile with the costlier seeks must report
        // more simulated seconds, and a custom profile sits exactly where its
        // constants put it.
        let trace = IoStats {
            random_reads: 500,
            sequential_reads: 2_000,
            objects_scanned: 10_000,
            ..Default::default()
        };
        let hdd = DeviceProfile::Hdd.cost_model().seconds(&trace);
        let nvme = DeviceProfile::Nvme.cost_model().seconds(&trace);
        assert!(hdd > 10.0 * nvme, "hdd {hdd}s vs nvme {nvme}s");
        let custom_model = CostModel {
            seek_seconds: 1e-3, // between nvme (80 µs) and hdd (8 ms)
            transfer_bytes_per_second: 500.0 * 1024.0 * 1024.0,
            ..CostModel::hdd()
        };
        let custom = DeviceProfile::Custom(custom_model)
            .cost_model()
            .seconds(&trace);
        assert!(nvme < custom && custom < hdd);
        // Every profile reports zero for an empty trace.
        for profile in [
            DeviceProfile::Nvme,
            DeviceProfile::Hdd,
            DeviceProfile::Custom(custom_model),
        ] {
            assert_eq!(profile.cost_model().seconds(&IoStats::default()), 0.0);
        }
    }

    #[test]
    fn buffer_hits_are_cheaper_than_any_device_access() {
        let m = CostModel::default();
        let hit = IoStats {
            buffer_hits: 1,
            ..Default::default()
        };
        let seq = IoStats {
            sequential_reads: 1,
            ..Default::default()
        };
        assert!(m.seconds(&hit) < m.seconds(&seq));
    }
}
