//! The five workload presets of Figure 4.
//!
//! Device populations, RAID organization, spindle speeds and request
//! counts come straight from the paper's workload table; arrival
//! intensity and access mix are synthesized to land the baseline mean
//! response times in the regime the paper reports (OpenMail heavily
//! queued at ~55 ms, OLTP nearly unqueued at ~5.7 ms, and so on).

use crate::access::{AccessProfile, SizeModel};
use crate::arrival::ArrivalModel;
use crate::generator::TraceGenerator;
use disksim::{
    DiskSpec, RaidLevel, Request, ResponseStats, SimError, StorageSystem, SystemConfig,
};
use units::Rpm;

/// One Figure 4 workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPreset {
    /// Workload name as the paper labels it.
    pub name: &'static str,
    /// Approximate year the trace was collected (sets disk technology).
    pub year: i32,
    /// Baseline spindle speed from the paper's table.
    pub base_rpm: Rpm,
    /// Number of member disks.
    pub disks: u32,
    /// Platters per member disk (chosen so the era geometry lands near
    /// the paper's per-disk capacity).
    pub platters_per_disk: u32,
    /// RAID organization, if any (the paper's RAID systems are RAID-5
    /// with a 16-block stripe).
    pub raid: Option<(RaidLevel, u32)>,
    /// Whether the array controller write-back caches (battery-backed
    /// NVRAM acks writes immediately; physical work destages in the
    /// background).
    pub write_back: bool,
    /// Request count of the original trace.
    pub paper_requests: u64,
    /// Mean response time the paper reports at the baseline RPM, ms.
    pub paper_mean_response_ms: f64,
    /// Arrival process.
    pub arrivals: ArrivalModel,
    /// Access mix.
    pub profile: AccessProfile,
}

impl WorkloadPreset {
    /// Builds the storage system at a given spindle speed (the Figure 4
    /// sweep rebuilds the same system at +5 kRPM steps).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the simulator.
    pub fn system_config(&self, rpm: Rpm) -> Result<SystemConfig, SimError> {
        let spec = DiskSpec::era(self.year, self.platters_per_disk, rpm);
        let cfg = match self.raid {
            Some((RaidLevel::Raid5, stripe)) => {
                SystemConfig::raid5(spec, self.disks, stripe)?
            }
            Some((RaidLevel::Raid0, stripe)) => {
                SystemConfig::raid0(spec, self.disks, stripe)?
            }
            None => SystemConfig::jbod(spec, self.disks),
        };
        Ok(cfg.with_write_back(self.write_back))
    }

    /// Number of logical devices the trace addresses (1 for RAID, one
    /// per member for the JBOD workloads).
    pub fn logical_devices(&self) -> u32 {
        if self.raid.is_some() {
            1
        } else {
            self.disks
        }
    }

    /// The request generator over this workload's logical volume.
    fn generator(&self) -> Result<TraceGenerator, SimError> {
        let capacity = self.system_config(self.base_rpm)?.logical_sectors()?;
        TraceGenerator::new(
            self.profile.clone(),
            self.arrivals,
            self.logical_devices(),
            capacity,
        )
        .map_err(SimError::BadConfig)
    }

    /// Generates `n` requests of this workload, deterministically from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors (the preset itself is
    /// always internally consistent).
    pub fn generate(&self, n: usize, seed: u64) -> Result<Vec<Request>, SimError> {
        Ok(self.generator()?.generate(n, seed))
    }

    /// Opens an endless request stream of this workload — the digital
    /// twin's arrival feed. Draws exactly the requests
    /// [`Self::generate`] would, one at a time, and its state can be
    /// captured mid-flight for checkpointing.
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors (the preset itself is
    /// always internally consistent).
    pub fn stream(&self, seed: u64) -> Result<crate::TraceStream, SimError> {
        Ok(self.generator()?.stream(seed))
    }

    /// Generates, simulates and summarizes `n` requests at the given
    /// spindle speed.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run(&self, rpm: Rpm, n: usize, seed: u64) -> Result<ResponseStats, SimError> {
        let trace = self.generate(n, seed)?;
        let mut system = StorageSystem::new(self.system_config(rpm)?)?;
        for r in trace {
            system.submit(r)?;
        }
        let done = system.drain();
        Ok(ResponseStats::from_completions(&done))
    }
}

/// HPL OpenMail: a mail server on an 8-disk RAID-5 — bursty,
/// seek-dominated, 40 % writes, large multi-block messages. The paper
/// notes 86 % of its requests move the arm with a mean seek distance of
/// ~1952 cylinders, and reports the largest RPM benefit (54.5 → 25.9 ms
/// for +5 kRPM).
pub fn openmail() -> WorkloadPreset {
    WorkloadPreset {
        name: "HPL Openmail",
        year: 2000,
        base_rpm: Rpm::new(10_000.0),
        disks: 8,
        platters_per_disk: 1,
        raid: Some((RaidLevel::Raid5, 16)),
        write_back: false,
        paper_requests: 3_053_745,
        paper_mean_response_ms: 54.54,
        arrivals: ArrivalModel::Bursty {
            base_rate: 100.0,
            burst_factor: 2.6,
            burst_len: 2.0,
            quiet_len: 6.0,
        },
        profile: AccessProfile {
            read_fraction: 0.6,
            sequential_fraction: 0.2,
            size: SizeModel::Choice(vec![(8, 0.3), (16, 0.3), (32, 0.25), (64, 0.15)]),
            hot_regions: 400,
            zipf_theta: 0.6,
        },
    }
}

/// OLTP Application: 24 independent disks, small page-sized requests,
/// strong hot-spot skew, light per-disk load (5.66 ms baseline mean).
pub fn oltp() -> WorkloadPreset {
    WorkloadPreset {
        name: "OLTP Application",
        year: 1999,
        base_rpm: Rpm::new(10_000.0),
        disks: 24,
        platters_per_disk: 4,
        raid: None,
        write_back: false,
        paper_requests: 5_334_945,
        paper_mean_response_ms: 5.66,
        arrivals: ArrivalModel::Poisson { rate: 250.0 },
        profile: AccessProfile {
            read_fraction: 0.65,
            sequential_fraction: 0.2,
            size: SizeModel::Fixed(8),
            hot_regions: 1_000,
            zipf_theta: 1.05,
        },
    }
}

/// Search engine: read-almost-only queries over 6 disks with popular
/// index regions and some sequential posting-list scans (16.22 ms
/// baseline mean — moderately queued).
pub fn search_engine() -> WorkloadPreset {
    WorkloadPreset {
        name: "Search-Engine",
        year: 1999,
        base_rpm: Rpm::new(10_000.0),
        disks: 6,
        platters_per_disk: 4,
        raid: None,
        write_back: false,
        paper_requests: 4_579_809,
        paper_mean_response_ms: 16.22,
        arrivals: ArrivalModel::Poisson { rate: 830.0 },
        profile: AccessProfile {
            read_fraction: 0.98,
            sequential_fraction: 0.3,
            size: SizeModel::Choice(vec![(16, 0.5), (64, 0.35), (128, 0.15)]),
            hot_regions: 500,
            zipf_theta: 0.9,
        },
    }
}

/// TPC-C: transaction processing over a 4-disk RAID-5, small skewed
/// requests, 35 % writes paying the read-modify-write penalty (6.50 ms
/// baseline mean).
pub fn tpcc() -> WorkloadPreset {
    WorkloadPreset {
        name: "TPC-C",
        year: 2002,
        base_rpm: Rpm::new(10_000.0),
        disks: 4,
        platters_per_disk: 1,
        raid: Some((RaidLevel::Raid5, 16)),
        write_back: true,
        paper_requests: 6_155_547,
        paper_mean_response_ms: 6.50,
        arrivals: ArrivalModel::Poisson { rate: 60.0 },
        profile: AccessProfile {
            read_fraction: 0.65,
            sequential_fraction: 0.05,
            size: SizeModel::Choice(vec![(8, 0.6), (16, 0.4)]),
            hot_regions: 5_000,
            zipf_theta: 1.15,
        },
    }
}

/// TPC-H: decision support over 15 disks at 7,200 RPM — long sequential
/// scan runs of large requests, read-almost-only (4.91 ms baseline mean,
/// dominated by streaming).
pub fn tpch() -> WorkloadPreset {
    WorkloadPreset {
        name: "TPC-H",
        year: 2002,
        base_rpm: Rpm::new(7_200.0),
        disks: 15,
        platters_per_disk: 1,
        raid: None,
        write_back: false,
        paper_requests: 4_228_725,
        paper_mean_response_ms: 4.91,
        arrivals: ArrivalModel::Poisson { rate: 850.0 },
        profile: AccessProfile {
            read_fraction: 0.95,
            sequential_fraction: 0.75,
            size: SizeModel::Choice(vec![(64, 0.5), (128, 0.5)]),
            hot_regions: 100,
            zipf_theta: 0.5,
        },
    }
}

/// All five Figure 4 workloads, in the paper's order.
pub fn presets() -> Vec<WorkloadPreset> {
    vec![openmail(), oltp(), search_engine(), tpcc(), tpch()]
}

/// Looks a workload up by its short key, ignoring case: `openmail`,
/// `oltp`, `search` (or `search_engine`), `tpcc` or `tpch`. The display
/// names in [`WorkloadPreset::name`] carry spaces and punctuation, so
/// command lines and sweep specs name presets by these keys instead.
pub fn preset_by_key(key: &str) -> Option<WorkloadPreset> {
    match key.to_ascii_lowercase().as_str() {
        "openmail" => Some(openmail()),
        "oltp" => Some(oltp()),
        "search" | "search_engine" => Some(search_engine()),
        "tpcc" => Some(tpcc()),
        "tpch" => Some(tpch()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_table_matches_paper() {
        let all = presets();
        let names: Vec<&str> = all.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            ["HPL Openmail", "OLTP Application", "Search-Engine", "TPC-C", "TPC-H"]
        );
        let disks: Vec<u32> = all.iter().map(|p| p.disks).collect();
        assert_eq!(disks, [8, 24, 6, 4, 15]);
        let raided: Vec<bool> = all.iter().map(|p| p.raid.is_some()).collect();
        assert_eq!(raided, [true, false, false, true, false]);
        assert_eq!(all[4].base_rpm, Rpm::new(7_200.0));
        let reqs: Vec<u64> = all.iter().map(|p| p.paper_requests).collect();
        assert_eq!(
            reqs,
            [3_053_745, 5_334_945, 4_579_809, 6_155_547, 4_228_725]
        );
    }

    #[test]
    fn every_key_resolves_case_insensitively() {
        let keyed = [
            ("openmail", "HPL Openmail"),
            ("oltp", "OLTP Application"),
            ("search", "Search-Engine"),
            ("search_engine", "Search-Engine"),
            ("tpcc", "TPC-C"),
            ("tpch", "TPC-H"),
            ("TPCC", "TPC-C"),
            ("Search_Engine", "Search-Engine"),
        ];
        for (key, name) in keyed {
            assert_eq!(preset_by_key(key).map(|p| p.name), Some(name), "{key}");
        }
        for key in ["", "tpc-c", "search engine", "factorio"] {
            assert!(preset_by_key(key).is_none(), "{key:?} must not resolve");
        }
    }

    #[test]
    fn per_disk_capacities_near_paper() {
        // Paper: 9.29 / 19.07 / 19.07 / 37.17 / 35.96 GB.
        for (preset, target) in presets().iter().zip([9.29, 19.07, 19.07, 37.17, 35.96]) {
            let spec = DiskSpec::era(preset.year, preset.platters_per_disk, preset.base_rpm);
            let gb = spec.geometry().capacity().gigabytes();
            let err = (gb - target).abs() / target;
            assert!(
                err < 0.35,
                "{}: {gb:.1} GB vs paper {target} GB",
                preset.name
            );
        }
    }

    #[test]
    fn all_presets_generate_and_run_small() -> Result<(), String> {
        for preset in presets() {
            let stats = preset
                .run(preset.base_rpm, 400, 11)
                .map_err(|e| format!("{}: {e}", preset.name))?;
            assert_eq!(stats.count(), 400, "{}", preset.name);
            assert!(stats.mean().to_millis() > 0.0);
        }
        Ok(())
    }

    #[test]
    fn openmail_is_seek_heavy() {
        let preset = openmail();
        let trace = preset.generate(4_000, 1).unwrap();
        let mut system = StorageSystem::new(preset.system_config(preset.base_rpm).unwrap())
            .unwrap();
        for r in trace {
            system.submit(r).unwrap();
        }
        let _ = system.drain();
        let rates: Vec<f64> = system.disks().iter().map(|d| d.arm_movement_rate()).collect();
        let mean_rate = rates.iter().sum::<f64>() / rates.len() as f64;
        // Paper: 86% of *logical* requests move the arm. Our counter is
        // per physical sub-operation, and RAID-5 read-modify-write pairs
        // revisit the same cylinder (zero distance) for the write half,
        // diluting the physical rate well below the logical one.
        assert!(mean_rate > 0.4, "OpenMail should be seek-heavy, got {mean_rate:.2}");
    }

    #[test]
    fn tpch_is_sequential() {
        let preset = tpch();
        let trace = preset.generate(4_000, 2).unwrap();
        let mut system = StorageSystem::new(preset.system_config(preset.base_rpm).unwrap())
            .unwrap();
        for r in trace {
            system.submit(r).unwrap();
        }
        let _ = system.drain();
        let rates: Vec<f64> = system.disks().iter().map(|d| d.arm_movement_rate()).collect();
        let mean_rate = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(mean_rate < 0.6, "TPC-H should stream, got {mean_rate:.2}");
    }

    #[test]
    fn faster_spindle_helps_every_workload() {
        // The Figure 4 headline, at reduced scale.
        for preset in presets() {
            let base = preset.run(preset.base_rpm, 1_500, 3).unwrap();
            let fast = preset
                .run(preset.base_rpm + Rpm::new(10_000.0), 1_500, 3)
                .unwrap();
            assert!(
                fast.mean() < base.mean(),
                "{}: {:.2} -> {:.2} ms",
                preset.name,
                base.mean().to_millis(),
                fast.mean().to_millis()
            );
        }
    }
}
