//! The mechanical disk service model.

use crate::cache::{CacheConfig, CacheOutcome, DiskCache};
use crate::error::SimError;
use crate::request::RequestKind;
use diskgeom::{DriveGeometry, Platter, RecordingTech};
use diskperf::SeekProfile;
use serde::{Deserialize, Serialize};
use units::{BitsPerInch, Inches, Rpm, Seconds, TracksPerInch};

/// Full description of one simulated disk.
///
/// # Examples
///
/// ```
/// use disksim::DiskSpec;
/// use units::Rpm;
///
/// let spec = DiskSpec::era_2001(Rpm::new(10_000.0));
/// assert!(spec.geometry().capacity().gigabytes() > 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskSpec {
    geometry: DriveGeometry,
    rpm: Rpm,
    seek: SeekProfile,
    cache: CacheConfig,
    /// Fixed controller/firmware overhead charged to every request.
    controller_overhead: Seconds,
    /// Interface transfer rate for cache hits, bytes per second.
    bus_bytes_per_sec: f64,
}

impl DiskSpec {
    /// Builds a spec from explicit geometry and spindle speed; seek times
    /// come from the platter-size interpolation, the cache defaults to
    /// 4 MB / 16 segments and the controller overhead to 0.3 ms over a
    /// 160 MB/s bus (Ultra160 SCSI, the era's interface).
    pub fn new(geometry: DriveGeometry, rpm: Rpm) -> Self {
        let seek =
            SeekProfile::for_platter(geometry.platter().diameter(), geometry.used_cylinders());
        Self {
            geometry,
            rpm,
            seek,
            cache: CacheConfig::default(),
            controller_overhead: Seconds::from_millis(0.3),
            bus_bytes_per_sec: 160e6,
        }
    }

    /// A representative 2001 server disk: 3.3″ platters at
    /// 480 KBPI × 27.3 KTPI with 30 zones (the Ultrastar 73LZX / Cheetah
    /// 73LP class of Table 1), two platters ≈ 23 GB.
    ///
    /// # Panics
    ///
    /// Never panics: the era parameters are statically valid.
    pub fn era_2001(rpm: Rpm) -> Self {
        Self::era(2001, 2, rpm)
    }

    /// A disk of roughly year-`year` technology with the given platter
    /// count, 3.3″ media, 30 zones.
    ///
    /// # Panics
    ///
    /// Panics if `year` is before 1995 or the configuration is
    /// geometrically invalid (it is valid for all supported years).
    pub fn era(year: i32, platters: u32, rpm: Rpm) -> Self {
        assert!(year >= 1995, "era constructor supports 1995 onward");
        // Densities follow the 30%/50% CGRs anchored at 1999.
        let dy = year - 1999;
        let bpi = 270e3 * 1.3f64.powi(dy);
        let tpi = 20e3 * 1.5f64.powi(dy);
        let tech = RecordingTech::new(BitsPerInch::new(bpi), TracksPerInch::new(tpi));
        let geometry = DriveGeometry::new(Platter::new(Inches::new(3.3)), tech, platters, 30)
            .expect("era parameters are valid");
        Self::new(geometry, rpm)
    }

    /// Replaces the cache configuration.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// The drive geometry.
    pub fn geometry(&self) -> &DriveGeometry {
        &self.geometry
    }

    /// The design spindle speed: the speed a storage system of this disk
    /// starts at.
    pub fn rpm(&self) -> Rpm {
        self.rpm
    }

    /// The seek profile.
    pub fn seek(&self) -> &SeekProfile {
        &self.seek
    }

    /// Checks a spec read back from outside the program, such as a
    /// checkpoint: what the event core divides by or charges to every
    /// request (speed, seek times, controller overhead, bus rate, cache
    /// segments) must be positive and finite, and the geometry must be
    /// the one its own platter, recording technology, platter count and
    /// zone count build (the zone table and LBA map are derived, so any
    /// other value is corrupt).
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] or, when the parameters build no geometry
    /// at all, [`SimError::Geometry`].
    pub fn validate(&self) -> Result<(), SimError> {
        let rates = [
            ("spindle speed", self.rpm.get()),
            ("track-to-track seek time", self.seek.track_to_track().get()),
            ("average seek time", self.seek.average().get()),
            ("full-stroke seek time", self.seek.full_stroke().get()),
            ("controller overhead", self.controller_overhead.get()),
            ("bus rate", self.bus_bytes_per_sec),
            ("cache segment count", self.cache.segments as f64),
        ];
        if let Some((name, x)) = rates.iter().find(|(_, x)| !(x.is_finite() && *x > 0.0)) {
            let msg = format!("disk {name} must be positive and finite, got {x}");
            return Err(SimError::BadConfig(msg));
        }
        let g = &self.geometry;
        let (platter, tech) = (*g.platter(), *g.tech());
        if DriveGeometry::new(platter, tech, g.platters(), g.zones().zone_count())? != *g {
            let msg = "disk geometry differs from the one its parameters build";
            return Err(SimError::BadConfig(msg.into()));
        }
        Ok(())
    }
}

/// Where a request's service time went.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServiceBreakdown {
    /// Controller/firmware overhead.
    pub overhead: Seconds,
    /// Arm movement.
    pub seek: Seconds,
    /// Rotational wait for the first sector.
    pub rotation: Seconds,
    /// Media/bus transfer.
    pub transfer: Seconds,
    /// `true` when served from the cache without touching the medium.
    pub cache_hit: bool,
    /// Cylinders the arm moved.
    pub seek_distance: u32,
}

impl ServiceBreakdown {
    /// Total service time.
    pub fn total(&self) -> Seconds {
        self.overhead + self.seek + self.rotation + self.transfer
    }
}

/// Mechanical state of one disk during simulation: its cache, head
/// position and activity counters. Its [`DiskSpec`] and spindle speed
/// belong to the storage system, held once for every member.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Disk {
    cache: DiskCache,
    head_cylinder: u32,
    /// Accumulated busy time (for utilization and DTM duty estimation).
    busy_time: Seconds,
    /// Accumulated time the actuator spent seeking.
    seek_time: Seconds,
    /// Requests served.
    served: u64,
    /// Requests that required arm movement.
    moved_arm: u64,
    /// Total cylinders traveled.
    total_seek_distance: u64,
}

impl Disk {
    /// Creates a `spec` disk with an empty cache and the head parked at
    /// cylinder 0.
    pub fn new(spec: &DiskSpec) -> Self {
        Self {
            cache: DiskCache::new(spec.cache),
            head_cylinder: 0,
            busy_time: Seconds::ZERO,
            seek_time: Seconds::ZERO,
            served: 0,
            moved_arm: 0,
            total_seek_distance: 0,
        }
    }

    /// Current cylinder under the heads.
    pub fn head_cylinder(&self) -> u32 {
        self.head_cylinder
    }

    /// Total time this disk spent serving requests.
    pub fn busy_time(&self) -> Seconds {
        self.busy_time
    }

    /// Total time the actuator spent seeking — the paper's VCM-duty
    /// signal for DTM.
    pub fn seek_time(&self) -> Seconds {
        self.seek_time
    }

    /// Requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Fraction of served requests that moved the arm (the paper quotes
    /// 86 % for OpenMail).
    pub fn arm_movement_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.moved_arm as f64 / self.served as f64
        }
    }

    /// Mean seek distance in cylinders over served requests.
    pub fn mean_seek_distance(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.total_seek_distance as f64 / self.served as f64
        }
    }

    /// Cache hit statistics.
    pub fn cache(&self) -> &DiskCache {
        &self.cache
    }

    /// Serves a request beginning at `start` on this `spec` disk spinning
    /// at `rpm`, returning when it finishes and where the time went. The
    /// request's range is already checked and its start
    /// [`Location`](diskgeom::Location) resolved: the queueing layer
    /// does both once, at submit and enqueue (it needs the cylinder for
    /// scheduling anyway), so service never re-runs the zone-table
    /// lookup.
    #[allow(clippy::too_many_arguments)] // the disk, its speed, then the request
    pub(crate) fn service(
        &mut self,
        spec: &DiskSpec,
        rpm: Rpm,
        loc: diskgeom::Location,
        lba: u64,
        sectors: u32,
        kind: RequestKind,
        start: Seconds,
    ) -> (Seconds, ServiceBreakdown) {
        let overhead = spec.controller_overhead;
        self.served += 1;

        // Cache: reads served from a segment never touch the medium.
        if kind.is_read() && self.cache.lookup(lba, sectors) == CacheOutcome::Hit {
            let bus = Seconds::new(sectors as f64 * 512.0 / spec.bus_bytes_per_sec);
            let breakdown = ServiceBreakdown {
                overhead,
                transfer: bus,
                cache_hit: true,
                ..ServiceBreakdown::default()
            };
            let finish = start + breakdown.total();
            self.busy_time += breakdown.total();
            return (finish, breakdown);
        }
        if !kind.is_read() {
            // Writes always pay the medium (write-through) but leave the
            // data cached for subsequent reads.
            let _ = self.cache.lookup(lba, sectors);
        }

        let zone = &spec.geometry.zones().zones()[loc.zone as usize];
        let spt = zone.sectors_per_track().get();
        let period = rpm.rotation_period();

        // Seek.
        let distance = self.head_cylinder.abs_diff(loc.cylinder);
        let seek = spec.seek.seek_time(distance);
        if distance > 0 {
            self.moved_arm += 1;
            self.total_seek_distance += distance as u64;
        }

        // Rotational wait: the platter's angle advances in real time.
        let ready = start + overhead + seek;
        let target_angle = loc.sector as f64 / spt as f64;
        let turns = ready.get() / period.get();
        // `turns.fract()` by integer cast: exact for finite values below
        // 2^53 (every reachable schedule) and avoids the libm `trunc`
        // call that dominates this expression on generic x86-64.
        let current_angle = if (0.0..9.007199254740992e15).contains(&turns) {
            turns - (turns as u64 as f64)
        } else {
            turns.fract()
        };
        // Both angles lie in [0, 1), so `rem_euclid(1.0)` — an exact
        // libm fmod no-op for |x| < 1 — reduces to one sign branch.
        let diff = target_angle - current_angle;
        let wait_frac = if diff < 0.0 { diff + 1.0 } else { diff };
        let rotation = period * wait_frac;

        // Transfer: stream `sectors`, paying a head/track switch each
        // time the run crosses a track boundary.
        let track_crossings = (loc.sector as u64 + sectors as u64 - 1) / spt;
        let transfer = period * (sectors as f64 / spt as f64)
            + spec.seek.track_to_track() * track_crossings as f64;

        // Read-ahead: the drive keeps reading to the end of the track
        // after a medium read; the tail lands in the cache for free.
        let readahead = if kind.is_read() {
            let end_sector = (loc.sector as u64 + sectors as u64) % spt;
            if end_sector == 0 {
                0
            } else {
                spt - end_sector
            }
        } else {
            0
        };
        self.cache.fill(lba, sectors as u64 + readahead);

        // The head ends at the last sector's cylinder. When the run stays
        // inside the start zone (almost always), that cylinder follows
        // from `loc` with one division; only zone-crossing runs re-run
        // the full lookup. Same value either way.
        let last_lba = lba + sectors as u64 - 1;
        let (zone_start, zone_end) = spec
            .geometry
            .zone_lba_range(loc.zone)
            .expect("located zone exists");
        self.head_cylinder = if last_lba < zone_end {
            let per_cylinder = spt * spec.geometry.surfaces() as u64;
            zone.first_cylinder() + ((last_lba - zone_start) / per_cylinder) as u32
        } else {
            spec.geometry
                .locate(last_lba)
                .expect("range checked above")
                .cylinder
        };
        let breakdown = ServiceBreakdown {
            overhead,
            seek,
            rotation,
            transfer,
            cache_hit: false,
            seek_distance: distance,
        };
        self.busy_time += breakdown.total();
        self.seek_time += seek;
        (start + breakdown.total(), breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RPM: Rpm = Rpm::new(10_000.0);

    fn spec() -> DiskSpec {
        DiskSpec::era_2001(RPM)
    }

    /// Serves `sectors` at `lba` on `d`, a `spec()` disk at `rpm`.
    fn serve(
        d: &mut Disk,
        rpm: Rpm,
        lba: u64,
        sectors: u32,
        kind: RequestKind,
        start: Seconds,
    ) -> (Seconds, ServiceBreakdown) {
        let spec = spec();
        let loc = spec.geometry().locate(lba).expect("in range");
        d.service(&spec, rpm, loc, lba, sectors, kind, start)
    }

    /// Reads `sectors` at `lba` from `d` at 10,000 RPM.
    fn read(d: &mut Disk, lba: u64, sectors: u32, start: Seconds) -> (Seconds, ServiceBreakdown) {
        serve(d, RPM, lba, sectors, RequestKind::Read, start)
    }

    #[test]
    fn era_2001_capacity_is_plausible() {
        let gb = spec().geometry().capacity().gigabytes();
        assert!(gb > 15.0 && gb < 60.0, "got {gb:.1} GB");
    }

    #[test]
    fn first_request_pays_rotation_but_no_seek() {
        let mut d = Disk::new(&spec());
        let (_, b) = read(&mut d, 0, 8, Seconds::ZERO);
        assert_eq!(b.seek, Seconds::ZERO, "head starts at cylinder 0");
        assert!(b.rotation.get() >= 0.0);
        assert!(b.transfer.get() > 0.0);
        assert!(!b.cache_hit);
    }

    #[test]
    fn sequential_read_hits_readahead_cache() {
        let mut d = Disk::new(&spec());
        let (t1, b1) = read(&mut d, 0, 8, Seconds::ZERO);
        let (_, b2) = read(&mut d, 8, 8, t1);
        assert!(!b1.cache_hit);
        assert!(b2.cache_hit, "read-ahead should catch the next sectors");
        assert!(b2.total() < b1.total() / 5.0);
    }

    #[test]
    fn far_seek_costs_more_than_near_seek() {
        let total = spec().geometry().total_sectors().get();
        let mut d = Disk::new(&spec());
        let (_, near) = read(&mut d, 0, 8, Seconds::ZERO);
        let (_, far) = read(&mut d, total - 16, 8, Seconds::new(1.0));
        assert!(far.seek > near.seek);
        assert!(far.seek_distance > 10_000);
    }

    #[test]
    fn faster_spindle_cuts_rotation_and_transfer() {
        // Compare expected rotational latency + transfer across RPMs.
        let at = |rpm: f64| {
            let mut d = Disk::new(&spec());
            serve(
                &mut d,
                Rpm::new(rpm),
                0,
                64,
                RequestKind::Read,
                Seconds::ZERO,
            )
            .1
        };
        let (b_slow, b_fast) = (at(10_000.0), at(20_000.0));
        assert!(
            b_fast.transfer.get() < b_slow.transfer.get() * 0.6,
            "transfer should halve: {} vs {}",
            b_fast.transfer.to_millis(),
            b_slow.transfer.to_millis()
        );
    }

    #[test]
    fn writes_pay_medium_but_populate_cache() {
        let mut d = Disk::new(&spec());
        let (t1, w) = serve(&mut d, RPM, 100, 8, RequestKind::Write, Seconds::ZERO);
        assert!(!w.cache_hit, "write-through pays the medium");
        let (_, r) = read(&mut d, 100, 8, t1);
        assert!(r.cache_hit, "read-after-write hits");
    }

    #[test]
    fn out_of_range_is_an_error() {
        // A disk serves located requests only: one that runs past the
        // medium is refused at submit, before any disk sees it.
        let total = spec().geometry().total_sectors().get();
        let mut sys = crate::StorageSystem::new(crate::SystemConfig::single_disk(spec())).unwrap();
        let past_the_end =
            crate::Request::new(0, Seconds::ZERO, 0, total - 4, 8, RequestKind::Read);
        let err = sys.submit(past_the_end).unwrap_err();
        assert!(matches!(err, SimError::OutOfRange { .. }));
        assert!(spec().geometry().locate(total).is_none());
    }

    #[test]
    fn activity_counters_accumulate() {
        let mut d = Disk::new(&spec());
        let mut t = Seconds::ZERO;
        for i in 0..10u64 {
            let (f, _) = read(&mut d, i * 1_000_000 % 20_000_000, 8, t);
            t = f;
        }
        assert_eq!(d.served(), 10);
        assert!(d.busy_time().get() > 0.0);
        assert!(d.seek_time().get() > 0.0);
        assert!(d.arm_movement_rate() > 0.5);
        assert!(d.mean_seek_distance() > 0.0);
    }

    #[test]
    fn rpm_change_preserves_state() {
        // The speed is the system's, not the disk's: serving the next
        // request at another speed keeps the head where it was.
        let mut d = Disk::new(&spec());
        let (t1, _) = read(&mut d, 5_000_000, 8, Seconds::ZERO);
        let cyl = d.head_cylinder();
        let (_, b) = serve(
            &mut d,
            Rpm::new(20_000.0),
            5_000_100,
            8,
            RequestKind::Read,
            t1,
        );
        // Still near the same cylinder: tiny seek.
        assert!(b.seek_distance < 10, "distance {}", b.seek_distance);
        assert!(d.head_cylinder().abs_diff(cyl) < 10);
    }

    #[test]
    fn rotational_wait_is_bounded_by_one_revolution() {
        let mut d = Disk::new(&spec());
        let period = RPM.rotation_period();
        for i in 0..50u64 {
            let (_, b) = read(
                &mut d,
                (i * 777_777) % 10_000_000,
                4,
                Seconds::new(i as f64),
            );
            if !b.cache_hit {
                assert!(
                    b.rotation <= period,
                    "wait {} > period",
                    b.rotation.to_millis()
                );
            }
        }
    }

    #[test]
    fn a_spec_validates_until_a_rate_or_its_geometry_is_corrupted() {
        let good = spec();
        assert_eq!(good.validate(), Ok(()));
        let corrupt = |edit: &dyn Fn(&mut serde::Map)| {
            let mut v = serde::Serialize::to_value(&good);
            edit(v.as_object_mut().unwrap());
            <DiskSpec as serde::Deserialize>::from_value(&v)
                .unwrap()
                .validate()
        };
        let number = |x: f64| serde::Value::Number(serde::Number::Float(x));
        for x in [-1.0, 0.0, f64::INFINITY] {
            assert!(corrupt(&|m| {
                m.insert("rpm", number(x));
            })
            .is_err());
            assert!(corrupt(&|m| {
                m.insert("bus_bytes_per_sec", number(x));
            })
            .is_err());
        }
        // One fewer sector on the last zone boundary: the LBA map no
        // longer matches the zone table it is derived from.
        let err = corrupt(&|m| {
            let mut geometry = m.get("geometry").unwrap().clone();
            let g = geometry.as_object_mut().unwrap();
            let mut starts = g
                .get("zone_lba_starts")
                .unwrap()
                .as_array()
                .unwrap()
                .clone();
            let last = starts.pop().unwrap().as_u64().unwrap();
            starts.push(serde::Value::Number(serde::Number::UInt(last - 1)));
            g.insert("zone_lba_starts", serde::Value::Array(starts));
            m.insert("geometry", geometry);
        })
        .unwrap_err();
        assert!(
            matches!(err, SimError::BadConfig(ref msg) if msg.contains("geometry")),
            "{err}"
        );
    }
}
