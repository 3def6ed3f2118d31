//! Whole-drive geometry: platters × recording tech × zone table, plus a
//! bijective logical-block ↔ physical-location mapping.

use crate::{CapacityBreakdown, GeometryError, Platter, RecordingTech, ZoneTable};
use serde::{Deserialize, Serialize};
use units::{Capacity, SectorCount};

/// Physical location of a logical block: cylinder, surface and sector.
///
/// Blocks are laid out cylinder-major: all sectors of a track, then the
/// next surface of the same cylinder, then the next cylinder — matching
/// how drives minimize seeks for sequential transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Cylinder index; 0 is outermost.
    pub cylinder: u32,
    /// Recording surface index, `0 .. 2 × platters`.
    pub surface: u32,
    /// Sector index within the track.
    pub sector: u32,
    /// ZBR zone the cylinder belongs to.
    pub zone: u32,
}

/// Complete recorded geometry of a disk drive.
///
/// # Examples
///
/// ```
/// use diskgeom::{DriveGeometry, Platter, RecordingTech};
/// use units::{BitsPerInch, Inches, TracksPerInch};
///
/// let tech = RecordingTech::new(
///     BitsPerInch::from_kbpi(256.0),
///     TracksPerInch::from_ktpi(13.0),
/// );
/// let drive = DriveGeometry::new(Platter::new(Inches::new(3.3)), tech, 6, 30)?;
/// assert_eq!(drive.surfaces(), 12);
/// let loc = drive.locate(12_345).unwrap();
/// assert_eq!(drive.lba_of(loc).unwrap(), 12_345);
/// # Ok::<(), diskgeom::GeometryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriveGeometry {
    platter: Platter,
    tech: RecordingTech,
    platters: u32,
    zones: ZoneTable,
    /// Cumulative first-LBA of each zone (length `zone_count + 1`; the
    /// final entry is the total sector count of the drive).
    zone_lba_starts: Vec<u64>,
}

impl DriveGeometry {
    /// Builds the geometry of a drive with `platters` platters (two
    /// recording surfaces each) and `n_zones` ZBR zones per surface.
    ///
    /// # Errors
    ///
    /// Propagates [`GeometryError`] for an invalid platter or densities,
    /// zero zones or platters, tracks too short to hold a sector, or
    /// counts too large to address.
    pub fn new(
        platter: Platter,
        tech: RecordingTech,
        platters: u32,
        n_zones: u32,
    ) -> Result<Self, GeometryError> {
        if platters == 0 {
            return Err(GeometryError::NoPlatters);
        }
        let overflow = |name| GeometryError::Overflow { name };
        let surfaces = platters.checked_mul(2).ok_or(overflow("surface count"))?;
        let zones = ZoneTable::new(platter, tech, n_zones)?;
        let mut zone_lba_starts = Vec::with_capacity(zones.zone_count() as usize + 1);
        let mut acc = 0u64;
        for z in zones.zones() {
            zone_lba_starts.push(acc);
            acc = (z.sectors_per_surface().get().checked_mul(surfaces.into()))
                .and_then(|sectors| acc.checked_add(sectors))
                .ok_or(overflow("sector count"))?;
        }
        zone_lba_starts.push(acc);
        Ok(Self {
            platter,
            tech,
            platters,
            zones,
            zone_lba_starts,
        })
    }

    /// The platter geometry.
    pub fn platter(&self) -> &Platter {
        &self.platter
    }

    /// The recording technology.
    pub fn tech(&self) -> &RecordingTech {
        &self.tech
    }

    /// Number of platters.
    pub fn platters(&self) -> u32 {
        self.platters
    }

    /// Number of recording surfaces (`2 × platters`).
    pub fn surfaces(&self) -> u32 {
        self.platters * 2
    }

    /// The per-surface ZBR zone table.
    pub fn zones(&self) -> &ZoneTable {
        &self.zones
    }

    /// Total addressable user sectors.
    pub fn total_sectors(&self) -> SectorCount {
        SectorCount::new(*self.zone_lba_starts.last().expect("non-empty"))
    }

    /// User capacity (the derated capacity of eq. 3).
    pub fn capacity(&self) -> Capacity {
        self.total_sectors().to_capacity()
    }

    /// Full raw → ZBR → derated capacity accounting.
    pub fn capacity_breakdown(&self) -> CapacityBreakdown {
        CapacityBreakdown::compute(&self.platter, &self.tech, &self.zones, self.surfaces())
    }

    /// Maps a logical block address to its physical location.
    ///
    /// Returns `None` when `lba` is beyond the end of the drive.
    pub fn locate(&self, lba: u64) -> Option<Location> {
        if lba >= self.total_sectors().get() {
            return None;
        }
        // partition_point returns the number of zone starts <= lba, so
        // the containing zone is one less.
        let zone_idx = self.zone_lba_starts.partition_point(|&s| s <= lba) - 1;
        let zone = &self.zones.zones()[zone_idx];
        let rel = lba - self.zone_lba_starts[zone_idx];
        let spt = zone.sectors_per_track().get();
        let per_cylinder = spt * self.surfaces() as u64;
        let cyl_in_zone = rel / per_cylinder;
        let rem = rel % per_cylinder;
        Some(Location {
            cylinder: zone.first_cylinder() + cyl_in_zone as u32,
            surface: (rem / spt) as u32,
            sector: (rem % spt) as u32,
            zone: zone.index(),
        })
    }

    /// Maps a physical location back to its logical block address.
    ///
    /// Returns `None` when the location lies outside the drive (bad
    /// cylinder/surface/sector, or a leftover cylinder beyond the zoned
    /// region).
    pub fn lba_of(&self, loc: Location) -> Option<u64> {
        if loc.surface >= self.surfaces() {
            return None;
        }
        let zone = self.zones.zone_of_cylinder(loc.cylinder)?;
        if zone.index() != loc.zone {
            return None;
        }
        let spt = zone.sectors_per_track().get();
        if loc.sector as u64 >= spt {
            return None;
        }
        let cyl_in_zone = (loc.cylinder - zone.first_cylinder()) as u64;
        let per_cylinder = spt * self.surfaces() as u64;
        Some(
            self.zone_lba_starts[zone.index() as usize]
                + cyl_in_zone * per_cylinder
                + loc.surface as u64 * spt
                + loc.sector as u64,
        )
    }

    /// Cylinder holding the given LBA — the quantity seek distances are
    /// measured in. `None` past the end of the drive.
    pub fn cylinder_of(&self, lba: u64) -> Option<u32> {
        self.locate(lba).map(|l| l.cylinder)
    }

    /// Half-open LBA range `[start, end)` covered by zone `zone`, or
    /// `None` for an out-of-range zone index. Lets hot paths that
    /// already hold a [`Location`] resolve nearby LBAs with one
    /// division instead of a full [`Self::locate`].
    pub fn zone_lba_range(&self, zone: u32) -> Option<(u64, u64)> {
        let i = zone as usize;
        if i + 1 >= self.zone_lba_starts.len() {
            return None;
        }
        Some((self.zone_lba_starts[i], self.zone_lba_starts[i + 1]))
    }

    /// Number of cylinders the data band spans (seek distances range over
    /// `0 .. used_cylinders`).
    pub fn used_cylinders(&self) -> u32 {
        self.zones.used_cylinders()
    }
}

impl core::fmt::Display for DriveGeometry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} x{} platters, {} zones, {}",
            self.platter,
            self.platters,
            self.zones.zone_count(),
            self.capacity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::{BitsPerInch, Inches, TracksPerInch};

    fn small_drive() -> DriveGeometry {
        // A deliberately tiny geometry so exhaustive LBA sweeps are fast.
        let tech = RecordingTech::new(BitsPerInch::from_kbpi(16.0), TracksPerInch::new(400.0));
        DriveGeometry::new(Platter::new(Inches::new(3.3)), tech, 2, 10).unwrap()
    }

    #[test]
    fn atlas_10k_drive() {
        let tech = RecordingTech::new(
            BitsPerInch::from_kbpi(256.0),
            TracksPerInch::from_ktpi(13.0),
        );
        let d = DriveGeometry::new(Platter::new(Inches::new(3.3)), tech, 6, 30).unwrap();
        assert_eq!(d.surfaces(), 12);
        let gb = d.capacity().gigabytes();
        assert!((gb - 18.0).abs() / 18.0 < 0.12, "got {gb:.2} GB");
    }

    #[test]
    fn locate_round_trips_exhaustively() {
        let d = small_drive();
        let total = d.total_sectors().get();
        assert!(total > 1000, "need a non-trivial drive, got {total}");
        for lba in 0..total {
            let loc = d.locate(lba).expect("in range");
            assert_eq!(d.lba_of(loc), Some(lba), "round trip failed at {lba}");
        }
    }

    #[test]
    fn locate_past_end_is_none() {
        let d = small_drive();
        assert!(d.locate(d.total_sectors().get()).is_none());
        assert!(d.locate(u64::MAX).is_none());
    }

    #[test]
    fn lba_of_rejects_bad_locations() {
        let d = small_drive();
        let mut loc = d.locate(0).unwrap();
        loc.surface = d.surfaces();
        assert!(d.lba_of(loc).is_none());

        let mut loc = d.locate(0).unwrap();
        loc.sector = u32::MAX;
        assert!(d.lba_of(loc).is_none());

        let mut loc = d.locate(0).unwrap();
        loc.zone = 99;
        assert!(d.lba_of(loc).is_none());
    }

    #[test]
    fn sequential_lbas_share_tracks_then_cylinders() {
        let d = small_drive();
        let a = d.locate(0).unwrap();
        let b = d.locate(1).unwrap();
        // Consecutive LBAs differ only in sector while on the same track.
        assert_eq!(a.cylinder, b.cylinder);
        assert_eq!(a.surface, b.surface);
        assert_eq!(b.sector, a.sector + 1);

        // Crossing a track boundary moves to the next surface first.
        let spt = d.zones().outermost().sectors_per_track().get();
        let c = d.locate(spt).unwrap();
        assert_eq!(c.cylinder, 0);
        assert_eq!(c.surface, 1);
        assert_eq!(c.sector, 0);
    }

    #[test]
    fn cylinders_are_nondecreasing_in_lba() {
        let d = small_drive();
        let mut prev = 0;
        let total = d.total_sectors().get();
        for lba in (0..total).step_by(97) {
            let c = d.cylinder_of(lba).unwrap();
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn zero_platters_rejected() {
        let tech = RecordingTech::new(
            BitsPerInch::from_kbpi(256.0),
            TracksPerInch::from_ktpi(13.0),
        );
        let err = DriveGeometry::new(Platter::new(Inches::new(3.3)), tech, 0, 30).unwrap_err();
        assert!(matches!(err, GeometryError::NoPlatters));
    }

    #[test]
    fn too_many_surfaces_to_address_is_an_error() {
        let tech = RecordingTech::new(
            BitsPerInch::from_kbpi(256.0),
            TracksPerInch::from_ktpi(13.0),
        );
        let platter = Platter::new(Inches::new(3.3));
        assert_eq!(
            DriveGeometry::new(platter, tech, u32::MAX, 30).unwrap_err(),
            GeometryError::Overflow {
                name: "surface count"
            }
        );
        // ~1.2e9 sectors per track on 5.5e7 cylinders: a thousand
        // platters hold more sectors than 64 bits count.
        let dense = RecordingTech::new(BitsPerInch::new(1e12), TracksPerInch::new(1e8));
        assert_eq!(
            DriveGeometry::new(platter, dense, 1_000, 30).unwrap_err(),
            GeometryError::Overflow {
                name: "sector count"
            }
        );
    }

    #[test]
    fn capacity_equals_breakdown_derated() {
        let d = small_drive();
        assert_eq!(d.capacity(), d.capacity_breakdown().derated_capacity());
    }
}
