//! Zoned Bit Recording (ZBR) zone tables.
//!
//! Tracks are grouped into `n_zones` zones of equal track count; every
//! track in a zone is allocated the bit budget of the zone's *innermost*
//! (shortest) track, trading a little capacity for simple channel
//! electronics. Each sector then pays an embedded-servo field
//! (`⌈log₂ n_cylin⌉` bits, eq. 2) and an ECC field on top of its 4096 raw
//! data bits.

use crate::{GeometryError, Platter, RecordingTech};
use serde::{Deserialize, Serialize};
use units::{Bits, Inches, SectorCount, RAW_BITS_PER_SECTOR};

/// One ZBR zone: a run of equally-provisioned tracks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Zone {
    index: u32,
    first_cylinder: u32,
    cylinders: u32,
    min_radius: Inches,
    raw_bits_per_track: Bits,
    sectors_per_track: SectorCount,
}

impl Zone {
    /// Zone index; zone 0 is outermost.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// First cylinder of this zone (cylinder 0 is outermost).
    pub fn first_cylinder(&self) -> u32 {
        self.first_cylinder
    }

    /// Number of cylinders (tracks per surface) in this zone.
    pub fn cylinders(&self) -> u32 {
        self.cylinders
    }

    /// One past the last cylinder of this zone.
    pub fn end_cylinder(&self) -> u32 {
        self.first_cylinder + self.cylinders
    }

    /// Radius of the zone's innermost track, which sets its bit budget.
    pub fn min_radius(&self) -> Inches {
        self.min_radius
    }

    /// Raw bit budget allocated to *every* track in the zone
    /// (`C_t_zmin = 2π r_zmin · BPI`).
    pub fn raw_bits_per_track(&self) -> Bits {
        self.raw_bits_per_track
    }

    /// User sectors per track after servo + ECC derating.
    pub fn sectors_per_track(&self) -> SectorCount {
        self.sectors_per_track
    }

    /// User sectors in the whole zone on one surface.
    pub fn sectors_per_surface(&self) -> SectorCount {
        self.sectors_per_track * self.cylinders as u64
    }
}

/// A complete ZBR zone table for one surface.
///
/// # Examples
///
/// ```
/// use diskgeom::{Platter, RecordingTech, ZoneTable};
/// use units::{BitsPerInch, Inches, TracksPerInch};
///
/// let tech = RecordingTech::new(
///     BitsPerInch::from_kbpi(256.0),
///     TracksPerInch::from_ktpi(13.0),
/// );
/// let table = ZoneTable::new(Platter::new(Inches::new(3.3)), tech, 30)?;
/// assert_eq!(table.zone_count(), 30);
/// // Outer zones hold more sectors per track than inner ones.
/// assert!(table.outermost().sectors_per_track() > table.innermost().sectors_per_track());
/// # Ok::<(), diskgeom::GeometryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoneTable {
    zones: Vec<Zone>,
    total_cylinders: u32,
    servo_bits: u32,
    ecc_bits: u32,
}

impl ZoneTable {
    /// Builds the zone table for one recording surface.
    ///
    /// # Errors
    ///
    /// - [`GeometryError::InvalidParameter`] if the densities are
    ///   non-positive or not finite, or `n_zones == 0`.
    /// - [`GeometryError::Overflow`] if the cylinder count or a zone's
    ///   sectors per track does not fit in 32 bits.
    /// - [`GeometryError::TooManyZones`] if there are fewer cylinders
    ///   than zones (a platter that is not positive has none).
    /// - [`GeometryError::TrackTooShort`] if the innermost zone cannot
    ///   hold a single derated sector per track.
    pub fn new(
        platter: Platter,
        tech: RecordingTech,
        n_zones: u32,
    ) -> Result<Self, GeometryError> {
        if !tech.is_valid() {
            return Err(GeometryError::InvalidParameter {
                name: "recording density",
            });
        }
        if n_zones == 0 {
            return Err(GeometryError::InvalidParameter { name: "n_zones" });
        }
        let total_cylinders = platter.cylinders(tech.tpi());
        if total_cylinders == u32::MAX {
            return Err(GeometryError::Overflow {
                name: "cylinder count",
            });
        }
        if total_cylinders < n_zones {
            return Err(GeometryError::TooManyZones {
                zones: n_zones,
                cylinders: total_cylinders,
            });
        }

        // Embedded-servo track-id field: Gray-coded cylinder number (eq. 2).
        let servo_bits = (total_cylinders as f64).log2().ceil() as u32;
        let ecc_bits = tech.ecc_bits_per_sector();
        // The ECC budget is a *fraction of the total capacity* ("about
        // 10% of the available capacity", rising to 35% at terabit
        // densities): 416 bits against a 4096-bit sector is 10.16% of
        // the raw medium, so each stored sector occupies
        // 4096 / (1 - f) bits plus its embedded servo field.
        let ecc_fraction = ecc_bits as f64 / RAW_BITS_PER_SECTOR as f64;
        let effective_sector_bits =
            RAW_BITS_PER_SECTOR as f64 / (1.0 - ecc_fraction) + servo_bits as f64;

        let tracks_per_zone = total_cylinders / n_zones;
        let mut zones = Vec::with_capacity(n_zones as usize);
        for z in 0..n_zones {
            let first_cylinder = z * tracks_per_zone;
            // The zone's bit budget comes from its innermost track.
            let innermost = first_cylinder + tracks_per_zone - 1;
            let min_radius = platter.track_radius(innermost, total_cylinders);
            let raw_bits = core::f64::consts::TAU * min_radius.get() * tech.bpi().get();
            let spt = (raw_bits / effective_sector_bits).floor();
            if spt >= u32::MAX as f64 {
                return Err(GeometryError::Overflow {
                    name: "sectors per track",
                });
            }
            let spt = spt as u64;
            if spt == 0 {
                return Err(GeometryError::TrackTooShort {
                    raw_bits,
                    effective_sector_bits,
                });
            }
            zones.push(Zone {
                index: z,
                first_cylinder,
                cylinders: tracks_per_zone,
                min_radius,
                raw_bits_per_track: Bits::new(raw_bits),
                sectors_per_track: SectorCount::new(spt),
            });
        }

        Ok(Self {
            zones,
            total_cylinders,
            servo_bits,
            ecc_bits,
        })
    }

    /// All zones, outermost first.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Number of zones.
    pub fn zone_count(&self) -> u32 {
        self.zones.len() as u32
    }

    /// The outermost zone (zone 0), which carries the peak data rate.
    pub fn outermost(&self) -> &Zone {
        &self.zones[0]
    }

    /// The innermost zone.
    pub fn innermost(&self) -> &Zone {
        self.zones.last().expect("zone table is never empty")
    }

    /// Total cylinders on the surface (including any trailing cylinders
    /// left over from the equal-split that belong to no zone).
    pub fn total_cylinders(&self) -> u32 {
        self.total_cylinders
    }

    /// Cylinders actually covered by zones (`tracks_per_zone × n_zones`).
    pub fn used_cylinders(&self) -> u32 {
        self.zones
            .last()
            .map(Zone::end_cylinder)
            .unwrap_or_default()
    }

    /// Servo bits charged to each sector (eq. 2).
    pub fn servo_bits(&self) -> u32 {
        self.servo_bits
    }

    /// ECC bits charged to each sector.
    pub fn ecc_bits(&self) -> u32 {
        self.ecc_bits
    }

    /// Raw bits a sector occupies on the medium once servo and ECC are
    /// embedded alongside the 4096 data bits. ECC consumes a fraction
    /// `ecc_bits / 4096` of the total medium, so the stored sector is
    /// `4096 / (1 - f)` bits plus the servo field.
    pub fn effective_sector_bits(&self) -> u32 {
        let f = self.ecc_bits as f64 / RAW_BITS_PER_SECTOR as f64;
        (RAW_BITS_PER_SECTOR as f64 / (1.0 - f) + self.servo_bits as f64).round() as u32
    }

    /// Total user sectors on one surface.
    pub fn sectors_per_surface(&self) -> SectorCount {
        self.zones.iter().map(Zone::sectors_per_surface).sum()
    }

    /// The zone containing the given cylinder, or `None` for leftover
    /// cylinders beyond the zoned region.
    pub fn zone_of_cylinder(&self, cylinder: u32) -> Option<&Zone> {
        if cylinder >= self.used_cylinders() {
            return None;
        }
        let tracks_per_zone = self.zones[0].cylinders;
        self.zones.get((cylinder / tracks_per_zone) as usize)
    }

    /// Iterates over `(zone, cylinder)` pairs in outer-to-inner order.
    pub fn iter_cylinders(&self) -> impl Iterator<Item = (&Zone, u32)> + '_ {
        self.zones
            .iter()
            .flat_map(|z| (z.first_cylinder..z.end_cylinder()).map(move |c| (z, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::{BitsPerInch, TracksPerInch};

    fn atlas_10k_table() -> ZoneTable {
        let tech = RecordingTech::new(
            BitsPerInch::from_kbpi(256.0),
            TracksPerInch::from_ktpi(13.0),
        );
        ZoneTable::new(Platter::new(Inches::new(3.3)), tech, 30).unwrap()
    }

    #[test]
    fn zone_partition_is_contiguous_and_equal() {
        let t = atlas_10k_table();
        let tracks_per_zone = t.zones()[0].cylinders();
        let mut next = 0;
        for z in t.zones() {
            assert_eq!(z.first_cylinder(), next);
            assert_eq!(z.cylinders(), tracks_per_zone);
            next = z.end_cylinder();
        }
        assert_eq!(t.used_cylinders(), next);
        assert!(t.used_cylinders() <= t.total_cylinders());
        // At most one zone's worth of leftover cylinders.
        assert!(t.total_cylinders() - t.used_cylinders() < t.zone_count());
    }

    #[test]
    fn sectors_per_track_decrease_inward() {
        let t = atlas_10k_table();
        let mut prev = u64::MAX;
        for z in t.zones() {
            let spt = z.sectors_per_track().get();
            assert!(spt <= prev, "inner zones cannot hold more sectors");
            prev = spt;
        }
    }

    #[test]
    fn servo_bits_match_gray_code_width() {
        let t = atlas_10k_table();
        // 7150 cylinders -> ceil(log2) = 13 bits.
        assert_eq!(t.total_cylinders(), 7150);
        assert_eq!(t.servo_bits(), 13);
        // 4096 / (1 - 416/4096) + 13 = 4559 + 13 = 4572.
        assert_eq!(t.effective_sector_bits(), 4572);
    }

    #[test]
    fn zone0_sector_count_matches_paper_idr_model() {
        // Hand-validated against Table 1: the Atlas 10K zone-0 sector
        // count implies the paper's 46.5 MB/s model IDR at 10K RPM.
        let t = atlas_10k_table();
        let spt = t.outermost().sectors_per_track().get();
        let idr = (10_000.0 / 60.0) * (spt as f64 * 512.0 / (1u64 << 20) as f64);
        assert!(
            (idr - 46.5).abs() < 0.5,
            "zone-0 IDR {idr:.1} MB/s should match the paper's 46.5"
        );
    }

    #[test]
    fn zone_lookup_by_cylinder() {
        let t = atlas_10k_table();
        assert_eq!(t.zone_of_cylinder(0).unwrap().index(), 0);
        let last_used = t.used_cylinders() - 1;
        assert_eq!(
            t.zone_of_cylinder(last_used).unwrap().index(),
            t.zone_count() - 1
        );
        assert!(t.zone_of_cylinder(t.total_cylinders()).is_none());
    }

    #[test]
    fn iter_cylinders_covers_every_used_cylinder_once() {
        let tech = RecordingTech::new(
            BitsPerInch::from_kbpi(256.0),
            TracksPerInch::from_ktpi(1.0),
        );
        let t = ZoneTable::new(Platter::new(Inches::new(3.3)), tech, 10).unwrap();
        let cylinders: Vec<u32> = t.iter_cylinders().map(|(_, c)| c).collect();
        assert_eq!(cylinders.len() as u32, t.used_cylinders());
        for (i, c) in cylinders.iter().enumerate() {
            assert_eq!(i as u32, *c);
        }
    }

    #[test]
    fn too_many_zones_is_rejected() {
        let tech = RecordingTech::new(
            BitsPerInch::from_kbpi(256.0),
            TracksPerInch::new(100.0), // ~55 cylinders on a 3.3" platter
        );
        let err = ZoneTable::new(Platter::new(Inches::new(3.3)), tech, 1000).unwrap_err();
        assert!(matches!(err, GeometryError::TooManyZones { .. }));
    }

    #[test]
    fn absurdly_low_bpi_is_rejected() {
        let tech = RecordingTech::new(
            BitsPerInch::new(10.0), // ~80 bits on the innermost track
            TracksPerInch::from_ktpi(13.0),
        );
        let err = ZoneTable::new(Platter::new(Inches::new(3.3)), tech, 30).unwrap_err();
        assert!(matches!(err, GeometryError::TrackTooShort { .. }));
    }

    #[test]
    fn invalid_density_is_rejected() {
        let tech = RecordingTech::new(BitsPerInch::ZERO, TracksPerInch::from_ktpi(13.0));
        let err = ZoneTable::new(Platter::new(Inches::new(3.3)), tech, 30).unwrap_err();
        assert!(matches!(err, GeometryError::InvalidParameter { .. }));
    }

    #[test]
    fn out_of_range_platters_and_densities_are_errors() {
        let tech =
            |bpi: f64, tpi: f64| RecordingTech::new(BitsPerInch::new(bpi), TracksPerInch::new(tpi));
        // As a checkpoint would carry it: `Platter::new` asserts a
        // positive diameter in debug builds.
        let platter = |d: f64| -> Platter {
            let mut m = serde::Map::new();
            m.insert("diameter", serde::Value::Number(serde::Number::Float(d)));
            serde::Deserialize::from_value(&serde::Value::Object(m)).unwrap()
        };
        // The band of an infinite platter is inf - inf: no cylinders.
        for d in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                ZoneTable::new(platter(d), tech(256e3, 13e3), 30).unwrap_err(),
                GeometryError::TooManyZones {
                    zones: 30,
                    cylinders: 0
                }
            );
        }
        for (d, bpi, tpi, name) in [
            (1e300, 256e3, 13e3, "cylinder count"),
            (3.3, 256e3, 1e300, "cylinder count"),
            (3.3, 1e300, 13e3, "sectors per track"),
        ] {
            assert_eq!(
                ZoneTable::new(platter(d), tech(bpi, tpi), 30).unwrap_err(),
                GeometryError::Overflow { name }
            );
        }
    }

    #[test]
    fn zero_zones_is_rejected() {
        let tech = RecordingTech::new(
            BitsPerInch::from_kbpi(256.0),
            TracksPerInch::from_ktpi(13.0),
        );
        let err = ZoneTable::new(Platter::new(Inches::new(3.3)), tech, 0).unwrap_err();
        assert!(matches!(err, GeometryError::InvalidParameter { name: "n_zones" }));
    }

    #[test]
    fn more_zones_recover_more_capacity() {
        // Finer zoning wastes fewer bits on the min-track allocation, so
        // per-surface capacity grows (or at worst stays equal) with zones.
        let tech = RecordingTech::new(
            BitsPerInch::from_kbpi(256.0),
            TracksPerInch::from_ktpi(13.0),
        );
        let platter = Platter::new(Inches::new(3.3));
        let coarse = ZoneTable::new(platter, tech, 10).unwrap();
        let fine = ZoneTable::new(platter, tech, 30).unwrap();
        assert!(fine.sectors_per_surface() >= coarse.sectors_per_surface());
    }
}
