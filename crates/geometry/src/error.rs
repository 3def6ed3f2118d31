//! Error type for geometry construction.

/// Errors raised when constructing a drive geometry from inconsistent
/// parameters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GeometryError {
    /// The platter diameter, BPI or TPI was zero, negative or non-finite.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
    },
    /// The requested zone count exceeds the number of cylinders, so at
    /// least one zone would hold no tracks.
    TooManyZones {
        /// Zones requested.
        zones: u32,
        /// Cylinders available.
        cylinders: u32,
    },
    /// The configuration yields tracks too short to hold even one sector
    /// after servo and ECC derating.
    TrackTooShort {
        /// Raw bits available on the offending track.
        raw_bits: f64,
        /// Effective bits needed per sector.
        effective_sector_bits: f64,
    },
    /// Zero platters requested.
    NoPlatters,
    /// A count the geometry derives from its parameters overflows the
    /// integer type that addresses it.
    Overflow {
        /// Name of the overflowing count.
        name: &'static str,
    },
}

impl core::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InvalidParameter { name } => {
                write!(f, "parameter `{name}` must be positive and finite")
            }
            Self::TooManyZones { zones, cylinders } => {
                write!(f, "{zones} zones requested but only {cylinders} cylinders available")
            }
            Self::TrackTooShort {
                raw_bits,
                effective_sector_bits,
            } => write!(
                f,
                "innermost track holds {raw_bits:.0} raw bits, fewer than one \
                 {effective_sector_bits:.0}-bit effective sector"
            ),
            Self::NoPlatters => write!(f, "a drive needs at least one platter"),
            Self::Overflow { name } => write!(f, "the drive's {name} overflows its address type"),
        }
    }
}

impl std::error::Error for GeometryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GeometryError::TooManyZones {
            zones: 100,
            cylinders: 50,
        };
        let msg = e.to_string();
        assert!(msg.contains("100"));
        assert!(msg.contains("50"));
        assert!(!msg.chars().next().unwrap().is_uppercase());
    }

    #[test]
    fn error_trait_object_compatible() {
        fn takes_err(_e: Box<dyn std::error::Error + Send + Sync>) {}
        takes_err(Box::new(GeometryError::NoPlatters));
    }
}
