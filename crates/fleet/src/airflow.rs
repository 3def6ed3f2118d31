//! The rack-scale airflow graph.
//!
//! §4.2.2 models a drive's internal-air temperature against the ambient
//! at its *inlet*; along one serial airflow, downstream bays run
//! hotter. This module generalizes that chain to a directed acyclic
//! coupling graph: each drive's local ambient is the rack inlet plus a
//! weighted sum of upstream drives' exhaust heat, `T_i = T_inlet + Σ_j k_ij · P_j`, with
//! `k_ij` in kelvin per watt. The network stays linear — drive heat
//! output does not depend on temperature — so one pass per sync epoch
//! suffices.
//!
//! Three topologies share that contract. [`AirflowGraph::new`] (and the
//! `columns` shorthand) store the coupling lists explicitly — fine at
//! rack scale, O(n²) memory and time for dense graphs.
//! [`AirflowGraph::serial`] stores one stream as its length and one
//! coefficient and evaluates it with a running prefix: the same
//! additions, in the same order, as its explicit lists would make.
//! [`AirflowGraph::hall`] instead stores a three-level
//! **rack → row → hall hierarchy**: drives within a rack couple at
//! `k_drive` K/W in bay order, whole racks couple to later racks in
//! their row at `k_rack` against the *rack total* heat, and whole rows
//! couple to later rows at `k_row` against the row total. The implied
//! dense matrix is never materialized; prefix sums over per-rack
//! aggregates evaluate the same linear form in O(n), and the per-rack
//! folds are independent, so the fleet parallelizes them while only the
//! small per-level aggregates couple serially.

use crate::error::FleetError;
use serde::{Deserialize, Serialize};
use units::{Celsius, TempDelta};

/// The per-level shape and coupling coefficients of a
/// [`AirflowGraph::hall`] hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct HallShape {
    /// Drives per rack (the last rack may be partial).
    pub per_rack: usize,
    /// Racks per row (the last row may be partial).
    pub racks_per_row: usize,
    /// K/W from each upstream drive in the same rack.
    pub k_drive: f64,
    /// K/W from each upstream rack's total heat, within the row.
    pub k_rack: f64,
    /// K/W from each upstream row's total heat.
    pub k_row: f64,
}

/// How the coupling matrix is represented.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Topology {
    /// Explicit per-drive `(source, kelvin_per_watt)` lists.
    Flat(Vec<Vec<(usize, f64)>>),
    /// One serial stream: every drive preheated by each drive before it
    /// at `k` K/W; the matrix is implied.
    Serial { drives: usize, k: f64 },
    /// The rack → row → hall hierarchy; the matrix is implied.
    Hierarchy { drives: usize, shape: HallShape },
}

/// A directed acyclic thermal-coupling graph over the fleet's drives.
///
/// In the flat form, `upstream[i]` lists `(source, kelvin_per_watt)`
/// couplings; drive `i`'s local ambient is the rack inlet preheated by
/// every listed source's heat. Sources must have a smaller index than
/// the drive they preheat (air flows forward through the rack), which
/// keeps the graph acyclic by construction. The hierarchical form
/// ([`AirflowGraph::hall`]) keeps the same forward-only discipline
/// level by level: bay order within a rack, rack order within a row,
/// row order within the hall.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AirflowGraph {
    inlet: Celsius,
    topology: Topology,
}

impl AirflowGraph {
    /// Builds a graph from explicit couplings.
    ///
    /// # Errors
    ///
    /// Rejects an empty graph, couplings that point at out-of-range or
    /// non-upstream (index ≥ self) sources, and non-finite or negative
    /// coefficients.
    pub fn new(inlet: Celsius, upstream: Vec<Vec<(usize, f64)>>) -> Result<Self, FleetError> {
        let graph = Self {
            inlet,
            topology: Topology::Flat(upstream),
        };
        graph.validate()?;
        Ok(graph)
    }

    /// A rack → row → hall hierarchy: racks of `per_rack` drives stand
    /// in rows of `racks_per_row` racks. A drive is preheated at
    /// `k_drive` K/W by each drive above it in its own rack, at
    /// `k_rack` K/W by each earlier rack's *total* heat within its row,
    /// and at `k_row` K/W by each earlier row's total heat. The last
    /// rack and row may be partial.
    ///
    /// # Errors
    ///
    /// Rejects `drives == 0`, zero `per_rack` / `racks_per_row`, and
    /// non-finite or negative coefficients.
    pub fn hall(
        drives: usize,
        per_rack: usize,
        racks_per_row: usize,
        inlet: Celsius,
        k_drive: f64,
        k_rack: f64,
        k_row: f64,
    ) -> Result<Self, FleetError> {
        let graph = Self {
            inlet,
            topology: Topology::Hierarchy {
                drives,
                shape: HallShape {
                    per_rack,
                    racks_per_row,
                    k_drive,
                    k_rack,
                    k_row,
                },
            },
        };
        graph.validate()?;
        Ok(graph)
    }

    /// Checks what [`Self::new`] and [`Self::hall`] check on a graph
    /// that arrived some other way, such as a restored checkpoint.
    pub(crate) fn validate(&self) -> Result<(), FleetError> {
        match &self.topology {
            Topology::Flat(upstream) => {
                if upstream.is_empty() {
                    return Err(FleetError::Config("airflow graph has no drives".into()));
                }
                for (i, sources) in upstream.iter().enumerate() {
                    for &(j, k) in sources {
                        if j >= i {
                            return Err(FleetError::Config(format!(
                                "drive {i} coupled to non-upstream source {j}; \
                                 air flows forward, sources must precede sinks"
                            )));
                        }
                        if !k.is_finite() || k < 0.0 {
                            return Err(FleetError::Config(format!(
                                "drive {i} has a bad coupling coefficient {k} K/W from source {j}"
                            )));
                        }
                    }
                }
            }
            Topology::Serial { drives, k } => {
                if *drives == 0 {
                    return Err(FleetError::Config("airflow graph has no drives".into()));
                }
                if !k.is_finite() || *k < 0.0 {
                    return Err(FleetError::Config(format!(
                        "serial coupling must be finite and non-negative, got {k} K/W"
                    )));
                }
            }
            Topology::Hierarchy { drives, shape } => {
                if *drives == 0 {
                    return Err(FleetError::Config("airflow graph has no drives".into()));
                }
                if shape.per_rack == 0 || shape.racks_per_row == 0 {
                    return Err(FleetError::Config(
                        "hall racks and rows need at least one member each".into(),
                    ));
                }
                for (name, k) in [
                    ("k_drive", shape.k_drive),
                    ("k_rack", shape.k_rack),
                    ("k_row", shape.k_row),
                ] {
                    if !k.is_finite() || k < 0.0 {
                        return Err(FleetError::Config(format!(
                            "hall coupling {name} must be finite and non-negative, got {k}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// One serial airflow path: every drive is preheated by *all* drives
    /// before it, each contributing `1 / stream_w_per_k` kelvin per watt
    /// — the bays of one row cooled by one stream. Stored as its length
    /// and coefficient, so a graph of any size takes constant memory.
    ///
    /// # Errors
    ///
    /// Rejects `drives == 0` and a non-positive stream capacity rate.
    pub fn serial(drives: usize, inlet: Celsius, stream_w_per_k: f64) -> Result<Self, FleetError> {
        if stream_w_per_k <= 0.0 || !stream_w_per_k.is_finite() {
            return Err(FleetError::Config(format!(
                "stream capacity rate must be positive and finite, got {stream_w_per_k}"
            )));
        }
        let graph = Self {
            inlet,
            topology: Topology::Serial {
                drives,
                k: 1.0 / stream_w_per_k,
            },
        };
        graph.validate()?;
        Ok(graph)
    }

    /// Independent serial columns of `per_column` drives each: drive `i`
    /// is preheated only by the drives above it in its own column. The
    /// last partial column just ends early.
    ///
    /// # Errors
    ///
    /// Rejects `drives == 0`, `per_column == 0`, and a non-positive
    /// stream capacity rate.
    pub fn columns(
        drives: usize,
        per_column: usize,
        inlet: Celsius,
        stream_w_per_k: f64,
    ) -> Result<Self, FleetError> {
        if per_column == 0 {
            return Err(FleetError::Config("columns need at least one drive each".into()));
        }
        if stream_w_per_k <= 0.0 || !stream_w_per_k.is_finite() {
            return Err(FleetError::Config(format!(
                "stream capacity rate must be positive and finite, got {stream_w_per_k}"
            )));
        }
        let k = 1.0 / stream_w_per_k;
        let upstream = (0..drives)
            .map(|i| {
                let column_start = i - i % per_column;
                (column_start..i).map(|j| (j, k)).collect()
            })
            .collect();
        Self::new(inlet, upstream)
    }

    /// Number of drives in the graph.
    pub fn len(&self) -> usize {
        match &self.topology {
            Topology::Flat(upstream) => upstream.len(),
            Topology::Serial { drives, .. } | Topology::Hierarchy { drives, .. } => *drives,
        }
    }

    /// Moves the rack inlet temperature (the "what if the CRAC setpoint
    /// rose 5 °C?" perturbation). The coupling topology is untouched.
    pub fn set_inlet(&mut self, inlet: Celsius) {
        self.inlet = inlet;
    }

    /// Whether the graph is empty (never true for a validated graph).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rack inlet temperature.
    pub fn inlet(&self) -> Celsius {
        self.inlet
    }

    /// Local ambient each drive sees when the fleet rejects `heats_w`
    /// watts per drive: inlet plus the weighted upstream preheat.
    ///
    /// The hierarchical form evaluates in O(n) via the same per-rack
    /// prefix-sum helpers the fleet's split-phase epoch boundary uses,
    /// so both paths produce bit-identical temperatures.
    ///
    /// # Panics
    ///
    /// Panics if `heats_w.len()` does not match the graph.
    pub fn local_ambients(&self, heats_w: &[f64]) -> Vec<Celsius> {
        let mut out = Vec::with_capacity(heats_w.len());
        self.local_ambients_into(heats_w, &mut out);
        out
    }

    /// [`Self::local_ambients`] into `out`, replacing its contents: the
    /// fleet's flat-graph epoch reuses one buffer.
    pub(crate) fn local_ambients_into(&self, heats_w: &[f64], out: &mut Vec<Celsius>) {
        assert_eq!(heats_w.len(), self.len(), "one heat term per drive");
        out.clear();
        match &self.topology {
            Topology::Flat(upstream) => out.extend(upstream.iter().map(|sources| {
                let preheat: f64 = sources.iter().map(|&(j, k)| heats_w[j] * k).sum();
                self.inlet + TempDelta::new(preheat)
            })),
            Topology::Serial { k, .. } => {
                // The flat lists' sum, one term longer per drive: it
                // starts where `Iterator::sum` starts and adds the same
                // products in the same order.
                let mut preheat: f64 = std::iter::empty::<f64>().sum();
                for &heat in heats_w {
                    out.push(self.inlet + TempDelta::new(preheat));
                    preheat += heat * k;
                }
            }
            Topology::Hierarchy { shape, .. } => {
                let (mut racks, mut bases) = (Vec::new(), Vec::new());
                rack_heats(shape, heats_w, &mut racks);
                self.rack_preheats(shape, &racks, &mut bases);
                for (rack, chunk) in heats_w.chunks(shape.per_rack).enumerate() {
                    rack_ambients_into(self.inlet, bases[rack], shape.k_drive, chunk, out);
                }
            }
        }
    }

    /// The hierarchy's shape, if this graph is hierarchical. The fleet
    /// uses this to split ambient evaluation into a parallel per-rack
    /// pass plus a tiny serial per-level reduce.
    pub(crate) fn hall_shape(&self) -> Option<HallShape> {
        match &self.topology {
            Topology::Flat(_) | Topology::Serial { .. } => None,
            Topology::Hierarchy { shape, .. } => Some(*shape),
        }
    }

    /// Per-rack preheat above the inlet (kelvin) from the *other*
    /// levels, into `out` (replacing its contents): earlier rows at
    /// `k_row`, earlier racks in the same row at `k_rack`. Intra-rack
    /// preheat is the caller's per-rack fold. O(racks), serial — this
    /// is the only cross-rack coupling step.
    pub(crate) fn rack_preheats(&self, shape: &HallShape, rack_heats: &[f64], out: &mut Vec<f64>) {
        out.clear();
        let mut row_prefix = 0.0;
        for row_racks in rack_heats.chunks(shape.racks_per_row) {
            let mut rack_prefix = 0.0;
            for &heat in row_racks {
                out.push(shape.k_row * row_prefix + shape.k_rack * rack_prefix);
                rack_prefix += heat;
            }
            row_prefix += rack_prefix;
        }
    }
}

/// Total heat per rack into `out` (replacing its contents), folded in
/// bay order (the last rack may be short).
pub(crate) fn rack_heats(shape: &HallShape, heats_w: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        heats_w
            .chunks(shape.per_rack)
            .map(|rack| rack.iter().sum::<f64>()),
    );
}

/// Appends one rack's drive ambients: `base_preheat` kelvin above the
/// inlet from the rack/row levels, plus `k_drive` per upstream drive in
/// this rack, folded in bay order. Pure in its inputs, so racks
/// evaluate independently (and in parallel) without changing a bit.
pub(crate) fn rack_ambients_into(
    inlet: Celsius,
    base_preheat: f64,
    k_drive: f64,
    rack_heats_w: &[f64],
    out: &mut Vec<Celsius>,
) {
    let mut prefix = 0.0;
    for &heat in rack_heats_w {
        out.push(inlet + TempDelta::new(base_preheat + k_drive * prefix));
        prefix += heat;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_graph_matches_the_single_path_preheat_formula() {
        let g = AirflowGraph::serial(4, Celsius::new(28.0), 20.0).unwrap();
        let ambients = g.local_ambients(&[10.0, 10.0, 10.0, 10.0]);
        // Bay i preheated by i upstream drives at 10 W each over 20 W/K.
        for (i, a) in ambients.iter().enumerate() {
            let expect = 28.0 + 10.0 * i as f64 / 20.0;
            assert!((a.get() - expect).abs() < 1e-12, "bay {i}: {a} vs {expect}");
        }
    }

    #[test]
    fn columns_isolate_their_preheat() {
        let g = AirflowGraph::columns(4, 2, Celsius::new(25.0), 10.0).unwrap();
        let ambients = g.local_ambients(&[8.0, 8.0, 8.0, 8.0]);
        // Column heads (0 and 2) see pristine inlet air.
        assert_eq!(ambients[0], Celsius::new(25.0));
        assert_eq!(ambients[2], Celsius::new(25.0));
        assert!(ambients[1] > ambients[0]);
        assert_eq!(ambients[1], ambients[3]);
    }

    #[test]
    fn downstream_sources_are_rejected() {
        let e = AirflowGraph::new(Celsius::new(28.0), vec![vec![(1, 0.1)], vec![]]);
        assert!(matches!(e, Err(FleetError::Config(_))));
        let e = AirflowGraph::new(Celsius::new(28.0), vec![vec![], vec![(1, 0.1)]]);
        assert!(matches!(e, Err(FleetError::Config(_))), "self-coupling is a cycle");
    }

    #[test]
    fn bad_coefficients_and_empty_graphs_are_rejected() {
        assert!(AirflowGraph::new(Celsius::new(28.0), vec![]).is_err());
        assert!(AirflowGraph::new(Celsius::new(28.0), vec![vec![], vec![(0, -0.1)]]).is_err());
        assert!(
            AirflowGraph::new(Celsius::new(28.0), vec![vec![], vec![(0, f64::NAN)]]).is_err()
        );
        assert!(AirflowGraph::serial(3, Celsius::new(28.0), 0.0).is_err());
        assert!(AirflowGraph::serial(0, Celsius::new(28.0), 12.0).is_err());
        // A restored serial graph is checked as strictly as a built one.
        for k in [-0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let g = AirflowGraph {
                inlet: Celsius::new(28.0),
                topology: Topology::Serial { drives: 3, k },
            };
            assert!(matches!(g.validate(), Err(FleetError::Config(_))), "k = {k}");
        }
    }

    #[test]
    fn serial_is_bit_identical_to_its_explicit_lists() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xa1f10e);
        for (drives, stream) in [(1, 12.0), (2, 0.7), (17, 10.0), (64, 3.3), (300, 1.0)] {
            let inlet = Celsius::new(rng.gen_range(20.0..35.0));
            let compact = AirflowGraph::serial(drives, inlet, stream).unwrap();
            let k = 1.0 / stream;
            let upstream = (0..drives).map(|i| (0..i).map(|j| (j, k)).collect()).collect();
            let explicit = AirflowGraph::new(inlet, upstream).unwrap();
            assert_eq!(compact.len(), explicit.len());
            for round in 0..20 {
                let heats: Vec<f64> = (0..drives)
                    .map(|_| match rng.gen_range(0..8u32) {
                        0 => 0.0,
                        1 => rng.gen_range(0.0..1e-6),
                        _ => rng.gen_range(0.0..40.0),
                    })
                    .collect();
                let (a, b) = (compact.local_ambients(&heats), explicit.local_ambients(&heats));
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(
                        x.get().to_bits(),
                        y.get().to_bits(),
                        "{drives} drives, round {round}, drive {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn hall_matches_the_equivalent_flat_graph() {
        // 2 rows of 3 racks of 2 drives. Build the dense matrix the
        // hierarchy implies and check both forms agree bit-for-bit
        // (modulo summation order, hence the 1e-9 tolerance).
        let (per_rack, racks_per_row) = (2usize, 3usize);
        let (kd, kr, kw) = (0.05, 0.02, 0.01);
        let drives = 12;
        let hall = AirflowGraph::hall(
            drives,
            per_rack,
            racks_per_row,
            Celsius::new(28.0),
            kd,
            kr,
            kw,
        )
        .unwrap();
        let upstream: Vec<Vec<(usize, f64)>> = (0..drives)
            .map(|i| {
                let (rack_i, row_i) = (i / per_rack, i / per_rack / racks_per_row);
                (0..i)
                    .map(|j| {
                        let (rack_j, row_j) = (j / per_rack, j / per_rack / racks_per_row);
                        if rack_j == rack_i {
                            (j, kd)
                        } else if row_j == row_i {
                            (j, kr)
                        } else {
                            (j, kw)
                        }
                    })
                    .collect()
            })
            .collect();
        let flat = AirflowGraph::new(Celsius::new(28.0), upstream).unwrap();
        let heats: Vec<f64> = (0..drives).map(|i| 6.0 + i as f64 * 0.5).collect();
        for (i, (h, f)) in hall
            .local_ambients(&heats)
            .iter()
            .zip(flat.local_ambients(&heats))
            .enumerate()
        {
            assert!((h.get() - f.get()).abs() < 1e-9, "drive {i}: {h} vs {f}");
        }
    }

    #[test]
    fn hall_levels_preheat_in_order() {
        // 2 racks per row, 2 drives per rack, 8 drives = 2 rows.
        let g = AirflowGraph::hall(8, 2, 2, Celsius::new(25.0), 0.1, 0.05, 0.01).unwrap();
        let a = g.local_ambients(&[10.0; 8]);
        assert_eq!(a[0], Celsius::new(25.0), "first drive sees pristine inlet");
        // Second drive in rack 0: intra-rack preheat only.
        assert!((a[1].get() - 26.0).abs() < 1e-12);
        // First drive of rack 1 (same row): rack-level preheat of 20 W.
        assert!((a[2].get() - 26.0).abs() < 1e-12);
        // First drive of row 1: row-level preheat of 40 W at 0.01.
        assert!((a[4].get() - 25.4).abs() < 1e-12);
        // Partial tail rack is fine.
        let partial = AirflowGraph::hall(7, 2, 2, Celsius::new(25.0), 0.1, 0.05, 0.01).unwrap();
        assert_eq!(partial.len(), 7);
        assert_eq!(partial.local_ambients(&[10.0; 7]).len(), 7);
    }

    #[test]
    fn hall_rejects_bad_shapes() {
        let inlet = Celsius::new(25.0);
        assert!(AirflowGraph::hall(0, 2, 2, inlet, 0.1, 0.1, 0.1).is_err());
        assert!(AirflowGraph::hall(8, 0, 2, inlet, 0.1, 0.1, 0.1).is_err());
        assert!(AirflowGraph::hall(8, 2, 0, inlet, 0.1, 0.1, 0.1).is_err());
        assert!(AirflowGraph::hall(8, 2, 2, inlet, -0.1, 0.1, 0.1).is_err());
        assert!(AirflowGraph::hall(8, 2, 2, inlet, 0.1, f64::NAN, 0.1).is_err());
    }

    #[test]
    fn heat_redistribution_leaves_downstream_preheat_unchanged() {
        // Moving load between upstream drives cannot change the total
        // preheat a serial path's last bay sees — the physical argument
        // for why thermal-aware routing helps the hottest drive.
        let g = AirflowGraph::serial(4, Celsius::new(28.0), 12.0).unwrap();
        let balanced = g.local_ambients(&[8.0, 8.0, 8.0, 20.0]);
        let skewed = g.local_ambients(&[14.0, 4.0, 6.0, 20.0]);
        assert!((balanced[3].get() - skewed[3].get()).abs() < 1e-12);
    }
}
