//! The experiment registry: every table/figure regenerator, by name.

use crate::experiment::{Experiment, Scale};
use crate::experiments::{
    ablations::Ablations, capacity_plan::CapacityPlan,
    figure1::Figure1, figure2::Figure2, figure3::Figure3, figure4::Figure4, figure5::Figure5,
    figure7::Figure7, fleet_hall::FleetHall, fleet_routing::FleetRouting,
    fleet_scaling::FleetScaling,
    formfactor::FormFactor, plan::Plan, scenario_cooling::ScenarioCooling,
    scenario_diurnal::ScenarioDiurnal, scenario_rebuild::ScenarioRebuild, shuffle::Shuffle,
    table1::Table1, table3::Table3, twin_whatif::TwinWhatif,
};

/// Every registered experiment, in name order, at the given scale.
pub fn registry(scale: Scale) -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(Ablations),
        Box::new(CapacityPlan::at_scale(scale)),
        Box::new(Figure1::default()),
        Box::new(Figure2),
        Box::new(Figure3),
        Box::new(Figure4::at_scale(scale)),
        Box::new(Figure5),
        Box::new(Figure7::default()),
        Box::new(FleetHall::at_scale(scale)),
        Box::new(FleetRouting::at_scale(scale)),
        Box::new(FleetScaling::at_scale(scale)),
        Box::new(FormFactor),
        Box::new(Plan),
        Box::new(ScenarioCooling::at_scale(scale)),
        Box::new(ScenarioDiurnal::at_scale(scale)),
        Box::new(ScenarioRebuild::at_scale(scale)),
        Box::new(Shuffle::at_scale(scale)),
        Box::new(Table1),
        Box::new(Table3),
        Box::new(TwinWhatif::at_scale(scale)),
    ]
}

/// The registered experiment names, in registry order.
pub fn names() -> Vec<&'static str> {
    registry(Scale::Quick).iter().map(|e| e.name()).collect()
}

/// Looks one experiment up by name.
pub fn by_name(name: &str, scale: Scale) -> Option<Box<dyn Experiment>> {
    registry(scale).into_iter().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "registry must stay in sorted name order");
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn lookup_finds_each_name() {
        for name in names() {
            assert!(by_name(name, Scale::Quick).is_some(), "{name} missing");
        }
        assert!(by_name("figure6", Scale::Quick).is_none());
    }

    #[test]
    fn digests_are_distinct_across_experiments() {
        let digests: std::collections::BTreeSet<String> = registry(Scale::Quick)
            .iter()
            .map(|e| e.config_digest())
            .collect();
        assert_eq!(digests.len(), 20);
    }

    #[test]
    fn scale_moves_simulation_digests_only() {
        let full = registry(Scale::Full);
        let quick = registry(Scale::Quick);
        for (f, q) in full.iter().zip(&quick) {
            let differs = f.config_digest() != q.config_digest();
            let simulation_heavy = matches!(
                f.name(),
                "capacity_plan" | "figure4" | "fleet_hall" | "fleet_routing" | "fleet_scaling"
                    | "scenario_cooling"
                    | "scenario_diurnal" | "scenario_rebuild" | "shuffle" | "twin_whatif"
            );
            assert_eq!(differs, simulation_heavy, "{}", f.name());
        }
    }
}
