//! The ported experiment implementations — one module per table/figure.
//!
//! Each module holds an [`Experiment`](crate::Experiment) whose `run`
//! builds a text report (`results/<name>.txt`) and one or more JSON
//! payloads (`results/<stem>.json`).

pub mod ablations;
pub mod capacity_plan;
pub mod figure1;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod figure7;
pub mod fleet_hall;
pub mod fleet_routing;
pub mod fleet_scaling;
pub mod formfactor;
pub mod plan;
pub mod scenario_cooling;
pub mod scenario_diurnal;
pub mod scenario_rebuild;
mod scenario_support;
pub mod shuffle;
pub mod table1;
pub mod table3;
pub mod twin_whatif;

use serde_json::{Map, Value};

/// Builds a config object from key/value pairs, preserving order.
pub(crate) fn config_object(entries: Vec<(&str, Value)>) -> Value {
    let mut map = Map::new();
    for (k, v) in entries {
        map.insert(k, v);
    }
    Value::Object(map)
}
