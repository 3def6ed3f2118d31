//! Workload replay: generate a synthetic trace, persist it, reload it,
//! and replay it against two spindle speeds.
//!
//! Run with: `cargo run --release --example workload_replay [workload]`
//! where `workload` is one of `openmail`, `oltp`, `search`, `tpcc`,
//! `tpch` (default `tpcc`).

use std::io::BufReader;
use thermodisk::prelude::*;
use units::Rpm;
use workloads::{preset_by_key, read_trace, write_trace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "tpcc".into());
    let preset = preset_by_key(&which).ok_or_else(|| format!("unknown workload `{which}`"))?;

    println!(
        "{}: {} disks{}, base {:.0} RPM",
        preset.name,
        preset.disks,
        if preset.raid.is_some() { " (RAID-5)" } else { "" },
        preset.base_rpm.get()
    );

    // Generate and persist the trace.
    let trace = preset.generate(30_000, 7)?;
    let path = std::env::temp_dir().join("thermodisk_trace.jsonl");
    write_trace(std::fs::File::create(&path)?, &trace)?;
    println!("wrote {} requests to {}", trace.len(), path.display());

    // Reload and verify fidelity.
    let restored = read_trace(BufReader::new(std::fs::File::open(&path)?))?;
    assert_eq!(trace, restored, "trace round-trips losslessly");

    // Replay at the base speed and +10K RPM.
    for rpm in [preset.base_rpm, preset.base_rpm + Rpm::new(10_000.0)] {
        let mut system = StorageSystem::new(preset.system_config(rpm)?)?;
        for r in &restored {
            system.submit(*r)?;
        }
        let done = system.drain();
        let stats = ResponseStats::from_completions(&done);
        println!("\nat {:>6.0} RPM: {stats}", rpm.get());
        println!("  response-time CDF:");
        for (edge, frac) in stats.cdf() {
            if edge.is_finite() {
                println!("    <= {edge:>5.0} ms: {:>6.1}%", frac * 100.0);
            } else {
                println!("    beyond    : {:>6.1}%", (1.0 - stats.cdf()[8].1) * 100.0);
            }
        }
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}
