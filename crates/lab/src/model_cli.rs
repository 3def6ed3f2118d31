//! `lab model` — one-shot calculators over the integrated drive model.
//!
//! ```text
//! lab model capacity  --diameter D --platters N --kbpi K --ktpi K [--zones 30] [--rpm 10000]
//! lab model thermal   --diameter D --platters N --rpm R [--duty 1.0] [--ambient 28]
//! lab model design    --year Y --diameter D --platters N [--zones 50] [--rpm R]
//! lab model analyze   <trace>
//! lab model workloads
//! ```
//!
//! `analyze` reads JSON lines, DiskSim ASCII or MSR-Cambridge CSV, told
//! apart by the first data line whatever the file is called. The year's
//! roadmap is the registered `plan` experiment (`lab plan`).

use crate::twin_cli::parse_flag;
use std::collections::BTreeMap;
use thermodisk::prelude::*;

/// One-line usage for `lab model` errors.
const MODEL_USAGE: &str = "usage: lab model capacity --diameter D --platters N --kbpi K \
     --ktpi K [--zones 30] [--rpm 10000] | thermal --diameter D --platters N --rpm R \
     [--duty 1.0] [--ambient 28] | design --year Y --diameter D --platters N [--zones 50] \
     [--rpm R] | analyze <trace> | workloads";

/// Runs the `model` subcommand. Returns a process exit code; every
/// failure is one line on stderr and exits 2.
pub fn run_model(args: &[String]) -> i32 {
    let Some(verb) = args.first() else {
        eprintln!("lab model: missing verb ({MODEL_USAGE})");
        return 2;
    };
    let rest = &args[1..];
    let result = match verb.as_str() {
        "capacity" => capacity(rest),
        "thermal" => thermal(rest),
        "design" => design(rest),
        "analyze" => match rest {
            [path] => analyze(path),
            _ => Err("exactly one trace path expected".into()),
        },
        "workloads" if rest.is_empty() => Ok(workloads()),
        "workloads" => Err("takes no arguments".into()),
        other => {
            eprintln!("lab model: unknown verb {other:?} ({MODEL_USAGE})");
            return 2;
        }
    };
    match result {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(e) => {
            eprintln!("lab model {verb}: {e}");
            2
        }
    }
}

/// The `--name value` pairs of one calculator's arguments. Each
/// calculator takes the flags it reads, then [`Flags::finish`] rejects
/// any left over.
struct Flags<'a>(BTreeMap<&'a str, &'a String>);

impl<'a> Flags<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut pairs = BTreeMap::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            pairs.insert(name.as_str(), value);
        }
        Ok(Flags(pairs))
    }

    fn take<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.0
            .remove(name)
            .map(|v| parse_flag(name, Some(v)))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, String> {
        self.take(name)?
            .ok_or_else(|| format!("missing required flag {name}"))
    }

    fn finish(self) -> Result<(), String> {
        match self.0.into_keys().next() {
            Some(name) => Err(format!("unknown flag {name:?} ({MODEL_USAGE})")),
            None => Ok(()),
        }
    }
}

fn capacity(args: &[String]) -> Result<String, String> {
    let mut f = Flags::parse(args)?;
    let dia: f64 = f.required("--diameter")?;
    let platters: u32 = f.required("--platters")?;
    let kbpi: f64 = f.required("--kbpi")?;
    let ktpi: f64 = f.required("--ktpi")?;
    let zones: u32 = f.take("--zones")?.unwrap_or(30);
    let rpm: f64 = f.take("--rpm")?.unwrap_or(10_000.0);
    f.finish()?;

    let tech = RecordingTech::new(BitsPerInch::from_kbpi(kbpi), TracksPerInch::from_ktpi(ktpi));
    let geom = DriveGeometry::new(Platter::new(Inches::new(dia)), tech, platters, zones)
        .map_err(|e| e.to_string())?;
    let z = geom.zones();
    Ok(format!(
        "geometry : {geom}\n\
         capacity : {}\n\
         zones    : {} of {} tracks, {} sectors/track outer vs {} inner\n\
         peak IDR : {:.1} MB/s at {rpm:.0} RPM (sustained {:.1})\n",
        geom.capacity_breakdown(),
        z.zone_count(),
        z.zones()[0].cylinders(),
        z.outermost().sectors_per_track().get(),
        z.innermost().sectors_per_track().get(),
        idr(z, Rpm::new(rpm)).get(),
        thermodisk::perf::sustained_idr(z, Rpm::new(rpm)).get(),
    ))
}

fn thermal(args: &[String]) -> Result<String, String> {
    use thermodisk::thermal::{max_rpm_within_envelope, reliability, EnvelopeSearch};
    let mut f = Flags::parse(args)?;
    let dia: f64 = f.required("--diameter")?;
    let platters: u32 = f.required("--platters")?;
    let rpm: f64 = f.required("--rpm")?;
    let duty: f64 = f.take("--duty")?.unwrap_or(1.0);
    let ambient: f64 = f.take("--ambient")?.unwrap_or(28.0);
    f.finish()?;

    let spec =
        DriveThermalSpec::new(Inches::new(dia), platters).with_ambient(Celsius::new(ambient));
    let model = ThermalModel::new(spec);
    let op = OperatingPoint::new(Rpm::new(rpm), duty);
    let t = model.steady_state(op);
    let max =
        match max_rpm_within_envelope(&model, duty, THERMAL_ENVELOPE, EnvelopeSearch::default()) {
            Some(max) => format!("{:.0} RPM at this duty", max.get()),
            None => "infeasible at any speed".to_string(),
        };
    Ok(format!(
        "operating point  : {op}\n\
         steady state     : {t}\n\
         viscous windage  : {:.2} W ({dia:.1}\" x{platters})\n\
         within envelope  : {} (envelope {THERMAL_ENVELOPE})\n\
         max in-envelope  : {max}\n\
         reliability      : {:.2}x failure rate vs ambient (2x per {:.0} C)\n",
        model.power_breakdown(op).viscous.get(),
        t.air <= THERMAL_ENVELOPE,
        reliability::assess(&model, op).acceleration_vs_ambient,
        reliability::DOUBLING_RISE.get(),
    ))
}

fn design(args: &[String]) -> Result<String, String> {
    let mut f = Flags::parse(args)?;
    let year: i32 = f.required("--year")?;
    let dia: f64 = f.required("--diameter")?;
    let platters: u32 = f.required("--platters")?;
    let zones: u32 = f.take("--zones")?.unwrap_or(50);
    let rpm: Option<f64> = f.take("--rpm")?;
    f.finish()?;
    let builder = || {
        DriveDesign::builder()
            .platter_diameter(Inches::new(dia))
            .platters(platters)
            .zones(zones)
            .densities_of_year(year)
    };
    let rpm = match rpm {
        Some(rpm) => Rpm::new(rpm),
        // Default to the fastest envelope-respecting speed.
        None => builder()
            .rpm(Rpm::new(10_000.0))
            .build()
            .map_err(|e| e.to_string())?
            .max_rpm_within(THERMAL_ENVELOPE)
            .ok_or("no envelope-respecting speed exists")?,
    };
    let design = builder().rpm(rpm).build().map_err(|e| e.to_string())?;
    let target = TechnologyTrend::default().idr_target(year).get();
    let met = design.max_idr().get() >= 0.985 * target;
    Ok(format!(
        "{design}\ntarget for {year}: {target:.1} MB/s -> {}\n",
        if met { "MET" } else { "missed" }
    ))
}

/// Profiles a block trace in any format `workloads::read_trace` detects.
fn analyze(path: &str) -> Result<String, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let trace =
        workloads::read_trace(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    Ok(match workloads::analyze(&trace) {
        Some(profile) => format!("{profile}\n"),
        None => "empty trace\n".to_string(),
    })
}

fn workloads() -> String {
    presets()
        .iter()
        .map(|p| {
            format!(
                "{:<18} {:>2} disks{}  base {:>6.0} RPM  ~{:>4.0} req/s  paper mean {:>5.2} ms  ({} trace requests)\n",
                p.name,
                p.disks,
                if p.raid.is_some() { " RAID-5" } else { "       " },
                p.base_rpm.get(),
                p.arrivals.mean_rate(),
                p.paper_mean_response_ms,
                p.paper_requests,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn analyze_detects_the_format_whatever_the_extension() {
        let msr = "128166372003061629,hm,1,Read,3154665472,4096,60809\n\
                   128166372016382155,hm,1,Write,3154661376,4096,1222\n";
        let json = "{\"id\":0,\"arrival\":0.5,\"device\":0,\"lba\":100,\"sectors\":8,\"kind\":\"Read\"}\n\
                    {\"id\":1,\"arrival\":1.5,\"device\":0,\"lba\":108,\"sectors\":8,\"kind\":\"Write\"}\n\
                    {\"id\":2,\"arrival\":2.5,\"device\":1,\"lba\":900,\"sectors\":16,\"kind\":\"Read\"}\n";
        let ascii = "0.000 0 1024 8 1\n1.500 0 2048 16 0\n";
        for (name, contents, requests) in [
            ("msr.txt", msr, 2),
            ("json.txt", json, 3),
            ("trace.ascii", ascii, 2),
        ] {
            // Unique to this process and case, so parallel tests never
            // share a file.
            let path =
                std::env::temp_dir().join(format!("lab-model-{}-{name}", std::process::id()));
            std::fs::write(&path, contents).unwrap();
            let text = analyze(path.to_str().unwrap());
            std::fs::remove_file(&path).ok();
            let text = text.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                text.starts_with(&format!("{requests} reqs ")),
                "{name}: {text}"
            );
        }
    }

    #[test]
    fn bad_flags_and_missing_args_exit_2() {
        assert_eq!(
            run_model(&args(&["thermal", "--diameter", "2.6", "--platters", "1"])),
            2
        );
        assert_eq!(run_model(&args(&["thermal", "--ambient"])), 2);
        assert_eq!(run_model(&args(&["capacity", "--wat", "1"])), 2);
        assert_eq!(run_model(&args(&["analyze"])), 2);
        assert_eq!(run_model(&args(&["workloads", "extra"])), 2);
    }
}
