//! The parallel experiment engine: experiments fan out over the
//! work-stealing [`parallel_map`], with a content-addressed result
//! cache and the run manifest.
//!
//! The pool itself lives in `disksim::par`; this module re-exports it
//! under its historical `disklab::engine` path.

use crate::error::LabError;
use crate::experiment::{Experiment, RunOutput};
use crate::manifest::{Manifest, ManifestEntry};
use serde_json::{Map, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub use disksim::par::{default_parallelism, parallel_map};

/// Where results land and how the run is executed.
pub struct Engine {
    results_dir: PathBuf,
    cache_dir: PathBuf,
    threads: usize,
    use_cache: bool,
}

/// Everything one engine run produced, beyond the files on disk.
pub struct RunSummary {
    /// The manifest, as written to `results/manifest.json`.
    pub manifest: Manifest,
    /// `(name, text report)` pairs in manifest (name) order.
    pub reports: Vec<(String, String)>,
}

impl Engine {
    /// An engine writing into the workspace `results/` directory.
    pub fn workspace() -> std::io::Result<Engine> {
        Ok(Engine::at(crate::text::results_dir()?))
    }

    /// An engine writing into an arbitrary results directory, with the
    /// cache alongside under `.cache/`.
    pub fn at(results_dir: impl Into<PathBuf>) -> Engine {
        let results_dir = results_dir.into();
        let cache_dir = results_dir.join(".cache");
        Engine {
            results_dir,
            cache_dir,
            threads: 1,
            use_cache: true,
        }
    }

    /// Sets the worker-thread count (clamped to at least one).
    pub fn threads(mut self, threads: usize) -> Engine {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables the content-addressed result cache.
    pub fn use_cache(mut self, use_cache: bool) -> Engine {
        self.use_cache = use_cache;
        self
    }

    /// The directory results are written to.
    pub fn results_path(&self) -> &Path {
        &self.results_dir
    }

    /// Runs every experiment across the worker pool, writes all result
    /// files plus `manifest.json`, and returns the summary.
    ///
    /// All experiments are attempted even if one fails; the first
    /// failure (in submission order) is then reported.
    pub fn run(&self, experiments: Vec<Box<dyn Experiment>>) -> Result<RunSummary, LabError> {
        fs::create_dir_all(&self.results_dir)?;
        if self.use_cache {
            fs::create_dir_all(&self.cache_dir)?;
        }
        let started = Instant::now();

        let workers = self.threads.clamp(1, experiments.len().max(1));
        let outcomes = parallel_map(experiments, workers, |exp| self.execute(exp.as_ref()));
        let mut completed = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
        completed.sort_by(|(a, _), (b, _)| a.name.cmp(&b.name));

        let (entries, reports): (Vec<ManifestEntry>, Vec<String>) = completed.into_iter().unzip();
        let names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();

        let manifest = Manifest {
            schema: 2,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            threads: workers,
            total_wall_ms: started.elapsed().as_secs_f64() * 1e3,
            experiments: entries,
        };
        let manifest_json =
            serde_json::to_string_pretty(&manifest).map_err(|e| LabError::Parse(e.to_string()))?;
        fs::write(self.results_dir.join("manifest.json"), manifest_json)?;

        Ok(RunSummary {
            manifest,
            reports: names.into_iter().zip(reports).collect(),
        })
    }

    /// Runs one experiment: cache replay when possible, fresh compute
    /// otherwise. Returns the manifest entry plus the text report. Each
    /// stage is timed into the entry's `stages` for `lab profile`.
    fn execute(&self, exp: &dyn Experiment) -> Result<(ManifestEntry, String), LabError> {
        let digest = exp.config_digest();
        let started = Instant::now();
        let mut spans = diskobs::SpanSet::new();
        let cache_path = self
            .cache_dir
            .join(format!("{}-{digest}.json", exp.name()));

        if self.use_cache && cache_path.exists() {
            // A corrupt or stale cache file is not fatal — recompute.
            if let Ok(output) = spans.time("cache_probe", || read_cached(&cache_path)) {
                let outputs = spans.time("write_outputs", || {
                    self.write_outputs(exp.name(), &output)
                })?;
                let entry = ManifestEntry {
                    name: exp.name().to_string(),
                    digest,
                    cache: "hit".to_string(),
                    wall_ms: started.elapsed().as_secs_f64() * 1e3,
                    stages: spans.into_spans(),
                    outputs,
                };
                return Ok((entry, output.text));
            }
        }

        let output = spans.time("compute", || exp.run())?;
        let outputs = spans.time("write_outputs", || self.write_outputs(exp.name(), &output))?;
        if self.use_cache {
            spans.time("cache_store", || {
                fs::write(&cache_path, render_cached(exp.name(), &digest, &output))
            })?;
        }
        let entry = ManifestEntry {
            name: exp.name().to_string(),
            digest,
            cache: "miss".to_string(),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            stages: spans.into_spans(),
            outputs,
        };
        Ok((entry, output.text))
    }

    /// Writes `<stem>.json` per payload, each side file verbatim, and
    /// `<name>.txt`, returning the file names written.
    fn write_outputs(&self, name: &str, output: &RunOutput) -> Result<Vec<String>, LabError> {
        let mut written = Vec::new();
        for (stem, payload) in &output.json {
            let file = format!("{stem}.json");
            let pretty = serde_json::to_string_pretty(payload)
                .map_err(|e| LabError::Parse(e.to_string()))?;
            fs::write(self.results_dir.join(&file), pretty)?;
            written.push(file);
        }
        for (file, contents) in &output.files {
            fs::write(self.results_dir.join(file), contents)?;
            written.push(file.clone());
        }
        let text_file = format!("{name}.txt");
        fs::write(self.results_dir.join(&text_file), &output.text)?;
        written.push(text_file);
        Ok(written)
    }
}

/// The cache-file document for one computed experiment.
fn render_cached(name: &str, digest: &str, output: &RunOutput) -> String {
    let mut outputs = Map::new();
    for (stem, payload) in &output.json {
        outputs.insert(stem.clone(), payload.clone());
    }
    let mut files = Map::new();
    for (file, contents) in &output.files {
        files.insert(file.clone(), Value::String(contents.clone()));
    }
    let mut doc = Map::new();
    doc.insert("name", Value::String(name.to_string()));
    doc.insert("digest", Value::String(digest.to_string()));
    doc.insert("text", Value::String(output.text.clone()));
    doc.insert("outputs", Value::Object(outputs));
    doc.insert("files", Value::Object(files));
    serde_json::to_string_pretty(&Value::Object(doc)).unwrap_or_default()
}

/// Reads a cache file back into the output it recorded.
fn read_cached(path: &Path) -> Result<RunOutput, LabError> {
    let raw = fs::read_to_string(path)?;
    let doc: Value = serde_json::from_str(&raw).map_err(|e| LabError::Parse(e.to_string()))?;
    let text = doc
        .get("text")
        .and_then(Value::as_str)
        .ok_or_else(|| LabError::Parse("cache entry missing text".into()))?
        .to_string();
    let outputs = doc
        .get("outputs")
        .and_then(Value::as_object)
        .ok_or_else(|| LabError::Parse("cache entry missing outputs".into()))?;
    let json = outputs
        .iter()
        .map(|(stem, payload)| (stem.clone(), payload.clone()))
        .collect();
    // Cache documents written before side files existed have no
    // `files` key; treat them as having none.
    let files = doc
        .get("files")
        .and_then(Value::as_object)
        .map(|m| {
            m.iter()
                .filter_map(|(f, c)| Some((f.clone(), c.as_str()?.to_string())))
                .collect()
        })
        .unwrap_or_default();
    Ok(RunOutput { json, files, text })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::config_object;
    use serde::Serialize as _;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Counting {
        id: u64,
        runs: Arc<AtomicUsize>,
    }

    impl Counting {
        fn boxed(id: u64) -> (Box<dyn Experiment>, Arc<AtomicUsize>) {
            let runs = Arc::new(AtomicUsize::new(0));
            (Box::new(Counting { id, runs: runs.clone() }), runs)
        }
    }

    impl Experiment for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn config(&self) -> Value {
            config_object(vec![("id", self.id.to_value())])
        }
        fn run(&self) -> Result<RunOutput, LabError> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            Ok(RunOutput::single(
                "counting",
                vec![self.id, 2, 3].to_value(),
                format!("id {}\n", self.id),
            ))
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "disklab-engine-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_run_is_a_cache_hit_with_identical_bytes() {
        let dir = scratch("hit");
        let engine = Engine::at(&dir).threads(2);

        let (exp, runs) = Counting::boxed(9);
        let first = engine.run(vec![exp]).unwrap();
        assert_eq!(first.manifest.misses(), 1);
        let bytes1 = fs::read(dir.join("counting.json")).unwrap();

        let (exp, _) = Counting::boxed(9);
        let second = engine.run(vec![exp]).unwrap();
        assert_eq!(second.manifest.hits(), 1);
        assert_eq!(bytes1, fs::read(dir.join("counting.json")).unwrap());
        assert_eq!(runs.load(Ordering::SeqCst), 1, "hit must not recompute");
        assert_eq!(second.reports[0].1, "id 9\n");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabling_the_cache_recomputes() {
        let dir = scratch("nocache");
        let engine = Engine::at(&dir).use_cache(false);
        let (first, runs_a) = Counting::boxed(5);
        engine.run(vec![first]).unwrap();
        let (second, runs_b) = Counting::boxed(5);
        let mid = engine.run(vec![second]).unwrap();
        assert_eq!(mid.manifest.misses(), 1);
        assert_eq!(runs_a.load(Ordering::SeqCst) + runs_b.load(Ordering::SeqCst), 2);
        assert!(!dir.join(".cache").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_lands_next_to_results() {
        let dir = scratch("manifest");
        let engine = Engine::at(&dir);
        let (exp, _) = Counting::boxed(1);
        let summary = engine.run(vec![exp]).unwrap();
        assert!(dir.join("manifest.json").is_file());
        assert_eq!(summary.manifest.experiments[0].outputs, vec![
            "counting.json".to_string(),
            "counting.txt".to_string()
        ]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reexported_parallel_map_matches_serial() {
        // The primitive's own tests live in `disksim::par`; this pins
        // the `disklab::engine` re-export to the same behavior.
        let serial = parallel_map((0..32).collect::<Vec<i64>>(), 1, |x| x * 3);
        let threaded = parallel_map((0..32).collect::<Vec<i64>>(), 8, |x| x * 3);
        assert_eq!(serial, threaded);
    }
}
