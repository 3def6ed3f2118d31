//! Text-report helpers shared by every experiment, plus the
//! `results/`-directory plumbing (Result-returning, never panicking).

use serde::Serialize;
use std::fs;
use std::io;
use std::path::PathBuf;

/// Appends a formatted line to an experiment's text report. `write!` into
/// a `String` cannot fail, so the macro swallows the `fmt::Result`.
macro_rules! outln {
    ($dst:expr) => {{
        use std::fmt::Write as _;
        let _ = writeln!($dst);
    }};
    ($dst:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($dst, $($arg)*);
    }};
}

/// Appends formatted text (no newline) to an experiment's text report.
macro_rules! out {
    ($dst:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = write!($dst, $($arg)*);
    }};
}

pub(crate) use {out, outln};

/// Returns the workspace `results/` directory, creating it if missing.
pub fn results_dir() -> io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Serializes `value` as pretty JSON into `results/<name>.json` and
/// returns the path written.
pub fn save_json<T: Serialize>(name: &str, value: &T) -> io::Result<PathBuf> {
    let path = results_dir()?.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
    fs::write(&path, json)?;
    diskobs::logger::info(&format!("wrote {}", path.display()));
    Ok(path)
}

/// Renders a separator line sized to a table width.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Renders an ASCII line chart of `(x, y)` series, one row per y-bucket,
/// suitable for eyeballing the shape of a figure in the terminal.
///
/// # Panics
///
/// Panics if `height` or `width` is zero.
pub fn ascii_plot(series: &[(&str, &[(f64, f64)])], width: usize, height: usize) -> String {
    assert!(width > 0 && height > 0, "plot needs a positive canvas");
    let points: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    if points.is_empty() {
        return "(no data)".into();
    }
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &points {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if (x1 - x0).abs() < 1e-12 {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < 1e-12 {
        y1 = y0 + 1.0;
    }

    let mut grid = vec![vec![' '; width]; height];
    let marks = ['*', '+', 'o', 'x', '#', '@'];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for &(x, y) in pts.iter() {
            if !x.is_finite() || !y.is_finite() {
                continue;
            }
            let col = (((x - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
            let row = (((y1 - y) / (y1 - y0)) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = mark;
        }
    }

    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{y1:>10.2} |")
        } else if i == height - 1 {
            format!("{y0:>10.2} |")
        } else {
            format!("{:>10} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10}  {}", "", "-".repeat(width)));
    out.push('\n');
    out.push_str(&format!(
        "{:>10}  {:<width$.2}{:>.2}",
        "",
        x0,
        x1,
        width = width.saturating_sub(6)
    ));
    out.push('\n');
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("{:>12} {}  ", marks[si % marks.len()], name));
    }
    if !series.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        let dir = results_dir().unwrap();
        assert!(dir.is_dir());
    }

    #[test]
    fn save_json_round_trips() {
        let path = save_json("selftest", &vec![1, 2, 3]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let back: Vec<i32> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn rule_has_requested_width() {
        assert_eq!(rule(5), "-----");
    }

    #[test]
    fn plot_renders_every_series_mark() {
        let a: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64)).collect();
        let b: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, (10 - i) as f64)).collect();
        let text = ascii_plot(&[("up", &a), ("down", &b)], 40, 10);
        assert!(text.contains('*'));
        assert!(text.contains('+'));
        assert!(text.contains("up"));
        assert!(text.contains("down"));
    }

    #[test]
    fn plot_survives_degenerate_data() {
        let flat = [(1.0, 2.0), (2.0, 2.0)];
        let text = ascii_plot(&[("flat", &flat)], 20, 5);
        assert!(text.contains('*'));
        assert_eq!(ascii_plot(&[("none", &[])], 20, 5), "(no data)");
    }

    #[test]
    fn outln_builds_reports() {
        let mut s = String::new();
        outln!(s, "a {}", 1);
        out!(s, "b");
        outln!(s);
        assert_eq!(s, "a 1\nb\n");
    }
}
