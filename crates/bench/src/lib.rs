//! # `tolerance-bench`
//!
//! The experiments of the TOLERANCE reproduction: the `experiments` binary
//! regenerates every table and figure of the paper's evaluation
//! (`cargo run -p tolerance-bench --release --bin experiments -- <experiment>`).
//! Performance is measured by the separate `benchmark/` package.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use serde::Serialize;
use std::path::{Path, PathBuf};

/// Directory into which the experiment binary writes JSON artifacts.
const RESULTS_DIR: &str = "results";

/// Serializes an experiment result to `results/<name>.json`, creating the
/// directory if needed, and returns the path written.
///
/// # Errors
///
/// Returns the I/O error of the directory creation or the write; a
/// serialization failure is reported as [`std::io::ErrorKind::InvalidData`].
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|err| std::io::Error::new(std::io::ErrorKind::InvalidData, err))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Renders a simple ASCII sparkline of a numeric series (used to visualize
/// figure-style results in the terminal output).
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let range = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            let level = (((v - min) / range) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[level.min(LEVELS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        let line = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('▁'));
        assert!(line.ends_with('█'));
        // Constant series does not panic.
        assert_eq!(sparkline(&[1.0, 1.0]).chars().count(), 2);
    }

    #[test]
    fn write_json_creates_artifact() {
        let value = vec![1.0, 2.0, 3.0];
        let path = write_json("unit-test-artifact", &value).expect("results/ is writable");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("1.0"));
        let _ = std::fs::remove_file(path);
    }
}
