//! CSV export of experiment data, for plotting outside the terminal.
//!
//! Every figure binary prints human-readable tables; setting
//! `REUSE_CSV_DIR=<dir>` additionally writes machine-readable CSV files so
//! the paper's figures can be regenerated with any plotting tool.

use std::fs;
use std::path::{Path, PathBuf};

use crate::measure::Measurement;

/// The CSV output directory from `REUSE_CSV_DIR`, if set.
pub fn csv_dir() -> Option<PathBuf> {
    std::env::var("REUSE_CSV_DIR").ok().map(PathBuf::from)
}

/// Escapes a CSV field (quotes fields containing separators).
fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders rows to CSV text with a header.
pub fn render(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = header
        .iter()
        .map(|h| field(h))
        .collect::<Vec<_>>()
        .join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Writes a CSV file into `dir`, creating it if needed.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write(
    dir: &Path,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, render(header, rows))?;
    Ok(path)
}

/// Per-layer rows of one measurement (the Table I / Fig. 5 data).
pub fn layer_rows(m: &Measurement) -> Vec<Vec<String>> {
    m.layers
        .iter()
        .map(|l| {
            vec![
                m.kind.name().to_string(),
                l.name.clone(),
                l.inputs.to_string(),
                l.outputs.to_string(),
                l.enabled.to_string(),
                format!("{:.6}", l.input_similarity),
                format!("{:.6}", l.computation_reuse),
                format!("{:.6}", l.hit_rate),
            ]
        })
        .collect()
}

/// Header matching [`layer_rows`].
pub const LAYER_HEADER: [&str; 8] = [
    "dnn",
    "layer",
    "inputs",
    "outputs",
    "enabled",
    "input_similarity",
    "computation_reuse",
    "hit_rate",
];

/// If `REUSE_CSV_DIR` is set, writes the per-layer data of the given
/// measurements and returns the written path.
pub fn maybe_export_layers<'a>(
    measurements: impl IntoIterator<Item = &'a Measurement>,
    name: &str,
) -> Option<PathBuf> {
    let dir = csv_dir()?;
    let rows: Vec<Vec<String>> = measurements.into_iter().flat_map(layer_rows).collect();
    write(&dir, name, &LAYER_HEADER, &rows).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure_workload;
    use reuse_workloads::{Scale, WorkloadKind};

    #[test]
    fn render_escapes_fields() {
        let text = render(
            &["a", "b"],
            &[
                vec!["plain".into(), "has,comma".into()],
                vec!["has\"quote".into(), "x".into()],
            ],
        );
        assert_eq!(text, "a,b\nplain,\"has,comma\"\n\"has\"\"quote\",x\n");
    }

    #[test]
    fn layer_rows_cover_all_layers() {
        let m = measure_workload(WorkloadKind::Kaldi, Scale::Tiny, 6, 2);
        let rows = layer_rows(&m);
        assert_eq!(rows.len(), m.layers.len());
        assert!(rows.iter().all(|r| r.len() == LAYER_HEADER.len()));
        assert_eq!(rows[0][0], "Kaldi");
    }

    #[test]
    fn write_creates_file() {
        let dir = std::env::temp_dir().join("reuse-dnn-csv-test");
        let path = write(&dir, "t.csv", &["x"], &[vec!["1".into()]]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "x\n1\n");
        std::fs::remove_file(path).ok();
    }
}
