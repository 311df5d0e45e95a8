//! Trace persistence: JSON corpus files and CSV export.
//!
//! The corpus format is a plain JSON array of `{name, samples}` objects so
//! real utilization traces (if available) can be dropped in without code
//! changes.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use crate::corpus::Corpus;
use crate::trace::UtilTrace;
use crate::Result;

/// Writes a corpus to `path` as JSON.
pub fn save_json(corpus: &Corpus, path: impl AsRef<Path>) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    serde_json::to_writer(&mut w, corpus.traces())?;
    // Flushed here, not in `Drop`, which would discard a failed write.
    w.flush()?;
    Ok(())
}

/// Loads a corpus previously written by [`save_json`] (or hand-authored in
/// the same format). Samples are validated on load: [`UtilTrace`]'s
/// deserializer goes through [`UtilTrace::new`].
pub fn load_json(path: impl AsRef<Path>) -> Result<Corpus> {
    let file = File::open(path)?;
    let traces: Vec<UtilTrace> = serde_json::from_reader(BufReader::new(file))?;
    Ok(Corpus::new(traces))
}

/// Exports a corpus to CSV (`tick,trace1,trace2,…`), truncating to the
/// shortest trace. Handy for external plotting.
pub fn export_csv(corpus: &Corpus, path: impl AsRef<Path>) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    write!(w, "tick")?;
    for t in corpus.traces() {
        write!(w, ",{}", t.name().replace(',', ";"))?;
    }
    writeln!(w)?;
    let len = corpus.traces().iter().map(|t| t.len()).min().unwrap_or(0);
    for tick in 0..len {
        write!(w, "{tick}")?;
        for t in corpus.traces() {
            write!(w, ",{:.4}", t.samples()[tick])?;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

/// Imports a corpus from CSV in the [`export_csv`] format
/// (`tick,name1,name2,…` header, one row per tick). This is the hook for
/// dropping in *real* utilization traces: values are validated into
/// `[0, 1]`, and a row with more or fewer cells than the header is
/// rejected rather than shifting a trace by a tick.
pub fn import_csv(path: impl AsRef<Path>) -> Result<Corpus> {
    use std::io::BufRead;
    let file = File::open(path)?;
    let mut lines = BufReader::new(file).lines();
    let header = lines.next().ok_or_else(|| {
        TraceError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "empty CSV file",
        ))
    })??;
    let names: Vec<String> = header.split(',').skip(1).map(str::to_string).collect();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for (index, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let cells = line.split(',').count();
        if cells != names.len() + 1 {
            return Err(TraceError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "line {}: {cells} cells, the header has {}",
                    index + 2,
                    names.len() + 1
                ),
            )));
        }
        for (k, cell) in line.split(',').skip(1).enumerate() {
            let value: f64 = cell.trim().parse().map_err(|_| {
                TraceError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unparseable sample {cell:?}"),
                ))
            })?;
            columns[k].push(value);
        }
    }
    let mut traces = Vec::with_capacity(names.len());
    for (name, samples) in names.into_iter().zip(columns) {
        traces.push(UtilTrace::new(name, samples)?);
    }
    Ok(Corpus::new(traces))
}

use crate::error::TraceError;

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nps-traces-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn json_roundtrip_preserves_corpus() {
        let corpus = Corpus::enterprise(50, 2);
        let path = tmp("roundtrip.json");
        save_json(&corpus, &path).unwrap();
        let back = load_json(&path).unwrap();
        assert_eq!(corpus, back);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_tampered_samples() {
        let path = tmp("tampered.json");
        std::fs::write(&path, r#"[{"name":"bad","samples":[0.5,7.0]}]"#).unwrap();
        assert!(load_json(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let corpus = Corpus::enterprise(10, 2);
        let path = tmp("export.csv");
        export_csv(&corpus, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("tick,"));
        assert_eq!(header.split(',').count(), 181);
        assert_eq!(lines.count(), 10);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_roundtrip_preserves_values() {
        let corpus = Corpus::enterprise(25, 3);
        let path = tmp("csv-roundtrip.csv");
        export_csv(&corpus, &path).unwrap();
        let back = import_csv(&path).unwrap();
        assert_eq!(back.len(), corpus.len());
        for (a, b) in corpus.traces().iter().zip(back.traces()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.samples().iter().zip(b.samples()) {
                // export_csv writes 4 decimals.
                assert!((x - y).abs() < 5e-5);
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn import_rejects_out_of_range_csv() {
        let path = tmp("bad-range.csv");
        std::fs::write(
            &path,
            "tick,a
0,0.5
1,1.7
",
        )
        .unwrap();
        assert!(import_csv(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn import_rejects_garbage_cells() {
        let path = tmp("bad-cell.csv");
        std::fs::write(
            &path,
            "tick,a
0,hello
",
        )
        .unwrap();
        assert!(import_csv(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn save_reports_a_failed_write() {
        let corpus = Corpus::new(vec![UtilTrace::constant("a", 0.5, 10).unwrap()]);
        assert!(save_json(&corpus, "/dev/full").is_err());
    }

    /// Imports `text` and returns the error message it fails with.
    fn import_error(name: &str, text: &str) -> String {
        let path = tmp(name);
        std::fs::write(&path, text).unwrap();
        let err = import_csv(&path).unwrap_err();
        std::fs::remove_file(path).ok();
        match err {
            crate::TraceError::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                e.to_string()
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    #[test]
    fn import_rejects_a_short_row() {
        let msg = import_error("short-row.csv", "tick,a,b\n0,0.1\n1,0.2,0.3\n2,0.4,0.5\n");
        assert!(msg.starts_with("line 2:"), "{msg}");
    }

    #[test]
    fn import_rejects_a_long_row() {
        let msg = import_error("long-row.csv", "tick,a,b\n0,0.1,0.2\n1,0.2,0.3,0.9\n");
        assert!(msg.starts_with("line 3:"), "{msg}");
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load_json("/nonexistent/nowhere.json").unwrap_err();
        assert!(matches!(err, crate::TraceError::Io(_)));
    }
}
