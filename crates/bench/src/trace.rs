//! `--trace-out` plumbing for the experiment binaries.
//!
//! Every binary accepts `--trace-out PATH` (or `--trace-out=PATH`).
//! [`crate::run_bin`] computes the experiment once, renders it, and then
//! writes the module's `trace_ndjson` of that same output here. A trace
//! never reruns the experiment and never changes a byte of stdout. It
//! holds only simulated-time and metric data, so it is bit-identical at
//! any `--jobs` count.

use std::path::Path;

/// Writes `contents` to `path`, creating parent directories as needed.
/// Intentionally silent on stdout (traces must not perturb golden
/// output); an I/O failure panics — a requested trace that cannot be
/// written is an error, not a shrug.
pub fn write(path: &Path, contents: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("trace dir {}: {e}", parent.display()));
        }
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("trace {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_creates_parents_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("quartz_trace_test_{}", std::process::id()));
        let path = dir.join("nested/trace.ndjson");
        write(&path, "{\"ev\":\"x\"}\n");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ev\":\"x\"}\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
