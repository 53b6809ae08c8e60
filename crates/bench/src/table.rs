//! Fixed-width text tables for experiment output.
//!
//! This module is also the crate's single stdout sink: the
//! `stdout-discipline` lint rule (`quartz-lint`) forbids bare
//! `println!` in library code, so every experiment line goes through
//! [`emit_line`] — usually via the [`outln!`](crate::outln) macro. A bad
//! command line is reported on stderr from here too ([`exit_usage`]).

/// Writes one line of experiment output to stdout. The only sanctioned
/// `println!` call site in the crate's library code (this file is a
/// `stdout-discipline` sanctuary); everything funnels through here so
/// output stays auditable and byte-stable.
pub fn emit_line(args: std::fmt::Arguments<'_>) {
    println!("{args}");
}

/// Reports a bad command line of experiment binary `bin` on stderr and
/// exits with status 2, before any experiment output.
pub fn exit_usage(bin: &str, error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: {bin} [--quick] [--jobs N] [--trace-out PATH]");
    std::process::exit(2)
}

/// `println!` for experiment output, routed through
/// [`table::emit_line`](emit_line). Formats identically to `println!`
/// (same macro input, same trailing newline) so converting a call site
/// never changes a byte of output.
#[macro_export]
macro_rules! outln {
    () => { $crate::table::emit_line(::core::format_args!("")) };
    ($($arg:tt)*) => { $crate::table::emit_line(::core::format_args!($($arg)*)) };
}

/// Prints a fixed-width table: a header row, a rule, then rows. Column
/// widths fit the widest cell; numeric-looking cells are right-aligned.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut width = vec![0usize; cols];
    for (i, h) in headers.iter().enumerate() {
        width[i] = h.chars().count();
    }
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, c) in row.iter().enumerate() {
            width[i] = width[i].max(c.chars().count());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let pad = width[i] - c.chars().count();
            if looks_numeric(c) {
                line.push_str(&" ".repeat(pad));
                line.push_str(c);
            } else {
                line.push_str(c);
                line.push_str(&" ".repeat(pad));
            }
        }
        line.trim_end().to_string()
    };
    let headers_owned: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&headers_owned));
    println!(
        "{}",
        width
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("--")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

fn looks_numeric(s: &str) -> bool {
    let t = s.trim_start_matches(['$', '+', '-']);
    !t.is_empty()
        && t.chars()
            .all(|c| c.is_ascii_digit() || c == '.' || c == '%' || c == ',' || c == 'x')
}

/// Formats a nanosecond latency as microseconds with two decimals.
pub fn us(ns: f64) -> String {
    format!("{:.2}", ns / 1e3)
}

/// Formats a 0..1 fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_detection() {
        assert!(looks_numeric("123"));
        assert!(looks_numeric("1.5"));
        assert!(looks_numeric("$633"));
        assert!(looks_numeric("33%"));
        assert!(looks_numeric("-6.0"));
        assert!(!looks_numeric("Quartz"));
        assert!(!looks_numeric(""));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(1500.0), "1.50");
        assert_eq!(pct(0.335), "33.5%");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        print_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
