//! Shared harness utilities for the experiment benches (e01–e20).
//!
//! Every bench target regenerates one quantitative result of the paper and
//! prints a table with a "paper" column (the closed-form bound or constant)
//! next to a "measured" column. All randomness is seeded with [`SEED`] so
//! tables reproduce bit-for-bit.

#![forbid(unsafe_code)]

/// The standard seed embedded in every experiment table.
pub const SEED: u64 = 0x5EED_2019;

/// Prints the experiment banner.
pub fn banner(id: &str, paper_ref: &str, claim: &str) {
    println!("================================================================");
    println!("{id}  [{paper_ref}]");
    println!("{claim}");
    println!("seed = {SEED:#x}");
    println!("================================================================");
}

/// Prints an aligned table: `headers` then `rows`, all columns padded to
/// the widest cell.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * cols;
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Formats a float with 4 significant decimals.
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float in scientific notation.
pub fn sci(x: f64) -> String {
    format!("{x:.2e}")
}

/// A short pass/fail marker for "measured within bound" columns.
pub fn check(ok: bool) -> String {
    if ok {
        "ok".into()
    } else {
        "VIOLATED".into()
    }
}

/// Formats `elements` processed over `secs` seconds of wall clock as an
/// SI-scaled rate — the elements/sec column of the scaled experiment
/// tables (e.g. transcripts simulated or trials run per second).
pub fn rate(elements: u64, secs: f64) -> String {
    let per_second = elements as f64 / secs.max(1e-12);
    let (scaled, unit) = if per_second >= 1e9 {
        (per_second / 1e9, "G")
    } else if per_second >= 1e6 {
        (per_second / 1e6, "M")
    } else if per_second >= 1e3 {
        (per_second / 1e3, "K")
    } else {
        (per_second, "")
    };
    format!("{scaled:.1} {unit}elem/s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_ragged_rows() {
        let result = std::panic::catch_unwind(|| {
            print_table(&["a", "b"], &[vec!["1".into()]]);
        });
        assert!(result.is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(0.12345), "0.1235");
        assert_eq!(check(true), "ok");
        assert_eq!(check(false), "VIOLATED");
        assert!(sci(1234.0).contains('e'));
    }

    #[test]
    fn rate_column_formats_elements_per_second() {
        assert_eq!(rate(2_000_000, 1.0), "2.0 Melem/s");
        assert_eq!(rate(500, 2.0), "250.0 elem/s");
    }
}
