//! The feature-matrix exchange format the batch CLI and the HTTP endpoint
//! accept: a plain-text CSV with a header of feature names.
//!
//! Scoring requests name their columns, and the scorer aligns them onto the
//! model's schema *by name* (the artifact embeds the feature names), so a
//! client never needs to know the model's internal column order:
//!
//! ```text
//! max_adv_download_mbps,mlab_test_count,ookla_devices_per_location
//! 100.0,3,0.25
//! 940.5,,0.75        # empty cells (or nan/na/null) are missing values
//! ```
//!
//! Model features absent from the header are filled with NaN (the trees
//! route missing values along their learned default directions); header
//! columns unknown to the model are ignored. Both sets are reported back so
//! callers can tell sloppy requests from intentional sparsity.

use std::fmt;

use ml::FlatForest;

/// A parsed feature frame: named columns, row-major `f32` cells (NaN for
/// missing).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureFrame {
    names: Vec<String>,
    data: Vec<f32>,
}

/// Why a feature frame could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// No header line (the input held no non-comment content).
    Empty,
    /// A data row's cell count differs from the header's.
    WidthMismatch {
        line: usize,
        expected: usize,
        found: usize,
    },
    /// A cell is neither a number nor a missing-value token.
    BadNumber {
        line: usize,
        column: usize,
        value: String,
    },
    /// The header names the same column twice. Alignment resolves columns
    /// by name, so the duplicate's data could only be dropped silently —
    /// rejected at parse time instead (columns are 1-based).
    DuplicateColumn {
        name: String,
        first: usize,
        second: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Empty => write!(f, "feature frame is empty (no header line)"),
            FrameError::WidthMismatch {
                line,
                expected,
                found,
            } => write!(
                f,
                "line {line}: expected {expected} cells per the header, found {found}"
            ),
            FrameError::BadNumber {
                line,
                column,
                value,
            } => write!(f, "line {line}, column {column}: {value:?} is not a number"),
            FrameError::DuplicateColumn {
                name,
                first,
                second,
            } => write!(
                f,
                "duplicate column {name:?} (columns {first} and {second}): columns are matched \
                 onto the model schema by name, so one copy's data would be dropped"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// True for the tokens that read as a missing value (allocation-free: this
/// runs once per cell on the scoring hot path).
fn is_missing_token(cell: &str) -> bool {
    cell.is_empty()
        || cell.eq_ignore_ascii_case("nan")
        || cell.eq_ignore_ascii_case("na")
        || cell.eq_ignore_ascii_case("null")
}

/// The header's trimmed column names. Alignment is by name and a repeated
/// name would silently shadow one copy's data (`build_name_index` is
/// first-wins), so it is rejected here, where the caller can still fix the
/// request.
fn parse_header(line: &str) -> Result<Vec<String>, FrameError> {
    let header: Vec<String> = line.split(',').map(|c| c.trim().to_string()).collect();
    let mut seen: std::collections::HashMap<&str, usize> =
        std::collections::HashMap::with_capacity(header.len());
    for (c, name) in header.iter().enumerate() {
        if let Some(&first) = seen.get(name.as_str()) {
            return Err(FrameError::DuplicateColumn {
                name: name.clone(),
                first: first + 1,
                second: c + 1,
            });
        }
        seen.insert(name, c);
    }
    Ok(header)
}

/// Append one trimmed, non-empty data line of `width` cells to `data` in a
/// single left-to-right pass over its bytes: no per-row cell vector and, for
/// short integer cells, no trim or float parse (see [`int_cell`]).
fn parse_row(
    line: &str,
    line_no: usize,
    width: usize,
    data: &mut Vec<f32>,
) -> Result<(), FrameError> {
    let bytes = line.as_bytes();
    let n_cells = || bytes.iter().filter(|&&b| b == b',').count() + 1;
    let width_mismatch = || FrameError::WidthMismatch {
        line: line_no,
        expected: width,
        found: n_cells(),
    };
    let mut start = 0;
    for column in 1.. {
        if column > width {
            return Err(width_mismatch());
        }
        let end = match int_cell(bytes, start) {
            Some((value, end)) => {
                data.push(value);
                end
            }
            None => {
                let end = bytes[start..]
                    .iter()
                    .position(|&b| b == b',')
                    .map_or(bytes.len(), |p| start + p);
                // `,` is ASCII, so both ends are char boundaries.
                let cell = line[start..end].trim();
                if is_missing_token(cell) {
                    data.push(f32::NAN);
                } else if let Ok(value) = cell.parse::<f32>() {
                    data.push(value);
                } else if n_cells() != width {
                    return Err(width_mismatch());
                } else {
                    return Err(FrameError::BadNumber {
                        line: line_no,
                        column,
                        value: cell.to_string(),
                    });
                }
                end
            }
        };
        if end == bytes.len() {
            if column != width {
                return Err(width_mismatch());
            }
            break;
        }
        start = end + 1;
    }
    Ok(())
}

/// The fast path of [`parse_row`]: a cell that is exactly `[-]d{1,7}` and
/// ends at `,` or at the end of the line, as `(value, end)`. Exact because
/// every integer below 2^24 is an `f32`, so `n as f32` has the bits of the
/// correctly rounded `str::parse` (`-0` included). Anything else — signs,
/// spaces, decimals, longer digit runs — is `None` and takes the general
/// path. Counts and integral speeds print this way: 65% of the cells in
/// perfbench's `score-bulk` frames take this path.
fn int_cell(bytes: &[u8], start: usize) -> Option<(f32, usize)> {
    let negative = bytes.get(start) == Some(&b'-');
    let digits = start + usize::from(negative);
    let mut end = digits;
    let mut n = 0u32;
    while end < bytes.len() && end - digits < 8 && bytes[end].is_ascii_digit() {
        n = n * 10 + u32::from(bytes[end] - b'0');
        end += 1;
    }
    if !(1..=7).contains(&(end - digits)) || bytes.get(end).is_some_and(|&b| b != b',') {
        return None;
    }
    let value = n as f32;
    Some((if negative { -value } else { value }, end))
}

impl FeatureFrame {
    /// Parse CSV text: first non-empty, non-`#` line is the header, every
    /// further line is one row. A leading UTF-8 byte-order mark is dropped.
    /// Cells are trimmed; empty / `nan` / `na` / `null` cells are missing
    /// values. A row of the wrong width is reported as such even when it
    /// also holds a bad number.
    pub fn parse_csv(text: &str) -> Result<Self, FrameError> {
        // Spreadsheet exports start with U+FEFF, which is not whitespace:
        // left in place it would rename the first column and that feature
        // would be scored as missing without a word.
        let text = text.strip_prefix('\u{feff}').unwrap_or(text);
        let mut names: Option<Vec<String>> = None;
        let mut data = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match &names {
                None => names = Some(parse_header(line)?),
                Some(header) => parse_row(line, i + 1, header.len(), &mut data)?,
            }
        }
        let names = names.ok_or(FrameError::Empty)?;
        Ok(Self { names, data })
    }

    /// Column names, in input order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        if self.names.is_empty() {
            0
        } else {
            self.data.len() / self.names.len()
        }
    }

    /// One row as a slice (input column order).
    pub fn row(&self, i: usize) -> &[f32] {
        let w = self.names.len();
        &self.data[i * w..(i + 1) * w]
    }

    /// Re-project the frame's columns onto a model's feature schema by name.
    pub fn align(&self, forest: &FlatForest) -> AlignedBlock {
        let width = forest.n_features();
        // For each model column: the frame column it comes from, if any.
        // One hash map over the frame header keeps the per-request
        // resolution linear instead of O(model features × frame columns).
        let frame_index = ml::flat::build_name_index(&self.names);
        let source: Vec<Option<usize>> = forest
            .feature_names()
            .iter()
            .map(|name| frame_index.get(name).copied())
            .collect();
        let missing_features: Vec<String> = forest
            .feature_names()
            .iter()
            .zip(&source)
            .filter(|(_, s)| s.is_none())
            .map(|(name, _)| name.clone())
            .collect();
        let ignored_columns: Vec<String> = self
            .names
            .iter()
            .filter(|name| forest.feature_index(name).is_none())
            .cloned()
            .collect();
        let n_rows = self.n_rows();
        let mut data = Vec::with_capacity(n_rows * width);
        for r in 0..n_rows {
            let row = self.row(r);
            for s in &source {
                data.push(match s {
                    Some(c) => row[*c],
                    None => f32::NAN,
                });
            }
        }
        AlignedBlock {
            data,
            n_rows,
            missing_features,
            ignored_columns,
        }
    }
}

/// A frame re-projected onto a model's feature order, ready for
/// [`score_rows`](crate::batch::score_rows).
#[derive(Debug, Clone)]
pub struct AlignedBlock {
    /// Row-major cells in model feature order.
    pub data: Vec<f32>,
    pub n_rows: usize,
    /// Model features the frame did not provide (scored as missing).
    pub missing_features: Vec<String>,
    /// Frame columns the model does not know (dropped).
    pub ignored_columns: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::{Dataset, FlatForest, GbdtModel, GbdtParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference parser the differential tests hold `parse_csv` to:
    /// each row split into a `Vec<&str>`, then `trim` and `str::parse` on
    /// every cell, and the width checked before any cell is parsed.
    fn split_parse_csv(text: &str) -> Result<FeatureFrame, FrameError> {
        let mut names: Option<Vec<String>> = None;
        let mut data = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match &names {
                None => names = Some(parse_header(line)?),
                Some(header) => {
                    let cells: Vec<&str> = line.split(',').collect();
                    if cells.len() != header.len() {
                        return Err(FrameError::WidthMismatch {
                            line: i + 1,
                            expected: header.len(),
                            found: cells.len(),
                        });
                    }
                    for (c, cell) in cells.iter().enumerate() {
                        let cell = cell.trim();
                        if is_missing_token(cell) {
                            data.push(f32::NAN);
                        } else {
                            data.push(cell.parse::<f32>().map_err(|_| FrameError::BadNumber {
                                line: i + 1,
                                column: c + 1,
                                value: cell.to_string(),
                            })?);
                        }
                    }
                }
            }
        }
        let names = names.ok_or(FrameError::Empty)?;
        Ok(FeatureFrame { names, data })
    }

    /// Same names and bit-identical cells (NaN payloads included), or the
    /// same error.
    fn assert_same_parse(
        got: &Result<FeatureFrame, FrameError>,
        want: &Result<FeatureFrame, FrameError>,
        text: &str,
    ) {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.names, want.names, "names differ for {text:?}");
                let bits =
                    |f: &FeatureFrame| f.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(want), "cells differ for {text:?}");
            }
            _ => assert_eq!(got, want, "outcome differs for {text:?}"),
        }
    }

    fn random_digits(rng: &mut StdRng, n: usize) -> String {
        (0..n)
            .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
            .collect()
    }

    /// One cell as a client might send it: mostly numbers, some missing
    /// tokens, whitespace of every kind `trim` strips, and rare garbage.
    fn random_cell(rng: &mut StdRng) -> String {
        const SIGNS: [&str; 4] = ["", "", "-", "+"];
        const TOKENS: [&str; 14] = [
            "", "nan", "NaN", "NAN", "na", "Na", "null", "NULL", "nUlL", "inf", "-Inf", "INF",
            "infinity", "+inf",
        ];
        const BAD: [&str; 12] = [
            "zebra", "1.2.3", "--1", "1-", "0x10", "1e", "e5", ".", "+-1", "1 2", "\u{661}", "nan1",
        ];
        const PADS: [&str; 6] = [" ", "  ", "\t", "\u{b}", "\u{a0}", " \t"];
        let sign = SIGNS[rng.gen_range(0..SIGNS.len())];
        let core = match rng.gen_range(0..20) {
            0..=8 => {
                let n = rng.gen_range(1..=9usize);
                format!("{sign}{}", random_digits(rng, n))
            }
            9 => "-0".to_string(),
            10 => format!("{sign}{:0>7}", rng.gen_range(0..1000u32)),
            11..=13 => {
                let (a, b) = (rng.gen_range(1..=6usize), rng.gen_range(1..=9usize));
                format!("{sign}{}.{}", random_digits(rng, a), random_digits(rng, b))
            }
            14 => {
                let exponent = rng.gen_range(-45..=40i32);
                format!("{sign}{}e{exponent}", random_digits(rng, 3))
            }
            15 => format!("{}", rng.gen_range(-1e6f32..1e6)),
            16..=18 => TOKENS[rng.gen_range(0..TOKENS.len())].to_string(),
            _ if rng.gen_bool(0.1) => BAD[rng.gen_range(0..BAD.len())].to_string(),
            _ => format!(".{}", random_digits(rng, 2)),
        };
        let pad = |rng: &mut StdRng| {
            if rng.gen_bool(0.15) {
                PADS[rng.gen_range(0..PADS.len())]
            } else {
                ""
            }
        };
        format!("{}{core}{}", pad(rng), pad(rng))
    }

    /// A frame of `width` columns: a header, then rows, blank lines and
    /// comments under either line ending, with the odd short or long row.
    fn random_frame(rng: &mut StdRng) -> String {
        let width = rng.gen_range(1..=6usize);
        let eol = if rng.gen_bool(0.5) { "\n" } else { "\r\n" };
        let mut text = String::new();
        if rng.gen_bool(0.2) {
            text.push_str("# exported frame");
            text.push_str(eol);
        }
        let header: Vec<String> = (0..width).map(|c| format!("f{c}")).collect();
        text.push_str(&header.join(","));
        text.push_str(eol);
        for _ in 0..rng.gen_range(0..12) {
            match rng.gen_range(0..40) {
                0 => text.push_str(" \t"),
                1 => text.push_str("  # note"),
                _ => {
                    let cells = match rng.gen_range(0..50) {
                        0 => width.saturating_sub(1).max(1),
                        1 => width + 1,
                        _ => width,
                    };
                    let row: Vec<String> = (0..cells).map(|_| random_cell(rng)).collect();
                    text.push_str(&row.join(","));
                }
            }
            text.push_str(eol);
        }
        text
    }

    /// The single-pass parser against the split-based oracle on seeded
    /// random frames: identical cell bits, or the identical typed error
    /// (line, column and value).
    #[test]
    fn single_pass_parser_matches_split_oracle_on_random_frames() {
        let mut rng = StdRng::seed_from_u64(0x5eed_f4a3e);
        let (mut parsed, mut failed) = (0, 0);
        for _ in 0..3000 {
            let text = random_frame(&mut rng);
            let got = FeatureFrame::parse_csv(&text);
            assert_same_parse(&got, &split_parse_csv(&text), &text);
            if got.is_ok() {
                parsed += 1;
            } else {
                failed += 1;
            }
        }
        // Both outcomes must be exercised for the comparison to mean much.
        assert!(
            parsed > 500 && failed > 100,
            "{parsed} parsed, {failed} failed"
        );
    }

    /// The integer fast path against `str::parse::<f32>` over a stepped
    /// sweep of `[-]d{1,7}`, unpadded and zero-padded to seven digits, at
    /// the end of a line and before a comma.
    #[test]
    fn integer_fast_path_matches_std_parse() {
        let values = (0..10_000_000u32)
            .step_by(7919)
            .chain([1, 9, 10, 99, 9_999_999]);
        for n in values {
            for digits in [n.to_string(), format!("{n:07}")] {
                for cell in [digits.clone(), format!("-{digits}")] {
                    let want = cell.parse::<f32>().unwrap().to_bits();
                    for (text, end) in [
                        (cell.clone(), cell.len()),
                        (format!("{cell},1"), cell.len()),
                    ] {
                        let got = int_cell(text.as_bytes(), 0).map(|(v, e)| (v.to_bits(), e));
                        assert_eq!(got, Some((want, end)), "{text:?}");
                    }
                }
            }
        }
        assert_eq!(
            int_cell(b"-0", 0).map(|(v, _)| v.to_bits()),
            Some((-0.0f32).to_bits())
        );
        // Longer digit runs, signs, padding and decimals take the general path.
        for cell in ["12345678", "+1", " 1", "1 ", "1.5", "-", "", "1e3", "--1"] {
            assert_eq!(int_cell(cell.as_bytes(), 0), None, "{cell:?}");
        }
    }

    /// Spreadsheet exports start with a UTF-8 byte-order mark; it must not
    /// rename the first column (which would score that feature as missing).
    #[test]
    fn byte_order_mark_is_stripped_before_the_header() {
        let forest = forest();
        let plain = "a,b,c\n0.1,0.2,0.3\n0.9,,0.5\n";
        let with_bom = format!("\u{feff}{plain}");
        let (a, b) = (
            FeatureFrame::parse_csv(plain).unwrap(),
            FeatureFrame::parse_csv(&with_bom).unwrap(),
        );
        assert_same_parse(&Ok(b.clone()), &Ok(a.clone()), &with_bom);
        let (aligned_a, aligned_b) = (a.align(&forest), b.align(&forest));
        assert!(aligned_b.missing_features.is_empty());
        assert!(aligned_b.ignored_columns.is_empty());
        assert_eq!(aligned_a.n_rows, aligned_b.n_rows);
        let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&aligned_a.data), bits(&aligned_b.data));
    }

    fn forest() -> FlatForest {
        let mut d = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..50 {
            let x = i as f32 / 50.0;
            d.push_row(&[x, 1.0 - x, 0.5], if x > 0.5 { 1.0 } else { 0.0 });
        }
        FlatForest::from_model(&GbdtModel::fit(
            &d,
            GbdtParams {
                n_estimators: 3,
                ..GbdtParams::default()
            },
        ))
    }

    #[test]
    fn parses_header_rows_and_missing_tokens() {
        let frame = FeatureFrame::parse_csv(
            "# comment\n\na, b ,c\n1.0,2.0,3.0\n4.5,,NaN\nnull, NA ,0.25\n",
        )
        .expect("parse");
        assert_eq!(frame.names(), &["a", "b", "c"]);
        assert_eq!(frame.n_rows(), 3);
        assert_eq!(frame.row(0), &[1.0, 2.0, 3.0]);
        assert!(frame.row(1)[1].is_nan() && frame.row(1)[2].is_nan());
        assert!(frame.row(2)[0].is_nan() && frame.row(2)[1].is_nan());
        assert_eq!(frame.row(2)[2], 0.25);
    }

    #[test]
    fn typed_errors_for_malformed_input() {
        assert_eq!(
            FeatureFrame::parse_csv("\n# nothing\n"),
            Err(FrameError::Empty)
        );
        assert_eq!(
            FeatureFrame::parse_csv("a,b\n1.0\n"),
            Err(FrameError::WidthMismatch {
                line: 2,
                expected: 2,
                found: 1
            })
        );
        assert_eq!(
            FeatureFrame::parse_csv("a,b\n1.0,zebra\n"),
            Err(FrameError::BadNumber {
                line: 2,
                column: 2,
                value: "zebra".into()
            })
        );
        // A width mismatch wins over a bad cell met before the row's end.
        assert_eq!(
            FeatureFrame::parse_csv("a,b\nzebra,1,2\n"),
            Err(FrameError::WidthMismatch {
                line: 2,
                expected: 2,
                found: 3
            })
        );
    }

    /// A header naming the same column twice is rejected at parse time —
    /// silently dropping one copy's data is the bug this pins down.
    #[test]
    fn duplicate_header_columns_are_rejected() {
        assert_eq!(
            FeatureFrame::parse_csv("a,b,a\n1.0,2.0,3.0\n"),
            Err(FrameError::DuplicateColumn {
                name: "a".into(),
                first: 1,
                second: 3
            })
        );
        // Trimmed names collide too.
        assert_eq!(
            FeatureFrame::parse_csv("a, a \n1.0,2.0\n"),
            Err(FrameError::DuplicateColumn {
                name: "a".into(),
                first: 1,
                second: 2
            })
        );
        let message = FeatureFrame::parse_csv("x,x\n").unwrap_err().to_string();
        assert!(message.contains("duplicate column"), "{message}");
    }

    #[test]
    fn align_reorders_by_name_and_reports_gaps() {
        let forest = forest();
        // Columns permuted, one model feature absent, one unknown column.
        let frame = FeatureFrame::parse_csv("c,unknown,a\n0.9,7.0,0.1\n0.2,8.0,0.4\n").unwrap();
        let aligned = frame.align(&forest);
        assert_eq!(aligned.n_rows, 2);
        assert_eq!(aligned.missing_features, vec!["b".to_string()]);
        assert_eq!(aligned.ignored_columns, vec!["unknown".to_string()]);
        // Model order is (a, b, c).
        assert_eq!(aligned.data[0], 0.1);
        assert!(aligned.data[1].is_nan());
        assert_eq!(aligned.data[2], 0.9);
        assert_eq!(aligned.data[3], 0.4);
        assert!(aligned.data[4].is_nan());
        assert_eq!(aligned.data[5], 0.2);
    }

    #[test]
    fn header_only_frame_has_zero_rows() {
        let frame = FeatureFrame::parse_csv("a,b,c\n").unwrap();
        assert_eq!(frame.n_rows(), 0);
        let aligned = frame.align(&forest());
        assert_eq!(aligned.n_rows, 0);
        assert!(aligned.data.is_empty());
    }
}
