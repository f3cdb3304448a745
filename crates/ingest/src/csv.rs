//! A minimal streaming CSV reader tuned for the shapes BDC and Ookla
//! actually publish: comma-separated, optional double quotes around fields,
//! one header row, no embedded newlines.
//!
//! Two readers share the parsing code:
//!
//! * [`CsvRows`] — the production reader. One `String` line buffer and one
//!   `Vec` of field bounds are allocated per *file* and reused for every
//!   row; [`Fields::get`] hands out `&str` slices into the shared buffer,
//!   so steady-state row reading allocates nothing.
//! * [`AllocCsvRows`] — the naive baseline that allocates a fresh
//!   `Vec<String>` per row. It exists only so `benches/ingest.rs` can
//!   document the rows/s cost of per-row allocation against the scratch
//!   reader; production code must not use it.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::error::IngestError;

/// A borrowed view of one parsed row: field slices into the reader's shared
/// line buffer.
pub struct Fields<'a> {
    line: &'a str,
    bounds: &'a [(usize, usize)],
}

impl<'a> Fields<'a> {
    /// Number of fields in the row.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True when the row has no fields.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Field `i` as a slice of the shared line buffer. Panics when out of
    /// range — callers validate the field count first.
    pub fn get(&self, i: usize) -> &'a str {
        let (start, end) = self.bounds[i];
        &self.line[start..end]
    }
}

/// A UTF-8 byte order mark, which spreadsheet exports put in front of the
/// header; left in place it would rename the first column.
const BOM: char = '\u{feff}';

/// Split one line into field bounds, reusing `bounds`. Fields may be wrapped
/// in double quotes (stripped; a quoted field may contain commas). No
/// escaped-quote handling — neither source needs it.
fn split_into_bounds(line: &str, bounds: &mut Vec<(usize, usize)>) {
    bounds.clear();
    let bytes = line.as_bytes();
    let mut i = 0usize;
    loop {
        if i < bytes.len() && bytes[i] == b'"' {
            // Quoted field: runs to the closing quote (or end of line when
            // unterminated — the slice then simply excludes the open quote).
            let start = i + 1;
            let end = bytes[start..]
                .iter()
                .position(|&b| b == b'"')
                .map(|p| start + p)
                .unwrap_or(bytes.len());
            bounds.push((start, end));
            // Skip the closing quote and the following comma, if any.
            i = end + 1;
            if i < bytes.len() && bytes[i] == b',' {
                i += 1;
            } else if i >= bytes.len() {
                return;
            }
        } else {
            let start = i;
            let end = bytes[start..]
                .iter()
                .position(|&b| b == b',')
                .map(|p| start + p)
                .unwrap_or(bytes.len());
            bounds.push((start, end));
            if end == bytes.len() {
                return;
            }
            i = end + 1;
        }
    }
}

/// The scratch-buffer CSV reader: one reusable line buffer, one reusable
/// bounds vector, zero per-row allocations.
pub struct CsvRows<R> {
    reader: R,
    file: String,
    line_no: usize,
    line: String,
    bounds: Vec<(usize, usize)>,
}

impl CsvRows<BufReader<File>> {
    /// Open a file for row-by-row reading.
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        let file = File::open(path).map_err(|e| IngestError::io(path, e))?;
        Ok(Self::from_reader(
            BufReader::new(file),
            path.display().to_string(),
        ))
    }
}

impl<R: BufRead> CsvRows<R> {
    /// Wrap any buffered reader (tests feed in-memory strings).
    pub fn from_reader(reader: R, file: String) -> Self {
        Self {
            reader,
            file,
            line_no: 0,
            line: String::new(),
            bounds: Vec::new(),
        }
    }

    /// The file name rows are attributed to in errors.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// 1-based number of the row most recently returned.
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    /// Read the next row into the shared buffers. Returns `Ok(None)` at end
    /// of file; blank lines are skipped.
    #[allow(clippy::should_implement_trait)]
    pub fn next_row(&mut self) -> Result<Option<Fields<'_>>, IngestError> {
        loop {
            self.line.clear();
            let read = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| IngestError::Io {
                    path: self.file.clone(),
                    message: e.to_string(),
                })?;
            if read == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if self.line_no == 1 && self.line.starts_with(BOM) {
                self.line.drain(..BOM.len_utf8());
            }
            while self.line.ends_with('\n') || self.line.ends_with('\r') {
                self.line.pop();
            }
            if self.line.is_empty() {
                continue;
            }
            split_into_bounds(&self.line, &mut self.bounds);
            return Ok(Some(Fields {
                line: &self.line,
                bounds: &self.bounds,
            }));
        }
    }
}

/// The per-row-allocating baseline reader: same parsing rules as
/// [`CsvRows`], but every row materialises a fresh `Vec<String>`.
/// Bench-comparison only.
pub struct AllocCsvRows<R> {
    reader: R,
    file: String,
    line_no: usize,
}

impl AllocCsvRows<BufReader<File>> {
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        let file = File::open(path).map_err(|e| IngestError::io(path, e))?;
        Ok(Self {
            reader: BufReader::new(file),
            file: path.display().to_string(),
            line_no: 0,
        })
    }
}

impl<R: BufRead> AllocCsvRows<R> {
    pub fn from_reader(reader: R, file: String) -> Self {
        Self {
            reader,
            file,
            line_no: 0,
        }
    }

    /// Read the next row as owned strings. Returns `Ok(None)` at end of
    /// file; blank lines are skipped.
    pub fn next_row(&mut self) -> Result<Option<Vec<String>>, IngestError> {
        loop {
            let mut line = String::new();
            let read = self
                .reader
                .read_line(&mut line)
                .map_err(|e| IngestError::Io {
                    path: self.file.clone(),
                    message: e.to_string(),
                })?;
            if read == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if self.line_no == 1 && line.starts_with(BOM) {
                line.drain(..BOM.len_utf8());
            }
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            if line.is_empty() {
                continue;
            }
            let mut bounds = Vec::new();
            split_into_bounds(&line, &mut bounds);
            return Ok(Some(
                bounds
                    .iter()
                    .map(|&(s, e)| line[s..e].to_string())
                    .collect(),
            ));
        }
    }
}

/// Validate a header row against the expected column list: duplicates first,
/// then missing, then unknown, then exact order. The split matters — a
/// shuffled header with all the right columns must report
/// [`IngestError::ReorderedColumns`], not a misleading missing/unknown pair.
pub fn validate_header(
    file: &str,
    found: &[&str],
    expected: &[&'static str],
) -> Result<(), IngestError> {
    for (i, col) in found.iter().enumerate() {
        if found[..i].contains(col) {
            return Err(IngestError::DuplicateColumn {
                file: file.to_string(),
                column: col.to_string(),
            });
        }
    }
    for col in expected {
        if !found.contains(col) {
            return Err(IngestError::MissingColumn {
                file: file.to_string(),
                column: col.to_string(),
            });
        }
    }
    for col in found {
        if !expected.contains(col) {
            return Err(IngestError::UnknownColumn {
                file: file.to_string(),
                column: col.to_string(),
            });
        }
    }
    if found != expected {
        return Err(IngestError::ReorderedColumns {
            file: file.to_string(),
            expected: expected.join(","),
            found: found.join(","),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn rows_split_and_reuse_buffers() {
        let data = "a,b,c\n1,\"two, two\",3\n\n4,,6\n";
        let mut rows = CsvRows::from_reader(Cursor::new(data), "mem".into());
        {
            let r = rows.next_row().unwrap().unwrap();
            assert_eq!((r.get(0), r.get(1), r.get(2)), ("a", "b", "c"));
        }
        {
            let r = rows.next_row().unwrap().unwrap();
            assert_eq!(r.len(), 3);
            assert_eq!(r.get(1), "two, two");
        }
        {
            // The blank line is skipped; empty fields survive.
            let r = rows.next_row().unwrap().unwrap();
            assert_eq!((r.get(0), r.get(1), r.get(2)), ("4", "", "6"));
        }
        assert!(rows.next_row().unwrap().is_none());
        assert_eq!(rows.line_no(), 4);
    }

    #[test]
    fn alloc_reader_parses_identically() {
        let data = "a,b\n\"x,y\",z\n";
        let mut scratch = CsvRows::from_reader(Cursor::new(data), "mem".into());
        let mut alloc = AllocCsvRows::from_reader(Cursor::new(data), "mem".into());
        loop {
            let owned = alloc.next_row().unwrap();
            let Some(borrowed) = scratch.next_row().unwrap() else {
                assert!(owned.is_none());
                break;
            };
            let owned = owned.expect("same row count");
            let fields: Vec<&str> = (0..borrowed.len()).map(|i| borrowed.get(i)).collect();
            assert_eq!(fields, owned);
        }
    }

    #[test]
    fn leading_byte_order_mark_is_stripped_from_the_first_line_only() {
        let data = "\u{feff}a,b\n\u{feff}x,y\n";
        let mut scratch = CsvRows::from_reader(Cursor::new(data), "mem".into());
        let mut alloc = AllocCsvRows::from_reader(Cursor::new(data), "mem".into());
        let header = scratch.next_row().unwrap().unwrap();
        assert_eq!((header.get(0), header.get(1)), ("a", "b"));
        assert_eq!(alloc.next_row().unwrap().unwrap(), ["a", "b"]);
        // Past the first line a U+FEFF is data, not a mark.
        let row = scratch.next_row().unwrap().unwrap();
        assert_eq!(row.get(0), "\u{feff}x");
        assert_eq!(alloc.next_row().unwrap().unwrap(), ["\u{feff}x", "y"]);
    }

    #[test]
    fn header_validation_order_of_errors() {
        let expected = &["a", "b", "c"];
        assert!(validate_header("f", &["a", "b", "c"], expected).is_ok());
        assert!(matches!(
            validate_header("f", &["a", "a", "c"], expected),
            Err(IngestError::DuplicateColumn { .. })
        ));
        assert!(matches!(
            validate_header("f", &["a", "c"], expected),
            Err(IngestError::MissingColumn { .. })
        ));
        assert!(matches!(
            validate_header("f", &["a", "b", "c", "d"], expected),
            Err(IngestError::UnknownColumn { .. })
        ));
        assert!(matches!(
            validate_header("f", &["b", "a", "c"], expected),
            Err(IngestError::ReorderedColumns { .. })
        ));
    }
}
