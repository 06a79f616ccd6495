//! The independent answer oracle.
//!
//! Expected answers are computed from the generated CSV text itself with
//! nothing but `split(',')` and `parse::<i64>()`; no crate of the system
//! under test is used here. Every workload's data is unquoted integer CSV,
//! so this plain reading is exact. Quoted fields are not covered (see the
//! README).
//!
//! A select-project answer is compared as an order-independent digest (row
//! count, per-column sums and a sum of per-row hashes); an aggregate answer
//! is compared exactly.

use std::io::BufRead;

/// A predicate `c{col} < lit` or `c{col} > lit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pred {
    pub col: usize,
    pub less: bool,
    pub lit: i64,
}

impl Pred {
    fn holds(&self, row: &[i64]) -> bool {
        let v = row[self.col];
        if self.less {
            v < self.lit
        } else {
            v > self.lit
        }
    }

    fn sql(&self) -> String {
        format!(
            "c{} {} {}",
            self.col,
            if self.less { '<' } else { '>' },
            self.lit
        )
    }
}

/// The query shapes the workloads send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// `SELECT c{a}, c{b}, … FROM t WHERE pred`.
    Project { cols: Vec<usize>, pred: Pred },
    /// `SELECT COUNT(*), SUM(c{col}) FROM t WHERE pred`.
    CountSum { col: usize, pred: Pred },
}

impl Shape {
    /// The SQL text of this shape against `table`.
    pub fn sql(&self, table: &str) -> String {
        match self {
            Shape::Project { cols, pred } => {
                let cols: Vec<String> = cols.iter().map(|c| format!("c{c}")).collect();
                format!(
                    "SELECT {} FROM {table} WHERE {}",
                    cols.join(", "),
                    pred.sql()
                )
            }
            Shape::CountSum { col, pred } => {
                format!(
                    "SELECT COUNT(*), SUM(c{col}) FROM {table} WHERE {}",
                    pred.sql()
                )
            }
        }
    }

    /// Read back the one SQL form the oracle understands,
    /// `SELECT cA, cB, … FROM t WHERE cP {<|>} N`, as produced by the
    /// sliding-window workload generator.
    pub fn parse_project(sql: &str) -> Result<Shape, String> {
        let bad = || format!("unsupported query shape: {sql}");
        let rest = sql.strip_prefix("SELECT ").ok_or_else(bad)?;
        let (cols, rest) = rest.split_once(" FROM ").ok_or_else(bad)?;
        let (_, pred) = rest.split_once(" WHERE ").ok_or_else(bad)?;
        let col = |s: &str| -> Result<usize, String> {
            s.trim()
                .strip_prefix('c')
                .and_then(|n| n.parse().ok())
                .ok_or_else(bad)
        };
        let cols = cols.split(',').map(col).collect::<Result<Vec<_>, _>>()?;
        let parts: Vec<&str> = pred.split_whitespace().collect();
        let [attr, op, lit] = parts[..] else {
            return Err(bad());
        };
        let less = match op {
            "<" => true,
            ">" => false,
            _ => return Err(bad()),
        };
        let pred = Pred {
            col: col(attr)?,
            less,
            lit: lit.parse().map_err(|_| bad())?,
        };
        Ok(Shape::Project { cols, pred })
    }
}

/// An answer, as the oracle computes it and as the benchmark reads it
/// from the system's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Rows returned (projection) or `COUNT(*)` (aggregate).
    pub rows: u64,
    /// Wrapping per-column sums (projection) or `[SUM]` (aggregate).
    pub sums: Vec<i64>,
    /// Wrapping sum of per-row hashes (projection only, else 0).
    pub mix: u64,
}

impl Answer {
    /// Empty answer for `shape` (the value over zero rows).
    pub fn empty(shape: &Shape) -> Answer {
        let width = match shape {
            Shape::Project { cols, .. } => cols.len(),
            Shape::CountSum { .. } => 1,
        };
        Answer {
            rows: 0,
            sums: vec![0; width],
            mix: 0,
        }
    }

    /// Fold one projected row into a projection digest.
    pub fn add_row(&mut self, values: impl IntoIterator<Item = i64>) {
        self.rows += 1;
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for (sum, v) in self.sums.iter_mut().zip(values) {
            *sum = sum.wrapping_add(v);
            h = splitmix(h ^ v as u64);
        }
        self.mix = self.mix.wrapping_add(h);
    }

    /// Fold one table row into the answer of `shape`.
    pub fn observe(&mut self, shape: &Shape, row: &[i64]) {
        match shape {
            Shape::Project { cols, pred } => {
                if pred.holds(row) {
                    self.add_row(cols.iter().map(|c| row[*c]));
                }
            }
            Shape::CountSum { col, pred } => {
                if pred.holds(row) {
                    self.rows += 1;
                    self.sums[0] = self.sums[0].wrapping_add(row[*col]);
                }
            }
        }
    }

    /// The aggregate answer `(count, sum)`.
    pub fn count_sum(count: i64, sum: i64) -> Answer {
        Answer {
            rows: count as u64,
            sums: vec![sum],
            mix: 0,
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parse one CSV line of integers with plain `split(',')`.
pub fn parse_line(line: &str, row: &mut Vec<i64>) -> Result<(), String> {
    row.clear();
    for field in line.split(',') {
        row.push(
            field
                .parse::<i64>()
                .map_err(|e| format!("oracle cannot read field {field:?}: {e}"))?,
        );
    }
    Ok(())
}

/// Expected answers of every shape over the whole CSV `input`.
pub fn answer_all(input: impl BufRead, shapes: &[Shape]) -> Result<Vec<Answer>, String> {
    let mut answers: Vec<Answer> = shapes.iter().map(Answer::empty).collect();
    let mut row = Vec::new();
    for line in input.lines() {
        let line = line.map_err(|e| format!("oracle read: {e}"))?;
        if line.is_empty() {
            continue;
        }
        parse_line(&line, &mut row)?;
        for (shape, answer) in shapes.iter().zip(answers.iter_mut()) {
            answer.observe(shape, &row);
        }
    }
    Ok(answers)
}

/// Prefix consistency for a table that only grows by appends: `got` must
/// equal the answer of `shape` over the first `L` rows for some
/// `L` between `lo` and `lo + pending.len()`. `at_lo` is the answer over
/// the first `lo` rows; `pending` are the rows after them that may or may
/// not have been visible to the query. Returns the matching `L - lo`.
pub fn prefix_match(
    shape: &Shape,
    at_lo: &Answer,
    pending: &[Vec<i64>],
    got: &Answer,
) -> Option<usize> {
    let mut acc = at_lo.clone();
    if &acc == got {
        return Some(0);
    }
    for (i, row) in pending.iter().enumerate() {
        acc.observe(shape, row);
        if &acc == got {
            return Some(i + 1);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "5,10,3\n7,20,9\n1,30,4\n9,40,8\n";

    fn pred(col: usize, less: bool, lit: i64) -> Pred {
        Pred { col, less, lit }
    }

    #[test]
    fn oracle_answers_a_hand_written_csv() {
        let shapes = vec![
            Shape::CountSum {
                col: 1,
                pred: pred(2, false, 4),
            },
            Shape::CountSum {
                col: 0,
                pred: pred(0, true, 100),
            },
            Shape::Project {
                cols: vec![0, 1],
                pred: pred(1, true, 25),
            },
        ];
        let got = answer_all(CSV.as_bytes(), &shapes).unwrap();
        // c2 > 4 keeps rows 2 and 4: count 2, SUM(c1) = 20 + 40.
        assert_eq!(got[0], Answer::count_sum(2, 60));
        assert_eq!(got[1], Answer::count_sum(4, 22));
        // c1 < 25 keeps (5,10) and (7,20), in any order.
        let mut want = Answer::empty(&shapes[2]);
        want.add_row([7, 20]);
        want.add_row([5, 10]);
        assert_eq!(got[2], want);
        assert_eq!((want.rows, want.sums.clone()), (2, vec![12, 30]));
        // A swapped pair of values in one row changes the digest.
        let mut wrong = Answer::empty(&shapes[2]);
        wrong.add_row([20, 7]);
        wrong.add_row([5, 10]);
        assert_ne!(got[2], wrong);
    }

    #[test]
    fn oracle_rejects_non_integer_fields() {
        let shapes = vec![Shape::CountSum {
            col: 0,
            pred: pred(0, false, 0),
        }];
        assert!(answer_all("1,2\n\"3\",4\n".as_bytes(), &shapes).is_err());
    }

    #[test]
    fn parses_the_sliding_window_sql_back() {
        let s = Shape::parse_project("SELECT c3, c5 FROM t WHERE c4 < 250000000").unwrap();
        assert_eq!(
            s,
            Shape::Project {
                cols: vec![3, 5],
                pred: pred(4, true, 250_000_000)
            }
        );
        assert_eq!(s.sql("t"), "SELECT c3, c5 FROM t WHERE c4 < 250000000");
        assert!(Shape::parse_project("SELECT c1 FROM t").is_err());
    }

    #[test]
    fn prefix_check_accepts_any_visible_prefix_and_rejects_the_rest() {
        let shape = Shape::CountSum {
            col: 1,
            pred: pred(0, false, 4),
        };
        let at_lo = answer_all(CSV.as_bytes(), std::slice::from_ref(&shape)).unwrap()[0].clone();
        assert_eq!(at_lo, Answer::count_sum(3, 70));
        let pending = vec![vec![8, 100, 0], vec![2, 1000, 0], vec![6, 10_000, 0]];
        // Nothing appended was visible.
        assert_eq!(prefix_match(&shape, &at_lo, &pending, &at_lo), Some(0));
        // The first two appended rows were visible (the second fails the
        // predicate, so the answer equals the one-row prefix as well).
        assert_eq!(
            prefix_match(&shape, &at_lo, &pending, &Answer::count_sum(4, 170)),
            Some(1)
        );
        assert_eq!(
            prefix_match(&shape, &at_lo, &pending, &Answer::count_sum(5, 10_170)),
            Some(3)
        );
        // Rows 1 and 3 without row 2 is not a prefix of the file.
        assert_eq!(
            prefix_match(&shape, &at_lo, &pending, &Answer::count_sum(5, 10_070)),
            None
        );
        // Fewer rows than were committed before the query began.
        assert_eq!(
            prefix_match(&shape, &at_lo, &pending, &Answer::count_sum(2, 30)),
            None
        );
    }
}
