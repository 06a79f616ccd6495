//! One measured phase of a workload: its samples, its failures, and the
//! program counters the traced run turns into per-layer metrics.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nodb_core::{NoDb, NoDbConfig, QueryCtx, QueryReport};
use nodb_rawcsv::Datum;

use crate::json::Json;
use crate::oracle::{Answer, Shape};
use crate::trace::Tracer;

/// How often a cheap set-up is repeated in a phase; its median is `setup_s`.
pub const SETUP_REPS: usize = 101;

/// How many wrong or failed queries a record lists in full.
const MAX_LISTED_FAILURES: usize = 5;

/// What a workload run needs to know.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time per phase.
    pub seconds: Duration,
    /// Where generated inputs live (inside the checkout).
    pub data_dir: PathBuf,
}

/// Program counters read around a phase, for the traced run.
#[derive(Debug, Clone, Default)]
pub struct Sys {
    pub map_installs: f64,
    pub map_evictions: f64,
    pub map_bytes: f64,
    pub cache_evictions: f64,
    pub cache_bytes: f64,
    /// Lifetime cache hit ratio, for workloads that cannot see each
    /// query's report (the served workload).
    pub cache_hit_ratio: Option<f64>,
    pub admission_peak_waiting: f64,
    pub admission_rejected: f64,
    pub generation_bumps: f64,
    pub snapshot_saves: f64,
    pub snapshot_save_failures: f64,
    pub sidecar_bytes: f64,
    pub snapshot_bytes_written: f64,
    pub user_bytes_appended: f64,
    pub prepared_hits: f64,
    pub prepared_misses: f64,
    pub server_queries_err: f64,
    /// First-query latency with map, cache and statistics on ÷ with them
    /// off, for the workload's first query.
    pub first_query_tax: Option<f64>,
    /// `parse_select` timings of the workload's SQL, in microseconds.
    pub parse_us: Vec<f64>,
}

/// Samples and outcome of one phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Each set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every correct query, ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Queries that failed or returned a wrong answer.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Wall time of the measured window, seconds.
    pub measured_s: f64,
    pub peak_rss_mb: f64,
    /// Share of the machine's CPU time stolen by the hypervisor during the
    /// phase (set-up included).
    pub cpu_steal_share: f64,
    /// Generated inputs: name, rows, bytes.
    pub inputs: Vec<Json>,
    /// Config fields that differ from `NoDbConfig::default()` (and the
    /// server's defaults), as `field=value`.
    pub config: Vec<String>,
    /// Facts about the run a reader needs (client counts, schedules, …).
    pub notes: Vec<String>,
    pub sys: Sys,
}

impl Phase {
    /// Count a failed or wrong query.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < MAX_LISTED_FAILURES {
            self.failures.push(msg);
        }
    }

    /// Record one query's outcome against its expected answer.
    pub fn check(&mut self, sql: &str, got: Result<(Answer, Duration), String>, want: &Answer) {
        self.attempted += 1;
        match got {
            Ok((answer, dur)) if &answer == want => self.latencies_ms.push(ms(dur)),
            Ok((answer, _)) => self.fail(format!(
                "wrong answer to {sql}: got {answer:?}, want {want:?}"
            )),
            Err(e) => self.fail(e),
        }
    }

    /// Fold another phase's samples (a concurrent client's) into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < MAX_LISTED_FAILURES {
                self.failures.push(f);
            }
        }
        self.sys.parse_us.extend(other.sys.parse_us);
    }

    /// Record a generated input.
    pub fn input(&mut self, name: &str, rows: u64, bytes: u64) {
        self.inputs.push(Json::obj([
            ("name", Json::str(name)),
            ("rows", Json::from(rows)),
            ("bytes", Json::from(bytes)),
        ]));
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The config a phase runs on: `base`, with `detailed_timing` turned on
/// explicitly when traced (the timed run keeps the shipped default).
pub fn config(base: NoDbConfig, traced: bool) -> NoDbConfig {
    NoDbConfig {
        detailed_timing: traced || base.detailed_timing,
        ..base
    }
}

/// Latency of `shape` as the first query of a fresh instance with `cfg`
/// (snapshot persistence off, so no sidecar is left behind) divided by the
/// same with map, cache and statistics off too. Each side is the median of
/// three instances. Used by the traced run only.
pub fn first_query_tax(cfg: NoDbConfig, path: &Path, shape: &Shape) -> Result<f64, String> {
    let on = NoDbConfig {
        snapshot_persistence: false,
        ..cfg
    };
    let off = NoDbConfig {
        enable_positional_map: false,
        enable_cache: false,
        enable_stats: false,
        ..on
    };
    Ok(first_query_ms(on, path, shape)? / first_query_ms(off, path, shape)?)
}

fn first_query_ms(cfg: NoDbConfig, path: &Path, shape: &Shape) -> Result<f64, String> {
    let mut v = Vec::new();
    for _ in 0..3 {
        let mut db = NoDb::new(cfg);
        db.register_csv("t", path)
            .map_err(|e| format!("register: {e}"))?;
        let t = Instant::now();
        db.query_reported(&shape.sql("t"), &QueryCtx::unbounded())
            .map_err(|e| format!("first query: {e}"))?;
        v.push(ms(t.elapsed()));
    }
    crate::stats::median(&v).ok_or_else(|| "no samples".into())
}

/// Run `shape` in-process through `NoDb::query_reported`, tracing it when
/// asked, and read its answer back.
pub fn run_query(
    db: &NoDb,
    shape: &Shape,
    tracer: Option<&Tracer>,
    sys: &mut Sys,
) -> Result<(Answer, Duration), String> {
    let sql = shape.sql("t");
    if tracer.is_some() {
        sys.parse_us.push(time_parse(&sql));
    }
    let start = Instant::now();
    let out = db.query_reported(&sql, &QueryCtx::unbounded());
    let dur = start.elapsed();
    let (result, report) = out.map_err(|e| format!("{sql}: {e}"))?;
    if let Some(t) = tracer {
        trace_report(t, start, dur, &report);
    }
    Ok((answer_of(shape, &result.rows)?, dur))
}

/// Microseconds `parse_select` takes on `sql`.
pub fn time_parse(sql: &str) -> f64 {
    let t = Instant::now();
    let parsed = nodb_sqlparse::parse_select(sql);
    let us = t.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(parsed.is_ok());
    us
}

/// Root span around one in-process query, with its breakdown slices as
/// children and its counters on the root.
fn trace_report(t: &Tracer, start: Instant, dur: Duration, r: &QueryReport) {
    let qid = t.mint();
    let b = &r.breakdown;
    let counters = vec![
        ("bytes_read", r.io.bytes_read as f64),
        ("io_stall_ms", ms(r.io.stall)),
        ("io_retries", r.io.retries as f64),
        ("cache_hits", r.cache_hits as f64),
        ("cache_misses", r.cache_misses as f64),
        ("fully_cached", f64::from(u8::from(r.fully_cached))),
        ("rows_scanned", r.rows_scanned as f64),
        ("rows_returned", r.rows_returned as f64),
        ("source_changed", r.source_changed as f64),
    ];
    let (root, at) = t.root(qid, "core.query", start, dur, counters);
    t.slices(
        qid,
        root,
        at,
        &[
            ("stats.planning", b.planning),
            ("rawcsv.io", b.io),
            ("rawcsv.tokenize", b.tokenizing),
            ("posmap.navigate", b.parsing),
            ("rawcsv.convert", b.convert),
            ("core.upkeep", b.nodb),
            ("engine.exec", b.engine),
            ("core.unattributed", b.processing),
        ],
    );
}

/// The answer digest of a result in `shape`'s terms.
pub fn answer_of(shape: &Shape, rows: &[Vec<Datum>]) -> Result<Answer, String> {
    let int = |d: &Datum| match d {
        Datum::Int(v) => Ok(*v),
        other => Err(format!("non-integer value {other:?} in result")),
    };
    match shape {
        Shape::Project { .. } => {
            let mut a = Answer::empty(shape);
            for row in rows {
                a.add_row(row.iter().map(int).collect::<Result<Vec<_>, _>>()?);
            }
            Ok(a)
        }
        Shape::CountSum { .. } => {
            let [row] = rows else {
                return Err(format!("aggregate returned {} rows", rows.len()));
            };
            let [count, sum] = &row[..] else {
                return Err(format!("aggregate returned {} columns", row.len()));
            };
            let count = int(count)?;
            let sum = match sum {
                Datum::Null if count == 0 => 0,
                d => int(d)?,
            };
            Ok(Answer::count_sum(count, sum))
        }
    }
}

/// A small seeded generator (SplitMix64) for the benchmark's own choices,
/// independent of the program's.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// Generate the seeded uniform-int CSV `name` (`cols` × `rows`) under the
/// data directory, or reuse it when a previous run made the same file.
/// Other files of the same workload are removed first. Returns the path
/// and its size.
pub fn dataset(
    ctx: &Ctx,
    name: &str,
    cols: usize,
    rows: u64,
    fresh: bool,
) -> Result<(PathBuf, u64), String> {
    std::fs::create_dir_all(&ctx.data_dir).map_err(|e| format!("data dir: {e}"))?;
    let file = format!("{name}-{cols}x{rows}-s{}.csv", ctx.seed);
    let path = ctx.data_dir.join(&file);
    for entry in std::fs::read_dir(&ctx.data_dir)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        let other = entry.file_name().to_string_lossy().into_owned();
        if other.starts_with(&format!("{name}-")) && (fresh || !other.starts_with(&file)) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    if !path.exists() {
        let tmp = ctx.data_dir.join(format!("{file}.tmp"));
        nodb_rawcsv::GeneratorConfig::uniform_ints(cols, rows, ctx.seed)
            .generate_file(&tmp)
            .map_err(|e| format!("generate {file}: {e}"))?;
        // Write the pages back now, so the kernel's delayed writeback of a
        // freshly generated file does not land inside the measured window.
        std::fs::File::open(&tmp)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync {file}: {e}"))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename {file}: {e}"))?;
    }
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok((path, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Pred;

    #[test]
    fn aggregate_answers_read_back_from_result_rows() {
        let shape = Shape::CountSum {
            col: 0,
            pred: Pred {
                col: 0,
                less: false,
                lit: 0,
            },
        };
        let got = answer_of(&shape, &[vec![Datum::Int(3), Datum::Int(12)]]).unwrap();
        assert_eq!(got, Answer::count_sum(3, 12));
        let empty = answer_of(&shape, &[vec![Datum::Int(0), Datum::Null]]).unwrap();
        assert_eq!(empty, Answer::count_sum(0, 0));
        assert!(answer_of(&shape, &[]).is_err());
    }
}
