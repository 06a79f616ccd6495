//! The four workloads. Each builds its inputs from the seed (untimed),
//! computes the oracle's answers, times its set-up several times, then
//! measures for the requested seconds and checks every answer.

use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nodb_core::{NoDb, NoDbConfig, SystemSnapshot};
use nodb_server::{NoDbClient, Server, ServerConfig};

use crate::env;
use crate::oracle::{self, Answer, Pred, Shape};
use crate::phase::{self, ms, Ctx, Phase, Rng, Sys, SETUP_REPS};
use crate::stats::MIN_TAIL_SAMPLES;
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["cold_start", "explore", "served", "live_append"];

/// Run workload `name` for one phase.
pub fn run(name: &str, ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Phase, String> {
    match name {
        "cold_start" => cold_start(ctx, tracer),
        "explore" => explore(ctx, tracer),
        "served" => served(ctx, tracer),
        "live_append" => live_append(ctx, tracer),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {NAMES:?}"
        )),
    }
}

/// A run past this wall time stops adding samples, whatever else holds.
const HARD_STOP: Duration = Duration::from_secs(120);

fn oracle_answers(path: &std::path::Path, shapes: &[Shape]) -> Result<Vec<Answer>, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("oracle open: {e}"))?;
    oracle::answer_all(BufReader::with_capacity(1 << 20, f), shapes)
}

fn register(cfg: NoDbConfig, path: &std::path::Path) -> Result<NoDb, String> {
    let mut db = NoDb::new(cfg);
    db.register_csv("t", path)
        .map_err(|e| format!("register: {e}"))?;
    Ok(db)
}

/// Time `reps` set-ups; keep the last instance.
fn timed_setups<T>(
    phase: &mut Phase,
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let t = Instant::now();
        let made = setup()?;
        phase.setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(made);
    }
    kept.ok_or_else(|| "no set-up ran".into())
}

fn add_map_cache(sys: &mut Sys, before: &SystemSnapshot, after: &SystemSnapshot) {
    sys.map_installs += (after.map_installs - before.map_installs) as f64;
    sys.map_evictions += (after.map_evictions - before.map_evictions) as f64;
    sys.cache_evictions += (after.cache_evictions - before.cache_evictions) as f64;
    sys.map_bytes = after.map_bytes as f64;
    sys.cache_bytes = after.cache_bytes as f64;
}

fn generation(db: &NoDb) -> u64 {
    db.admin()
        .epoch_report()
        .1
        .first()
        .map_or(0, |(_, g, _)| *g)
}

// ---------------------------------------------------------------- cold_start

const COLD_ROWS: u64 = 300_000;
const COLD_COLS: usize = 8;
/// Distinct literals cycled through the samples (each sample is a fresh
/// instance, so repeating a literal reuses nothing).
const COLD_LITERALS: usize = 16;

/// Each sample: a fresh `NoDb`, registration, and one select-project
/// query whose every byte goes through the raw-file layer while the map,
/// cache and statistics are built.
fn cold_start(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let (path, bytes) = phase::dataset(ctx, "cold_start", COLD_COLS, COLD_ROWS, false)?;
    phase.input("cold_start", COLD_ROWS, bytes);
    let mut rng = Rng::new(ctx.seed, 1);
    let shapes: Vec<Shape> = (0..COLD_LITERALS)
        .map(|_| Shape::Project {
            cols: vec![1, 5],
            pred: Pred {
                col: 3,
                less: false,
                lit: rng.range(450_000_000, 550_000_000) as i64,
            },
        })
        .collect();
    let want = oracle_answers(&path, &shapes)?;
    let cfg = phase::config(NoDbConfig::default(), tracer.is_some());
    if tracer.is_some() {
        phase.sys.first_query_tax = Some(phase::first_query_tax(cfg, &path, &shapes[0])?);
    }
    phase
        .notes
        .push("one fresh instance per sample; setup_s is per sample".into());

    env::reset_peak_rss();
    let t0 = Instant::now();
    let mut i = 0;
    while (t0.elapsed() < ctx.seconds || (phase.attempted as usize) < MIN_TAIL_SAMPLES)
        && t0.elapsed() < HARD_STOP
    {
        let t = Instant::now();
        let db = register(cfg, &path)?;
        phase.setup_s.push(t.elapsed().as_secs_f64());
        let shape = &shapes[i % shapes.len()];
        let got = phase::run_query(&db, shape, tracer, &mut phase.sys);
        phase.check(&shape.sql("t"), got, &want[i % shapes.len()]);
        if tracer.is_some() {
            if let Some(after) = db.snapshot("t") {
                add_map_cache(&mut phase.sys, &SystemSnapshot::default(), &after);
            }
            phase.sys.generation_bumps += generation(&db) as f64;
        }
        drop(db);
        i += 1;
    }
    phase.measured_s = t0.elapsed().as_secs_f64();
    phase.peak_rss_mb = env::peak_rss_mb();
    Ok(phase)
}

// ------------------------------------------------------------------- explore

const EXPLORE_ROWS: u64 = 500_000;
const EXPLORE_COLS: usize = 24;
const EXPLORE_WINDOW: usize = 4;
const EXPLORE_EPOCHS: usize = 12;
const EXPLORE_PER_EPOCH: usize = 10;
const EXPLORE_MAP_BUDGET: usize = 16 << 20;
const EXPLORE_CACHE_BUDGET: usize = 24 << 20;

/// The §4.2 adaptation workload: one long-lived instance whose query
/// window slides across a file wider than its map and cache budgets. The
/// seeded sequence repeats until the time is up.
fn explore(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let (path, bytes) = phase::dataset(ctx, "explore", EXPLORE_COLS, EXPLORE_ROWS, false)?;
    phase.input("explore", EXPLORE_ROWS, bytes);
    let w = nodb_bench::workload::epoch_workload(
        "t",
        EXPLORE_COLS,
        EXPLORE_EPOCHS,
        EXPLORE_PER_EPOCH,
        EXPLORE_WINDOW,
        ctx.seed,
    );
    let sqls: Vec<String> = w.epochs.concat();
    let shapes = sqls
        .iter()
        .map(|s| Shape::parse_project(s))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some((s, q)) = shapes.iter().zip(&sqls).find(|(s, q)| &s.sql("t") != *q) {
        return Err(format!("oracle reads {q:?} as {:?}", s.sql("t")));
    }
    let want = oracle_answers(&path, &shapes)?;
    let cfg = phase::config(
        NoDbConfig {
            map_budget_bytes: EXPLORE_MAP_BUDGET,
            cache_budget_bytes: EXPLORE_CACHE_BUDGET,
            ..NoDbConfig::default()
        },
        tracer.is_some(),
    );
    phase
        .config
        .push(format!("map_budget_bytes={EXPLORE_MAP_BUDGET}"));
    phase
        .config
        .push(format!("cache_budget_bytes={EXPLORE_CACHE_BUDGET}"));
    phase.notes.push(format!(
        "{} queries per cycle: {EXPLORE_EPOCHS} epochs x {EXPLORE_PER_EPOCH}, window {EXPLORE_WINDOW} of {EXPLORE_COLS} columns",
        shapes.len()
    ));
    if tracer.is_some() {
        phase.sys.first_query_tax = Some(phase::first_query_tax(cfg, &path, &shapes[0])?);
    }
    let db = timed_setups(&mut phase, SETUP_REPS, || register(cfg, &path))?;

    let before = db.snapshot("t").unwrap_or_default();
    let gen0 = generation(&db);
    env::reset_peak_rss();
    let t0 = Instant::now();
    let mut i = 0;
    while t0.elapsed() < ctx.seconds {
        let k = i % shapes.len();
        let got = phase::run_query(&db, &shapes[k], tracer, &mut phase.sys);
        phase.check(&sqls[k], got, &want[k]);
        i += 1;
    }
    phase.measured_s = t0.elapsed().as_secs_f64();
    phase.peak_rss_mb = env::peak_rss_mb();
    let after = db.snapshot("t").unwrap_or_default();
    add_map_cache(&mut phase.sys, &before, &after);
    phase.sys.generation_bumps = (generation(&db) - gen0) as f64;
    Ok(phase)
}

// -------------------------------------------------------------------- served

const SERVED_ROWS: u64 = 500_000;
const SERVED_COLS: usize = 8;
/// Distinct repeated aggregates (prepared-statement hits once seen).
const SERVED_REPEATS: usize = 16;
/// Fresh-literal aggregates, each sent at most once per pass over the
/// pool, which is far larger than the server's prepared-statement cache.
const SERVED_FRESH: usize = 1024;
/// Set-ups per phase: each one scans the whole table cold over the wire.
const SERVED_SETUP_REPS: usize = 3;
/// Share of queries drawn from the fresh pool, in percent.
const SERVED_FRESH_PCT: u64 = 20;

/// The `k`-th aggregate of a fixed column pattern: `SUM(c{k mod cols})`
/// filtered on another column, with a seeded literal. Only the literals
/// (and the data) change with the seed, so two seeds load the same columns.
fn count_sum(rng: &mut Rng, cols: usize, k: usize) -> Shape {
    Shape::CountSum {
        col: k % cols,
        pred: Pred {
            col: (k + 1 + k / cols) % cols,
            less: false,
            lit: rng.range(0, 1_000_000_000) as i64,
        },
    }
}

/// A running server on loopback with its table fully cached.
struct Served {
    server: Server,
    db: Arc<NoDb>,
}

/// `nproc` closed-loop TCP clients against an in-process `nodb-server`,
/// mostly repeating short fully cached aggregates, with a share of fresh
/// literals.
fn served(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let (path, bytes) = phase::dataset(ctx, "served", SERVED_COLS, SERVED_ROWS, false)?;
    phase.input("served", SERVED_ROWS, bytes);
    let mut rng = Rng::new(ctx.seed, 3);
    // The warm pass touches every column, so the whole table is cached.
    let warm: Vec<Shape> = (0..SERVED_COLS)
        .step_by(2)
        .map(|c| Shape::CountSum {
            col: c,
            pred: Pred {
                col: c + 1,
                less: false,
                lit: 0,
            },
        })
        .collect();
    let repeats: Vec<Shape> = (0..SERVED_REPEATS)
        .map(|k| count_sum(&mut rng, SERVED_COLS, k))
        .collect();
    let fresh: Vec<Shape> = (0..SERVED_FRESH)
        .map(|k| count_sum(&mut rng, SERVED_COLS, k))
        .collect();
    let all: Vec<Shape> = warm.iter().chain(&repeats).chain(&fresh).cloned().collect();
    let want = oracle_answers(&path, &all)?;
    let (want_warm, rest) = want.split_at(warm.len());
    let (want_repeats, want_fresh) = rest.split_at(repeats.len());

    let cfg = phase::config(NoDbConfig::default(), tracer.is_some());
    let clients = env::nproc();
    phase.notes.push(format!(
        "{clients} closed-loop clients; {SERVED_FRESH_PCT}% fresh literals from a pool of {SERVED_FRESH}, the rest from {SERVED_REPEATS} repeated queries"
    ));
    if tracer.is_some() {
        phase.sys.first_query_tax = Some(phase::first_query_tax(cfg, &path, &warm[0])?);
    }
    // The first set-up serves the measurement; the others are timed after
    // it, so their freed memory does not sit under the measured peak RSS.
    let served = served_setup(cfg, &path, &warm, want_warm, &mut phase)?;

    let addr = served.server.local_addr();
    let stats0 = served.server.stats();
    let prepared0 = served.db.admin().prepared_stats().unwrap_or_default();
    let next_fresh = AtomicUsize::new(0);
    env::reset_peak_rss();
    let t0 = Instant::now();
    let deadline = t0 + ctx.seconds;
    let parts: Vec<Result<Phase, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (repeats, fresh, next_fresh) = (&repeats, &fresh, &next_fresh);
                s.spawn(move || -> Result<Phase, String> {
                    let mut part = Phase::default();
                    let mut rng = Rng::new(ctx.seed, 100 + c as u64);
                    let mut client =
                        NoDbClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    while Instant::now() < deadline {
                        let (shape, want) = if rng.range(0, 100) < SERVED_FRESH_PCT {
                            let k = next_fresh.fetch_add(1, Ordering::Relaxed) % fresh.len();
                            (&fresh[k], &want_fresh[k])
                        } else {
                            let k = rng.range(0, repeats.len() as u64) as usize;
                            (&repeats[k], &want_repeats[k])
                        };
                        if tracer.is_some() {
                            part.sys.parse_us.push(phase::time_parse(&shape.sql("t")));
                        }
                        let got = wire_query(&mut client, shape, tracer);
                        part.check(&shape.sql("t"), got, want);
                    }
                    client.quit().map_err(|e| format!("quit: {e}"))?;
                    Ok(part)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    phase.measured_s = t0.elapsed().as_secs_f64();
    phase.peak_rss_mb = env::peak_rss_mb();
    for part in parts {
        phase.absorb(part?);
    }

    let sys = &mut phase.sys;
    let stats1 = served.server.stats();
    sys.server_queries_err = (stats1.queries_err - stats0.queries_err) as f64;
    let prepared1 = served.db.admin().prepared_stats().unwrap_or_default();
    sys.prepared_hits = (prepared1.hits - prepared0.hits) as f64;
    sys.prepared_misses = (prepared1.misses - prepared0.misses) as f64;
    if let Some(b) = served.db.admin().budget_telemetry() {
        sys.admission_peak_waiting = b.peak_waiting as f64;
        sys.admission_rejected = b.rejected as f64;
    }
    if let Some(snap) = served.db.snapshot("t") {
        sys.cache_hit_ratio = Some(snap.cache_hit_ratio);
        add_map_cache(sys, &snap, &snap);
    }
    served.server.shutdown();
    for _ in 1..SERVED_SETUP_REPS {
        served_setup(cfg, &path, &warm, want_warm, &mut phase)?
            .server
            .shutdown();
    }
    Ok(phase)
}

/// One timed set-up: register, start the server, and warm every column
/// over the wire, checking each warm answer.
fn served_setup(
    cfg: NoDbConfig,
    path: &std::path::Path,
    warm: &[Shape],
    want: &[Answer],
    phase: &mut Phase,
) -> Result<Served, String> {
    let t = Instant::now();
    let db = Arc::new(register(cfg, path)?);
    let server = Server::start(Arc::clone(&db), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let mut client =
        NoDbClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for (shape, want) in warm.iter().zip(want) {
        let got = wire_query(&mut client, shape, None);
        phase.attempted += 1;
        match got {
            Ok((a, _)) if &a == want => {}
            Ok((a, _)) => phase.fail(format!(
                "warm pass: wrong answer {a:?} to {}",
                shape.sql("t")
            )),
            Err(e) => phase.fail(format!("warm pass: {e}")),
        }
    }
    client.quit().map_err(|e| format!("quit: {e}"))?;
    phase.setup_s.push(t.elapsed().as_secs_f64());
    Ok(Served { server, db })
}

/// Send `shape` over the wire; read back the answer. When traced, also
/// fetch the connection's `REPORT` and record the round trip as a root
/// span, the server's `ms=` as its child and the report slices below that.
fn wire_query(
    client: &mut NoDbClient,
    shape: &Shape,
    tracer: Option<&Tracer>,
) -> Result<(Answer, Duration), String> {
    let sql = shape.sql("t");
    let start = Instant::now();
    let resp = client.query(&sql).map_err(|e| format!("{sql}: {e}"))?;
    let dur = start.elapsed();
    if !resp.is_ok() {
        return Err(format!("{sql}: {}", resp.status));
    }
    let status = status_fields(&resp.status);
    let answer = parse_count_sum(&resp.body)
        .ok_or_else(|| format!("{sql}: unreadable body {:?}", resp.body))?;
    if let Some(t) = tracer {
        let report = client
            .command("REPORT")
            .map_err(|e| format!("REPORT: {e}"))?;
        let slices = parse_panel_row(&report.body);
        let server_ms = status
            .iter()
            .find(|(k, _)| *k == "ms")
            .map_or(0.0, |(_, v)| *v);
        let flag = |key: &str| {
            status
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0.0, |(_, v)| *v)
        };
        let qid = t.mint();
        let (root, at) = t.root(
            qid,
            "client.roundtrip",
            start,
            dur,
            vec![
                ("fully_cached", flag("cached")),
                ("prepared_hit", flag("prepared")),
            ],
        );
        let dispatch = t.slices(
            qid,
            root,
            at,
            &[("server.dispatch", Duration::from_secs_f64(server_ms / 1e3))],
        );
        let named: Vec<(&'static str, Duration)> = SERVER_SLICES
            .iter()
            .map(|(key, name)| {
                let v = slices
                    .iter()
                    .find(|(k, _)| k == key)
                    .map_or(0.0, |(_, v)| *v);
                (*name, Duration::from_secs_f64(v.max(0.0) / 1e3))
            })
            .collect();
        t.slices(qid, dispatch[0].0, dispatch[0].1, &named);
    }
    Ok((answer, dur))
}

/// `REPORT` panel keys and the span names they become.
const SERVER_SLICES: [(&str, &str); 8] = [
    ("plan", "stats.planning"),
    ("io", "rawcsv.io"),
    ("tok", "rawcsv.tokenize"),
    ("parse", "posmap.navigate"),
    ("conv", "rawcsv.convert"),
    ("nodb", "core.upkeep"),
    ("engine", "engine.exec"),
    ("proc", "core.unattributed"),
];

/// `key=value` fields of a status line, numeric values only.
pub fn status_fields(status: &str) -> Vec<(&str, f64)> {
    status
        .split_whitespace()
        .filter_map(|f| f.split_once('='))
        .filter_map(|(k, v)| v.parse().ok().map(|v| (k, v)))
        .collect()
}

/// The `key=<ms>ms` slices of a `REPORT` body's first line (values may be
/// padded with spaces after the `=`).
pub fn parse_panel_row(body: &str) -> Vec<(String, f64)> {
    let line = body.lines().next().unwrap_or("");
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(eq) = rest.find('=') {
        let key = rest[..eq]
            .split_whitespace()
            .last()
            .unwrap_or("")
            .to_string();
        let after = rest[eq + 1..].trim_start();
        let end = after.find("ms").unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse::<f64>() {
            out.push((key, v));
        }
        rest = &after[end..];
    }
    out
}

/// Read `COUNT(*) | SUM(..)` from a rendered one-row result table.
pub fn parse_count_sum(body: &str) -> Option<Answer> {
    let row = body.lines().nth(2)?;
    let mut cells = row.split('|').map(str::trim);
    let count: i64 = cells.next()?.parse().ok()?;
    let sum = match cells.next()? {
        "NULL" if count == 0 => 0,
        s => s.parse().ok()?,
    };
    Some(Answer::count_sum(count, sum))
}

// --------------------------------------------------------------- live_append

const APPEND_ROWS: u64 = 200_000;
const APPEND_COLS: usize = 8;
const APPEND_BATCH_ROWS: u64 = 500;
const APPEND_PERIOD: Duration = Duration::from_millis(50);
const APPEND_QUERIES: usize = 8;

/// The bytes of appended batch `b`: seeded uniform-int rows.
fn batch_bytes(seed: u64, b: u64) -> Vec<u8> {
    let batch_seed = Rng::new(seed, 1000 + b).next_u64();
    nodb_rawcsv::GeneratorConfig::uniform_ints(APPEND_COLS, APPEND_BATCH_ROWS, batch_seed)
        .generate_bytes()
}

fn batch_rows(seed: u64, b: u64) -> Result<Vec<Vec<i64>>, String> {
    let text = String::from_utf8(batch_bytes(seed, b)).map_err(|e| e.to_string())?;
    text.lines()
        .map(|l| {
            let mut row = Vec::new();
            oracle::parse_line(l, &mut row).map(|_| row)
        })
        .collect()
}

/// One query of the live-append loop, checked after the run.
struct AppendSample {
    shape: usize,
    /// Appended rows committed before the query began.
    lo: u64,
    /// Appended rows whose write had begun when the query returned.
    hi: u64,
    got: Result<(Answer, Duration), String>,
}

/// One appender on an open-loop schedule beside one closed-loop querier,
/// with snapshot persistence on.
fn live_append(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let (path, bytes) = phase::dataset(ctx, "live_append", APPEND_COLS, APPEND_ROWS, true)?;
    let sidecar = std::path::PathBuf::from(format!("{}.nodb-snap", path.display()));
    phase.input("live_append", APPEND_ROWS, bytes);
    let mut rng = Rng::new(ctx.seed, 4);
    let shapes: Vec<Shape> = (0..APPEND_QUERIES)
        .map(|k| count_sum(&mut rng, APPEND_COLS, k))
        .collect();
    let base = oracle_answers(&path, &shapes)?;
    let cfg = phase::config(
        NoDbConfig {
            snapshot_persistence: true,
            ..NoDbConfig::default()
        },
        tracer.is_some(),
    );
    phase.config.push("snapshot_persistence=true".into());
    phase.notes.push(format!(
        "appender: {APPEND_BATCH_ROWS} rows every {} ms (open loop); one closed-loop querier",
        APPEND_PERIOD.as_millis()
    ));
    if tracer.is_some() {
        phase.sys.first_query_tax = Some(phase::first_query_tax(cfg, &path, &shapes[0])?);
    }
    let db = timed_setups(&mut phase, SETUP_REPS, || register(cfg, &path))?;

    let committed = AtomicU64::new(0);
    let started = AtomicU64::new(0);
    let mut samples = Vec::new();
    let gen0 = generation(&db);
    let snap0 = db.admin().snapshot_stats();
    let mut saves_seen = snap0.saves;
    env::reset_peak_rss();
    let t0 = Instant::now();
    let deadline = t0 + ctx.seconds;
    let appender = std::thread::scope(|s| {
        let appender = s.spawn(|| -> Result<(u64, u64, f64), String> {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| format!("open for append: {e}"))?;
            let (mut batches, mut appended, mut max_lag_ms) = (0u64, 0u64, 0f64);
            loop {
                let due = t0 + APPEND_PERIOD * (batches as u32 + 1);
                if due >= deadline {
                    break;
                }
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                max_lag_ms = max_lag_ms.max(ms(Instant::now().saturating_duration_since(due)));
                let data = batch_bytes(ctx.seed, batches);
                started.fetch_add(APPEND_BATCH_ROWS, Ordering::SeqCst);
                f.write_all(&data).map_err(|e| format!("append: {e}"))?;
                committed.fetch_add(APPEND_BATCH_ROWS, Ordering::SeqCst);
                appended += data.len() as u64;
                batches += 1;
            }
            Ok((batches, appended, max_lag_ms))
        });
        let mut i = 0;
        while Instant::now() < deadline {
            let k = i % shapes.len();
            let lo = committed.load(Ordering::SeqCst);
            let got = phase::run_query(&db, &shapes[k], tracer, &mut phase.sys);
            let hi = started.load(Ordering::SeqCst);
            samples.push(AppendSample {
                shape: k,
                lo,
                hi,
                got,
            });
            if tracer.is_some() {
                let saves = db.admin().snapshot_stats().saves;
                if saves > saves_seen {
                    let size = std::fs::metadata(&sidecar).map_or(0, |m| m.len());
                    phase.sys.snapshot_bytes_written += ((saves - saves_seen) * size) as f64;
                    saves_seen = saves;
                }
            }
            i += 1;
        }
        appender
            .join()
            .unwrap_or_else(|_| Err("appender panicked".into()))
    });
    phase.measured_s = t0.elapsed().as_secs_f64();
    phase.peak_rss_mb = env::peak_rss_mb();
    let (batches, appended, max_lag_ms) = appender?;
    phase.notes.push(format!(
        "appended {batches} batches ({appended} bytes); appender ran at most {max_lag_ms:.3} ms late"
    ));

    let sys = &mut phase.sys;
    sys.user_bytes_appended = appended as f64;
    sys.generation_bumps = (generation(&db) - gen0) as f64;
    let snap1 = db.admin().snapshot_stats();
    sys.snapshot_saves = (snap1.saves - snap0.saves) as f64;
    sys.snapshot_save_failures = (snap1.save_failures - snap0.save_failures) as f64;
    sys.sidecar_bytes = std::fs::metadata(&sidecar).map_or(0, |m| m.len()) as f64;
    if let Some(snap) = db.snapshot("t") {
        add_map_cache(sys, &SystemSnapshot::default(), &snap);
    }
    drop(db);

    // Check every answer against some prefix of the growing file: the
    // oracle's answer over the base rows plus the first `L` appended rows,
    // for some `L` between `lo` and `hi`.
    let mut cumulative: Vec<Vec<Answer>> = vec![base];
    for sample in samples {
        let lo_b = sample.lo / APPEND_BATCH_ROWS;
        let hi_b = sample.hi / APPEND_BATCH_ROWS;
        while (cumulative.len() as u64) <= lo_b {
            let b = cumulative.len() as u64 - 1;
            let mut next = cumulative[cumulative.len() - 1].clone();
            for row in batch_rows(ctx.seed, b)? {
                for (shape, a) in shapes.iter().zip(next.iter_mut()) {
                    a.observe(shape, &row);
                }
            }
            cumulative.push(next);
        }
        let mut pending = Vec::new();
        for b in lo_b..hi_b {
            pending.extend(batch_rows(ctx.seed, b)?);
        }
        let shape = &shapes[sample.shape];
        let sql = shape.sql("t");
        phase.attempted += 1;
        match sample.got {
            Ok((answer, dur)) => {
                match oracle::prefix_match(shape, &cumulative[lo_b as usize][sample.shape], &pending, &answer) {
                    Some(_) => phase.latencies_ms.push(ms(dur)),
                    None => phase.fail(format!(
                        "{sql}: answer {answer:?} matches no prefix between {} and {} appended rows",
                        sample.lo, sample.hi
                    )),
                }
            }
            Err(e) => phase.fail(e),
        }
    }
    let _ = std::fs::remove_file(&sidecar);
    let _ = std::fs::remove_file(&path);
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_server_status_report_and_body() {
        let st = status_fields("OK rows=1 prepared=1 cached=0 source_changed=0 ms=1.250");
        assert_eq!(st.iter().find(|(k, _)| *k == "ms").unwrap().1, 1.25);
        assert_eq!(st.iter().find(|(k, _)| *k == "prepared").unwrap().1, 1.0);
        let row = parse_panel_row(
            "io=    0.01ms tok=    0.00ms parse=    0.00ms conv=    0.00ms nodb=    0.00ms \
             engine=    0.30ms plan=    0.00ms proc=    0.12ms\nplan: x=1",
        );
        let keys: Vec<&str> = row.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["io", "tok", "parse", "conv", "nodb", "engine", "plan", "proc"]
        );
        assert_eq!(row[5].1, 0.30);
        let body = "COUNT(*) | SUM(c2)\n---------+---------\n12       | 345     \n(1 row)";
        assert_eq!(parse_count_sum(body), Some(Answer::count_sum(12, 345)));
    }

    #[test]
    fn appended_batches_are_deterministic_integer_rows() {
        assert_eq!(batch_bytes(7, 3), batch_bytes(7, 3));
        assert_ne!(batch_bytes(7, 3), batch_bytes(7, 4));
        let rows = batch_rows(7, 0).unwrap();
        assert_eq!(rows.len() as u64, APPEND_BATCH_ROWS);
        assert!(rows.iter().all(|r| r.len() == APPEND_COLS));
    }
}
