//! Closed-loop benchmark of marchgen's two end-to-end paths: in-process
//! calls to `marchgen::generate`, and HTTP/1.1 keep-alive clients against
//! a freshly spawned `marchgend`.
//!
//! ```text
//! marchgen-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                    --marchgend PATH [--commit ID] [--rustc VERSION]
//! ```
//!
//! `perfbench/run.sh` builds both binaries and supplies the last three
//! arguments. With `--trace 0` the result carries the end-to-end metrics,
//! with `--trace 1` the per-layer ones; the last stdout line is the result
//! object, the line before it the run record. See `perfbench/README.md`.

mod compose;
mod library;
mod pools;
mod serve;
mod stats;
mod trace;

use marchgen::json::Json;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// An untraced run sets up at least this many times, and for at least
/// [`SETUP_MIN_SECONDS`]; `setup_s` is the median. One set-up of the
/// cheapest pool takes about 20 ms, too short to read alone.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Sets up repeatedly (see [`SETUP_REPEATS`]); `set_up` times its own
/// set-up, so that tearing down the previous one stays out of it. Returns
/// the samples in seconds and the last set-up.
fn repeat_set_up<T>(
    mut set_up: impl FnMut() -> Result<(Duration, T), String>,
) -> Result<(Vec<f64>, T), String> {
    let mut samples = Vec::new();
    loop {
        let (took, ready) = set_up()?;
        samples.push(took.as_secs_f64());
        if samples.len() >= SETUP_REPEATS && samples.iter().sum::<f64>() >= SETUP_MIN_SECONDS {
            return Ok((samples, ready));
        }
    }
}

/// The end-to-end metrics, reported for every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("response_bytes_mean", "B"),
    ("success_ratio", "ratio"),
];

/// The per-layer metrics, reported for every workload with `--trace 1`.
/// A layer that is not on a workload's timed path reads 0 there: the
/// library workloads never decode, hash a key, look up a cache or touch
/// a socket, and `serve_warm`'s timed requests are cache hits that never
/// reach the generator or the simulator.
const PER_LAYER: &[(&str, &str)] = &[
    ("faults.expand_ms", "ms"),
    ("generator.glue_ms", "ms"),
    ("generator.enumerate_ms", "ms"),
    ("generator.combinations", "count"),
    ("generator.unique_tp_sets", "count"),
    ("tpg.solve_ms", "ms"),
    ("tpg.tours", "count"),
    ("generator.schedule_ms", "ms"),
    ("generator.candidates", "count"),
    ("sim.screen_ms", "ms"),
    ("sim.screen_sweeps", "count"),
    ("sim.screen_yield", "ratio"),
    ("sim.lane_ops", "count"),
    ("sim.ns_per_lane_op", "ns"),
    ("sim.compact_ms", "ms"),
    ("sim.reverify_ms", "ms"),
    ("sim.redundancy_ms", "ms"),
    ("sim.screen_fanout_ms", "ms"),
    ("generator.encode_ms", "ms"),
    ("generator.outcome_bytes", "B"),
    ("generator.diagnostics_bytes", "B"),
    ("generator.decode_ms", "ms"),
    ("cache.key_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("daemon.ttfb_ms", "ms"),
    ("daemon.body_ms", "ms"),
    ("daemon.unattributed_ms", "ms"),
    ("daemon.reconnects_per_1k", "count/1k"),
    ("daemon.reconnect_ms", "ms"),
    ("daemon.threads", "count"),
    ("daemon.rejected", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SearchHeavy,
    VerifyWide,
    VerifyNarrow,
    ServeWarm,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SearchHeavy,
        Workload::VerifyWide,
        Workload::VerifyNarrow,
        Workload::ServeWarm,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SearchHeavy => "search_heavy",
            Workload::VerifyWide => "verify_wide",
            Workload::VerifyNarrow => "verify_narrow",
            Workload::ServeWarm => "serve_warm",
        }
    }

    /// The tail percentile reported as `latency_tail_ms`: the highest of
    /// p90, p95 and p99 that leaves at least ten requests beyond it in
    /// every run (the timed loop runs until it has them) and that host
    /// stalls leave alone. On a shared 2-vCPU host the vCPUs stall for
    /// about 10 ms at times; where stalls reach more than 1% of requests,
    /// p99 measures them instead of the program. Back-to-back 20 s runs of
    /// `verify_wide` read p99 12.4, 12.6, 18.2, 12.9 and 18.7 ms against
    /// p95 10.8, 10.3, 12.0, 11.5 and 12.2 ms; 15 s runs of `serve_warm`
    /// read p99 1.22, 0.71 and 0.70 ms against p95 0.54, 0.51 and 0.51 ms.
    fn tail(self) -> Tail {
        match self {
            Workload::SearchHeavy => Tail {
                label: "p90",
                q: 0.90,
            },
            Workload::VerifyWide | Workload::ServeWarm => Tail {
                label: "p95",
                q: 0.95,
            },
            Workload::VerifyNarrow => Tail {
                label: "p99",
                q: 0.99,
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Tail {
    label: &'static str,
    q: f64,
}

impl Tail {
    /// Requests needed for ten to lie beyond the percentile.
    pub fn min_requests(self) -> usize {
        (10.0 / (1.0 - self.q)).round() as usize
    }
}

pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
    marchgend: PathBuf,
    commit: String,
    rustc: String,
}

impl Args {
    /// Where a traced run writes its spans, inside the checkout.
    pub fn spans_path(&self) -> PathBuf {
        Path::new(".perfbench").join(format!("spans-{}-{}.tsv", self.workload.name(), self.seed))
    }
}

const USAGE: &str =
    "usage: marchgen-perfbench --workload search_heavy|verify_wide|verify_narrow|serve_warm \
--seed N --seconds S --trace 0|1 --marchgend PATH [--commit ID] [--rustc VERSION]";

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| {
                [
                    "workload",
                    "seed",
                    "seconds",
                    "trace",
                    "marchgend",
                    "commit",
                    "rustc",
                ]
                .contains(k)
            })
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key.to_owned(), value);
    }
    let take = |key: &str| {
        values
            .get(key)
            .cloned()
            .ok_or_else(|| format!("--{key} is required"))
    };
    let workload_name = take("workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Args {
        workload,
        seed: take("seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer")?,
        seconds,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_owned()),
        },
        marchgend: PathBuf::from(take("marchgend")?),
        commit: values
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".to_owned()),
        rustc: values
            .get("rustc")
            .cloned()
            .unwrap_or_else(|| "unknown".to_owned()),
    })
}

/// Length of one block of a timed phase. Throughput and CPU per request
/// are medians over blocks: on a shared 2-vCPU host the
/// vCPU runs at half speed for a few seconds at a time (2 s windows of a
/// single `verify_wide` caller read 81–177 req/s, mostly 150–177), and a
/// median over blocks leaves such a stretch out where a whole-run ratio
/// would not.
pub const BLOCK_SECONDS: f64 = 2.0;

/// A block in which the host took more than this share of the machine's
/// CPU ticks (`steal` in `/proc/stat`), or more than the run's median block
/// if that is higher, measured the host rather than the program, and is
/// left out of the block medians. On a shared 2-vCPU host steal is about
/// 1% most of the time and reaches 20–50% for seconds at a time: in one
/// 20 s `serve_warm` run that stole 23.5% overall, 2 s blocks read
/// 4431–8365 req/s against 12879–13853 in the rest of the run.
pub const STEAL_LIMIT_PCT: f64 = 5.0;

/// One block of a timed phase: a range of requests in completion order,
/// with the wall and serving-process CPU time it took and the host ticks
/// stolen from the machine meanwhile.
pub struct Block {
    pub requests: Range<usize>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub host: HostTicks,
}

impl Block {
    /// Appends a block to `blocks`, folding a closing stretch shorter than
    /// half a block into the one before it.
    pub fn push(self, blocks: &mut Vec<Block>) {
        match blocks.last_mut() {
            Some(last) if self.wall_s < BLOCK_SECONDS / 2.0 => {
                last.requests.end = self.requests.end;
                last.wall_s += self.wall_s;
                last.cpu_s += self.cpu_s;
                last.host.stolen += self.host.stolen;
                last.host.total += self.host.total;
            }
            _ if self.requests.is_empty() => {}
            _ => blocks.push(self),
        }
    }
}

/// Host CPU ticks stolen from this machine, and all host ticks.
#[derive(Debug, Clone, Copy)]
pub struct HostTicks {
    pub stolen: u64,
    pub total: u64,
}

impl HostTicks {
    pub fn now() -> Result<HostTicks, String> {
        let (stolen, total) = stats::host_ticks().map_err(|e| e.to_string())?;
        Ok(HostTicks { stolen, total })
    }

    /// The ticks from `earlier` to `self`.
    pub fn since(self, earlier: HostTicks) -> HostTicks {
        HostTicks {
            stolen: self.stolen - earlier.stolen,
            total: self.total - earlier.total,
        }
    }

    pub fn steal_pct(self) -> f64 {
        self.stolen as f64 * 100.0 / self.total.max(1) as f64
    }
}

/// The block a timed phase is in.
pub struct OpenBlock {
    started: Instant,
    cpu_s: f64,
    host: HostTicks,
    first: usize,
}

impl OpenBlock {
    pub fn start(cpu_s: f64) -> Result<OpenBlock, String> {
        Ok(OpenBlock {
            started: Instant::now(),
            cpu_s,
            host: HostTicks::now()?,
            first: 0,
        })
    }

    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Closes the block after `end` requests at `cpu_s` CPU seconds,
    /// appends it to `blocks` and opens the next.
    pub fn close(&mut self, end: usize, cpu_s: f64, blocks: &mut Vec<Block>) -> Result<(), String> {
        let host = HostTicks::now()?;
        Block {
            requests: self.first..end,
            wall_s: self.elapsed_s(),
            cpu_s: cpu_s - self.cpu_s,
            host: host.since(self.host),
        }
        .push(blocks);
        *self = OpenBlock {
            started: Instant::now(),
            cpu_s,
            host,
            first: end,
        };
        Ok(())
    }
}

/// What one timed phase measured.
pub struct Timed {
    /// Request latencies, in completion order.
    pub latencies_ms: Vec<f64>,
    pub blocks: Vec<Block>,
    pub failed: u64,
    pub wall_s: f64,
    /// `VmHWM` of the serving process at the end of the timed phase.
    pub hwm_kib: u64,
    /// Σ response bytes over the timed requests.
    pub bytes: usize,
}

impl Timed {
    /// The end-to-end metrics of an untraced run.
    fn report(&self, setup_s: &[f64], tail: Tail, distinct: usize) -> Report {
        let n = self.latencies_ms.len();
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let tail_ms = stats::percentile(&sorted, tail.q);
        let block_steal: Vec<f64> = self.blocks.iter().map(|b| b.host.steal_pct()).collect();
        let steal_limit = STEAL_LIMIT_PCT.max(stats::median(&block_steal));
        let kept: Vec<&Block> = self
            .blocks
            .iter()
            .filter(|b| b.host.steal_pct() <= steal_limit)
            .collect();
        let ops = |b: &Block| b.requests.len() as f64 / b.wall_s;
        let block_ops: Vec<f64> = kept.iter().map(|b| ops(b)).collect();
        let block_cpu_ms: Vec<f64> = kept
            .iter()
            .map(|b| b.cpu_s * 1e3 / b.requests.len() as f64)
            .collect();
        let host = self.blocks.iter().fold(
            HostTicks {
                stolen: 0,
                total: 0,
            },
            |sum, b| HostTicks {
                stolen: sum.stolen + b.host.stolen,
                total: sum.total + b.host.total,
            },
        );
        let metrics = BTreeMap::from([
            ("setup_s", stats::median(setup_s)),
            ("ops_per_s", stats::median(&block_ops)),
            ("latency_p50_ms", stats::percentile(&sorted, 0.5)),
            ("latency_tail_ms", tail_ms),
            ("cpu_ms_per_op", stats::median(&block_cpu_ms)),
            ("peak_rss_mb", self.hwm_kib as f64 / 1024.0),
            ("response_bytes_mean", self.bytes as f64 / n as f64),
            ("success_ratio", (n as u64 - self.failed) as f64 / n as f64),
        ]);
        let beyond = sorted.iter().filter(|&&ms| ms > tail_ms).count();
        Report {
            correct: self.failed == 0,
            attempted: n as u64,
            failed: self.failed,
            metrics,
            record: vec![
                ("requests", Json::from(n)),
                ("distinct_requests", Json::from(distinct)),
                ("tail_percentile", Json::from(tail.label)),
                ("tail_samples_beyond", Json::from(beyond)),
                (
                    "latency_percentiles_ms",
                    Json::object([0.9, 0.95, 0.99, 0.999].map(|q| {
                        (
                            format!("p{}", q * 100.0),
                            Json::Float(stats::percentile(&sorted, q)),
                        )
                    })),
                ),
                ("timed_wall_s", Json::Float(self.wall_s)),
                ("host_steal_pct", Json::Float(host.steal_pct())),
                (
                    "block_steal_pct",
                    Json::array(block_steal.into_iter().map(Json::Float)),
                ),
                ("blocks_kept", Json::from(kept.len())),
                (
                    "block_ops_per_s",
                    Json::array(self.blocks.iter().map(|b| Json::Float(ops(b)))),
                ),
                (
                    "setup_samples_s",
                    Json::array(setup_s.iter().map(|&s| Json::Float(s))),
                ),
            ],
        }
    }
}

/// One run's outcome: the result object plus the run record.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub record: Vec<(&'static str, Json)>,
}

/// The run-record fields of a traced run, including its overhead: the
/// drop in requests per second from the untraced to the traced loop.
pub fn trace_record(
    untraced_ops: f64,
    traced_ops: f64,
    traced_requests: u64,
    distinct: usize,
    composition_mismatches: usize,
    spans: &Path,
) -> Vec<(&'static str, Json)> {
    vec![
        ("requests", Json::from(traced_requests)),
        ("distinct_requests", Json::from(distinct)),
        ("untraced_ops_per_s", Json::Float(untraced_ops)),
        ("traced_ops_per_s", Json::Float(traced_ops)),
        (
            "trace_overhead_pct",
            Json::Float((untraced_ops - traced_ops) / untraced_ops * 100.0),
        ),
        ("composition_mismatches", Json::from(composition_mismatches)),
        ("spans", Json::from(spans.display().to_string().as_str())),
    ]
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn run(args: &Args) -> Result<Report, String> {
    let tail = args.workload.tail();
    let pool = match args.workload {
        Workload::SearchHeavy => pools::SEARCH_HEAVY,
        Workload::VerifyWide => pools::VERIFY_WIDE,
        Workload::VerifyNarrow => pools::VERIFY_NARROW,
        Workload::ServeWarm => {
            return if args.trace {
                serve::run_traced(args, tail)
            } else {
                serve::run(args, tail)
            }
        }
    };
    if args.trace {
        library::run_traced(pool, tail, args)
    } else {
        library::run(pool, tail, args)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = match report.metrics.get(name) {
            Some(&value) => value,
            None if args.trace => 0.0,
            None => unreachable!("every end-to-end metric is measured"),
        };
        metrics.push((
            name,
            Json::object([("value", Json::Float(value)), ("unit", Json::from(unit))]),
        ));
    }
    let mut record = vec![
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::from(nproc())),
        ("rustc", Json::from(args.rustc.as_str())),
        ("commit", Json::from(args.commit.as_str())),
    ];
    record.extend(report.record);
    println!(
        "{}",
        Json::object([("run_record", Json::object(record))]).render()
    );
    println!(
        "{}",
        Json::object([
            ("correct", Json::Bool(report.correct)),
            ("attempted", Json::from(report.attempted)),
            ("failed", Json::from(report.failed)),
            ("metrics", Json::object(metrics)),
        ])
        .render()
    );
    ExitCode::SUCCESS
}
