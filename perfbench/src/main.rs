//! Outside-in benchmark of the red_is_sus path: source → dataset → trained
//! artifact → `/score`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload synth-national --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). See `perfbench/README.md` for the workloads and metrics.

mod bdcgen;
mod client;
mod job;
mod probe;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bdc::DiffMode;
use ml::roc_auc;
use obs::{MetricsRegistry, Telemetry, TraceSink};
use redsus_serve::{
    score_rows, score_rows_quantised, FeatureFrame, ModelRegistry, ScoreMode, ScoreOutput,
    ScoreServer, ServeConfig, ServedModel, ServerStats,
};
use synth::SynthConfig;

use bdcgen::{Shape, Written};
use client::{LoopResult, PoolSpec, Request, Scrape};
use job::{Golden, Job, Source};
use probe::Probe;
use stats::{fastest_third, mean, median, percentile, quartiles};
use trace::{Tracer, ROOT};

/// End-to-end metrics (`--trace 0`), in print order, with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("peak_rss_mb", "MB"),
    ("peak_resident_entries", "count"),
    ("holdout_auc", "auc"),
    ("score_rows_per_s", "rows/s"),
    ("score_p50_ms", "ms"),
    ("score_goodput_rps", "req/s"),
];

/// Per-layer metrics (`--trace 1`), in print order, with units. A layer the
/// workload bypasses reads 0. `score_p99_ms` is here and not end-to-end:
/// on a shared VM it is set by how often the hypervisor stalls the guest,
/// and its spread over runs reached several times any bound.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("synth.generate_s", "s"),
    ("synth.regulatory_pass_s", "s"),
    ("synth.fabric_hex_table_s", "s"),
    ("synth.regulatory_pass_peak_entries", "count"),
    ("ingest.load_s", "s"),
    ("ingest.availability_ingest_s", "s"),
    ("ingest.rows_per_s", "rows/s"),
    ("ingest.ookla_ingest_s", "s"),
    ("ingest.peak_entries", "count"),
    ("bdc.release_diff_s", "s"),
    ("core.run_s", "s"),
    ("core.asn_matching_s", "s"),
    ("core.ookla_reprojection_s", "s"),
    ("core.coverage_scoring_s", "s"),
    ("core.mlab_attribution_s", "s"),
    ("core.label_construction_s", "s"),
    ("core.feature_engineering_s", "s"),
    ("core.dataset_rows", "count"),
    ("core.report_total_gap_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.sequential_speedup", "ratio"),
    ("core.sequential_speedup_iqr", "ratio"),
    ("ml.fit_s", "s"),
    ("ml.fit_rows_per_s", "rows/s"),
    ("ml.eval_s", "s"),
    ("ml.trees", "count"),
    ("ml.nodes", "count"),
    ("serve.encode_s", "s"),
    ("serve.load_s", "s"),
    ("serve.artifact_bytes", "bytes"),
    ("serve.kernel_rows_per_s", "rows/s"),
    ("serve.kernel_block64_rows_per_s", "rows/s"),
    ("serve.kernel_quantised_rows_per_s", "rows/s"),
    ("serve.quantised_speedup", "ratio"),
    ("serve.quantised_speedup_iqr", "ratio"),
    ("serve.frame_parse_us", "us"),
    ("score_p99_ms", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.requests_per_connection", "count"),
    ("serve.peer_resets", "count"),
    ("serve.publishes", "count"),
    ("serve.status_non2xx", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("bench.rss_bytes_per_resident_entry", "bytes"),
    ("bench.host_probe_ms", "ms"),
    ("bench.jobs", "count"),
    ("error_rate", "ratio"),
];

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Batch workloads repeat their set of jobs at least `MIN_PASSES` times and
/// time at least `MIN_JOBS` jobs, then keep going until `JOB_SHARE` of
/// `--seconds` has passed; the rest serves the fixed model.
const MIN_PASSES: usize = 3;
const MIN_JOBS: usize = 3;
const JOB_SHARE: f64 = 0.6;
/// Client connections; the server's default worker pool is 2 as well.
const CLIENTS: usize = 2;
const BULK_POOL: PoolSpec = PoolSpec {
    requests: 32,
    min_rows: 192,
    max_rows: 320,
};
/// Untraced load loops run in windows this long, with a host speed probe
/// before each window and after the last.
const WINDOW_S: f64 = 1.0;
/// `score-bulk` runs one more model job after every `JOB_EVERY` windows, so
/// its `job_s` samples the whole run and not just the set-up.
const JOB_EVERY: u64 = 2;
/// Traced runs: rounds of (traced, untraced, sequential) batch jobs, pairs
/// of traced/untraced score windows, and block64/quantised kernel pairs.
const TRACE_ROUNDS: usize = 3;
const TRACE_WINDOW_PAIRS: usize = 3;
const KERNEL_PAIRS: usize = 15;
/// World seeds of `synth-national` are `seed * WORLD_STRIDE + j`, so two
/// run seeds never share a world.
const WORLD_STRIDE: u64 = 1024;
/// Seed of the fixed world every workload serves a model of.
const SERVE_WORLD_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SynthNational,
    BdcFiles,
    ScoreBulk,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "synth-national" => Self::SynthNational,
            "bdc-files" => Self::BdcFiles,
            "score-bulk" => Self::ScoreBulk,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::SynthNational => "synth-national",
            Self::BdcFiles => "bdc-files",
            Self::ScoreBulk => "score-bulk",
        }
    }
}

/// Input sizes. `full` is the benchmark; `tiny` is for the benchmark's own
/// tests.
#[derive(Debug, Clone, Copy)]
struct Size {
    name: &'static str,
    /// `synth-national` runs a set of this many worlds per run, each
    /// `SynthConfig::national_scaled(world seed, synth_scale)`.
    synth_worlds: usize,
    synth_scale: usize,
    /// Divisor of the fixed world the served model is trained on.
    serve_scale: usize,
    bdc: Shape,
}

const FULL: Size = Size {
    name: "full",
    synth_worlds: 12,
    synth_scale: 512,
    serve_scale: 512,
    bdc: Shape {
        providers: 300,
        states: 6,
        locations_per_state: 12_000,
        block: (100, 500),
    },
};

const TINY: Size = Size {
    name: "tiny",
    synth_worlds: 2,
    synth_scale: 8192,
    serve_scale: 8192,
    bdc: Shape {
        providers: 16,
        states: 4,
        locations_per_state: 600,
        block: (40, 160),
    },
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    out_dir: PathBuf,
    record: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <synth-national|bdc-files|score-bulk> \
         --seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--out-dir DIR] [--record]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = FULL;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut record = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => FULL,
                    "tiny" => TINY,
                    _ => usage(),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        usage()
    };
    Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        size,
        out_dir,
        record,
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    let mut bench = Bench::new(&args);
    let outcome = if args.record {
        bench.record().map(|line| {
            println!("{line}");
        })
    } else {
        bench
            .run()
            .map(|metrics| println!("{}", bench.result_line(&metrics)))
    };
    bench.cleanup();
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Values by metric name.
type Metrics = BTreeMap<&'static str, f64>;

/// The committed per-seed goldens: `key size seed inputs rows peak_entries
/// dataset_fp model_fp auc_bits`, as `--record` prints them.
fn goldens() -> BTreeMap<(String, String, u64), Golden> {
    include_str!("../goldens.tsv")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let num = |i: usize| -> u64 { f[i].parse().expect("goldens.tsv holds integers") };
            (
                (f[0].to_string(), f[1].to_string(), num(2)),
                Golden {
                    inputs: num(3),
                    rows: num(4) as usize,
                    peak_entries: num(5) as usize,
                    dataset_fp: num(6),
                    model_fp: num(7),
                    auc_bits: num(8),
                },
            )
        })
        .collect()
}

/// VmHWM of this process, in bytes.
fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

/// A job's source inputs, prepared at set-up.
enum Inputs {
    Synth { config: SynthConfig },
    Files { dir: PathBuf, written: Written },
}

impl Inputs {
    /// Digest of the generated inputs: the written files, or the config.
    fn digest(&self) -> u64 {
        match self {
            Inputs::Synth { config } => {
                bdcgen::fnv1a(bdcgen::FNV_OFFSET, format!("{config:?}").as_bytes())
            }
            Inputs::Files { written, .. } => written.digest,
        }
    }

    fn source(&self) -> Source<'_> {
        match self {
            Inputs::Synth { config } => Source::Synth(config),
            Inputs::Files { dir, .. } => Source::Files(dir),
        }
    }

    /// Availability rows written, for the ingest throughput.
    fn availability_rows(&self) -> Option<usize> {
        match self {
            Inputs::Synth { .. } => None,
            Inputs::Files { written, .. } => Some(written.availability_rows),
        }
    }
}

/// One world of a batch workload: its seed (the key of its goldens) and
/// its inputs.
struct World {
    seed: u64,
    inputs: Inputs,
}

/// A running server on the fixed model, with everything the score loops
/// need.
struct Serving {
    served: ServedModel,
    fingerprint: String,
    /// The encoded model the server was started from.
    artifact: Vec<u8>,
    registry: Arc<ModelRegistry>,
    server: ScoreServer,
    pool: Vec<Request>,
}

struct Bench<'a> {
    args: &'a Args,
    tracer: Tracer,
    silent: Tracer,
    attempted: u64,
    failed: u64,
    goldens: BTreeMap<(String, String, u64), Golden>,
    /// First default-schedule job per `(key, world seed)`: later jobs on the
    /// same world must match it.
    references: BTreeMap<(&'static str, u64), Golden>,
    data_dir: PathBuf,
    obs_sink: Option<Arc<TraceSink>>,
    probe: Probe,
}

impl<'a> Bench<'a> {
    fn new(args: &'a Args) -> Self {
        let data_dir = args.out_dir.join(format!(
            "data-{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        Self {
            args,
            tracer: Tracer::new(args.trace),
            silent: Tracer::new(false),
            attempted: 0,
            failed: 0,
            goldens: goldens(),
            references: BTreeMap::new(),
            data_dir,
            obs_sink: None,
            probe: Probe::new(),
        }
    }

    fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }

    fn file_stem(&self) -> String {
        format!("{}-seed{}", self.args.workload.name(), self.args.seed)
    }

    /// The program's own telemetry for a traced arm: a private metrics
    /// registry plus a JSONL trace sink under the output directory.
    fn traced_telemetry(&mut self) -> Result<Telemetry, String> {
        if self.obs_sink.is_none() {
            let path = self
                .args
                .out_dir
                .join(format!("{}.obs.jsonl", self.file_stem()));
            let sink = TraceSink::to_path(&path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
            self.obs_sink = Some(Arc::new(sink));
        }
        let sink = Arc::clone(self.obs_sink.as_ref().expect("set above"));
        Ok(Telemetry::with_metrics(Arc::new(MetricsRegistry::new())).with_trace(sink))
    }

    fn note(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    fn add_loop(&mut self, result: &LoopResult) {
        self.attempted += result.attempted() as u64;
        let failed = result.failed() as u64;
        self.failed += failed;
        if failed > 0 {
            eprintln!(
                "perfbench: FAILED: {failed} of {} requests ({} non-2xx, {} socket errors, {} score mismatches)",
                result.attempted(),
                result.non2xx,
                result.socket_errors,
                result.mismatches
            );
        }
    }

    /// Check a job against the clock rule, the committed golden for
    /// `(key, size, world seed)` and the first default-schedule job on the
    /// same world in this run. The residency peak is not a golden: a change
    /// may lower it without changing a single output bit.
    fn check_job(&mut self, key: &'static str, world_seed: u64, job: &Job, default_schedule: bool) {
        let stage_sum = job.stage_sum_s();
        let clock_ok = stage_sum <= job.clock_wall_s;
        self.note(clock_ok, || {
            format!(
                "{key}: reported stage walls sum to {stage_sum:.6} s, more than the {:.6} s measured outside",
                job.clock_wall_s
            )
        });
        let g = job.golden;
        let committed =
            self.goldens
                .get(&(key.to_string(), self.args.size.name.to_string(), world_seed));
        if let Some(want) = committed.copied() {
            self.note(g.same_outputs(&want), || {
                format!("{key} world {world_seed}: outputs {g:?} differ from the committed golden {want:?}")
            });
        }
        match self.references.get(&(key, world_seed)).copied() {
            Some(want) => self.note(g.same_outputs(&want), || {
                format!("{key} world {world_seed}: outputs {g:?} differ from this run's first job {want:?}")
            }),
            None if default_schedule => {
                self.references.insert((key, world_seed), g);
            }
            None => {}
        }
    }

    fn run_job(
        &mut self,
        key: &'static str,
        world: &World,
        mode: DiffMode,
        traced: bool,
    ) -> Result<Job, String> {
        let telemetry = if traced {
            self.traced_telemetry()?
        } else {
            Telemetry::global()
        };
        let tracer = if traced { &self.tracer } else { &self.silent };
        let mut job = job::run(
            world.inputs.source(),
            mode,
            &telemetry,
            tracer,
            ROOT,
            world.seed,
        )?;
        job.golden.inputs = world.inputs.digest();
        self.check_job(key, world.seed, &job, mode == DiffMode::Parallel);
        Ok(job)
    }

    /// `--record`: one job per world of the workload, printed as golden
    /// lines for `goldens.tsv`.
    fn record(&mut self) -> Result<String, String> {
        let (key, worlds) = match self.args.workload {
            Workload::SynthNational | Workload::BdcFiles => {
                (self.args.workload.name(), self.prepare_batch_inputs()?)
            }
            Workload::ScoreBulk => ("score-model", vec![self.serve_world()]),
        };
        let mut lines = Vec::new();
        for world in &worlds {
            let g = self.run_job(key, world, DiffMode::Parallel, false)?.golden;
            lines.push(format!(
                "{key}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                self.args.size.name,
                world.seed,
                g.inputs,
                g.rows,
                g.peak_entries,
                g.dataset_fp,
                g.model_fp,
                g.auc_bits
            ));
        }
        Ok(lines.join("\n"))
    }

    fn run(&mut self) -> Result<Metrics, String> {
        let mut m = Metrics::new();
        match self.args.workload {
            Workload::SynthNational | Workload::BdcFiles => self.batch(&mut m)?,
            Workload::ScoreBulk => self.score(&mut m)?,
        }
        let rss = peak_rss_bytes();
        m.insert("peak_rss_mb", rss / (1024.0 * 1024.0));
        let entries = m["peak_resident_entries"];
        m.insert(
            "bench.rss_bytes_per_resident_entry",
            if entries > 0.0 { rss / entries } else { 0.0 },
        );
        m.insert(
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        m.insert("bench.host_probe_ms", self.probe.median_s() * 1e3);
        if self.args.trace {
            let stem = self.file_stem();
            let jsonl = self.args.out_dir.join(format!("{stem}.trace.jsonl"));
            let summary = self.args.out_dir.join(format!("{stem}.trace.txt"));
            self.tracer
                .write(&jsonl, &summary)
                .map_err(|e| format!("cannot write the trace: {e}"))?;
            if let Some(sink) = &self.obs_sink {
                sink.flush();
            }
            eprintln!(
                "perfbench: spans in {}, self-time table in {}",
                jsonl.display(),
                summary.display()
            );
        }
        Ok(m)
    }

    fn result_line(&self, m: &Metrics) -> String {
        let declared: &[(&str, &str)] = if self.args.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        };
        let mut metrics = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = m.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }

    // -- set-up --------------------------------------------------------------

    /// The timed worlds of a batch workload: the synth world set, or one
    /// freshly written BDC directory.
    fn prepare_batch_inputs(&mut self) -> Result<Vec<World>, String> {
        let seed = self.args.seed;
        let size = self.args.size;
        Ok(match self.args.workload {
            Workload::SynthNational => (0..size.synth_worlds as u64)
                .map(|j| {
                    let seed = seed * WORLD_STRIDE + j;
                    World {
                        seed,
                        inputs: Inputs::Synth {
                            config: SynthConfig::national_scaled(seed, size.synth_scale),
                        },
                    }
                })
                .collect(),
            Workload::BdcFiles => {
                let _ = std::fs::remove_dir_all(&self.data_dir);
                let written = bdcgen::write_dir(&self.data_dir, &size.bdc, seed)
                    .map_err(|e| format!("cannot write {}: {e}", self.data_dir.display()))?;
                vec![World {
                    seed,
                    inputs: Inputs::Files {
                        dir: self.data_dir.clone(),
                        written,
                    },
                }]
            }
            Workload::ScoreBulk => Vec::new(),
        })
    }

    /// The fixed world every workload trains its served model on: the model
    /// is a fixture, and the seed drives the traffic.
    fn serve_world(&self) -> World {
        World {
            seed: SERVE_WORLD_SEED,
            inputs: Inputs::Synth {
                config: SynthConfig::national_scaled(SERVE_WORLD_SEED, self.args.size.serve_scale),
            },
        }
    }

    /// Set-up, `SETUP_REPS` times: generate the workload's inputs, train the
    /// served model on the fixed world (source → dataset → fit → artifact),
    /// decode it, start the server on it and draw the request pool from the
    /// seed. The model job also warms the process for the timed jobs.
    /// `setup_s` is the median set-up in reference seconds, from a probe
    /// before each set-up and one after the last. Returns the last set-up's
    /// inputs and server, every set-up's model job, and the factor that
    /// turns the set-ups' wall seconds into reference seconds.
    fn setup(&mut self, m: &mut Metrics) -> Result<(Vec<World>, Serving, Vec<Job>, f64), String> {
        let world = self.serve_world();
        // Only `score-bulk` takes its per-layer job numbers from the model job.
        let traced = self.args.trace && self.args.workload == Workload::ScoreBulk;
        let mut times = Vec::new();
        let mut jobs = Vec::new();
        let mut last: Option<(Vec<World>, Serving)> = None;
        let mark = self.probe.mark();
        for _ in 0..SETUP_REPS {
            if let Some((_, previous)) = last.take() {
                previous.server.shutdown();
            }
            self.probe.sample();
            let started = Instant::now();
            let worlds = self.prepare_batch_inputs()?;
            let job = self.run_job("score-model", &world, DiffMode::Parallel, traced)?;
            let serving = self.start_serving(&job.dataset, &job.artifact)?;
            times.push(started.elapsed().as_secs_f64());
            jobs.push(job);
            last = Some((worlds, serving));
        }
        let factor = self.probe.factor_since(mark);
        eprintln!("perfbench: set-ups took {times:.4?} s, factor {factor:.4}");
        m.insert("setup_s", median(&times) * factor);
        let (worlds, serving) = last.expect("SETUP_REPS > 0");
        Ok((worlds, serving, jobs, factor))
    }

    /// Decode `artifact`, start a server on it with the default config and
    /// draw the request pool from `dataset`.
    fn start_serving(&mut self, dataset: &ml::Dataset, artifact: &[u8]) -> Result<Serving, String> {
        let (served, _) = self.tracer.span("serve.load", ROOT, None, |_| {
            ServedModel::from_bytes(artifact)
        });
        let served = served.map_err(|e| format!("artifact does not load: {e}"))?;
        let pool = client::build_pool(dataset, &served, BULK_POOL, self.args.seed);
        let registry = Arc::new(ModelRegistry::with_model(served.clone()));
        let server =
            ScoreServer::start_with_registry(Arc::clone(&registry), ServeConfig::default())
                .map_err(|e| format!("cannot start the score server: {e}"))?;
        Ok(Serving {
            fingerprint: served.fingerprint_hex(),
            served,
            artifact: artifact.to_vec(),
            registry,
            server,
            pool,
        })
    }

    // -- batch workloads ---------------------------------------------------

    fn batch(&mut self, m: &mut Metrics) -> Result<(), String> {
        let key = self.args.workload.name();
        let (worlds, serving, _, _) = self.setup(m)?;
        let started = Instant::now();

        let (peaks, auc) = if self.args.trace {
            self.batch_traced(key, &worlds, m)?
        } else {
            self.batch_passes(key, &worlds, started, m)?
        };
        m.insert("peak_resident_entries", mean(&peaks));
        m.insert("holdout_auc", auc);

        // Serve the fixed model for the rest of the run.
        let remaining = (self.args.seconds - started.elapsed().as_secs_f64())
            .max(self.args.seconds * (1.0 - JOB_SHARE));
        self.serve_load(&serving, Duration::from_secs_f64(remaining), None, m)?;
        if self.args.trace {
            self.kernel_and_frame(&serving, m);
        }
        serving.server.shutdown();
        Ok(())
    }

    /// Untraced batch run: passes of one job per world, at least
    /// `MIN_PASSES` passes and `MIN_JOBS` jobs, then another pass only while
    /// it fits in `JOB_SHARE` of the run. `job_s` is the mean over the worlds
    /// of each world's `fastest_third` jobs, in reference seconds from a
    /// probe before each job and one after the last.
    /// Returns the per-world peaks and the holdout AUC pooled over the worlds.
    fn batch_passes(
        &mut self,
        key: &'static str,
        worlds: &[World],
        started: Instant,
        m: &mut Metrics,
    ) -> Result<(Vec<f64>, f64), String> {
        let budget = self.args.seconds * JOB_SHARE;
        let mut times = vec![Vec::new(); worlds.len()];
        let mark = self.probe.mark();
        let mut passes = 0;
        loop {
            let pass_started = Instant::now();
            let mut peaks = Vec::new();
            let mut holdout = (Vec::new(), Vec::new());
            for (w, world) in worlds.iter().enumerate() {
                self.probe.sample();
                let job = self.run_job(key, world, DiffMode::Parallel, false)?;
                times[w].push(job.wall_s);
                peaks.push(job.golden.peak_entries as f64);
                holdout.0.extend_from_slice(&job.holdout.0);
                holdout.1.extend_from_slice(&job.holdout.1);
            }
            passes += 1;
            let next_ends = started.elapsed().as_secs_f64() + pass_started.elapsed().as_secs_f64();
            if passes >= MIN_PASSES && passes * worlds.len() >= MIN_JOBS && next_ends > budget {
                let fastest: Vec<f64> = times.iter().map(|t| fastest_third(t)).collect();
                m.insert("job_s", mean(&fastest) * self.probe.factor_since(mark));
                m.insert("bench.jobs", (passes * worlds.len()) as f64);
                return Ok((peaks, roc_auc(&holdout.0, &holdout.1)));
            }
        }
    }

    /// Traced batch run: on every world, a traced job, an untraced job and a
    /// Sequential-schedule job in rotating order (over `TRACE_ROUNDS` rounds
    /// when there is a single world). Per-layer numbers are medians over the
    /// traced jobs; the untraced job is the base of both the tracing
    /// overhead and the Sequential ratio.
    fn batch_traced(
        &mut self,
        key: &'static str,
        worlds: &[World],
        m: &mut Metrics,
    ) -> Result<(Vec<f64>, f64), String> {
        let rounds = TRACE_ROUNDS.div_ceil(worlds.len());
        let mut traced: Vec<Job> = Vec::new();
        let mut seq_ratio = Vec::new();
        let mut overhead = Vec::new();
        for round in 0..rounds {
            for (w, world) in worlds.iter().enumerate() {
                let mut walls = [0.0f64; 3];
                for k in 0..3 {
                    let arm = (round + w + k) % 3;
                    let job = match arm {
                        0 => self.run_job(key, world, DiffMode::Parallel, true)?,
                        1 => self.run_job(key, world, DiffMode::Parallel, false)?,
                        _ => self.run_job(key, world, DiffMode::Sequential, false)?,
                    };
                    walls[arm] = job.wall_s;
                    if arm == 0 {
                        traced.push(job);
                    }
                }
                overhead.push((walls[0] / walls[1] - 1.0) * 100.0);
                seq_ratio.push(walls[2] / walls[1]);
            }
        }
        let (q1, q3) = quartiles(&seq_ratio);
        m.insert("core.sequential_speedup", median(&seq_ratio));
        m.insert("core.sequential_speedup_iqr", q3 - q1);
        m.insert("obs.trace_overhead_pct", median(&overhead));
        m.insert("bench.jobs", (3 * rounds * worlds.len()) as f64);
        self.job_layer_metrics(&traced, worlds[0].inputs.availability_rows(), m);
        let peaks = traced
            .iter()
            .map(|j| j.golden.peak_entries as f64)
            .collect();
        let labels: Vec<f32> = traced.iter().flat_map(|j| j.holdout.0.clone()).collect();
        let probs: Vec<f64> = traced.iter().flat_map(|j| j.holdout.1.clone()).collect();
        let auc = roc_auc(&labels, &probs);
        Ok((peaks, auc))
    }

    /// Per-layer numbers of a set of jobs (medians). `availability_rows` is
    /// set for file-backed jobs, which bypass synth; synth jobs bypass
    /// ingest and the release diff.
    fn job_layer_metrics(&self, jobs: &[Job], availability_rows: Option<usize>, m: &mut Metrics) {
        let med = |f: &dyn Fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
        m.insert("job_s", med(&|j| j.wall_s));
        match availability_rows {
            None => {
                m.insert("synth.generate_s", med(&|j| j.source_s));
                m.insert(
                    "synth.regulatory_pass_s",
                    med(&|j| j.stage_s("regulatory_pass")),
                );
                m.insert(
                    "synth.fabric_hex_table_s",
                    med(&|j| j.stage_s("fabric_hex_table")),
                );
                m.insert(
                    "synth.regulatory_pass_peak_entries",
                    med(&|j| j.stage_peak("regulatory_pass") as f64),
                );
            }
            Some(rows) => {
                let rows = rows as f64;
                m.insert("ingest.load_s", med(&|j| j.source_s));
                m.insert(
                    "ingest.availability_ingest_s",
                    med(&|j| j.stage_s("availability_ingest")),
                );
                m.insert(
                    "ingest.rows_per_s",
                    med(&|j| rows / j.stage_s("availability_ingest")),
                );
                m.insert("ingest.ookla_ingest_s", med(&|j| j.stage_s("ookla_ingest")));
                m.insert(
                    "ingest.peak_entries",
                    med(&|j| j.source_peak_entries as f64),
                );
                m.insert("bdc.release_diff_s", med(&|j| j.stage_s("release_diff")));
            }
        }
        m.insert("core.run_s", med(&|j| j.run_s));
        for (stage, name) in [
            ("asn_matching", "core.asn_matching_s"),
            ("ookla_reprojection", "core.ookla_reprojection_s"),
            ("coverage_scoring", "core.coverage_scoring_s"),
            ("mlab_attribution", "core.mlab_attribution_s"),
            ("label_construction", "core.label_construction_s"),
            ("feature_engineering", "core.feature_engineering_s"),
        ] {
            m.insert(name, med(&|j| j.stage_s(stage)));
        }
        m.insert("core.dataset_rows", med(&|j| j.golden.rows as f64));
        m.insert("core.report_total_gap_s", med(&|j| j.report_total_gap_s()));
        m.insert("core.unattributed_s", med(&|j| j.unattributed_s()));
        m.insert("ml.fit_s", med(&|j| j.fit_s));
        m.insert("ml.fit_rows_per_s", med(&|j| j.train_rows as f64 / j.fit_s));
        m.insert("ml.eval_s", med(&|j| j.eval_s));
        m.insert("ml.trees", med(&|j| j.trees as f64));
        m.insert("ml.nodes", med(&|j| j.nodes as f64));
        m.insert("serve.encode_s", med(&|j| j.encode_s));
        m.insert("serve.artifact_bytes", med(&|j| j.artifact.len() as f64));
    }

    // -- serving -------------------------------------------------------------

    /// Drive `serving` for `duration`: the closed loop on an untraced run,
    /// alternating untraced/traced windows on a traced one. Sets the
    /// end-to-end score metrics (untraced) or the `serve.http` metrics
    /// (traced). On an untraced run with `model_world`, runs a job on it
    /// after every `JOB_EVERY` windows and returns the jobs' times in
    /// reference seconds.
    fn serve_load(
        &mut self,
        serving: &Serving,
        duration: Duration,
        model_world: Option<&World>,
        m: &mut Metrics,
    ) -> Result<Vec<f64>, String> {
        if !self.args.trace {
            // Times in reference seconds: scaled by the loop's probes, which
            // the jobs share.
            let mut load = LoopResult::default();
            let mark = self.probe.mark();
            let started = Instant::now();
            let mut windows = 0;
            let mut jobs = Vec::new();
            while let Some(left) = duration.checked_sub(started.elapsed()) {
                self.probe.sample();
                let window = left.min(Duration::from_secs_f64(WINDOW_S));
                load.merge(self.drive(serving.server.addr(), serving, window, false, windows));
                windows += 1;
                if let Some(world) = model_world.filter(|_| windows % JOB_EVERY == 0) {
                    let job = self.run_job("score-model", world, DiffMode::Parallel, false)?;
                    jobs.push(job.wall_s);
                }
            }
            let factor = self.probe.factor_since(mark);
            load.scale(factor);
            jobs.iter_mut().for_each(|j| *j *= factor);
            self.add_loop(&load);
            m.insert("score_p50_ms", percentile(&load.latencies_s, 50.0) * 1e3);
            m.insert("score_rows_per_s", load.rows_per_s());
            m.insert("score_goodput_rps", load.goodput_rps());
            return Ok(jobs);
        }

        // A second server over the same registry carries the program's own
        // tracing; windows alternate between the two.
        let telemetry = self.traced_telemetry()?;
        let traced_server = ScoreServer::start_with_telemetry(
            Arc::clone(&serving.registry),
            ServeConfig::default(),
            &telemetry,
        )
        .map_err(|e| format!("cannot start the traced score server: {e}"))?;
        let window = duration / (2 * TRACE_WINDOW_PAIRS) as u32;
        let before = self.scrape(&traced_server)?;
        let stats_before = traced_server.stats();
        let mut traced_all = LoopResult::default();
        let mut untraced_all = LoopResult::default();
        let mut overhead = Vec::new();
        for pair in 0..TRACE_WINDOW_PAIRS {
            let mut p50 = [0.0; 2];
            for k in 0..2 {
                self.probe.sample();
                let traced = (pair + k) % 2 == 1;
                let addr = if traced {
                    traced_server.addr()
                } else {
                    serving.server.addr()
                };
                let result = self.drive(addr, serving, window, traced, pair as u64);
                self.add_loop(&result);
                p50[traced as usize] = percentile(&result.latencies_s, 50.0);
                if traced {
                    traced_all.merge(result);
                } else {
                    untraced_all.merge(result);
                }
            }
            overhead.push((p50[1] / p50[0] - 1.0) * 100.0);
        }
        let scrape = self.scrape(&traced_server)?.since(&before);
        let stats = traced_server.stats();
        traced_server.shutdown();

        // Batch workloads measured the overhead on their jobs already.
        m.entry("obs.trace_overhead_pct")
            .or_insert(median(&overhead));
        m.insert(
            "score_p99_ms",
            percentile(&untraced_all.latencies_s, 99.0) * 1e3,
        );
        m.insert("serve.server_p50_ms", scrape.score_quantile(0.5) * 1e3);
        m.insert("serve.server_p99_ms", scrape.score_quantile(0.99) * 1e3);
        m.insert(
            "serve.wait_ms",
            (mean(&traced_all.latencies_s) - scrape.score_mean_s()) * 1e3,
        );
        m.insert(
            "serve.requests_per_connection",
            requests_per_connection(&stats, &stats_before),
        );
        m.insert(
            "serve.peer_resets",
            (stats.peer_resets - stats_before.peer_resets) as f64,
        );
        m.insert("serve.publishes", scrape.publishes);
        m.insert("serve.status_non2xx", scrape.non2xx);
        Ok(Vec::new())
    }

    fn scrape(&self, server: &ScoreServer) -> Result<Scrape, String> {
        client::scrape(server.addr())
            .map(|text| client::parse_scrape(&text))
            .map_err(|e| format!("cannot scrape /metrics: {e}"))
    }

    /// One closed load loop against `addr`.
    fn drive(
        &self,
        addr: std::net::SocketAddr,
        serving: &Serving,
        duration: Duration,
        traced: bool,
        salt: u64,
    ) -> LoopResult {
        let tracer = if traced { &self.tracer } else { &self.silent };
        let target = client::Target {
            addr,
            pool: &serving.pool,
            fingerprint: &serving.fingerprint,
        };
        client::closed_loop(
            target,
            CLIENTS,
            duration,
            self.args.seed ^ (salt << 32),
            tracer,
        )
    }

    /// In-process layer numbers on the request pool: the artifact decode,
    /// the frame parse per request body, and the default, block64 and
    /// quantised kernels over every pooled row, the last two in alternating
    /// pairs. Every output is checked against the expected model and scores.
    fn kernel_and_frame(&mut self, serving: &Serving, m: &mut Metrics) {
        let served = &serving.served;
        let mut load_s = Vec::new();
        let mut loads_ok = true;
        for _ in 0..KERNEL_PAIRS {
            let (model, wall) = self.tracer.span("serve.load", ROOT, None, |_| {
                ServedModel::from_bytes(&serving.artifact)
            });
            load_s.push(wall);
            loads_ok &= model.is_ok_and(|m| m.fingerprint_hex() == serving.fingerprint);
        }
        self.note(loads_ok, || {
            "the served artifact does not decode to the served model".into()
        });
        m.insert("serve.load_s", median(&load_s));

        let mut parse_us = Vec::new();
        let mut frames_ok = true;
        for request in &serving.pool {
            let (frame, wall) = self.tracer.span("serve.frame_parse", ROOT, None, |_| {
                FeatureFrame::parse_csv(request.body())
            });
            parse_us.push(wall * 1e6);
            frames_ok &= frame.is_ok_and(|f| {
                let aligned = f.align(served.forest());
                aligned.data.len() == request.data.len()
                    && aligned
                        .data
                        .iter()
                        .zip(&request.data)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            });
        }
        self.note(frames_ok, || {
            "a pooled request body does not parse back to its rows".into()
        });
        m.insert("serve.frame_parse_us", median(&parse_us));

        let data: Vec<f32> = serving.pool.iter().flat_map(|r| r.data.clone()).collect();
        let expected: Vec<u64> = serving
            .pool
            .iter()
            .flat_map(|r| r.expected.iter().map(|s| s.to_bits()))
            .collect();
        let rows = expected.len() as f64;
        let same = |scores: &[f64]| {
            scores.len() == expected.len()
                && scores.iter().zip(&expected).all(|(s, e)| s.to_bits() == *e)
        };
        let (out, mode) = (ScoreOutput::Probability, ScoreMode::Sequential);
        let mut default_t = Vec::new();
        let mut block_t = Vec::new();
        let mut quant_t = Vec::new();
        let mut all_same = true;
        for pair in 0..KERNEL_PAIRS {
            let (s, t) = self.tracer.span("serve.kernel", ROOT, None, |_| {
                served.score_block(&data, out, mode)
            });
            all_same &= same(&s);
            default_t.push(t);
            let arm = |quantised: bool| {
                let (s, t) = if quantised {
                    self.tracer.span("serve.kernel_quantised", ROOT, None, |_| {
                        score_rows_quantised(served.quant_forest(), &data, out, mode)
                    })
                } else {
                    self.tracer.span("serve.kernel_block64", ROOT, None, |_| {
                        score_rows(served.forest(), &data, out, mode)
                    })
                };
                (same(&s), t)
            };
            let first_quantised = pair % 2 == 1;
            let (ok_a, t_a) = arm(first_quantised);
            let (ok_b, t_b) = arm(!first_quantised);
            all_same &= ok_a && ok_b;
            let (tq, tb) = if first_quantised {
                (t_a, t_b)
            } else {
                (t_b, t_a)
            };
            quant_t.push(tq);
            block_t.push(tb);
        }
        self.note(all_same, || {
            "an in-process kernel disagrees with the expected scores".into()
        });
        let speedup: Vec<f64> = block_t.iter().zip(&quant_t).map(|(b, q)| b / q).collect();
        let (q1, q3) = quartiles(&speedup);
        m.insert("serve.kernel_rows_per_s", rows / median(&default_t));
        m.insert("serve.kernel_block64_rows_per_s", rows / median(&block_t));
        m.insert("serve.kernel_quantised_rows_per_s", rows / median(&quant_t));
        m.insert("serve.quantised_speedup", median(&speedup));
        m.insert("serve.quantised_speedup_iqr", q3 - q1);
    }

    // -- score workload ------------------------------------------------------

    /// `score-bulk`: set up, then serve for the whole run. Its job numbers
    /// are the model jobs of the set-ups and of the load loop: `job_s` the
    /// `fastest_third` of them.
    fn score(&mut self, m: &mut Metrics) -> Result<(), String> {
        let (_, serving, jobs, factor) = self.setup(m)?;
        let last = jobs.last().expect("SETUP_REPS > 0");
        m.insert("peak_resident_entries", last.golden.peak_entries as f64);
        m.insert("holdout_auc", last.auc);
        if self.args.trace {
            self.job_layer_metrics(&jobs, None, m);
        }
        let duration = Duration::from_secs_f64(self.args.seconds);
        let world = self.serve_world();
        let mut times = self.serve_load(&serving, duration, Some(&world), m)?;
        times.extend(jobs.iter().map(|j| j.wall_s * factor));
        m.insert("job_s", fastest_third(&times));
        m.insert("bench.jobs", times.len() as f64);
        if self.args.trace {
            self.kernel_and_frame(&serving, m);
        }
        serving.server.shutdown();
        Ok(())
    }
}

/// Requests per accepted connection between two stats snapshots.
fn requests_per_connection(after: &ServerStats, before: &ServerStats) -> f64 {
    let connections = after.connections - before.connections;
    if connections == 0 {
        return 0.0;
    }
    (after.requests - before.requests) as f64 / connections as f64
}
