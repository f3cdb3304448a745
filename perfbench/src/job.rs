//! One source → dataset → trained artifact job, timed call by call from the
//! outside: the source (`StreamWorld::generate` or `FileWorld::load`), the
//! streaming runner, the GBDT fit, the state-holdout AUC and the artifact
//! encode.

use std::path::Path;
use std::time::Instant;

use bdc::{DiffMode, StreamReport};
use ml::{roc_auc, Dataset, FlatForest, GbdtModel};
use obs::Telemetry;
use redsus_core::features::{dataset_fingerprint, FeatureConfig};
use redsus_core::labels::LabelingOptions;
use redsus_core::model::default_params;
use redsus_core::streaming::{run_streaming_to_dataset_with, StreamableSource};
use redsus_ingest::{FileWorld, IngestOptions};
use redsus_serve::{decode_model, encode_model};
use synth::{StreamWorld, SynthConfig};

use crate::trace::Tracer;

/// Where a job's world comes from.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    Synth(&'a SynthConfig),
    Files(&'a Path),
}

/// The outputs a job must reproduce exactly for its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Golden {
    /// Digest of the generated inputs the job ran on.
    pub inputs: u64,
    pub rows: usize,
    pub peak_entries: usize,
    pub dataset_fp: u64,
    pub model_fp: u64,
    pub auc_bits: u64,
}

impl Golden {
    /// Compare every output but the residency peak, which a change may
    /// lower without moving a single output bit.
    pub fn same_outputs(&self, other: &Golden) -> bool {
        (
            self.inputs,
            self.rows,
            self.dataset_fp,
            self.model_fp,
            self.auc_bits,
        ) == (
            other.inputs,
            other.rows,
            other.dataset_fp,
            other.model_fp,
            other.auc_bits,
        )
    }
}

/// One finished job with its per-call wall times.
pub struct Job {
    /// Source → artifact, timed around the whole job.
    pub wall_s: f64,
    pub source_s: f64,
    pub run_s: f64,
    pub fit_s: f64,
    pub eval_s: f64,
    pub encode_s: f64,
    /// Wall time from before the source is built until the runner returns:
    /// what the report's `total_wall` and its stages should account for.
    pub clock_wall_s: f64,
    pub report: StreamReport,
    pub source_peak_entries: usize,
    pub train_rows: usize,
    pub trees: usize,
    pub nodes: usize,
    pub auc: f64,
    /// Labels and predicted probabilities of the held-out rows.
    pub holdout: (Vec<f32>, Vec<f64>),
    pub golden: Golden,
    pub artifact: Vec<u8>,
    pub dataset: Dataset,
}

impl Job {
    pub fn stage_s(&self, name: &str) -> f64 {
        self.report
            .stage(name)
            .map_or(0.0, |s| s.wall.as_secs_f64())
    }

    pub fn stage_peak(&self, name: &str) -> usize {
        self.report
            .stage(name)
            .map_or(0, |s| s.peak_resident_entries)
    }

    /// Outside wall minus the report's `total_wall`.
    pub fn report_total_gap_s(&self) -> f64 {
        self.clock_wall_s - self.report.total_wall.as_secs_f64()
    }

    /// Outside wall minus the sum of every reported stage wall.
    pub fn unattributed_s(&self) -> f64 {
        self.clock_wall_s - self.stage_sum_s()
    }

    pub fn stage_sum_s(&self) -> f64 {
        self.report
            .stages
            .iter()
            .map(|s| s.wall.as_secs_f64())
            .sum()
    }
}

/// Run one job. `telemetry` goes to the streaming runner; spans land under
/// `parent` when `tracer` is on.
pub fn run(
    source: Source<'_>,
    mode: DiffMode,
    telemetry: &Telemetry,
    tracer: &Tracer,
    parent: u64,
    seed: u64,
) -> Result<Job, String> {
    let (job, wall_s) = tracer.span("job", parent, None, |id| {
        let clock = Instant::now();
        match source {
            Source::Synth(config) => {
                let (world, source_s) = tracer.span("synth.generate", id, None, |_| {
                    StreamWorld::generate(config, mode)
                });
                finish(world?, source_s, clock, mode, telemetry, tracer, id, seed)
            }
            Source::Files(dir) => {
                let (world, source_s) = tracer.span("ingest.load", id, None, |_| {
                    FileWorld::load(dir, &IngestOptions::default(), mode)
                });
                let world = world.map_err(|e| format!("ingest failed: {e}"))?;
                finish(world, source_s, clock, mode, telemetry, tracer, id, seed)
            }
        }
    });
    let (mut job, model) = job?;
    job.wall_s = wall_s;
    // Fingerprints are the benchmark's checks, taken outside the timed job.
    job.golden.dataset_fp = dataset_fingerprint(&job.dataset);
    job.golden.model_fp = decode_model(&job.artifact)
        .map_err(|e| format!("fresh artifact does not decode: {e}"))?
        .fingerprint;
    job.nodes = FlatForest::from_model(&model).n_nodes();
    Ok(job)
}

#[allow(clippy::too_many_arguments)]
fn finish<W: StreamableSource>(
    world: W,
    source_s: f64,
    clock: Instant,
    mode: DiffMode,
    telemetry: &Telemetry,
    tracer: &Tracer,
    parent: u64,
    seed: u64,
) -> Result<(Job, GbdtModel), String> {
    let source_peak_entries = world.source_report().peak_resident_entries;
    let (run, run_s) = tracer.span("core.run", parent, None, |_| {
        run_streaming_to_dataset_with(
            world,
            &LabelingOptions::default(),
            &FeatureConfig::default(),
            mode,
            telemetry,
        )
    });
    let clock_wall_s = clock.elapsed().as_secs_f64();
    let run = run?;
    let matrix = run.matrix;

    // Whole states held out of training (the paper's unseen-state test):
    // every fourth state in name order.
    let mut states = matrix.states();
    states.sort();
    states.dedup();
    let held: Vec<&String> = states.iter().step_by(4).collect();
    let (mut train_rows, mut test_rows) = (Vec::new(), Vec::new());
    for (i, obs) in matrix.observations.iter().enumerate() {
        if held.contains(&&obs.state) {
            test_rows.push(i);
        } else {
            train_rows.push(i);
        }
    }
    if train_rows.is_empty() || test_rows.is_empty() {
        return Err(format!(
            "state holdout is empty: {} train rows, {} test rows over {} states",
            train_rows.len(),
            test_rows.len(),
            states.len()
        ));
    }
    let train = matrix.dataset.subset(&train_rows);
    let test = matrix.dataset.subset(&test_rows);
    let (model, fit_s) = tracer.span("ml.fit", parent, None, |_| {
        GbdtModel::fit(&train, default_params(seed))
    });
    let ((auc, probs), eval_s) = tracer.span("ml.eval", parent, None, |_| {
        let probs = model.predict_dataset(&test);
        (roc_auc(test.labels(), &probs), probs)
    });
    let (artifact, encode_s) = tracer.span("serve.encode", parent, None, |_| encode_model(&model));

    let golden = Golden {
        inputs: 0,
        rows: matrix.dataset.n_rows(),
        peak_entries: run.report.peak_resident_entries,
        dataset_fp: 0,
        model_fp: 0,
        auc_bits: auc.to_bits(),
    };
    let job = Job {
        wall_s: 0.0,
        source_s,
        run_s,
        fit_s,
        eval_s,
        encode_s,
        clock_wall_s,
        report: run.report,
        source_peak_entries,
        train_rows: train.n_rows(),
        trees: model.n_trees(),
        nodes: 0,
        auc,
        holdout: (test.labels().to_vec(), probs),
        golden,
        artifact,
        dataset: matrix.dataset,
    };
    Ok((job, model))
}
