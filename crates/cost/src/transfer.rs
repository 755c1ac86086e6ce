//! Cross-task cost-model transfer from accumulated record logs.
//!
//! TenSet (and "Learning to Optimize Tensor Programs") show that one model
//! pretrained on measurement history from *many* tasks beats a cold
//! per-task model. This module builds that training set directly from the
//! durable [`felix_records`] logs: a [`TransferBuilder`] holds a catalog of
//! known workloads (their sketches, rebuilt deterministically from the
//! subgraphs), scans one-or-many record logs, recomputes each measurement's
//! training sample through the shared [`crate::ingest_sample`] routine —
//! bit-identical to what the live tuning loop fed the model — and
//! [`pretrain_transfer`] fits one shared MLP from a fixed seed. The whole
//! pipeline is a pure function of (device, workloads, log bytes), so two
//! builds from the same logs produce bitwise-equal weights.
//!
//! Hygiene mirrors the checkpoint-replay path: fault-marked records,
//! records for unknown tasks, stale sketches (index, name, or value-count
//! mismatch), duplicates, and records whose recomputed sample is non-finite
//! are skipped and counted, never trusted.

use crate::dataset::ingest_sample;
use crate::trainer::{pretrain, TrainConfig};
use crate::{Dataset, Mlp, Sample};
use felix_features::{extract_features, FeatureSet};
use felix_graph::lower::lower_subgraph;
use felix_graph::Subgraph;
use felix_records::{read_records, task_key};
use felix_sim::vendor::hardware_params;
use felix_sim::DeviceConfig;
use felix_tir::sketch::generate_sketches;
use felix_tir::Program;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;

/// Fixed weight-initialization seed of [`pretrain_transfer`], so the
/// transfer model is a deterministic function of its training set.
pub const TRANSFER_INIT_SEED: u64 = 0x7E25E7;

/// Ingestion counters of a transfer-dataset build: what was kept and every
/// reason a record was skipped (the replay-hygiene ledger).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Measurement records examined across every scanned log.
    pub records_seen: usize,
    /// Records converted into training samples.
    pub ingested: usize,
    /// Fault-marked records (no latency to learn from).
    pub skipped_fault: usize,
    /// Records whose recomputed sample had a non-finite feature or score.
    pub skipped_nonfinite: usize,
    /// Records whose task key matches no cataloged workload.
    pub skipped_unknown_task: usize,
    /// Records from a stale sketch generator: bad sketch index, wrong
    /// sketch name, or wrong schedule-value count.
    pub skipped_stale: usize,
    /// Repeated `(task, sketch, values)` lines (e.g. a log appended to by
    /// a resumed run).
    pub skipped_duplicate: usize,
}

/// A TenSet-style training set distilled from record logs, plus the
/// ingestion ledger describing how it was built.
#[derive(Clone, Debug, Default)]
pub struct TransferDataset {
    /// The labelled samples, in log order.
    pub dataset: Dataset,
    /// What was ingested and what was skipped, by reason.
    pub stats: TransferStats,
}

/// One cataloged workload: its sketches, rebuilt exactly as
/// `SearchTask::from_task` builds them, so record validation and feature
/// recomputation match the tuner that wrote the log.
struct CatalogEntry {
    sketches: Vec<(&'static str, Program, FeatureSet)>,
}

/// Builds a [`TransferDataset`] by scanning record logs against a catalog
/// of known workloads.
pub struct TransferBuilder {
    device: DeviceConfig,
    catalog: BTreeMap<u64, CatalogEntry>,
    samples: Vec<Sample>,
    seen: HashSet<String>,
    stats: TransferStats,
}

impl TransferBuilder {
    /// An empty builder for one device. Only records whose task key hashes
    /// a cataloged workload *on this device* are ingested.
    pub fn new(device: &DeviceConfig) -> TransferBuilder {
        TransferBuilder {
            device: *device,
            catalog: BTreeMap::new(),
            samples: Vec::new(),
            seen: HashSet::new(),
            stats: TransferStats::default(),
        }
    }

    /// Registers a workload: lowers the subgraph, generates its sketches,
    /// and extracts their feature formulas (deterministic — the same
    /// pipeline the tuner runs). Returns the workload's task key on this
    /// builder's device. Re-adding a known workload is a no-op.
    pub fn add_workload(&mut self, sg: &Subgraph) -> u64 {
        let key = task_key(&sg.workload_key(), self.device.name);
        if self.catalog.contains_key(&key) {
            return key;
        }
        let hw = hardware_params(&self.device);
        let p0 = lower_subgraph(sg);
        let sketches = generate_sketches(&p0, &hw)
            .into_iter()
            .map(|sk| {
                let mut program = sk.program;
                let features = extract_features(&mut program);
                (sk.name, program, features)
            })
            .collect();
        self.catalog.insert(key, CatalogEntry { sketches });
        key
    }

    /// Number of cataloged workloads.
    pub fn n_workloads(&self) -> usize {
        self.catalog.len()
    }

    /// Scans one record log, ingesting every valid measurement for a
    /// cataloged workload (in log order) and counting everything else by
    /// skip reason. Returns how many samples this scan added. A missing
    /// file scans as an empty log.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading the log.
    pub fn scan_log(&mut self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let n_before = self.samples.len();
        for rec in read_records(path)? {
            self.stats.records_seen += 1;
            let Some(entry) = self.catalog.get(&rec.task_key) else {
                self.stats.skipped_unknown_task += 1;
                continue;
            };
            let Some((name, program, features)) = entry.sketches.get(rec.sketch) else {
                self.stats.skipped_stale += 1;
                continue;
            };
            if *name != rec.sketch_name || rec.values.len() != program.vars.len() {
                self.stats.skipped_stale += 1;
                continue;
            }
            let Some(latency) = rec.outcome.latency_ms() else {
                self.stats.skipped_fault += 1;
                continue;
            };
            let dedup = format!("{:016x}:{}:{:?}", rec.task_key, rec.sketch, rec.values);
            if !self.seen.insert(dedup) {
                self.stats.skipped_duplicate += 1;
                continue;
            }
            let sample = ingest_sample(program, features, &rec.values, latency);
            if !sample.score.is_finite() || sample.logfeats.iter().any(|f| !f.is_finite()) {
                self.stats.skipped_nonfinite += 1;
                continue;
            }
            self.samples.push(sample);
            self.stats.ingested += 1;
        }
        Ok(self.samples.len() - n_before)
    }

    /// The ingestion ledger so far.
    pub fn stats(&self) -> TransferStats {
        self.stats
    }

    /// Finishes the build.
    pub fn build(self) -> TransferDataset {
        TransferDataset {
            dataset: Dataset { samples: self.samples },
            stats: self.stats,
        }
    }
}

/// Pretrains one shared MLP on a transfer dataset, initializing the
/// weights from the fixed [`TRANSFER_INIT_SEED`]: the result is a
/// deterministic function of (dataset, config), so two builds from the
/// same record logs yield bitwise-equal models.
///
/// # Panics
///
/// Panics if the dataset is empty (there is nothing to transfer from —
/// callers should fall back to the synthetic pretrained model instead).
pub fn pretrain_transfer(dataset: &TransferDataset, cfg: &TrainConfig) -> Mlp {
    let mut rng = StdRng::seed_from_u64(TRANSFER_INIT_SEED);
    let mut mlp = Mlp::new(&mut rng);
    pretrain(&mut mlp, &dataset.dataset.samples, cfg);
    mlp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::random_schedule;
    use crate::trainer::fine_tune;
    use felix_records::{RecordLog, RecordOutcome, TuningRecord};
    use felix_sim::Simulator;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "felix-transfer-{tag}-{}-{n}.jsonl",
            std::process::id()
        ))
    }

    /// Two small dense workloads (same op class, different extents).
    fn workloads() -> Vec<Subgraph> {
        use felix_graph::Op;
        vec![
            Subgraph { ops: vec![Op::Dense { m: 16, k: 64, n: 64 }] },
            Subgraph { ops: vec![Op::Dense { m: 16, k: 128, n: 64 }] },
        ]
    }

    /// Writes a log of real measurements for the given workloads: random
    /// valid schedules per sketch, labelled by the simulator.
    fn write_log(path: &Path, device: &DeviceConfig, per_sketch: usize, seed: u64) {
        let sim = Simulator::new(*device);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = RecordLog::open(path).expect("open log");
        for sg in workloads() {
            let key = task_key(&sg.workload_key(), device.name);
            let hw = hardware_params(device);
            let p0 = lower_subgraph(&sg);
            // One sketch per workload keeps the test fast.
            if let Some(sk) = generate_sketches(&p0, &hw).into_iter().next() {
                let mut p = sk.program;
                let fs = extract_features(&mut p);
                let plan = felix_tir::sketch::RoundingPlan::new(&p);
                for i in 0..per_sketch {
                    let vals = random_schedule(&p, &plan, &mut rng, 64);
                    let latency = sim.measure(&p, &fs, &vals, &mut rng);
                    log.append(&TuningRecord {
                        task_key: key,
                        task_name: sg.name(),
                        sketch: 0,
                        sketch_name: sk.name.to_string(),
                        values: vals,
                        outcome: RecordOutcome::Ok(latency),
                        retries: i % 2,
                        time_s: i as f64,
                    })
                    .expect("append");
                }
            }
        }
    }

    #[test]
    fn transfer_build_and_training_are_deterministic() {
        let device = DeviceConfig::a5000();
        let path = tmp_path("determinism");
        write_log(&path, &device, 12, 0xA11CE);
        let cfg = TrainConfig { epochs: 2, batch_size: 16, ..Default::default() };
        let build = || {
            let mut b = TransferBuilder::new(&device);
            for sg in workloads() {
                b.add_workload(&sg);
            }
            b.scan_log(&path).expect("scan");
            let ds = b.build();
            let mut model = pretrain_transfer(&ds, &cfg);
            // Fine-tune-from-transfer: the per-task refinement step must be
            // deterministic on top of the transferred weights.
            fine_tune(&mut model, &ds.dataset.samples[..8], 3, 4e-4);
            (ds, model)
        };
        let (ds_a, model_a) = build();
        let (ds_b, model_b) = build();
        assert_eq!(ds_a.stats, ds_b.stats);
        assert!(ds_a.stats.ingested >= 20, "{:?}", ds_a.stats);
        assert_eq!(ds_a.dataset.samples.len(), ds_b.dataset.samples.len());
        for (a, b) in ds_a.dataset.samples.iter().zip(&ds_b.dataset.samples) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            for (fa, fb) in a.logfeats.iter().zip(&b.logfeats) {
                assert_eq!(fa.to_bits(), fb.to_bits());
            }
        }
        let (mut bytes_a, mut bytes_b) = (Vec::new(), Vec::new());
        model_a.save(&mut bytes_a).expect("save");
        model_b.save(&mut bytes_b).expect("save");
        assert_eq!(bytes_a, bytes_b, "transfer weights bitwise equal");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn samples_match_shared_ingestion_bit_exactly() {
        // The transfer path must recompute exactly what ingest_sample
        // produces (one shared routine, not a near-copy).
        let device = DeviceConfig::a5000();
        let path = tmp_path("ingest");
        write_log(&path, &device, 4, 7);
        let mut b = TransferBuilder::new(&device);
        for sg in workloads() {
            b.add_workload(&sg);
        }
        b.scan_log(&path).expect("scan");
        let ds = b.build();
        let recs = read_records(&path).expect("read");
        assert_eq!(ds.dataset.samples.len(), recs.len());
        // Recompute the first record's sample independently.
        let sg = &workloads()[0];
        let hw = hardware_params(&device);
        let p0 = lower_subgraph(sg);
        let sk = generate_sketches(&p0, &hw).into_iter().next().expect("sketch");
        let mut p = sk.program;
        let fs = extract_features(&mut p);
        let rec = &recs[0];
        let expected =
            ingest_sample(&p, &fs, &rec.values, rec.outcome.latency_ms().expect("ok"));
        assert_eq!(ds.dataset.samples[0].score.to_bits(), expected.score.to_bits());
        assert_eq!(
            ds.dataset.samples[0]
                .logfeats
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>(),
            expected.logfeats.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_records_are_skipped_and_counted() {
        let device = DeviceConfig::a5000();
        let path = tmp_path("hygiene");
        let clean_path = tmp_path("hygiene-clean");
        write_log(&path, &device, 3, 99);
        write_log(&clean_path, &device, 3, 99);
        let good = read_records(&path).expect("read");
        let template = good[0].clone();

        // Pollute the log with every skip class.
        let mut log = RecordLog::open(&path).expect("reopen");
        // Duplicate of an already-ingested line.
        log.append(&template).expect("dup");
        // Fault-marked record (fresh values so it isn't deduped first).
        let mut fault = template.clone();
        fault.values[0] += 1.0;
        fault.outcome = RecordOutcome::Fault("timeout".to_string());
        log.append(&fault).expect("fault");
        // Unknown task.
        let mut unknown = template.clone();
        unknown.task_key ^= 0xDEAD_BEEF;
        log.append(&unknown).expect("unknown");
        // Stale sketch name.
        let mut stale_name = template.clone();
        stale_name.sketch_name = "no-such-sketch".to_string();
        log.append(&stale_name).expect("stale name");
        // Stale sketch index.
        let mut stale_idx = template.clone();
        stale_idx.sketch = 99;
        log.append(&stale_idx).expect("stale idx");
        // Wrong value count.
        let mut short = template.clone();
        short.values.pop();
        log.append(&short).expect("short");
        // Values that blow the feature formulas up to non-finite.
        let mut huge = template.clone();
        for v in &mut huge.values {
            *v = 1e200;
        }
        log.append(&huge).expect("huge");
        drop(log);

        let scan = |p: &Path| {
            let mut b = TransferBuilder::new(&device);
            for sg in workloads() {
                b.add_workload(&sg);
            }
            b.scan_log(p).expect("scan");
            b.build()
        };
        let polluted = scan(&path);
        let clean = scan(&clean_path);

        let s = polluted.stats;
        assert_eq!(s.ingested, clean.stats.ingested, "skip == removal (count)");
        assert_eq!(s.skipped_duplicate, 1, "{s:?}");
        assert_eq!(s.skipped_fault, 1, "{s:?}");
        assert_eq!(s.skipped_unknown_task, 1, "{s:?}");
        assert_eq!(s.skipped_stale, 3, "{s:?}");
        assert_eq!(s.skipped_nonfinite, 1, "{s:?}");
        assert_eq!(s.records_seen, good.len() + 7, "{s:?}");

        // Skip must equal removal bit for bit: the polluted log yields the
        // same training set as the clean one.
        assert_eq!(polluted.dataset.samples.len(), clean.dataset.samples.len());
        for (a, b) in polluted.dataset.samples.iter().zip(&clean.dataset.samples) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            for (fa, fb) in a.logfeats.iter().zip(&b.logfeats) {
                assert_eq!(fa.to_bits(), fb.to_bits());
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&clean_path).ok();
    }

    #[test]
    fn scan_of_missing_log_is_empty() {
        let device = DeviceConfig::a10g();
        let mut b = TransferBuilder::new(&device);
        for sg in workloads() {
            b.add_workload(&sg);
        }
        assert_eq!(b.scan_log(tmp_path("missing")).expect("scan"), 0);
        assert_eq!(b.n_workloads(), 2);
        assert_eq!(b.stats(), TransferStats::default());
        assert!(b.build().dataset.samples.is_empty());
    }

    #[test]
    fn transfer_improves_over_random_init_on_held_out_task() {
        // The point of transfer: a model pretrained on one task's history
        // ranks schedules of a *structurally similar* unseen task better
        // than an untrained model.
        let device = DeviceConfig::a5000();
        let path = tmp_path("ranks");
        write_log(&path, &device, 24, 0xBEE5);
        let mut b = TransferBuilder::new(&device);
        b.add_workload(&workloads()[0]);
        b.scan_log(&path).expect("scan");
        let ds = b.build();
        assert!(ds.stats.skipped_unknown_task > 0, "second workload not cataloged");
        let model = pretrain_transfer(
            &ds,
            &TrainConfig { epochs: 12, batch_size: 16, lr: 1e-3, ..Default::default() },
        );
        // Held-out: samples of the *other* workload.
        let mut holdout = TransferBuilder::new(&device);
        holdout.add_workload(&workloads()[1]);
        holdout.scan_log(&path).expect("scan");
        let holdout = holdout.build();
        assert!(holdout.dataset.samples.len() >= 16);
        let rho = crate::trainer::rank_correlation(&model, &holdout.dataset.samples);
        let mut rng = StdRng::seed_from_u64(3);
        let cold = Mlp::new(&mut rng);
        let rho_cold = crate::trainer::rank_correlation(&cold, &holdout.dataset.samples);
        assert!(
            rho > rho_cold.max(0.3),
            "transfer rank corr {rho} vs cold {rho_cold}"
        );
        std::fs::remove_file(&path).ok();
    }
}
