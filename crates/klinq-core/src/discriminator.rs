//! The KLiNQ system: independent per-qubit discriminators with a
//! mid-circuit measurement API.
//!
//! Every read takes the datapath as a [`Backend`] value — float
//! reference or bit-accurate Q16.16 — through one entry point per
//! operation: [`KlinqDiscriminator::measure_on`] and
//! [`KlinqDiscriminator::fidelity_on`] per qubit,
//! [`KlinqSystem::measure_on`] and [`KlinqSystem::evaluate_on`] for the
//! five-qubit system.

use crate::backend::Backend;
use crate::distill::{distill_student, DistilledStudent};
use crate::error::KlinqError;
use crate::eval::{assignment_fidelity, FidelityReport};
use crate::experiments::ExperimentConfig;
use crate::student::StudentArch;
use crate::teacher::Teacher;
use klinq_fpga::FpgaDiscriminator;
use klinq_sim::{FiveQubitDevice, ReadoutDataset, SimConfig};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// One qubit's complete readout discriminator: feature pipeline + distilled
/// student + compiled FPGA datapath.
///
/// Serializable as part of a saved [`KlinqSystem`] artifact (see
/// [`crate::persist`]): both the float student and the compiled Q16.16
/// datapath travel with it, so a loaded discriminator reproduces either
/// backend's decisions bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KlinqDiscriminator {
    qubit: usize,
    arch: StudentArch,
    student: DistilledStudent,
    hw: FpgaDiscriminator,
}

impl KlinqDiscriminator {
    /// Builds from a distilled student, compiling the FPGA datapath for
    /// `design_samples` per channel.
    ///
    /// # Errors
    ///
    /// Returns [`KlinqError::Compile`] if the datapath cannot be compiled.
    pub fn new(
        qubit: usize,
        arch: StudentArch,
        student: DistilledStudent,
        design_samples: usize,
    ) -> Result<Self, KlinqError> {
        let hw = FpgaDiscriminator::compile(&student.net, &student.pipeline, design_samples)?;
        Ok(Self {
            qubit,
            arch,
            student,
            hw,
        })
    }

    /// Which qubit this discriminator reads.
    pub fn qubit(&self) -> usize {
        self.qubit
    }

    /// The student architecture in use.
    pub fn arch(&self) -> StudentArch {
        self.arch
    }

    /// The trained student network.
    pub fn student(&self) -> &DistilledStudent {
        &self.student
    }

    /// The compiled FPGA datapath.
    pub fn hardware(&self) -> &FpgaDiscriminator {
        &self.hw
    }

    /// Reads the qubit state from a raw trace on the chosen backend.
    ///
    /// Accepts any trace length down to the averager's output count —
    /// this is what enables mid-circuit measurements at arbitrary times.
    ///
    /// # Panics
    ///
    /// Panics if the traces are shorter than the feature front end allows.
    pub fn measure_on(&self, backend: Backend, i: &[f32], q: &[f32]) -> bool {
        match backend {
            Backend::Float => self
                .student
                .net
                .predict(&self.student.pipeline.extract(i, q)),
            Backend::Hardware => self.hw.infer(i, q),
        }
    }

    /// Assignment fidelity over a dataset on the chosen backend, reading
    /// only the first `samples` of each trace (pass the dataset's full
    /// sample count — or `usize::MAX` — for the design duration).
    pub fn fidelity_on(&self, backend: Backend, data: &ReadoutDataset, samples: usize) -> f64 {
        let labels = data.qubit_labels(self.qubit);
        let preds: Vec<bool> = data
            .qubit_pairs(self.qubit)
            .iter()
            .map(|&(i, q)| {
                self.measure_on(backend, &i[..samples.min(i.len())], &q[..samples.min(q.len())])
            })
            .collect();
        assignment_fidelity(&preds, &labels)
    }
}

/// The full five-qubit KLiNQ system plus the data and teachers it was
/// built from (kept for the paper's comparisons).
///
/// The training and held-out datasets live in one lazily filled cell that
/// clones and [`Self::with_students`] siblings share: [`Self::train`]
/// fills it with the data it trained on, while a loaded system
/// ([`crate::persist`]) regenerates the data from the config's seeds on
/// the first [`Self::train_data`]/[`Self::test_data`] call. Serving only
/// reads the discriminators, so a loaded server never generates it.
#[derive(Debug, Clone)]
pub struct KlinqSystem {
    discriminators: Vec<KlinqDiscriminator>,
    teachers: Vec<Teacher>,
    datasets: Arc<OnceLock<(ReadoutDataset, ReadoutDataset)>>,
    config: ExperimentConfig,
}

/// Equal systems have equal models, configs and datasets, compared bit
/// for bit (which regenerates either side's datasets if it has not yet).
impl PartialEq for KlinqSystem {
    fn eq(&self, other: &Self) -> bool {
        self.discriminators == other.discriminators
            && self.teachers == other.teachers
            && self.config == other.config
            && self.datasets() == other.datasets()
    }
}

impl KlinqSystem {
    /// Trains the complete system per the experiment configuration:
    /// generates calibrated data, trains one teacher per qubit (in
    /// parallel), distills the per-qubit students, and compiles the FPGA
    /// datapaths.
    ///
    /// # Errors
    ///
    /// Returns [`KlinqError`] if any stage fails (configuration,
    /// pipeline fitting, dataset assembly or datapath compilation).
    pub fn train(config: &ExperimentConfig) -> Result<Self, KlinqError> {
        config.validate()?;
        let datasets = Self::datasets_for(config);
        let (train_data, test_data) = &datasets;
        let teacher_extra = (config.teacher_extra_shots > 0).then(|| {
            ReadoutDataset::generate(
                &FiveQubitDevice::paper(),
                &SimConfig::with_duration_ns(config.duration_ns),
                config.teacher_extra_shots,
                config.data_seed + 2,
            )
        });

        // Train the five qubits in parallel; each thread trains a teacher
        // and distills its student.
        let results: Vec<Result<(Teacher, DistilledStudent, StudentArch), KlinqError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..5)
                    .map(|qb| {
                        let teacher_extra = teacher_extra.as_ref();
                        scope.spawn(move || {
                            let teacher = Teacher::train_with_extra(
                                &config.teacher,
                                train_data,
                                teacher_extra,
                                qb,
                            )?;
                            let arch = StudentArch::for_qubit(qb);
                            let student = distill_student(
                                &teacher,
                                arch,
                                train_data,
                                config.distill,
                                &config.student_train,
                                config.student_seed + qb as u64,
                            )?;
                            Ok((teacher, student, arch))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("training thread panicked"))
                    .collect()
            });

        let mut discriminators = Vec::with_capacity(5);
        let mut teachers = Vec::with_capacity(5);
        for (qb, result) in results.into_iter().enumerate() {
            let (teacher, student, arch) = result?;
            teachers.push(teacher);
            discriminators.push(KlinqDiscriminator::new(
                qb,
                arch,
                student,
                test_data.samples(),
            )?);
        }
        Ok(Self {
            discriminators,
            teachers,
            datasets: Arc::new(OnceLock::from(datasets)),
            config: config.clone(),
        })
    }

    /// The training and held-out datasets an experiment configuration
    /// deterministically implies (everything stochastic derives from the
    /// config's seeds). Used by [`Self::train`] and, on first access, by
    /// a loaded system ([`crate::persist`]), which must reproduce the
    /// exact same bits.
    fn datasets_for(config: &ExperimentConfig) -> (ReadoutDataset, ReadoutDataset) {
        let device = FiveQubitDevice::paper();
        let sim = SimConfig::with_duration_ns(config.duration_ns);
        let train_data =
            ReadoutDataset::generate(&device, &sim, config.train_shots, config.data_seed);
        let test_data =
            ReadoutDataset::generate(&device, &sim, config.test_shots, config.data_seed + 1);
        (train_data, test_data)
    }

    /// Reassembles a system from its saved parts (artifact loading); the
    /// datasets are regenerated on first access.
    pub(crate) fn from_parts(
        discriminators: Vec<KlinqDiscriminator>,
        teachers: Vec<Teacher>,
        config: ExperimentConfig,
    ) -> Self {
        Self {
            discriminators,
            teachers,
            datasets: Arc::default(),
            config,
        }
    }

    /// The training and held-out datasets, generated on first call for a
    /// loaded system.
    fn datasets(&self) -> &(ReadoutDataset, ReadoutDataset) {
        self.datasets
            .get_or_init(|| Self::datasets_for(&self.config))
    }

    /// Per-qubit discriminators.
    pub fn discriminators(&self) -> &[KlinqDiscriminator] {
        &self.discriminators
    }

    /// One discriminator.
    ///
    /// # Panics
    ///
    /// Panics if `qb` is out of range.
    pub fn discriminator(&self, qb: usize) -> &KlinqDiscriminator {
        &self.discriminators[qb]
    }

    /// The per-qubit teachers (also the Baseline-FNN comparators).
    pub fn teachers(&self) -> &[Teacher] {
        &self.teachers
    }

    /// Training dataset.
    ///
    /// A loaded system regenerates both datasets from its config's seeds
    /// on the first call to this or [`Self::test_data`]: a one-time cost
    /// (~0.1 s at smoke scale on a 2-vCPU host) of the same generation
    /// [`Self::train`] runs. Every later call, clones and
    /// [`Self::with_students`] siblings included, reads the same data.
    pub fn train_data(&self) -> &ReadoutDataset {
        &self.datasets().0
    }

    /// Held-out evaluation dataset, regenerated on first access like
    /// [`Self::train_data`].
    pub fn test_data(&self) -> &ReadoutDataset {
        &self.datasets().1
    }

    /// The configuration the system was trained with.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Mid-circuit measurement on the chosen backend: read one qubit
    /// independently from a raw trace of any supported length.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range or the trace is too short.
    pub fn measure_on(&self, backend: Backend, qubit: usize, i: &[f32], q: &[f32]) -> bool {
        self.discriminators[qubit].measure_on(backend, i, q)
    }

    /// Evaluates all qubits on the held-out set at the design duration,
    /// on the chosen backend.
    ///
    /// Routes through the batched engine ([`crate::batch`]): shots are
    /// classified in parallel chunks, with results bitwise-identical to
    /// sequential per-shot [`Self::measure_on`] calls.
    pub fn evaluate_on(&self, backend: Backend) -> FidelityReport {
        crate::batch::BatchDiscriminator::new(&self.discriminators)
            .evaluate_on(backend, self.test_data())
    }

    /// Evaluates at a shortened trace length (`samples` per channel)
    /// using the design-point students on truncated inputs (float path).
    ///
    /// Note the feature distribution shifts when traces shrink, so this
    /// underestimates the achievable fidelity; the paper's duration sweep
    /// corresponds to [`Self::evaluate_retrained_at`], which re-distills
    /// per duration (input dimensions never change — only the averaging
    /// group adapts, per Sec. III-D).
    pub fn evaluate_at(&self, samples: usize) -> FidelityReport {
        FidelityReport::new(
            self.discriminators
                .iter()
                .map(|d| d.fidelity_on(Backend::Float, self.test_data(), samples))
                .collect(),
        )
    }

    /// Re-distills one student per qubit for a shortened duration (the
    /// teachers and their soft labels are reused) and evaluates them.
    ///
    /// # Errors
    ///
    /// Returns [`KlinqError`] if any per-duration distillation fails.
    pub fn evaluate_retrained_at(&self, samples: usize) -> Result<FidelityReport, KlinqError> {
        let test_data = self.test_data();
        let samples = samples.min(test_data.samples());
        if samples == test_data.samples() {
            // Design point: the trained students are exactly this.
            return Ok(self.evaluate_on(Backend::Float));
        }
        let students = self.students_at(samples)?;
        let fidelities = students
            .iter()
            .enumerate()
            .map(|(qb, s)| {
                let labels = test_data.qubit_labels(qb);
                let correct = test_data
                    .qubit_pairs(qb)
                    .iter()
                    .zip(&labels)
                    .filter(|(&(i, q), &y)| {
                        s.net
                            .predict(&s.pipeline.extract(&i[..samples], &q[..samples]))
                            == (y == 1.0)
                    })
                    .count();
                correct as f64 / labels.len() as f64
            })
            .collect();
        Ok(FidelityReport::new(fidelities))
    }

    /// Distills a fresh student per qubit at the given trace length
    /// (parallel across qubits).
    ///
    /// # Errors
    ///
    /// Returns [`KlinqError`] if any distillation fails.
    pub fn students_at(&self, samples: usize) -> Result<Vec<DistilledStudent>, KlinqError> {
        let train_data = self.train_data();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..5)
                .map(|qb| {
                    scope.spawn(move || {
                        crate::distill::distill_student_at(
                            &self.teachers[qb],
                            StudentArch::for_qubit(qb),
                            train_data,
                            samples,
                            self.config.distill,
                            &self.config.student_train,
                            self.config.student_seed + qb as u64,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("distillation thread panicked"))
                .collect()
        })
    }

    /// Builds a sibling system around replacement students: same teachers,
    /// configuration and (shared, not copied) datasets, but each qubit's
    /// discriminator rebuilt (FPGA datapath recompiled) from the given
    /// student at `design_samples` per channel.
    ///
    /// This is the constructor behind live recalibration: distill
    /// candidates with [`Self::students_at`], assemble the candidate
    /// system here, then stage it as a canary or hot-swap it into a
    /// running server.
    ///
    /// # Errors
    ///
    /// Returns [`KlinqError::InvalidConfig`] unless exactly one student
    /// per qubit is supplied, or [`KlinqError::Compile`] if a datapath
    /// cannot be compiled.
    pub fn with_students(
        &self,
        students: Vec<DistilledStudent>,
        design_samples: usize,
    ) -> Result<Self, KlinqError> {
        if students.len() != self.discriminators.len() {
            return Err(KlinqError::InvalidConfig(format!(
                "with_students needs {} students, got {}",
                self.discriminators.len(),
                students.len()
            )));
        }
        let discriminators = students
            .into_iter()
            .enumerate()
            .map(|(qb, student)| {
                KlinqDiscriminator::new(qb, StudentArch::for_qubit(qb), student, design_samples)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            discriminators,
            teachers: self.teachers.clone(),
            datasets: Arc::clone(&self.datasets),
            config: self.config.clone(),
        })
    }

    /// Baseline-FNN (= teacher) fidelities on the held-out set.
    pub fn evaluate_teachers(&self) -> FidelityReport {
        FidelityReport::new(
            self.teachers
                .iter()
                .map(|t| t.fidelity(self.test_data()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::smoke_system;

    #[test]
    fn system_trains_and_evaluates() {
        let sys = smoke_system();
        assert_eq!(sys.discriminators().len(), 5);
        assert_eq!(sys.teachers().len(), 5);
        let report = sys.evaluate_on(Backend::Float);
        // Smoke scale (300 ns traces): demand clearly-better-than-chance
        // overall and solid accuracy on the front-loaded-signal qubit 3,
        // the easiest at this shortened duration.
        assert!(report.geometric_mean() > 0.70, "{report}");
        assert!(report.qubit(2) > 0.85, "{report}");
        assert!(report.qubit(0) > 0.75, "{report}");
    }

    #[test]
    fn architectures_assigned_per_paper() {
        let sys = smoke_system();
        assert_eq!(sys.discriminator(0).arch(), StudentArch::FnnA);
        assert_eq!(sys.discriminator(1).arch(), StudentArch::FnnB);
        assert_eq!(sys.discriminator(2).arch(), StudentArch::FnnB);
        assert_eq!(sys.discriminator(3).arch(), StudentArch::FnnA);
        assert_eq!(sys.discriminator(4).arch(), StudentArch::FnnA);
    }

    #[test]
    fn mid_circuit_measurement_is_independent_and_truncatable() {
        let sys = smoke_system();
        let shot = sys.test_data().shot(3);
        for qb in 0..5 {
            let t = &shot.traces[qb];
            // Full trace and a truncated prefix both produce a decision.
            // FNN-B qubits average 100 points per channel, so the prefix
            // cannot drop below 100 samples (200 ns).
            let _ = sys.measure_on(Backend::Float, qb, &t.i, &t.q);
            let cut = (t.i.len() * 7 / 10).max(100);
            let _ = sys.measure_on(Backend::Float, qb, &t.i[..cut], &t.q[..cut]);
        }
    }

    #[test]
    fn hardware_path_tracks_float_path() {
        let sys = smoke_system();
        let float_report = sys.evaluate_on(Backend::Float);
        let hw_report = sys.evaluate_on(Backend::Hardware);
        for qb in 0..5 {
            let delta = (float_report.qubit(qb) - hw_report.qubit(qb)).abs();
            assert!(
                delta < 0.03,
                "qubit {}: float {:.3} vs hw {:.3}",
                qb + 1,
                float_report.qubit(qb),
                hw_report.qubit(qb)
            );
        }
    }

    #[test]
    fn with_students_identity_rebuild_is_bitwise_identical() {
        let sys = smoke_system();
        let students: Vec<_> = sys
            .discriminators()
            .iter()
            .map(|d| d.student().clone())
            .collect();
        let rebuilt = sys
            .with_students(students, sys.test_data().samples())
            .unwrap();
        for backend in Backend::ALL {
            assert_eq!(rebuilt.evaluate_on(backend), sys.evaluate_on(backend));
        }
    }

    #[test]
    fn with_students_rejects_wrong_count() {
        let sys = smoke_system();
        let err = sys
            .with_students(Vec::new(), sys.test_data().samples())
            .unwrap_err();
        assert!(matches!(err, KlinqError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn inverted_variant_flips_decisions_on_both_backends() {
        let sys = smoke_system();
        let inv = crate::testkit::inverted_variant(sys);
        for shot_idx in [0usize, 5, 17] {
            let shot = sys.test_data().shot(shot_idx);
            for (qb, t) in shot.traces.iter().enumerate() {
                for backend in [Backend::Float, Backend::Hardware] {
                    assert_ne!(
                        sys.measure_on(backend, qb, &t.i, &t.q),
                        inv.measure_on(backend, qb, &t.i, &t.q),
                        "qubit {qb} shot {shot_idx} {backend:?}"
                    );
                }
            }
        }
    }

    /// The shared fixture reloaded from its artifact: a system whose
    /// datasets have not been generated yet.
    fn reloaded() -> KlinqSystem {
        static ARTIFACT: OnceLock<String> = OnceLock::new();
        let json = ARTIFACT.get_or_init(|| smoke_system().to_artifact_json().unwrap());
        KlinqSystem::from_artifact_json(json).unwrap()
    }

    fn generated(sys: &KlinqSystem) -> bool {
        sys.datasets.get().is_some()
    }

    #[test]
    fn loaded_system_regenerates_datasets_on_first_access_only() {
        let sys = smoke_system();
        let loaded = reloaded();
        assert!(!generated(&loaded), "load generated the datasets");
        // All a server does with a system: classify shots through the
        // batch engine, on either backend.
        let shots = sys.test_data().shots();
        for backend in Backend::ALL {
            assert_eq!(
                crate::batch::BatchDiscriminator::new(loaded.discriminators())
                    .classify_shots_on(backend, shots),
                crate::batch::BatchDiscriminator::new(sys.discriminators())
                    .classify_shots_on(backend, shots),
            );
        }
        assert!(!generated(&loaded), "classifying generated the datasets");
        // The first access regenerates the trained system's data bit for
        // bit.
        assert_eq!(loaded.test_data(), sys.test_data());
        assert!(generated(&loaded));
        assert_eq!(loaded.train_data(), sys.train_data());
    }

    #[test]
    fn clones_and_with_students_siblings_share_one_dataset_cell() {
        let loaded = reloaded();
        let clone = loaded.clone();
        let students = loaded
            .discriminators()
            .iter()
            .map(|d| d.student().clone())
            .collect();
        let design_samples = SimConfig::with_duration_ns(loaded.config().duration_ns).samples();
        let sibling = loaded.with_students(students, design_samples).unwrap();
        assert!(Arc::ptr_eq(&loaded.datasets, &clone.datasets));
        assert!(Arc::ptr_eq(&loaded.datasets, &sibling.datasets));
        assert!(!generated(&loaded));
        // Two threads racing the first access get the one generation.
        let start = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|scope| {
            [&clone, &sibling]
                .map(|sys| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        sys.test_data()
                    })
                })
                .map(|h| h.join().unwrap())
        });
        assert!(std::ptr::eq(a, b));
        assert!(std::ptr::eq(a, loaded.test_data()));
    }

    #[test]
    fn teachers_outperform_chance_everywhere() {
        let sys = smoke_system();
        let report = sys.evaluate_teachers();
        for qb in 0..5 {
            // Qubit 2 sits near 0.68 even for the analytic optimum at the
            // smoke scale's 300 ns; the tiny smoke teacher lands lower.
            let floor = if qb == 1 { 0.52 } else { 0.65 };
            assert!(report.qubit(qb) > floor, "qubit {}: {report}", qb + 1);
        }
    }
}
