//! Integration tests for the design-space exploration engine: the
//! parallel sweep must agree with a hand-rolled brute force, be
//! bit-identical across worker counts, never re-simulate a cached
//! configuration (in memory or via the persisted cache directory), sweep
//! conv/batched/multi-generation spaces, and the successive-halving
//! search must find the exhaustive optimum on a small space.

use axi4mlir_config::{AcceleratorConfig, FlowStrategy};
use axi4mlir_core::driver::{CompilePlan, MatMulWorkload, Session};
use axi4mlir_core::explore::shard::{load_dir, shard_name};
use axi4mlir_core::explore::{
    AccelInstance, BatchedSpace, ConvSpace, DesignSpace, Device, ExploreReport, Explorer, Flow,
    HalvingSpec, MatMulSpace, MatMulVersion, Objective, OptionsPoint, Prune, Search,
};
use axi4mlir_heuristics::instantiation_base;
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_workloads::batched::BatchedMatMulProblem;
use axi4mlir_workloads::matmul::MatMulProblem;
use axi4mlir_workloads::resnet::ConvLayer;

/// A small space: (16, 16, 16) with base 8 → 2 edges per dimension,
/// 4 flows = 32 candidates.
fn small_space() -> MatMulSpace {
    MatMulSpace::new(MatMulProblem::new(16, 16, 16)).accels(vec![AccelInstance::v4(8)]).seed(7)
}

/// A single-objective (task-clock) sweep nobody watches, through the
/// engine's one entry point.
fn sweep(
    explorer: &Explorer,
    space: &dyn DesignSpace,
    prune: Prune,
    search: &Search,
    workers: usize,
) -> Result<ExploreReport, Diagnostic> {
    explorer.explore_streaming(space, prune, search, workers, &[], &|_| true)
}

/// The exhaustive, unpruned sweep of [`small_space`].
fn small_sweep(explorer: &Explorer, workers: usize) -> ExploreReport {
    sweep(explorer, &small_space(), Prune::None, &Search::Exhaustive, workers).expect("small sweep")
}

fn quick_layer() -> ConvLayer {
    ConvLayer { in_hw: 10, in_channels: 64, filter_hw: 3, out_channels: 16, stride: 1 }
}

#[test]
fn explored_optimum_matches_brute_force() {
    // Brute force: run every candidate sequentially through one session,
    // exactly as a user would by hand.
    let space = small_space();
    let mut session = Session::for_sweep();
    let mut brute: Option<(String, f64)> = None;
    for candidate in space.enumerate().expect("non-empty space") {
        let base = instantiation_base(8, candidate.key.tile);
        let config =
            AcceleratorConfig::matmul_with_tile(MatMulVersion::V4, base, candidate.key.tile)
                .with_selected_flow(&candidate.key.flow.to_string());
        let plan = CompilePlan::for_accelerator(config).seed(space.seed);
        let report = session.run(&MatMulWorkload::new(space.problem), &plan).expect("v4 run");
        assert!(report.verified);
        let better = match &brute {
            None => true,
            Some((_, best_ms)) => report.task_clock_ms < *best_ms,
        };
        if better {
            brute = Some((candidate.label(), report.task_clock_ms));
        }
    }
    let (brute_label, brute_ms) = brute.expect("non-empty space");

    // The multi-threaded explorer must find the same optimum.
    let report = small_sweep(&Explorer::new(), 4);
    let optimum = report.optimum().expect("an optimum");
    assert_eq!(optimum.candidate.label(), brute_label);
    assert_eq!(optimum.task_clock_ms.to_bits(), brute_ms.to_bits(), "bit-identical to brute force");
    assert_eq!(report.space_size, 32);
    assert_eq!(report.pruned_out, 0);
}

#[test]
fn parallel_results_are_bit_identical_to_single_thread() {
    let single = small_sweep(&Explorer::new(), 1);
    let parallel = small_sweep(&Explorer::new(), 4);
    assert_eq!(single.evaluations.len(), parallel.evaluations.len());
    for (s, p) in single.evaluations.iter().zip(&parallel.evaluations) {
        assert_eq!(s.deterministic_key(), p.deterministic_key());
    }
    assert_eq!(
        single.optimum().unwrap().deterministic_key(),
        parallel.optimum().unwrap().deterministic_key()
    );
    assert_eq!(
        single.heuristic_gap().map(f64::to_bits),
        parallel.heuristic_gap().map(f64::to_bits)
    );
}

#[test]
fn result_cache_dedups_repeat_evaluations() {
    let explorer = Explorer::new();
    let first = small_sweep(&explorer, 2);
    let runs_after_first = explorer.evals_performed();
    // The 32 candidates, plus possibly the heuristic pick if pruning had
    // removed it (it did not: the full space was measured).
    assert_eq!(runs_after_first, first.evaluations.len());
    assert_eq!(first.cache_hits, 0);

    let second = small_sweep(&explorer, 2);
    assert_eq!(explorer.evals_performed(), runs_after_first, "no re-simulation");
    assert_eq!(second.cache_hits, second.evaluations.len(), "every result served from cache");
    assert!(second.evaluations.iter().all(|e| e.from_cache));
    assert!(first.evaluations.iter().all(|e| !e.pass_ms.is_empty()), "a measurement compiles");
    assert!(second.evaluations.iter().all(|e| e.pass_ms.is_empty()), "a hit compiles nothing");
    for (a, b) in first.evaluations.iter().zip(&second.evaluations) {
        assert_eq!(a.deterministic_key(), b.deterministic_key());
    }
}

#[test]
fn concurrent_sweeps_share_an_engine_without_duplicating_sims() {
    // Two threads sweep the identical 32-candidate space on one shared
    // engine, as two hub jobs would. The in-flight registry must keep
    // the engine-wide simulation count at one isolated sweep's worth —
    // a key being measured by one thread is awaited, not re-simulated —
    // and each sweep's report must charge only the simulations it ran.
    let explorer = Explorer::new();
    let (first, second) = std::thread::scope(|scope| {
        let a = scope.spawn(|| small_sweep(&explorer, 2));
        let b = scope.spawn(|| small_sweep(&explorer, 2));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(explorer.evals_performed(), 32, "each unique candidate simulated exactly once");
    // Every simulation is charged to exactly one of the two reports.
    assert_eq!(first.sims_performed + second.sims_performed, 32);
    for report in [&first, &second] {
        assert_eq!(
            report.sims_performed + report.cache_hits,
            report.evaluations.len(),
            "each measurement is a sim or a cache hit, never both"
        );
    }
    assert_eq!(
        first.optimum().unwrap().deterministic_key(),
        second.optimum().unwrap().deterministic_key()
    );
}

/// The same two-job race, repeated on a fresh engine for about two
/// seconds: whatever the interleaving, every simulation lands one new
/// cache entry. At the parent (`eabe144`) `try_claim` looked a key up in
/// the cache, dropped that lock and only then claimed it, so a sweep that
/// published and released in between left the other simulating a key
/// already cached — 2 duplicate simulations in 24 000 iterations (960 000
/// shared keys) of this loop on a 2-core host.
#[test]
fn concurrent_identical_sweeps_never_simulate_a_cached_key() {
    // 8x8x8 on v1_4 + v2_4 + v3_4 (their fixed tile under 1 + 3 + 4
    // flows) and v4_4 (8 tiles x 4 flows): 40 shared keys per iteration.
    let fixed = |version| AccelInstance { version, size: 4 };
    let (v1, v2, v3) = (MatMulVersion::V1, MatMulVersion::V2, MatMulVersion::V3);
    let space = MatMulSpace::new(MatMulProblem::new(8, 8, 8))
        .accels(vec![fixed(v1), fixed(v2), fixed(v3), AccelInstance::v4(4)])
        .seed(7);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    let mut iteration = 0;
    while std::time::Instant::now() < deadline {
        let explorer = Explorer::new();
        let run = || sweep(&explorer, &space, Prune::None, &Search::Exhaustive, 2).expect("sweep");
        let (first, second) = std::thread::scope(|scope| {
            let (a, b) = (scope.spawn(run), scope.spawn(run));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(explorer.cache_len(), 40);
        assert_eq!(
            first.sims_performed + second.sims_performed,
            explorer.cache_len(),
            "iteration {iteration}: a cached key was simulated again"
        );
        iteration += 1;
    }
}

#[test]
fn pruned_sweeps_still_measure_the_heuristic_pick() {
    // Keep only 3 candidates; the heuristic pick may or may not survive,
    // but it must always be measured so the gap is meaningful.
    let report =
        sweep(&Explorer::new(), &small_space(), Prune::KeepBest(3), &Search::Exhaustive, 2)
            .expect("pruned sweep");
    assert_eq!(report.evaluations.len(), 3);
    assert_eq!(report.pruned_out, report.space_size - 3);
    let heuristic = report.heuristic.as_ref().expect("a heuristic pick exists");
    let eval = report.heuristic_eval.as_ref().expect("the pick was measured");
    assert_eq!(eval.candidate.label(), heuristic.label());
    assert!(report.heuristic_gap().is_some());
}

#[test]
fn small_problem_spaces_use_the_degenerate_fallback() {
    // 8 < base 16: the space degenerates to the whole-problem tile per
    // dimension instead of being empty (the old silent-failure mode).
    let space = MatMulSpace::new(MatMulProblem::new(8, 8, 8)).seed(3);
    let report = sweep(&Explorer::new(), &space, Prune::None, &Search::Exhaustive, 2)
        .expect("degenerate space explores");
    assert_eq!(report.space_size, 4, "one tile, four flows");
    assert!(report.evaluations.iter().all(|e| e.candidate.key.tile == (8, 8, 8)));
    assert!(report.optimum().is_some());
}

#[test]
fn halving_finds_the_exhaustive_optimum() {
    let space = small_space();
    let exhaustive = sweep(&Explorer::new(), &space, Prune::None, &Search::Exhaustive, 2)
        .expect("exhaustive sweep");
    let halving =
        sweep(&Explorer::new(), &space, Prune::None, &Search::Halving(HalvingSpec::default()), 2)
            .expect("halving sweep");
    assert_eq!(halving.search, "halving");
    // Halving measures only the finalists at full fidelity...
    assert!(halving.evaluations.len() <= HalvingSpec::default().finalists);
    assert!(halving.evaluations.len() < exhaustive.evaluations.len());
    // ...but agrees on the measured optimum, bit for bit.
    let e = exhaustive.optimum().expect("exhaustive optimum");
    let h = halving.optimum().expect("halving optimum");
    assert_eq!(h.candidate.key, e.candidate.key);
    assert_eq!(h.task_clock_ms.to_bits(), e.task_clock_ms.to_bits());
}

#[test]
fn halving_reuses_the_cache_across_rounds_and_runs() {
    let explorer = Explorer::new();
    let space = small_space();
    let search = Search::Halving(HalvingSpec::default());
    let first = sweep(&explorer, &space, Prune::None, &search, 2).expect("first halving");
    let sims = explorer.evals_performed();
    assert!(sims > 0);
    let second = sweep(&explorer, &space, Prune::None, &search, 2).expect("second halving");
    assert_eq!(explorer.evals_performed(), sims, "halving re-simulates nothing");
    assert_eq!(second.sims_performed, 0);
    assert!(second.cache_hits > 0);
    for (a, b) in first.evaluations.iter().zip(&second.evaluations) {
        assert_eq!(a.deterministic_key(), b.deterministic_key());
    }
}

#[test]
fn persisted_cache_round_trips_with_zero_resimulation() {
    let dir = std::env::temp_dir().join(format!("axi4mlir-explore-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let first_explorer = Explorer::new();
    let first = small_sweep(&first_explorer, 2);
    assert!(first_explorer.evals_performed() > 0);
    let saved = first_explorer.save_cache_dir(&dir).expect("save cache").entries;
    assert_eq!(saved, first_explorer.cache_len());

    // A fresh process (modelled by a fresh explorer) loads the directory
    // and serves the whole sweep from it: zero new simulations.
    let warm = Explorer::with_cache_dir(&dir).expect("load cache");
    assert_eq!(warm.cache_len(), saved);
    let second = small_sweep(&warm, 2);
    assert_eq!(warm.evals_performed(), 0, "everything came from the persisted cache");
    assert_eq!(second.sims_performed, 0);
    assert_eq!(second.cache_hits, second.evaluations.len());
    for (a, b) in first.evaluations.iter().zip(&second.evaluations) {
        // Persisted entries drop wall-clock pass timings but keep the
        // full deterministic payload, bit for bit.
        assert_eq!(a.deterministic_key(), b.deterministic_key());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn conv_space_explores_the_options_axis() {
    let space = ConvSpace::new(quick_layer()).seed(5);
    let report =
        sweep(&Explorer::new(), &space, Prune::None, &Search::Exhaustive, 2).expect("conv sweep");
    assert_eq!(report.workload, "conv");
    assert_eq!(report.space_size, 4, "the conv space is the options axis");
    assert!(report.evaluations.iter().all(|e| e.verified));
    // Specialized copies win on a 3x3-filter layer (the Fig. 16 result),
    // and the paper's default configuration is the heuristic pick.
    let optimum = report.optimum().expect("an optimum");
    assert!(optimum.candidate.key.options.specialized_copies);
    let gap = report.heuristic_gap().expect("heuristic measured");
    assert!(gap <= 1.0 + 1e-9, "default options are optimal on this layer: {gap}");
}

#[test]
fn batched_space_explores() {
    let batch = BatchedMatMulProblem::new(MatMulProblem::square(8), 2);
    let space = BatchedSpace::new(batch).accels(vec![AccelInstance::v4(8)]).seed(9);
    let report = sweep(&Explorer::new(), &space, Prune::None, &Search::Exhaustive, 2)
        .expect("batched sweep");
    assert_eq!(report.workload, "batched");
    assert_eq!(report.space_size, 4, "one tile, four flows");
    assert!(report.evaluations.iter().all(|e| e.verified));
    assert!(report.optimum().is_some());
    // The batch's estimates and work both scale with the batch extent.
    let single = MatMulSpace::new(MatMulProblem::square(8))
        .accels(vec![AccelInstance::v4(8)])
        .enumerate()
        .unwrap();
    let batched = space.enumerate().unwrap();
    assert_eq!(
        batched[0].estimate.words_total(),
        2 * single[0].estimate.words_total(),
        "batched estimates scale"
    );
    assert_eq!(report.evaluations[0].work, 2 * 8 * 8 * 8);
}

#[test]
fn multi_generation_space_explores_v1_through_v4() {
    let space = MatMulSpace::new(MatMulProblem::new(16, 16, 16))
        .accels(vec![
            AccelInstance { version: MatMulVersion::V1, size: 8 },
            AccelInstance { version: MatMulVersion::V2, size: 8 },
            AccelInstance { version: MatMulVersion::V3, size: 8 },
            AccelInstance::v4(8),
        ])
        .seed(7);
    let report = sweep(&Explorer::new(), &space, Prune::None, &Search::Exhaustive, 4)
        .expect("multi-generation sweep");
    // v1: 1 flow; v2: 3; v3: 4 (fixed 8x8x8 tile each); v4: 8 tiles x 4.
    assert_eq!(report.space_size, 1 + 3 + 4 + 8 * 4);
    assert!(report.evaluations.iter().all(|e| e.verified));
    for &accel in &space.accels {
        assert!(
            report.evaluations.iter().any(|e| e.candidate.key.accel == Device::from(accel)),
            "{accel} measured"
        );
    }
    // The v3 and v4 runs of the same (flow, tile) are distinct cache
    // entries: nothing collides across generations.
    let ns_8 = |accel: &str| {
        report
            .evaluations
            .iter()
            .find(|e| {
                e.candidate.key.accel == Device::parse(accel).unwrap()
                    && e.candidate.key.flow == Flow::MatMul(FlowStrategy::NothingStationary)
                    && e.candidate.key.tile == (8, 8, 8)
            })
            .map(|e| e.candidate.key)
    };
    assert_ne!(ns_8("v3_8"), ns_8("v4_8"));
    assert_ne!(ns_8("v3_8"), None);
}

/// Counts the cache entries measured at *full* fidelity, i.e. whose
/// workload field names the full problem rather than a proxy — exactly
/// the population of the full workload's shard.
fn full_fidelity_entries(explorer: &Explorer, full_workload: &str) -> usize {
    let shard = shard_name(full_workload);
    explorer.shard_counts().into_iter().find(|(name, _)| *name == shard).map_or(0, |(_, n)| n)
}

#[test]
fn conv_halving_simulates_fewer_full_layers_than_exhaustive() {
    // The old conv "proxy" realized the full layer, so halving re-measured
    // the whole problem every round and saved nothing. With the
    // reduced-output-extent proxy, the halving sweep must run strictly
    // fewer full-fidelity simulations than the exhaustive sweep of the
    // same space.
    let layer = quick_layer();
    let full_workload = format!("conv {layer}");

    let exhaustive = Explorer::new();
    sweep(&exhaustive, &ConvSpace::new(layer), Prune::None, &Search::Exhaustive, 2)
        .expect("exhaustive conv sweep");
    let exhaustive_full = full_fidelity_entries(&exhaustive, &full_workload);
    assert_eq!(exhaustive_full, 4, "exhaustive measures the whole options axis at full fidelity");

    let halving = Explorer::new();
    let search = Search::Halving(HalvingSpec::default().finalists(2));
    let report = sweep(&halving, &ConvSpace::new(layer), Prune::None, &search, 2)
        .expect("halving conv sweep");
    let halving_full = full_fidelity_entries(&halving, &full_workload);
    assert!(
        halving_full < exhaustive_full,
        "halving must run fewer full-fidelity conv sims ({halving_full} !< {exhaustive_full})"
    );
    // The finalists still measured the genuine layer, verified.
    assert_eq!(report.evaluations.len(), 2);
    assert!(report.evaluations.iter().all(|e| e.verified && e.work == layer.macs()));
    // And proxy rounds really ran smaller problems.
    assert!(halving.cache_len() > halving_full, "proxy entries exist alongside full ones");
}

#[test]
fn batched_halving_saves_full_batch_simulations() {
    let batch = BatchedMatMulProblem::new(MatMulProblem::new(16, 16, 16), 2);
    let full_workload = format!("batched {batch}");
    let space = || BatchedSpace::new(batch).accels(vec![AccelInstance::v4(8)]).seed(9);

    let exhaustive = Explorer::new();
    sweep(&exhaustive, &space(), Prune::None, &Search::Exhaustive, 2)
        .expect("exhaustive batched sweep");
    let exhaustive_full = full_fidelity_entries(&exhaustive, &full_workload);
    assert_eq!(exhaustive_full, 32, "2 edges per dim x 4 flows");

    let halving = Explorer::new();
    let report =
        sweep(&halving, &space(), Prune::None, &Search::Halving(HalvingSpec::default()), 2)
            .expect("halving batched sweep");
    let halving_full = full_fidelity_entries(&halving, &full_workload);
    assert!(
        halving_full < exhaustive_full,
        "the batch-1 proxy must spare full-batch sims ({halving_full} !< {exhaustive_full})"
    );
    // Proxy rounds measured single-element stand-ins.
    assert!(report.evaluations.iter().all(|e| e.work == batch.macs()), "finals are full-batch");
}

#[test]
fn warm_started_halving_spends_fewer_full_sims_within_5pct_of_optimum() {
    // The acceptance scenario: bank measurements on one problem shape,
    // then sweep a shape never measured before. The warm-started halving
    // must (a) perform strictly fewer full-fidelity simulations than the
    // same halving cold, and (b) still land within 5% of the measured
    // exhaustive optimum.
    let donor_space =
        MatMulSpace::new(MatMulProblem::new(16, 16, 16)).accels(vec![AccelInstance::v4(8)]).seed(7);
    let donor = Explorer::new();
    sweep(&donor, &donor_space, Prune::None, &Search::Exhaustive, 2).expect("donor sweep");
    let model = donor.transfer_model();
    assert!(!model.is_empty(), "the donor sweep produced observations");

    // A new shape: wider in m, so a third tile edge (32) the donor never
    // measured enters the space alongside configurations it did measure.
    let target = || {
        MatMulSpace::new(MatMulProblem::new(32, 16, 16)).accels(vec![AccelInstance::v4(8)]).seed(7)
    };
    let search = Search::Halving(HalvingSpec::default());

    let exhaustive = sweep(&Explorer::new(), &target(), Prune::None, &Search::Exhaustive, 2)
        .expect("exhaustive target sweep");
    let optimum_ms = exhaustive.optimum().expect("an optimum").task_clock_ms;

    let cold_explorer = Explorer::new();
    let cold = sweep(&cold_explorer, &target(), Prune::None, &search, 2).expect("cold");
    assert!(!cold.warm_started);
    assert_eq!(cold.warm_informed, 0);

    let mut warm_explorer = Explorer::new();
    warm_explorer.set_warm_start(model);
    assert!(warm_explorer.is_warm_started());
    let warm = sweep(&warm_explorer, &target(), Prune::None, &search, 2).expect("warm");
    assert!(warm.warm_started);
    assert!(
        warm.warm_informed * 2 >= warm.space_size,
        "the donor covers most of the target field: {} of {}",
        warm.warm_informed,
        warm.space_size
    );

    assert!(cold.full_sims_performed > 0);
    assert!(
        warm.full_sims_performed < cold.full_sims_performed,
        "warm start must spend strictly fewer full-fidelity sims ({} !< {})",
        warm.full_sims_performed,
        cold.full_sims_performed
    );
    let warm_pick_ms = warm.optimum().expect("a warm pick").task_clock_ms;
    assert!(
        warm_pick_ms <= optimum_ms * 1.05,
        "warm pick {warm_pick_ms} ms must be within 5% of the exhaustive optimum {optimum_ms} ms"
    );
}

#[test]
fn every_workload_label_feeds_the_transfer_model() {
    // The transfer model recovers problem shapes from the workload
    // labels persisted in candidate keys. If a Display impl drifts, the
    // model must not silently fit empty and run cold — this pins that
    // measurements from all three shipped spaces produce observations
    // that inform candidates of the same space.
    let spaces: Vec<(&str, Box<dyn DesignSpace>)> = vec![
        (
            "matmul",
            Box::new(
                MatMulSpace::new(MatMulProblem::new(16, 16, 16))
                    .accels(vec![AccelInstance::v4(8)])
                    .seed(7),
            ),
        ),
        (
            "batched",
            Box::new(
                BatchedSpace::new(BatchedMatMulProblem::new(MatMulProblem::square(8), 2))
                    .accels(vec![AccelInstance::v4(8)])
                    .seed(9),
            ),
        ),
        ("conv", Box::new(ConvSpace::new(quick_layer()).seed(5))),
    ];
    for (label, space) in spaces {
        let explorer = Explorer::new();
        sweep(&explorer, space.as_ref(), Prune::KeepBest(2), &Search::Exhaustive, 1)
            .unwrap_or_else(|d| panic!("{label}: {d}"));
        let model = explorer.transfer_model();
        assert!(
            model.observations() > 0,
            "{label}: the measured entries must parse into observations"
        );
        let candidate = &space.enumerate().unwrap()[0];
        let prediction = model
            .predict(candidate)
            .unwrap_or_else(|| panic!("{label}: the model must cover its own space"));
        assert!(prediction.clock_ms > 0.0, "{label}: calibrated clocks are positive");
    }
}

#[test]
fn halving_full_sims_never_exceed_exhaustive_across_workloads() {
    // The sim-budget pin: under fixed seeds, a halving sweep must never
    // run more full-fidelity simulations than the exhaustive sweep of
    // the same space, on any shipped workload. Future space growth that
    // broke this would silently inflate CI and local sweep cost.
    let halving = Search::Halving(HalvingSpec::default());
    let check = |label: &str, build: &dyn Fn() -> Box<dyn DesignSpace>| {
        let exhaustive =
            sweep(&Explorer::new(), build().as_ref(), Prune::None, &Search::Exhaustive, 2)
                .unwrap_or_else(|d| panic!("{label} exhaustive: {d}"));
        let halved = sweep(&Explorer::new(), build().as_ref(), Prune::None, &halving, 2)
            .unwrap_or_else(|d| panic!("{label} halving: {d}"));
        // Exhaustive measures every survivor (plus possibly the
        // heuristic pick) at full fidelity.
        assert!(
            exhaustive.full_sims_performed >= exhaustive.evaluations.len(),
            "{label}: exhaustive full sims cover the space"
        );
        assert!(
            halved.full_sims_performed <= exhaustive.full_sims_performed,
            "{label}: halving must not exceed the exhaustive full-sim budget ({} > {})",
            halved.full_sims_performed,
            exhaustive.full_sims_performed
        );
        assert!(halved.full_sims_performed > 0, "{label}: finalists are measured for real");
    };
    check("matmul", &|| {
        Box::new(
            MatMulSpace::new(MatMulProblem::new(32, 16, 16))
                .accels(vec![AccelInstance::v4(8)])
                .seed(7),
        )
    });
    check("batched", &|| {
        Box::new(
            BatchedSpace::new(BatchedMatMulProblem::new(MatMulProblem::new(16, 16, 16), 2))
                .accels(vec![AccelInstance::v4(8)])
                .seed(9),
        )
    });
    check("conv", &|| Box::new(ConvSpace::new(quick_layer()).seed(5)));
}

#[test]
fn multi_objective_front_contains_the_single_objective_optima() {
    let explorer = Explorer::new();
    let space = small_space();
    let objectives = [Objective::TaskClock, Objective::DmaWords];
    let search = Search::Halving(HalvingSpec::default());
    let report = explorer
        .explore_streaming(&space, Prune::None, &search, 2, &objectives, &|_| true)
        .expect("multi-objective halving sweep");

    let front = report.pareto_front();
    assert!(!front.is_empty(), "a non-empty sweep has a non-empty front");
    assert_eq!(report.objectives, objectives.to_vec());
    for objective in objectives {
        let best = report.optimum_by(objective).expect("an optimum").objective_value(objective);
        let on_front = front
            .iter()
            .map(|&i| report.evaluations[i].objective_value(objective))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(on_front.to_bits(), best.to_bits(), "{objective} optimum is on the front");
    }
    // Front members are mutually non-dominated.
    use axi4mlir_core::explore::pareto::dominates;
    for &i in &front {
        let a = report.evaluations[i].objective_vector(&objectives);
        for &j in &front {
            let b = report.evaluations[j].objective_vector(&objectives);
            assert!(!dominates(&a, &b), "front members must not dominate each other");
        }
    }

    // A second identical invocation is served entirely from the cache.
    let again = explorer
        .explore_streaming(&space, Prune::None, &search, 2, &objectives, &|_| true)
        .expect("cached multi-objective sweep");
    assert_eq!(again.sims_performed, 0, "0 new simulations on the cached re-run");
    assert_eq!(again.pareto_front(), front, "the front is reproducible from cache");
}

#[test]
fn occupancy_objective_scores_the_idle_fraction() {
    let report = Explorer::new()
        .explore_streaming(
            &small_space(),
            Prune::KeepBest(4),
            &Search::Exhaustive,
            2,
            &[Objective::TaskClock, Objective::Occupancy],
            &|_| true,
        )
        .expect("occupancy-scored sweep");
    for eval in &report.evaluations {
        let occupancy = eval.occupancy();
        assert!((0.0..=1.0).contains(&occupancy), "occupancy {occupancy} out of range");
        assert!(occupancy > 0.0, "the accelerator did compute");
        let scored = eval.objective_value(Objective::Occupancy);
        assert!((scored - (1.0 - occupancy)).abs() < 1e-12, "occupancy is scored as idleness");
    }
    assert!(!report.pareto_front().is_empty());
}

#[test]
fn halving_promotes_by_the_primary_objective() {
    // Promoting by a traffic primary must surface the analytic traffic
    // minimum among the finalists: DMA words are a deterministic function
    // of the candidate, and words-per-MAC ranks proxies exactly like words.
    let space = small_space();
    let all = space.enumerate().expect("candidates");
    let min_words = all.iter().map(|c| c.estimate.words_total()).min().unwrap();
    let search = Search::Halving(HalvingSpec::default());
    let report = Explorer::new()
        .explore_streaming(&space, Prune::None, &search, 2, &[Objective::DmaWords], &|_| true)
        .expect("traffic-promoted halving");
    let finalist_words: Vec<u64> =
        report.evaluations.iter().map(|e| e.candidate.estimate.words_total()).collect();
    assert!(
        finalist_words.contains(&min_words),
        "the traffic optimum {min_words} must survive traffic promotion: {finalist_words:?}"
    );
}

#[test]
fn cache_dir_checkpoints_write_only_dirty_shards() {
    // The rung-boundary economics of the sharded layout: a checkpoint
    // touches the shards of the keys measured since the last save and
    // nothing else — no more whole-blob rewrites.
    let dir = std::env::temp_dir().join(format!("axi4mlir-dirty-shards-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let explorer = Explorer::new();
    small_sweep(&explorer, 2);
    let first = explorer.save_cache_dir(&dir).expect("first checkpoint");
    assert_eq!(first.written.len(), 1, "one workload, one shard written: {:?}", first.written);
    assert_eq!(first.entries, explorer.cache_len());
    let matmul_shard = dir.join(format!("{}.json", first.written[0]));
    let baseline_mtime = std::fs::metadata(&matmul_shard).unwrap().modified().unwrap();

    // Nothing measured since: the checkpoint must write zero files.
    let idle = explorer.save_cache_dir(&dir).expect("idle checkpoint");
    assert!(idle.written.is_empty(), "clean checkpoints write nothing: {:?}", idle.written);
    assert_eq!(idle.skipped, 1, "the matmul shard was skipped, not rewritten");

    // A conv sweep dirties only the conv shard; the matmul shard file
    // must not be touched (same mtime, same bytes).
    sweep(&explorer, &ConvSpace::new(quick_layer()).seed(5), Prune::None, &Search::Exhaustive, 2)
        .expect("conv sweep");
    let second = explorer.save_cache_dir(&dir).expect("second checkpoint");
    assert_eq!(second.written.len(), 1, "only the conv shard is dirty: {:?}", second.written);
    assert_ne!(second.written[0], first.written[0]);
    assert_eq!(second.skipped, 1);
    assert_eq!(
        std::fs::metadata(&matmul_shard).unwrap().modified().unwrap(),
        baseline_mtime,
        "the clean matmul shard file was never rewritten"
    );

    // The sharded layout reloads into exactly the same cache.
    let reloaded = Explorer::with_cache_dir(&dir).expect("reload");
    assert_eq!(reloaded.cache_len(), explorer.cache_len());
    assert_eq!(reloaded.shard_counts(), explorer.shard_counts());
    let warm = small_sweep(&reloaded, 2);
    assert_eq!(warm.sims_performed, 0, "everything served from the sharded cache");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reports_carry_the_measure_backend_and_per_worker_sims() {
    let report = small_sweep(&Explorer::new(), 3);
    assert_eq!(report.measure_backend, "local");
    // The local pool aggregates under one stable label, so the report
    // stays byte-identical across thread counts.
    let total: usize = report.worker_sims.iter().map(|(_, sims)| sims).sum();
    assert_eq!(report.worker_sims.len(), 1);
    assert_eq!(report.worker_sims[0].0, "local");
    assert_eq!(total, report.sims_performed);

    // A fully cached re-run performed no sims anywhere.
    let explorer = Explorer::new();
    small_sweep(&explorer, 1);
    let cached = small_sweep(&explorer, 1);
    assert!(cached.worker_sims.is_empty());
}

#[test]
fn options_axis_candidates_are_cached_separately() {
    // Two option points over the same geometry: the structured key keeps
    // them apart, so the sweep simulates both.
    let space = MatMulSpace::new(MatMulProblem::square(8))
        .accels(vec![AccelInstance::v4(8)])
        .options_axis(vec![
            OptionsPoint::default(),
            OptionsPoint { coalesce: true, ..OptionsPoint::default() },
        ])
        .seed(7);
    let explorer = Explorer::new();
    let report = sweep(&explorer, &space, Prune::None, &Search::Exhaustive, 2).expect("sweep");
    assert_eq!(report.space_size, 4 * 2, "four flows x two option points");
    assert_eq!(explorer.evals_performed(), 8, "no key collision across option points");
    assert_eq!(report.cache_hits, 0);
}

#[test]
fn statically_illegal_candidates_are_lint_rejected_without_simulation() {
    // 256x8x256 on a base-8 v4 with a generous capacity budget: tiles up
    // to (256, 8, 256) enumerate, but any tile staging more than the
    // 0xFF00-byte DMA region (tm*tk > 16320 words of A) is statically
    // illegal — the plan audit must reject those before the measure
    // queue, spending zero simulations on them.
    let space = MatMulSpace::new(MatMulProblem::new(256, 8, 256))
        .accels(vec![AccelInstance::v4(8)])
        .capacity_words(80_000)
        .seed(3);
    let explorer = Explorer::new();
    let report = sweep(&explorer, &space, Prune::KeepBest(1), &Search::Exhaustive, 2)
        .expect("mixed space explores");
    assert!(report.lint_rejected > 0, "oversized tiles must be rejected");
    assert_eq!(
        report.space_size,
        report.lint_rejected + report.pruned_out + report.evaluations.len(),
        "every candidate is accounted for"
    );
    // Only the pruned survivor and the heuristic pick were simulated.
    assert!(report.sims_performed <= 2, "{} sims", report.sims_performed);
    for eval in &report.evaluations {
        let (tm, tn, tk) = eval.candidate.key.tile;
        for footprint in [tm * tk, tk * tn, tm * tn] {
            assert!(footprint * 4 <= 0xFF00, "measured tile overflows the staging region");
        }
        assert!(eval.verified);
    }

    // A space where *every* candidate is oversized fails up front with
    // the offending lint code — again without simulating anything.
    let hopeless = MatMulSpace::new(MatMulProblem::new(256, 8, 256))
        .accels(vec![AccelInstance::v4(256)])
        .capacity_words(80_000);
    let before = explorer.evals_performed();
    let err = sweep(&explorer, &hopeless, Prune::None, &Search::Exhaustive, 1).unwrap_err();
    assert!(err.message.contains("plan audit"), "{}", err.message);
    assert_eq!(err.code.as_deref(), Some("lint::fifo-capacity"));
    assert_eq!(explorer.evals_performed(), before, "no simulation was spent");
}

/// The engine's private seed bound (`KEPT_SEEDS` in `core::explore`).
const KEPT_SEEDS: usize = 8;

/// [`small_space`] at `seed`, pruned to its four best candidates (the
/// heuristic pick may add a fifth measurement): cheap enough to sweep
/// a dozen seeds.
fn seeded_sweep(explorer: &Explorer, seed: u64) -> ExploreReport {
    let space = small_space().seed(seed);
    sweep(explorer, &space, Prune::KeepBest(4), &Search::Exhaustive, 2).expect("seeded sweep")
}

/// An engine keeps the measurements of a problem's newest `KEPT_SEEDS`
/// seeds: one more seed evicts the oldest one's entries, so the cache is
/// bounded by seeds in use, not by sweeps run.
#[test]
fn the_cache_keeps_the_newest_seeds_of_a_problem() {
    let explorer = Explorer::new();
    seeded_sweep(&explorer, 1);
    let per_seed = explorer.cache_len();
    assert!(per_seed > 0);
    let seeds = 1..=(KEPT_SEEDS as u64 + 2);
    for seed in seeds.clone().skip(1) {
        seeded_sweep(&explorer, seed);
        assert!(explorer.cache_len() <= KEPT_SEEDS * per_seed, "after seed {seed}");
    }
    assert_eq!(explorer.cache_len(), KEPT_SEEDS * per_seed);
    let measured = explorer.evals_performed();
    for seed in seeds.clone().skip(2) {
        assert_eq!(seeded_sweep(&explorer, seed).sims_performed, 0, "seed {seed} is kept");
    }
    assert_eq!(explorer.evals_performed(), measured, "the newest seeds cost no simulation");
    let oldest = seeded_sweep(&explorer, 1);
    assert_eq!(oldest.sims_performed, per_seed, "the oldest seed was evicted and simulates again");
}

/// On an engine that checkpoints into a directory, eviction waits for the
/// save: every measured seed reaches the shard. A seed the engine loaded
/// entries for is never evicted, even once it is the oldest it measured.
#[test]
fn a_checkpointed_cache_saves_every_seed_and_keeps_what_it_loaded() {
    let dir = std::env::temp_dir().join(format!("axi4mlir-explore-kept-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let donor = Explorer::new();
    seeded_sweep(&donor, 1000);
    let per_seed = donor.save_cache_dir(&dir).expect("save the donor").entries;

    let explorer = Explorer::with_cache_dir(&dir).expect("load");
    // The loaded seed, measured further: the oldest seed this engine
    // measures.
    let wide = sweep(&explorer, &small_space().seed(1000), Prune::None, &Search::Exhaustive, 2)
        .expect("the whole space at the loaded seed");
    assert!(wide.sims_performed > 0);
    let loaded_seed = explorer.cache_len();
    let seeds = 1..=(KEPT_SEEDS as u64 + 1);
    // Unsaved, nothing may leave: the next save has to write it all.
    for seed in seeds.clone() {
        seeded_sweep(&explorer, seed);
    }
    assert_eq!(explorer.cache_len(), loaded_seed + seeds.clone().count() * per_seed);
    explorer.save_cache_dir(&dir).expect("checkpoint");
    let on_disk = load_dir(&dir).expect("reload");
    assert_eq!(on_disk.keys().filter(|key| key.seed == 1000).count(), loaded_seed);
    for seed in seeds.clone() {
        assert_eq!(
            on_disk.keys().filter(|key| key.seed == seed).count(),
            per_seed,
            "seed {seed} reached the shard"
        );
    }
    // Saved, the oldest measured seeds leave memory — seed 1 — but not
    // the loaded one.
    assert_eq!(explorer.cache_len(), loaded_seed + KEPT_SEEDS * per_seed);
    let measured = explorer.evals_performed();
    sweep(&explorer, &small_space().seed(1000), Prune::None, &Search::Exhaustive, 2)
        .expect("the loaded seed again");
    assert_eq!(explorer.evals_performed(), measured, "the loaded seed survives");
    assert_eq!(seeded_sweep(&explorer, 1).sims_performed, per_seed, "seed 1 was evicted");
    std::fs::remove_dir_all(&dir).ok();
}
