//! The typed candidate identity: every field of a [`CandidateKey`] has
//! one codec that round-trips and renders the persisted spellings byte
//! for byte; the fidelity-adjusted key and work are derived from the key
//! alone and equal what realization produces; a candidate runs what its
//! key says whichever space realizes it; and the two decode boundaries
//! (shard load, wire frame) refuse — by member name — a key that names
//! no buildable configuration.

mod common;

use proptest::prelude::*;

use axi4mlir_config::FlowStrategy;
use axi4mlir_core::explore::cache::{self, key_from, key_to_json};
use axi4mlir_core::explore::wire::{candidate_from, candidate_to_json};
use axi4mlir_core::explore::{
    AccelInstance, BatchedSpace, CandidateKey, ConvSpace, DesignSpace, Device, Fidelity, Flow,
    JobSpec, MatMulSpace, MatMulVersion, Problem,
};
use axi4mlir_support::json::JsonValue;
use axi4mlir_workloads::batched::BatchedMatMulProblem;
use axi4mlir_workloads::matmul::MatMulProblem;
use axi4mlir_workloads::resnet::ConvLayer;

/// `CandidateKey` is plain data.
const _: fn() = || {
    fn is_copy<T: Copy>() {}
    is_copy::<CandidateKey>();
};

fn quick_layer() -> ConvLayer {
    ConvLayer { in_hw: 10, in_channels: 64, filter_hw: 3, out_channels: 16, stride: 1 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse(render(x)) == x for every field, over its whole typed
    /// domain (the fields are drawn independently: a codec knows nothing
    /// of which combinations are buildable).
    #[test]
    fn every_field_round_trips_through_its_codec(
        problem in common::problem(),
        device in common::device(),
        flow in common::flow(),
    ) {
        prop_assert_eq!(Problem::parse(&problem.to_string()), Some(problem));
        prop_assert_eq!(Device::parse(&device.to_string()), Some(device));
        prop_assert_eq!(Flow::parse(&flow.to_string()), Some(flow));
    }

    /// Whole buildable keys survive the key object both boundaries read.
    #[test]
    fn buildable_keys_round_trip_through_the_key_object(key in common::candidate_key()) {
        let json = key_to_json(&key);
        prop_assert_eq!(key_from(&json.members("key").unwrap()), Ok(key));
    }
}

#[test]
fn fields_render_the_persisted_spellings() {
    let gemm = MatMulProblem::new(16, 16, 16);
    let batch = BatchedMatMulProblem::new(MatMulProblem::new(8, 8, 8), 3);
    assert_eq!(Problem::MatMul(gemm).to_string(), "matmul 16x16x16");
    assert_eq!(Problem::Batched(batch).to_string(), "batched 8x8x8 x3");
    assert_eq!(Problem::Conv(quick_layer()).to_string(), "conv 10_64_3_16_1");
    assert_eq!(Device::Conv2d.to_string(), "conv2d");
    assert_eq!(Flow::FilterOutputStationary.to_string(), "FOs");
    let versions = [MatMulVersion::V1, MatMulVersion::V2, MatMulVersion::V3, MatMulVersion::V4];
    for (n, version) in versions.into_iter().enumerate() {
        for size in [4, 8, 16] {
            let device = Device::from(AccelInstance { version, size });
            assert_eq!(device.to_string(), format!("v{}_{size}", n + 1));
        }
    }
    for (flow, name) in FlowStrategy::all().into_iter().zip(["Ns", "As", "Bs", "Cs"]) {
        assert_eq!(Flow::MatMul(flow).to_string(), name);
    }
    // What no codec accepts.
    for text in ["", "matmul", "matmul 16x16", "matmul 0x8x8", "batched 8x8x8 x0", "gemv 8x8x8"] {
        assert_eq!(Problem::parse(text), None, "{text:?}");
    }
    for text in ["v3_0", "v9_8", "v3_banana", "conv3d"] {
        assert_eq!(Device::parse(text), None, "{text:?}");
    }
    assert_eq!(Flow::parse("Ds"), None);
}

/// The three smoke spaces of `axi4mlir-explore --smoke`.
fn smoke_spaces() -> Vec<Box<dyn DesignSpace>> {
    let v4_8 = vec![AccelInstance::v4(8)];
    vec![
        Box::new(MatMulSpace::new(MatMulProblem::new(16, 16, 16)).accels(v4_8.clone())),
        Box::new(
            BatchedSpace::new(BatchedMatMulProblem::new(MatMulProblem::new(8, 8, 8), 2))
                .accels(v4_8),
        ),
        Box::new(ConvSpace::new(quick_layer())),
    ]
}

#[test]
fn derived_keys_equal_realized_keys_at_every_fidelity() {
    let mut saturated = 0;
    for space in smoke_spaces() {
        for candidate in space.enumerate().unwrap() {
            let (full_key, full_work) = candidate.key.at(Fidelity::Full).unwrap();
            assert_eq!(full_key, candidate.key, "an enumerated key is its own full identity");
            let fidelities = (1..=4).map(|level| Fidelity::Proxy { level }).chain([Fidelity::Full]);
            for fidelity in fidelities {
                let (key, work) = candidate.key.at(fidelity).unwrap();
                let realized = space.realize(&candidate, fidelity).unwrap();
                assert_eq!(key, realized.key, "{} at {fidelity:?}", candidate.label());
                assert_eq!(work, realized.work);
                assert_eq!(realized.plan.seed, candidate.key.seed);
                if fidelity != Fidelity::Full && key == full_key {
                    assert_eq!(work, full_work);
                    saturated += 1;
                } else if fidelity != Fidelity::Full {
                    assert!(work < full_work, "a proxy that differs is smaller");
                }
            }
        }
    }
    assert!(saturated > 0, "some proxy level covers its full problem");
}

#[test]
fn a_candidate_runs_what_its_key_says_whichever_space_realizes_it() {
    let asked = MatMulSpace::new(MatMulProblem::new(16, 16, 16)).seed(7);
    let owner = MatMulSpace::new(MatMulProblem::new(32, 32, 32)).seed(9);
    let candidate = owner.enumerate().unwrap().into_iter().next().unwrap();
    let theirs = asked.realize(&candidate, Fidelity::Full).unwrap();
    let own = owner.realize(&candidate, Fidelity::Full).unwrap();
    assert_eq!(theirs.key, candidate.key);
    assert_eq!(theirs.plan.seed, 9, "the plan runs the key's seed, not the asked space's");
    assert_eq!(theirs.work, 32 * 32 * 32);
    assert_eq!(theirs.workload.module_fingerprint(), own.workload.module_fingerprint());
    assert!(theirs.workload.module_fingerprint().is_some());
}

fn some_eval() -> cache::CachedEval {
    cache::CachedEval {
        counters: Default::default(),
        task_clock_ms: 1.0,
        verified: true,
        pass_ms: Vec::new(),
    }
}

/// A buildable key object, with `edits` applied member by member.
fn key_object(base: &CandidateKey, edits: &[(&str, JsonValue)]) -> JsonValue {
    let members = key_to_json(base).as_object().unwrap().to_vec();
    JsonValue::object(members.into_iter().map(|(name, value)| {
        let edited = edits.iter().find(|(member, _)| *member == name).map(|(_, v)| v.clone());
        (name, edited.unwrap_or(value))
    }))
}

#[test]
fn both_boundaries_refuse_keys_that_name_no_buildable_configuration() {
    let matmul = MatMulSpace::new(MatMulProblem::new(16, 16, 16)).enumerate().unwrap()[0].clone();
    let conv = ConvSpace::new(quick_layer()).enumerate().unwrap()[0].clone();
    let v1 = MatMulSpace::new(MatMulProblem::new(16, 16, 16))
        .accels(vec![AccelInstance { version: MatMulVersion::V1, size: 8 }])
        .enumerate()
        .unwrap()[0]
        .clone();
    let v3_4 = MatMulSpace::new(MatMulProblem::new(16, 16, 16))
        .accels(vec![AccelInstance { version: MatMulVersion::V3, size: 4 }])
        .enumerate()
        .unwrap()[0]
        .clone();
    let tile = |m: i64, n: i64, k: i64| JsonValue::Array(vec![m.into(), n.into(), k.into()]);
    // (the closed-world case, a valid candidate, the edit, the blamed member)
    let cases = [
        ("unknown workload label", &matmul, ("workload", "gemv 16x16x16".into()), "workload"),
        ("non-positive problem", &matmul, ("workload", "matmul 16x0x16".into()), "workload"),
        ("zero-sized instance", &matmul, ("accel", "v3_0".into()), "accel"),
        ("unknown generation", &matmul, ("accel", "v9_8".into()), "accel"),
        ("unknown flow", &matmul, ("flow", "Ds".into()), "flow"),
        ("a flow v1 does not have", &v1, ("flow", "Cs".into()), "flow"),
        ("the conv flow on a MatMul instance", &matmul, ("flow", "FOs".into()), "flow"),
        ("a MatMul flow on conv2d", &conv, ("flow", "Ns".into()), "flow"),
        ("a GEMM on conv2d", &matmul, ("accel", "conv2d".into()), "accel"),
        ("a conv layer on a MatMul instance", &conv, ("accel", "v4_16".into()), "accel"),
        ("zero MatMul tile", &matmul, ("tile", tile(0, 0, 0)), "tile"),
        ("negative MatMul tile", &matmul, ("tile", tile(8, -8, 8)), "tile"),
        ("a conv key with a tile", &conv, ("tile", tile(8, 8, 8)), "tile"),
        // The device must run the tile: `v3_4 Ns 8 8 8` was realized as a
        // 4x4x4 run and cached under the 8x8x8 identity; 3 x 64^2 words
        // are past the v4's 10 240.
        ("a tile a fixed device does not run", &v3_4, ("tile", tile(8, 8, 8)), "tile"),
        ("a tile past the v4's memory", &matmul, ("tile", tile(64, 64, 64)), "tile"),
        // The device must accept the problem (both panicked a worker slot).
        ("a window past the unit", &conv, ("workload", "conv 10_4096_3_4_1".into()), "workload"),
        ("an overflowing slice", &conv, ("workload", "conv 4294967296_1_1_1_1".into()), "workload"),
        (
            "a MAC count past u64",
            &matmul,
            ("workload", "matmul 4294967296x4294967296x4294967296".into()),
            "workload",
        ),
    ];
    for (what, candidate, edit, blamed) in cases {
        let wire = candidate_to_json(candidate);
        candidate_from(&wire.members("frame").unwrap()).expect("the unedited candidate decodes");
        let broken = JsonValue::object([
            ("key".to_owned(), key_object(&candidate.key, &[edit])),
            ("estimate".to_owned(), wire.get("estimate").unwrap().clone()),
        ]);
        let err = candidate_from(&broken.members("frame").unwrap()).expect_err(what);
        let member = format!("`key.{blamed}`");
        assert!(err.message.contains(&member), "{what}: `{}` should blame {member}", err.message);

        // The same key in a shard document: that entry is skipped, its
        // neighbour is kept.
        let good: std::collections::HashMap<_, _> = [(candidate.key, some_eval())].into();
        let doc = JsonValue::parse(&cache::render(&good)).unwrap();
        let entry = &doc.get("entries").and_then(JsonValue::as_array).unwrap()[0];
        let bad_entry =
            JsonValue::object(entry.as_object().unwrap().iter().map(|(name, value)| {
                let value = if name == "key" { broken.get("key").unwrap() } else { value };
                (name.clone(), value.clone())
            }));
        let doc = JsonValue::object([
            ("schema".to_owned(), cache::CACHE_SCHEMA.into()),
            ("entries".to_owned(), JsonValue::Array(vec![bad_entry, entry.clone()])),
        ]);
        assert_eq!(cache::parse(&doc.to_json_string()).unwrap(), good, "{what}");
    }

    // Still inside: the whole-dimension tile of a problem smaller than
    // the v4's base, which the default space enumerates (`v4_16 Ns 8 8 8`
    // is instantiated with base 8).
    let small = MatMulSpace::new(MatMulProblem::new(8, 8, 8)).enumerate().unwrap()[0].clone();
    assert_eq!(small.label(), "v4_16 Ns 8 8 8");
    let wire = candidate_to_json(&small);
    assert_eq!(candidate_from(&wire.members("frame").unwrap()).unwrap().key, small.key);
}

/// A conv key is buildable iff `conv_point` — and therefore
/// `JobSpec::build` — accepts its layer.
#[test]
fn a_conv_key_is_buildable_iff_its_layer_is_a_valid_job() {
    let base = ConvSpace::new(quick_layer()).enumerate().unwrap()[0].key;
    let labels = axi4mlir_workloads::resnet::resnet18_layers().into_iter().map(|l| l.label());
    let mut refused = 0;
    for label in labels.chain(["10_4096_3_4_1".to_owned(), "4294967296_1_1_1_1".to_owned()]) {
        let workload = Problem::parse(&format!("conv {label}")).expect("a layer label");
        let key = CandidateKey { workload, ..base };
        let job = JobSpec { workload: "conv".to_owned(), layer: Some(label), ..JobSpec::default() };
        assert_eq!(key.at(Fidelity::Full).is_ok(), job.build().is_ok(), "{workload}");
        if let Err(err) = key.at(Fidelity::Full) {
            assert!(err.message.contains("`workload`"), "{}", err.message);
            refused += 1;
        }
    }
    assert!(refused >= 2, "the two hand-built labels are refused");
}

#[test]
fn shard_documents_order_entries_by_their_rendered_members() {
    // Lexical, not numeric or declaration order: `v4_16` sorts before
    // `v4_8`, and the flows `As < Bs < Cs < Ns` although Ns is declared
    // first.
    let base = MatMulSpace::new(MatMulProblem::new(16, 16, 16)).enumerate().unwrap()[0].key;
    let mut entries = std::collections::HashMap::new();
    for size in [8, 16] {
        for flow in FlowStrategy::all() {
            let key = CandidateKey {
                accel: AccelInstance::v4(size).into(),
                flow: Flow::MatMul(flow),
                ..base
            };
            entries.insert(key, some_eval());
        }
    }
    let doc = JsonValue::parse(&cache::render(&entries)).unwrap();
    let order: Vec<String> = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|entry| {
            let key = entry.get("key").unwrap();
            let text = |name| key.get(name).and_then(JsonValue::as_str).unwrap().to_owned();
            format!("{} {}", text("accel"), text("flow"))
        })
        .collect();
    let want = [
        "v4_16 As", "v4_16 Bs", "v4_16 Cs", "v4_16 Ns", "v4_8 As", "v4_8 Bs", "v4_8 Cs", "v4_8 Ns",
    ];
    assert_eq!(order, want);
}
