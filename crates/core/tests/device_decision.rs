//! The device decision ([`DeviceModel::of`]): which functional model a
//! configuration gets, decided once and fallibly — a name is outside
//! input (a Fig. 5 JSON) and must not be able to panic a run.

use axi4mlir_accelerators::matmul::MatMulVersion;
use axi4mlir_config::AcceleratorConfig;
use axi4mlir_core::driver::{CompilePlan, MatMulWorkload, Session};
use axi4mlir_core::pipeline::DeviceModel;
use axi4mlir_heuristics::space::AccelInstance;
use axi4mlir_workloads::matmul::MatMulProblem;

fn v3(size: i64) -> AcceleratorConfig {
    AcceleratorConfig::matmul(MatMulVersion::V3, size)
}

/// The three readers of an accelerator name — the version parser the
/// lint trusts, the instance parser the explorer uses, and the device
/// decision — must tell one story.
#[test]
fn the_name_parsers_and_the_device_decision_agree() {
    use MatMulVersion::{V1, V2, V3, V4};
    // (name, version parser, instance parser, device for accel_size[0] = 8)
    let v3_of_dims = Some((V3, 8));
    let table = [
        ("v1_4", Some(V1), Some((V1, 4)), Some((V1, 4))),
        ("v2_8", Some(V2), Some((V2, 8)), Some((V2, 8))),
        ("v3_16", Some(V3), Some((V3, 16)), Some((V3, 16))),
        ("v4_16", Some(V4), Some((V4, 16)), Some((V4, 16))),
        ("v3", Some(V3), None, v3_of_dims),
        ("v2", Some(V2), None, Some((V2, 8))),
        ("v3_banana", None, None, v3_of_dims),
        ("v3_0", Some(V3), None, None),
        ("conv2d", None, None, v3_of_dims),
        ("mine", None, None, v3_of_dims),
    ];
    for (name, version, instance, device) in table {
        assert_eq!(MatMulVersion::parse(name), version, "version parser on `{name}`");
        let parsed = AccelInstance::parse(name).map(|a| (a.version, a.size));
        assert_eq!(parsed, instance, "instance parser on `{name}`");
        let mut config = v3(8);
        config.name = name.to_owned();
        let decided = match DeviceModel::of(&config) {
            Ok(DeviceModel::MatMul { version, size }) => Some((version, i64::from(size))),
            Ok(DeviceModel::Conv2d) => panic!("`{name}`: a MatMul kernel got the conv model"),
            Err(_) => None,
        };
        assert_eq!(decided, device, "device decision on `{name}`");
        // Whatever generation the lint checks opcodes against is the
        // generation of the device that will decode them.
        if let (Some(version), Some((built, _))) = (version, decided) {
            assert_eq!(version, built, "`{name}`");
        }
    }
}

/// Regression: a configuration named `v3_0` passed `validate()` and
/// then panicked the process in `MatMulAccel::new` from inside
/// `Session::run`. A name is outside input: a device it describes
/// that cannot be built is a diagnostic, and an unknown generation
/// still falls back to a v3 of `accel_size[0]`.
#[test]
fn a_name_asking_for_an_unbuildable_device_is_a_diagnostic_not_a_panic() {
    let workload = MatMulWorkload::new(MatMulProblem::square(8));
    for name in ["v3_0", "v3_-4"] {
        let mut config = v3(4);
        config.name = name.to_owned();
        config.validate().expect("the name alone does not fail validation");
        let plan = CompilePlan::for_accelerator(config);
        let err = Session::for_sweep().run(&workload, &plan).unwrap_err();
        assert!(err.message.contains("cannot be built"), "{name}: {}", err.message);
    }
    let mut config = v3(4);
    config.name = "v9_8".to_owned();
    let plan = CompilePlan::for_accelerator(config);
    let mut session = Session::for_sweep();
    assert!(session.run(&workload, &plan).unwrap().verified);
    assert_eq!(session.soc().accel.name(), "v3_4", "unknown generation: v3 of accel_size[0]");
}
