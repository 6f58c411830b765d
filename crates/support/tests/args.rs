//! The argv helpers ([`axi4mlir_support::args`]) every binary parses
//! its flags with.

use axi4mlir_support::args::{
    flag, list, number, optional_value, positionals, reject_unknown, value, values, wants_help,
};

fn args(tokens: &[&str]) -> Vec<String> {
    tokens.iter().map(|t| (*t).to_owned()).collect()
}

#[test]
fn unknown_flags_are_rejected_with_the_usage_text() {
    let known = ["--quick", "--json"];
    assert_eq!(reject_unknown(&args(&["--quick", "out", "-"]), &known, "usage: x"), Ok(()));
    let err = reject_unknown(&args(&["--quik"]), &known, "usage: x [--quick]").unwrap_err();
    assert_eq!(err, "unknown flag `--quik`\nusage: x [--quick]");
}

#[test]
fn values_numbers_and_lists_are_read_by_flag_name() {
    let a = args(&["--dims", "8x8x8", "--seed", "7", "--cpu", "a, b", "--worker", "w1"]);
    assert_eq!(value(&a, "--dims"), Ok(Some("8x8x8".to_owned())));
    assert_eq!(value(&a, "--layer"), Ok(None));
    assert_eq!(number::<u64>(&a, "--seed"), Ok(Some(7)));
    assert_eq!(number::<u64>(&a, "--dims").unwrap_err(), "invalid --dims `8x8x8`");
    assert_eq!(list(&a, "--cpu").unwrap(), ["a", "b"]);
    assert!(list(&a, "--objectives").unwrap().is_empty());
    assert!(flag(&a, "--seed") && !flag(&a, "--smoke"));
    let repeated = args(&["--worker", "w1", "--bind", "b", "--worker", "w2"]);
    assert_eq!(values(&repeated, "--worker").unwrap(), ["w1", "w2"]);
}

#[test]
fn a_flag_without_its_value_is_an_error_not_a_default() {
    assert_eq!(value(&args(&["--bind"]), "--bind").unwrap_err(), "--bind needs a value");
    let swallowed = args(&["--bind", "--workers", "3"]);
    assert_eq!(value(&swallowed, "--bind").unwrap_err(), "--bind needs a value");
    assert_eq!(number::<i64>(&args(&["--seed", "-5"]), "--seed"), Ok(Some(-5)));
}

#[test]
fn optional_values_tell_absent_from_bare() {
    let a = args(&["--json", "--quick", "--warm-start", "dir"]);
    assert_eq!(optional_value(&a, "--json"), Some(None), "a following flag is not a value");
    assert_eq!(optional_value(&a, "--warm-start"), Some(Some("dir")));
    assert_eq!(optional_value(&a, "--hub"), None);
    assert_eq!(optional_value(&args(&["--json"]), "--json"), Some(None));
}

#[test]
fn positionals_skip_flags_and_their_values() {
    let a = args(&["base", "--threshold", "0.2", "cur", "--quick", "-"]);
    assert_eq!(positionals(&a, &["--threshold"], "usage").unwrap(), ["base", "cur", "-"]);
    let err = positionals(&args(&["-x"]), &[], "usage: t FILE").unwrap_err();
    assert_eq!(err, "unknown argument `-x`\nusage: t FILE");
    assert!(wants_help(&args(&["-h"])) && wants_help(&args(&["--help"])));
}
