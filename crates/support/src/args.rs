//! The argv helpers every binary in the workspace parses its flags with.
//!
//! A flag is a token starting with `--`; everything else is a flag's
//! value or a positional argument. Binaries declare the flags they know,
//! call [`reject_unknown`] first — so a typo (`--quik`, `--jsno`) fails
//! with the usage text instead of silently running the default — and
//! then pull values out by name.

use std::str::FromStr;

/// The process arguments after the program name.
pub fn argv() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Whether the bare flag `name` is present.
pub fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Whether `--help` or `-h` is present.
pub fn wants_help(args: &[String]) -> bool {
    flag(args, "--help") || flag(args, "-h")
}

/// Rejects the first `--flag` that is not in `known` with
/// ``unknown flag `--x` `` followed by `usage` on its own lines.
pub fn reject_unknown(args: &[String], known: &[&str], usage: &str) -> Result<(), String> {
    match args.iter().find(|a| a.starts_with("--") && !known.contains(&a.as_str())) {
        Some(unknown) => Err(format!("unknown flag `{unknown}`\n{usage}")),
        None => Ok(()),
    }
}

/// The value following `--flag`, if the flag is present; the error
/// `--flag needs a value` when it is last or followed by another flag.
pub fn value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    Ok(values(args, flag)?.into_iter().next())
}

/// The values of every occurrence of a repeatable `--flag`.
pub fn values(args: &[String], flag: &str) -> Result<Vec<String>, String> {
    let occurrences = args.iter().enumerate().filter(|(_, a)| *a == flag);
    occurrences
        .map(|(at, _)| match args.get(at + 1) {
            Some(value) if !value.starts_with("--") => Ok(value.clone()),
            _ => Err(format!("{flag} needs a value")),
        })
        .collect()
}

/// The value of a flag whose value is optional (`--json [DIR]`): `None`
/// when the flag is absent, `Some(None)` when it is last or followed by
/// another flag.
pub fn optional_value<'a>(args: &'a [String], flag: &str) -> Option<Option<&'a str>> {
    let at = args.iter().position(|a| a == flag)?;
    Some(args.get(at + 1).map(String::as_str).filter(|value| !value.starts_with("--")))
}

/// `--flag V` parsed as a number, or ``invalid --flag `V` ``.
pub fn number<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    value(args, flag)?
        .map(|text| text.parse().map_err(|_| format!("invalid {flag} `{text}`")))
        .transpose()
}

/// `--flag a,b` split into trimmed tokens (absent flag: empty).
pub fn list(args: &[String], flag: &str) -> Result<Vec<String>, String> {
    Ok(value(args, flag)?
        .map(|text| text.split(',').map(|token| token.trim().to_owned()).collect())
        .unwrap_or_default())
}

/// The arguments that are neither flags nor the values of `value_flags`
/// (`-` alone, the stdin convention, is positional); any other
/// single-dash token is ``unknown argument `-x` `` followed by `usage`.
pub fn positionals(
    args: &[String],
    value_flags: &[&str],
    usage: &str,
) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut tokens = args.iter();
    while let Some(token) = tokens.next() {
        if value_flags.contains(&token.as_str()) {
            tokens.next();
        } else if token == "-" || !token.starts_with('-') {
            out.push(token.clone());
        } else if !token.starts_with("--") {
            return Err(format!("unknown argument `{token}`\n{usage}"));
        }
    }
    Ok(out)
}
