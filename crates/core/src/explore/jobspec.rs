//! Serializable exploration requests (`JobSpec`) and their realization.
//!
//! A [`JobSpec`] is everything a sweep needs, spelled in plain strings
//! and numbers so it can travel: over the hub's wire protocol, through a
//! queue, into a log. [`JobSpec::build`] validates it into an
//! [`ExploreRequest`] — a concrete [`DesignSpace`] plus prune/search/
//! objective choices ready for the [`Explorer`](super::Explorer) — with
//! every error reported as a [`Diagnostic`] naming the offending field,
//! so a malformed network submission fails the *job*, never the daemon.
//!
//! This is the one request builder. The `axi4mlir-explore` CLI spells
//! its flags as a `JobSpec`, calls [`JobSpec::build`], and either runs
//! the resulting request in-process or submits the same spec to a hub,
//! where the daemon calls `build` on it again (a worker a measurement is
//! fanned out to receives only the candidate's key, never the job). No
//! caller validates an axis, a search, or an objective list on its own,
//! which is what keeps the daemon's behavior flag-for-flag identical to
//! the CLI's.

use axi4mlir_config::{CacheTiling, CpuModel};
use axi4mlir_heuristics::space::conv_point;
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::{JsonValue, Members};
use axi4mlir_workloads::batched::BatchedMatMulProblem;
use axi4mlir_workloads::matmul::MatMulProblem;
use axi4mlir_workloads::resnet::ConvLayer;

use super::space::{
    conv_shape, AccelInstance, BatchedSpace, ConvSpace, DesignSpace, MatMulSpace, OptionsPoint,
};
use super::{HalvingSpec, Objective, Prune, Search};

/// One exploration job, in wire-friendly form. Unset optional fields
/// take the same defaults the `axi4mlir-explore` CLI applies.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Workload kind: `matmul`, `batched`, or `conv`.
    pub workload: String,
    /// GEMM dimensions `(M, N, K)`; required for matmul/batched.
    pub dims: Option<(i64, i64, i64)>,
    /// Batch extent (batched workload only; defaults to 4).
    pub batch: Option<i64>,
    /// Conv layer label `iHW_iC_fHW_oC_stride` (or a ResNet18 layer
    /// label); required for conv.
    pub layer: Option<String>,
    /// Accelerator instantiations, e.g. `["v4_16", "v2_8"]`; empty means
    /// the standard flexible v4 with base 16.
    pub accels: Vec<String>,
    /// Tile-memory budget override, in words (matmul/batched only).
    pub capacity_words: Option<u64>,
    /// Sweep the boolean pipeline-option axes (coalescing, copy
    /// specialization) instead of pinning the defaults.
    pub sweep_options: bool,
    /// Cross the options axis with every cache-tiling level.
    pub sweep_cache_tiling: bool,
    /// Named host CPUs to cross the options axis with (empty keeps the
    /// default host).
    pub cpus: Vec<String>,
    /// Search strategy: `exhaustive` or `halving`.
    pub search: String,
    /// Analytical prune: `none`, `keep:N`, or `factor:F`.
    pub prune: String,
    /// Objective labels (first is primary); empty means task-clock.
    pub objectives: Vec<String>,
    /// Data seed override.
    pub seed: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            workload: "matmul".to_owned(),
            dims: None,
            batch: None,
            layer: None,
            accels: Vec::new(),
            capacity_words: None,
            sweep_options: false,
            sweep_cache_tiling: false,
            cpus: Vec::new(),
            search: "exhaustive".to_owned(),
            prune: "none".to_owned(),
            objectives: Vec::new(),
            seed: None,
        }
    }
}

/// Parses `MxNxK` into a [`MatMulProblem`].
pub fn parse_dims(text: &str) -> Option<MatMulProblem> {
    let parts: Vec<i64> = text.split('x').map(str::parse).collect::<Result<_, _>>().ok()?;
    match parts[..] {
        [m, n, k] if m > 0 && n > 0 && k > 0 => Some(MatMulProblem::new(m, n, k)),
        _ => None,
    }
}

/// Parses a [`Prune`] spelling: `none`, `keep:N`, or `factor:F`.
fn parse_prune(text: &str) -> Option<Prune> {
    if text == "none" {
        return Some(Prune::None);
    }
    if let Some(n) = text.strip_prefix("keep:") {
        return n.parse().ok().map(Prune::KeepBest);
    }
    if let Some(f) = text.strip_prefix("factor:") {
        return f.parse().ok().map(Prune::WithinFactor);
    }
    None
}

/// Parses a conv layer from its `iHW_iC_fHW_oC_stride` label (the
/// ResNet18 layer labels are of that form).
pub fn parse_layer(text: &str) -> Option<ConvLayer> {
    let parts: Vec<usize> = text.split('_').map(str::parse).collect::<Result<_, _>>().ok()?;
    match parts[..] {
        [in_hw, in_channels, filter_hw, out_channels, stride]
            if in_hw >= filter_hw
                && in_channels > 0
                && filter_hw > 0
                && stride > 0
                && out_channels > 0 =>
        {
            Some(ConvLayer { in_hw, in_channels, filter_hw, out_channels, stride })
        }
        _ => None,
    }
}

/// A validated, runnable exploration request.
#[derive(Clone, Debug)]
pub struct ExploreRequest {
    /// The concrete design space.
    pub space: AnySpace,
    /// The analytical prune.
    pub prune: Prune,
    /// The search strategy.
    pub search: Search,
    /// Objectives (at least one; the first is primary).
    pub objectives: Vec<Objective>,
}

/// One of the in-tree design spaces, owned.
#[derive(Clone, Debug)]
pub enum AnySpace {
    /// A [`MatMulSpace`].
    MatMul(MatMulSpace),
    /// A [`BatchedSpace`].
    Batched(BatchedSpace),
    /// A [`ConvSpace`].
    Conv(ConvSpace),
}

impl AnySpace {
    /// The trait-object view the [`Explorer`](super::Explorer) consumes.
    pub fn as_dyn(&self) -> &dyn DesignSpace {
        match self {
            AnySpace::MatMul(s) => s,
            AnySpace::Batched(s) => s,
            AnySpace::Conv(s) => s,
        }
    }
}

fn field_err(field: &str, detail: impl std::fmt::Display) -> Diagnostic {
    Diagnostic::error(format!("invalid job: {field} {detail}"))
}

impl JobSpec {
    /// Validates the spec into a runnable [`ExploreRequest`].
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] naming the first invalid or missing
    /// field; nothing is simulated.
    pub fn build(&self) -> Result<ExploreRequest, Diagnostic> {
        let accels: Vec<AccelInstance> = if self.accels.is_empty() {
            vec![AccelInstance::v4(16)]
        } else {
            self.accels
                .iter()
                .map(|label| AccelInstance::parse(label))
                .collect::<Option<_>>()
                .ok_or_else(|| field_err("accels", "must be v1..v4_SIZE labels"))?
        };
        let mut options_axis =
            if self.sweep_options { OptionsPoint::axis() } else { vec![OptionsPoint::default()] };
        if self.sweep_cache_tiling {
            options_axis =
                OptionsPoint::cross_cache_tiling(&options_axis, &CacheTiling::sweep_levels());
        }
        if !self.cpus.is_empty() {
            let cpus: Vec<CpuModel> = self
                .cpus
                .iter()
                .map(|label| CpuModel::parse(label))
                .collect::<Option<_>>()
                .ok_or_else(|| {
                    let known: Vec<&str> = CpuModel::all().iter().map(CpuModel::label).collect();
                    field_err("cpus", format!("must name known hosts ({})", known.join("|")))
                })?;
            options_axis = OptionsPoint::cross_cpus(&options_axis, &cpus);
        }

        let dims = || {
            self.dims
                .ok_or_else(|| field_err("dims", "are required for matmul/batched workloads"))
                .and_then(|(m, n, k)| {
                    (m > 0 && n > 0 && k > 0)
                        .then(|| MatMulProblem::new(m, n, k))
                        .ok_or_else(|| field_err("dims", "must be positive"))
                })
        };
        let mut space = match self.workload.as_str() {
            "matmul" => {
                let mut s = MatMulSpace::new(dims()?).accels(accels).options_axis(options_axis);
                if let Some(capacity) = self.capacity_words {
                    s = s.capacity_words(capacity);
                }
                AnySpace::MatMul(s)
            }
            "batched" => {
                let batch = self.batch.unwrap_or(4);
                if batch <= 0 {
                    return Err(field_err("batch", "must be positive"));
                }
                let mut s = BatchedSpace::new(BatchedMatMulProblem::new(dims()?, batch as usize))
                    .accels(accels)
                    .options_axis(options_axis);
                if let Some(capacity) = self.capacity_words {
                    s = s.capacity_words(capacity);
                }
                AnySpace::Batched(s)
            }
            "conv" => {
                let label = self
                    .layer
                    .as_deref()
                    .ok_or_else(|| field_err("layer", "is required for conv workloads"))?;
                let layer = parse_layer(label).ok_or_else(|| {
                    field_err("layer", "must be iHW_iC_fHW_oC_stride or a ResNet18 label")
                })?;
                conv_point(conv_shape(&layer)).map_err(|e| field_err("layer", e.message))?;
                AnySpace::Conv(ConvSpace::new(layer))
            }
            other => {
                return Err(field_err(
                    "workload",
                    format!("`{other}` is not one of matmul|batched|conv"),
                ))
            }
        };
        if let Some(seed) = self.seed {
            match &mut space {
                AnySpace::MatMul(s) => s.seed = seed,
                AnySpace::Batched(s) => s.seed = seed,
                AnySpace::Conv(s) => s.seed = seed,
            }
        }

        let search = match self.search.as_str() {
            "exhaustive" => Search::Exhaustive,
            "halving" => Search::Halving(HalvingSpec::default()),
            other => {
                return Err(field_err(
                    "search",
                    format!("`{other}` is not one of exhaustive|halving"),
                ))
            }
        };
        let prune = parse_prune(&self.prune)
            .ok_or_else(|| field_err("prune", "must be none|keep:N|factor:F"))?;
        let objectives: Vec<Objective> = if self.objectives.is_empty() {
            vec![Objective::TaskClock]
        } else {
            let parsed: Vec<Objective> = self
                .objectives
                .iter()
                .map(|label| Objective::parse(label))
                .collect::<Option<_>>()
                .ok_or_else(|| {
                    field_err("objectives", "must be clock|traffic|transactions|occupancy")
                })?;
            let mut seen = Vec::new();
            for objective in &parsed {
                if seen.contains(objective) {
                    return Err(field_err("objectives", "must not repeat"));
                }
                seen.push(*objective);
            }
            parsed
        };

        let request = ExploreRequest { space, prune, search, objectives };
        // The static plan audit, applied at validation time: a job whose
        // every candidate fails a lint check could never measure
        // anything, so it is rejected here — at hub `submit` time — with
        // the offending lint code, instead of erroring mid-sweep.
        if let Err(finding) = super::audit::audit_space(request.space.as_dyn()) {
            let code = finding.code.clone().unwrap_or_else(|| "lint".to_owned());
            let mut diag =
                field_err("space", format!("admits no candidate — {} [{code}]", finding.message));
            diag.code = finding.code;
            return Err(diag);
        }
        Ok(request)
    }

    /// Serializes the spec as the JSON object the hub protocol carries
    /// (unset optional fields are omitted).
    pub fn to_json(&self) -> JsonValue {
        let mut members: Vec<(String, JsonValue)> =
            vec![("workload".to_owned(), self.workload.clone().into())];
        if let Some((m, n, k)) = self.dims {
            members.push(("dims".to_owned(), JsonValue::Array(vec![m.into(), n.into(), k.into()])));
        }
        if let Some(batch) = self.batch {
            members.push(("batch".to_owned(), batch.into()));
        }
        if let Some(layer) = &self.layer {
            members.push(("layer".to_owned(), layer.clone().into()));
        }
        if !self.accels.is_empty() {
            let accels = self.accels.iter().map(|a| JsonValue::from(a.clone())).collect();
            members.push(("accels".to_owned(), JsonValue::Array(accels)));
        }
        if let Some(capacity) = self.capacity_words {
            members.push(("capacity_words".to_owned(), capacity.into()));
        }
        if self.sweep_options {
            members.push(("sweep_options".to_owned(), true.into()));
        }
        if self.sweep_cache_tiling {
            members.push(("sweep_cache_tiling".to_owned(), true.into()));
        }
        if !self.cpus.is_empty() {
            let cpus = self.cpus.iter().map(|c| JsonValue::from(c.clone())).collect();
            members.push(("cpus".to_owned(), JsonValue::Array(cpus)));
        }
        members.push(("search".to_owned(), self.search.clone().into()));
        members.push(("prune".to_owned(), self.prune.clone().into()));
        if !self.objectives.is_empty() {
            let objectives = self.objectives.iter().map(|o| JsonValue::from(o.clone())).collect();
            members.push(("objectives".to_owned(), JsonValue::Array(objectives)));
        }
        if let Some(seed) = self.seed {
            members.push(("seed".to_owned(), seed.into()));
        }
        JsonValue::object(members)
    }

    /// Parses a spec from its JSON object form. Structural problems (a
    /// non-object, a `dims` member that is not a 3-array of integers)
    /// are errors here; *semantic* validation happens in
    /// [`JobSpec::build`].
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] naming the malformed member.
    pub fn from_json(value: &JsonValue) -> Result<JobSpec, Diagnostic> {
        let m = value.members("invalid job")?;
        let dims = match m.opt("dims", Members::i64_list)?.as_deref() {
            None => None,
            Some(&[dm, dn, dk]) => Some((dm, dn, dk)),
            Some(_) => return Err(m.invalid("dims", "must be a [M, N, K] array of integers")),
        };
        let defaults = JobSpec::default();
        let strings = |name: &str| m.opt(name, Members::str_list).map(Option::unwrap_or_default);
        let text = |name: &str, default: String| {
            m.opt(name, Members::str).map(|text| text.map_or(default, str::to_owned))
        };
        Ok(JobSpec {
            workload: text("workload", defaults.workload)?,
            dims,
            batch: m.opt("batch", Members::i64)?,
            layer: m.opt("layer", Members::str)?.map(str::to_owned),
            accels: strings("accels")?,
            capacity_words: m.opt("capacity_words", Members::u64)?,
            sweep_options: m.opt("sweep_options", Members::bool)?.unwrap_or(false),
            sweep_cache_tiling: m.opt("sweep_cache_tiling", Members::bool)?.unwrap_or(false),
            cpus: strings("cpus")?,
            search: text("search", defaults.search)?,
            prune: text("prune", defaults.prune)?,
            objectives: strings("objectives")?,
            seed: m.opt("seed", Members::u64)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec {
            workload: "matmul".to_owned(),
            dims: Some((16, 16, 16)),
            accels: vec!["v4_8".to_owned()],
            search: "halving".to_owned(),
            prune: "keep:12".to_owned(),
            objectives: vec!["clock".to_owned(), "traffic".to_owned()],
            seed: Some(7),
            ..JobSpec::default()
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        let spec = sample();
        assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
        // Sparse specs too: only the always-present members serialize.
        let sparse = JobSpec { dims: Some((8, 8, 8)), ..JobSpec::default() };
        assert_eq!(JobSpec::from_json(&sparse.to_json()).unwrap(), sparse);
        let text = sparse.to_json().to_json_string();
        assert!(!text.contains("layer"), "unset members are omitted: {text}");
    }

    #[test]
    fn build_realizes_the_requested_space() {
        let request = sample().build().unwrap();
        assert_eq!(request.space.as_dyn().workload_kind(), "matmul");
        assert_eq!(request.prune, Prune::KeepBest(12));
        assert_eq!(request.search, Search::Halving(HalvingSpec::default()));
        assert_eq!(request.objectives, vec![Objective::TaskClock, Objective::DmaWords]);
        assert!(!request.space.as_dyn().enumerate().unwrap().is_empty());

        let conv = JobSpec {
            workload: "conv".to_owned(),
            layer: Some("10_64_3_16_1".to_owned()),
            ..JobSpec::default()
        };
        assert_eq!(conv.build().unwrap().space.as_dyn().workload_kind(), "conv");

        let batched = JobSpec {
            workload: "batched".to_owned(),
            dims: Some((8, 8, 8)),
            batch: Some(2),
            accels: vec!["v4_8".to_owned()],
            ..JobSpec::default()
        };
        assert_eq!(batched.build().unwrap().space.as_dyn().workload_kind(), "batched");
    }

    fn conv_spec(layer: &str) -> JobSpec {
        JobSpec { workload: "conv".to_owned(), layer: Some(layer.to_owned()), ..JobSpec::default() }
    }

    #[test]
    fn build_rejects_bad_fields_by_name() {
        let cases: Vec<(JobSpec, &str)> = vec![
            (JobSpec { workload: "gemv".to_owned(), ..JobSpec::default() }, "workload"),
            (JobSpec::default(), "dims"), // matmul without dims
            (
                JobSpec {
                    dims: Some((8, 8, 8)),
                    search: "binary".to_owned(),
                    ..JobSpec::default()
                },
                "search",
            ),
            (
                JobSpec { dims: Some((8, 8, 8)), prune: "half".to_owned(), ..JobSpec::default() },
                "prune",
            ),
            (
                JobSpec {
                    dims: Some((8, 8, 8)),
                    objectives: vec!["clock".to_owned(), "clock".to_owned()],
                    ..JobSpec::default()
                },
                "objectives",
            ),
            (
                JobSpec {
                    dims: Some((8, 8, 8)),
                    accels: vec!["v9_8".to_owned()],
                    ..JobSpec::default()
                },
                "accels",
            ),
            (JobSpec { workload: "conv".to_owned(), ..JobSpec::default() }, "layer"),
            // An output slice past i64 and an empty window: both used to reach
            // `conv_point` (overflow panic; "window of 0 words … exceeds").
            (conv_spec("4294967296_1_1_1_1"), "layer"),
            (conv_spec("10_0_3_16_1"), "layer"),
        ];
        for (spec, field) in cases {
            let err = spec.build().unwrap_err();
            assert!(err.message.contains(field), "`{}` should blame {field}", err.message);
        }
    }

    #[test]
    fn build_rejects_jobs_the_plan_audit_fully_rejects() {
        // A base-256 v4 on a 256x8x256 problem admits exactly one tile,
        // whose staged A transfer (256x256 words) overflows the DMA
        // staging region — every candidate fails the audit, so the job
        // fails at validation (hub submit) time with the lint code.
        let spec = JobSpec {
            dims: Some((256, 8, 256)),
            accels: vec!["v4_256".to_owned()],
            capacity_words: Some(200_000),
            ..JobSpec::default()
        };
        let err = spec.clone().build().unwrap_err();
        assert!(err.message.contains("lint::fifo-capacity"), "{}", err.message);
        assert_eq!(err.code.as_deref(), Some("lint::fifo-capacity"));
        // A base that admits small tiles passes: the sweep merely counts
        // the oversized ones as lint-rejected.
        let ok = JobSpec { accels: vec!["v4_8".to_owned()], ..spec };
        ok.build().unwrap();
    }

    #[test]
    fn malformed_json_members_are_structural_errors() {
        let bad = JsonValue::parse(r#"{"workload": "matmul", "dims": "16x16x16"}"#).unwrap();
        assert!(JobSpec::from_json(&bad).unwrap_err().message.contains("dims"));
        let bad = JsonValue::parse(r#"{"objectives": "clock"}"#).unwrap();
        assert!(JobSpec::from_json(&bad).unwrap_err().message.contains("objectives"));
        assert!(JobSpec::from_json(&JsonValue::Int(5)).is_err());
    }
}
