//! Host CPU description (the `"cpu"` entry of Fig. 5).

use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::{JsonValue, Members};

/// Host CPU cache information used by the tiling heuristics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpuSpec {
    /// Capacity of each cache level in bytes, innermost first.
    pub cache_levels: Vec<u64>,
    /// Kind of each level (`"data"`, `"shared"`, ...).
    pub cache_types: Vec<String>,
}

impl CpuSpec {
    /// The paper's host: ARM Cortex-A9 with 32 KiB L1D and 512 KiB shared
    /// L2 (Fig. 5 line 1).
    pub fn pynq_z2() -> Self {
        Self {
            cache_levels: vec![32 * 1024, 512 * 1024],
            cache_types: vec!["data".to_owned(), "shared".to_owned()],
        }
    }

    /// Reads the `"cpu"` object of a configuration document.
    ///
    /// `"cache-levels"` accepts integers or `"32K"`-style strings;
    /// `"cache-types"` is optional.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for missing or ill-typed members.
    pub(crate) fn from_value(value: &JsonValue) -> Result<CpuSpec, Diagnostic> {
        let members = value.members("cpu")?;
        let cache_levels = crate::json::sizes_from(&members, "cache-levels")?;
        let cache_types = members.opt("cache-types", Members::str_list)?.unwrap_or_default();
        Ok(CpuSpec { cache_levels, cache_types })
    }

    /// L1 data-cache capacity in bytes.
    pub fn l1_bytes(&self) -> u64 {
        self.cache_levels.first().copied().unwrap_or(32 * 1024)
    }

    /// Last-level cache capacity in bytes.
    pub fn llc_bytes(&self) -> u64 {
        self.cache_levels.last().copied().unwrap_or(512 * 1024)
    }
}

impl Default for CpuSpec {
    fn default() -> Self {
        Self::pynq_z2()
    }
}

/// A *named* host CPU the design-space explorer can enumerate.
///
/// [`CpuSpec`] is free-form (any cache hierarchy parses from JSON); the
/// explorer instead sweeps this closed set of named hosts so candidate
/// keys stay stable strings that round-trip through the persistent
/// result cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum CpuModel {
    /// The paper's PYNQ-Z2 host: Cortex-A9, 32 KiB L1D + 512 KiB shared
    /// L2 (Fig. 5 line 1). The default everywhere.
    #[default]
    PynqZ2,
    /// A ZCU102-class host: Cortex-A53, 32 KiB L1D + 1 MiB shared L2.
    Zcu102,
    /// A desktop-class host: 64 KiB L1D + 8 MiB LLC — twice the L1
    /// budget, so the auto cache-tiling heuristic picks larger edges.
    Desktop,
}

impl CpuModel {
    /// Every named host, default first.
    pub fn all() -> [CpuModel; 3] {
        [CpuModel::PynqZ2, CpuModel::Zcu102, CpuModel::Desktop]
    }

    /// The stable label persisted in candidate keys.
    pub fn label(&self) -> &'static str {
        match self {
            CpuModel::PynqZ2 => "pynq_z2",
            CpuModel::Zcu102 => "zcu102",
            CpuModel::Desktop => "desktop",
        }
    }

    /// Parses a [`Self::label`]-formatted name back into a model.
    pub fn parse(text: &str) -> Option<CpuModel> {
        CpuModel::all().into_iter().find(|m| m.label() == text)
    }

    /// The cache hierarchy this named host describes.
    pub fn spec(&self) -> CpuSpec {
        match self {
            CpuModel::PynqZ2 => CpuSpec::pynq_z2(),
            CpuModel::Zcu102 => CpuSpec {
                cache_levels: vec![32 * 1024, 1024 * 1024],
                cache_types: vec!["data".to_owned(), "shared".to_owned()],
            },
            CpuModel::Desktop => CpuSpec {
                cache_levels: vec![64 * 1024, 8 * 1024 * 1024],
                cache_types: vec!["data".to_owned(), "shared".to_owned()],
            },
        }
    }
}

impl std::fmt::Display for CpuModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pynq_levels() {
        let c = CpuSpec::pynq_z2();
        assert_eq!(c.l1_bytes(), 32 * 1024);
        assert_eq!(c.llc_bytes(), 512 * 1024);
        assert_eq!(c.cache_types, vec!["data", "shared"]);
        assert_eq!(CpuSpec::default(), c);
    }

    #[test]
    fn json_parsing_with_size_suffixes() {
        let json = r#"{"cache-levels": ["32K", "512K"], "cache-types": ["data", "shared"]}"#;
        let c = CpuSpec::from_value(&JsonValue::parse(json).unwrap()).unwrap();
        assert_eq!(c, CpuSpec::pynq_z2());
        let numeric = r#"{"cache-levels": [32768, 524288]}"#;
        let c2 = CpuSpec::from_value(&JsonValue::parse(numeric).unwrap()).unwrap();
        assert_eq!(c2.l1_bytes(), 32768);
        assert!(c2.cache_types.is_empty());
    }

    #[test]
    fn cpu_model_labels_round_trip() {
        for model in CpuModel::all() {
            assert_eq!(CpuModel::parse(model.label()), Some(model));
        }
        assert_eq!(CpuModel::parse("cortex_m0"), None);
        assert_eq!(CpuModel::default(), CpuModel::PynqZ2);
        assert_eq!(CpuModel::PynqZ2.spec(), CpuSpec::pynq_z2());
        // The desktop host doubles the L1 budget the tiling heuristic sees.
        assert_eq!(CpuModel::Desktop.spec().l1_bytes(), 2 * CpuModel::Zcu102.spec().l1_bytes());
    }

    #[test]
    fn bad_documents_are_rejected() {
        for bad in [
            r#"{"cache-types": ["data"]}"#,
            r#"{"cache-levels": ["huge"]}"#,
            r#"{"cache-levels": 32768}"#,
        ] {
            assert!(CpuSpec::from_value(&JsonValue::parse(bad).unwrap()).is_err(), "{bad}");
        }
    }
}
