//! Structured knobs for the SystemVerilog backend, and their JSON codec
//! (the `"rtl"` object of a `/v1/rtl` request).

use marchgen_json::{bool_field, str_field, FromJson, Json, JsonError, ToJson};
use marchgen_march::codegen::sanitize_ident;

/// Knobs of the SystemVerilog emitters, shared by the library API, the
/// `marchgen codegen --lang sv` CLI and the `POST /v1/rtl` daemon
/// endpoint. Every consumer folds the *normalized* options into its
/// cache key via [`RtlOptions::canonical_fragment`], so two requests
/// that clamp to the same hardware share one cache entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtlOptions {
    /// Base name for the emitted modules (`<name>_patgen`,
    /// `<name>_bist`, `<name>_tb`). Routed through
    /// [`sanitize_ident`], so any string is safe.
    pub name: String,
    /// Address bus width; the generated test sweeps `[0, 2^addr_width)`.
    /// Clamped to `1..=30` (the testbench declares a `2^addr_width`-deep
    /// behavioral memory, so the depth must fit a 32-bit int).
    pub addr_width: u32,
    /// Data bus width. The paper's 1-bit cell values expand to word-wide
    /// backgrounds: `0` → all-zeros, `1` → all-ones. Clamped to
    /// `1..=1024`.
    pub data_width: u32,
    /// Cycles spent in each `Del` (data-retention pause) operation.
    /// Clamped to `1..=2^24`.
    pub delay_cycles: u32,
    /// Whether [`crate::emit_sv`] appends the self-checking testbench
    /// module to the bundle. Defaults to `true`.
    pub testbench: bool,
}

impl Default for RtlOptions {
    fn default() -> RtlOptions {
        RtlOptions {
            name: "march_test".to_owned(),
            addr_width: 10,
            data_width: 8,
            delay_cycles: 16,
            testbench: true,
        }
    }
}

impl RtlOptions {
    /// Lower/upper bound for [`RtlOptions::addr_width`].
    pub const ADDR_WIDTH_RANGE: (u32, u32) = (1, 30);
    /// Lower/upper bound for [`RtlOptions::data_width`].
    pub const DATA_WIDTH_RANGE: (u32, u32) = (1, 1024);
    /// Lower/upper bound for [`RtlOptions::delay_cycles`].
    pub const DELAY_CYCLES_RANGE: (u32, u32) = (1, 1 << 24);

    /// Sets the module base name (sanitized at emission time).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> RtlOptions {
        self.name = name.into();
        self
    }

    /// Sets the address bus width (clamped at emission time).
    #[must_use]
    pub fn with_addr_width(mut self, width: u32) -> RtlOptions {
        self.addr_width = width;
        self
    }

    /// Sets the data bus width (clamped at emission time).
    #[must_use]
    pub fn with_data_width(mut self, width: u32) -> RtlOptions {
        self.data_width = width;
        self
    }

    /// Sets the `Del` pause length in cycles (clamped at emission time).
    #[must_use]
    pub fn with_delay_cycles(mut self, cycles: u32) -> RtlOptions {
        self.delay_cycles = cycles;
        self
    }

    /// Enables or disables the emitted testbench module.
    #[must_use]
    pub fn with_testbench(mut self, testbench: bool) -> RtlOptions {
        self.testbench = testbench;
        self
    }

    /// The options as the emitters actually apply them: name sanitized,
    /// numeric knobs clamped into their documented ranges. Emission and
    /// cache keys both operate on the normalized form.
    #[must_use]
    pub fn normalize(&self) -> RtlOptions {
        let clamp = |v: u32, (lo, hi): (u32, u32)| v.clamp(lo, hi);
        RtlOptions {
            name: sanitize_ident(&self.name),
            addr_width: clamp(self.addr_width, Self::ADDR_WIDTH_RANGE),
            data_width: clamp(self.data_width, Self::DATA_WIDTH_RANGE),
            delay_cycles: clamp(self.delay_cycles, Self::DELAY_CYCLES_RANGE),
            testbench: self.testbench,
        }
    }

    /// Deterministic key text for the RTL-specific knobs, suitable for
    /// appending to a canonical request key (the daemon folds this into
    /// its `/v1/rtl` cache key). Computed over the normalized options.
    #[must_use]
    pub fn canonical_fragment(&self) -> String {
        let n = self.normalize();
        format!(
            "rtl=v1;name={};aw={};dw={};delay={};tb={}",
            n.name,
            n.addr_width,
            n.data_width,
            n.delay_cycles,
            usize::from(n.testbench),
        )
    }
}

impl ToJson for RtlOptions {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", Json::Str(self.name.clone())),
            ("addr_width", Json::Int(i64::from(self.addr_width))),
            ("data_width", Json::Int(i64::from(self.data_width))),
            ("delay_cycles", Json::Int(i64::from(self.delay_cycles))),
            ("testbench", Json::Bool(self.testbench)),
        ])
    }
}

fn u32_field(json: &Json, key: &str, default: u32) -> Result<u32, JsonError> {
    match json.get(key) {
        None => Ok(default),
        Some(value) => {
            let n = value
                .as_int()
                .ok_or_else(|| JsonError::decode(format!("\"{key}\" must be an integer")))?;
            u32::try_from(n).map_err(|_| JsonError::decode(format!("\"{key}\" out of range: {n}")))
        }
    }
}

impl FromJson for RtlOptions {
    /// Decodes an options object; every key is optional and defaults
    /// per [`RtlOptions::default`]. Unknown keys are ignored (the
    /// same forward-compatibility contract as `GenerateRequest`).
    fn from_json(json: &Json) -> Result<RtlOptions, JsonError> {
        if !matches!(json, Json::Object(_)) {
            return Err(JsonError::decode("rtl options must be an object"));
        }
        let defaults = RtlOptions::default();
        Ok(RtlOptions {
            name: match json.get("name") {
                None => defaults.name,
                Some(_) => str_field(json, "name")?.to_owned(),
            },
            addr_width: u32_field(json, "addr_width", defaults.addr_width)?,
            data_width: u32_field(json, "data_width", defaults.data_width)?,
            delay_cycles: u32_field(json, "delay_cycles", defaults.delay_cycles)?,
            testbench: match json.get("testbench") {
                None => defaults.testbench,
                Some(_) => bool_field(json, "testbench")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_clamps_and_sanitizes() {
        let o = RtlOptions {
            name: "march c-".to_owned(),
            addr_width: 0,
            data_width: 9999,
            delay_cycles: 0,
            testbench: false,
        }
        .normalize();
        assert_eq!(o.name, "march_c_");
        assert_eq!(o.addr_width, 1);
        assert_eq!(o.data_width, 1024);
        assert_eq!(o.delay_cycles, 1);
    }

    #[test]
    fn canonical_fragment_is_stable_and_normalized() {
        let a = RtlOptions::default().canonical_fragment();
        assert_eq!(a, "rtl=v1;name=march_test;aw=10;dw=8;delay=16;tb=1");
        // Two requests that clamp to the same hardware share a key.
        let b = RtlOptions::default()
            .with_addr_width(0)
            .canonical_fragment();
        let c = RtlOptions::default()
            .with_addr_width(1)
            .canonical_fragment();
        assert_eq!(b, c);
    }

    #[test]
    fn json_round_trip_and_defaults() {
        let opts = RtlOptions::default()
            .with_name("demo")
            .with_addr_width(4)
            .with_testbench(false);
        let back = RtlOptions::from_json(&opts.to_json()).unwrap();
        assert_eq!(back, opts);
        // Empty object → all defaults.
        let empty = RtlOptions::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(empty, RtlOptions::default());
        // Wrong types are decode errors.
        assert!(RtlOptions::from_json(&Json::parse("{\"addr_width\": \"ten\"}").unwrap()).is_err());
        assert!(RtlOptions::from_json(&Json::parse("[1]").unwrap()).is_err());
    }
}
