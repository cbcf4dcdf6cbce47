//! Parser for textual fault lists, e.g. `"SAF, TF, ADF, CFin, CFid"`
//! (the rows of the paper's Table 3) or fully qualified single models
//! like `"CFid<↑,0>"`.

use crate::dir::TransitionDir;
use crate::model::{AdfKind, FaultModel};
use marchgen_model::Bit;
use std::fmt;

/// Error produced when a fault list cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultError {
    /// The offending token.
    pub token: String,
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault token {:?}: {}", self.token, self.message)
    }
}

impl std::error::Error for ParseFaultError {}

/// Parses a comma/plus/whitespace-separated fault list.
///
/// Family names expand to every member:
///
/// * `SAF` → `SA0, SA1`
/// * `TF` → `TF<↑>, TF<↓>`
/// * `ADF` (or `AF`) → `ADF<w>, ADF<r>`
/// * `CFin` → both directions; `CFid` → all four `⟨dir, value⟩`
/// * `CFst` → all four `⟨state, value⟩`
/// * `RDF`/`DRDF`/`IRF`/`DRF` → both polarities
/// * `LCF` → both polarities of the linked idempotent coupling pair
/// * `dRDF`/`dDRDF`/`dIRF` (**case-sensitive** leading `d`) → both
///   polarities of the two-operation dynamic read faults
///
/// Qualified forms use `<...>` with `u`/`d` (or `↑`/`↓`) and `0`/`1`, e.g.
/// `CFid<u,0>`, `TF<d>`, `DRF<1>`. Parsing is case-insensitive.
///
/// # Errors
///
/// Returns [`ParseFaultError`] for the first unrecognized token.
pub fn parse_fault_list(src: &str) -> Result<Vec<FaultModel>, ParseFaultError> {
    let mut out = Vec::new();
    parse_fault_list_into(src, &mut out)?;
    Ok(out)
}

/// [`parse_fault_list`], appending the models to `out`: a caller
/// decoding several lists (the entries of a request's `faults` array)
/// collects them in one `Vec`. Tokens are parsed as they are split off,
/// and names are matched without allocating.
///
/// # Errors
///
/// Returns [`ParseFaultError`] for the first unrecognized token; `out`
/// then holds the models of the tokens before it.
pub fn parse_fault_list_into(src: &str, out: &mut Vec<FaultModel>) -> Result<(), ParseFaultError> {
    // Split on , + ; — but not inside <...>, where commas are arguments.
    // Every delimiter is ASCII, so a byte scan splits on characters.
    let mut depth = 0usize;
    let mut start = 0usize;
    for (pos, b) in src.bytes().enumerate() {
        match b {
            b'<' => depth += 1,
            b'>' => depth = depth.saturating_sub(1),
            b',' | b'+' | b';' if depth == 0 => {
                parse_token(&src[start..pos], out)?;
                start = pos + 1;
            }
            _ => {}
        }
    }
    parse_token(&src[start..], out)
}

fn err(token: &str, message: impl Into<String>) -> ParseFaultError {
    ParseFaultError {
        token: token.to_string(),
        message: message.into(),
    }
}

fn parse_dir(token: &str, s: &str) -> Result<TransitionDir, ParseFaultError> {
    match s.trim() {
        "u" | "U" | "↑" | "up" | "UP" | "Up" => Ok(TransitionDir::Up),
        "d" | "D" | "↓" | "down" | "DOWN" | "Down" => Ok(TransitionDir::Down),
        other => Err(err(
            token,
            format!("expected a direction (u/d/↑/↓), got {other:?}"),
        )),
    }
}

fn parse_bit(token: &str, s: &str) -> Result<Bit, ParseFaultError> {
    match s.trim() {
        "0" => Ok(Bit::Zero),
        "1" => Ok(Bit::One),
        other => Err(err(token, format!("expected a value (0/1), got {other:?}"))),
    }
}

/// Splits `name<args>` into `(name, Some(args))`, or `(token, None)`.
fn split_args(token: &str) -> Result<(&str, Option<&str>), ParseFaultError> {
    match token.find('<') {
        None => Ok((token, None)),
        Some(open) => {
            let Some(stripped) = token[open..]
                .strip_prefix('<')
                .and_then(|s| s.strip_suffix('>'))
            else {
                return Err(err(token, "unbalanced '<...>'"));
            };
            Ok((&token[..open], Some(stripped)))
        }
    }
}

/// A one-value family: both polarities, or the one `args` names.
fn by_bit(
    out: &mut Vec<FaultModel>,
    token: &str,
    args: Option<&str>,
    model: fn(Bit) -> FaultModel,
) -> Result<(), ParseFaultError> {
    match args {
        None => out.extend(Bit::ALL.map(model)),
        Some(a) => out.push(model(parse_bit(token, a)?)),
    }
    Ok(())
}

/// A one-direction family: both directions, or the one `args` names.
fn by_dir(
    out: &mut Vec<FaultModel>,
    token: &str,
    args: Option<&str>,
    model: fn(TransitionDir) -> FaultModel,
) -> Result<(), ParseFaultError> {
    match args {
        None => out.extend(TransitionDir::ALL.map(model)),
        Some(a) => out.push(model(parse_dir(token, a)?)),
    }
    Ok(())
}

/// `name` in ASCII uppercase, written into `buf`. A name longer than
/// `buf`, and so than every model name, comes back empty: it names no
/// model either way.
fn ascii_upper<'b>(name: &str, buf: &'b mut [u8; 4]) -> &'b [u8] {
    let Some(upper) = buf.get_mut(..name.len()) else {
        return &[];
    };
    upper.copy_from_slice(name.as_bytes());
    upper.make_ascii_uppercase();
    upper
}

/// Parses one (untrimmed) token of a list onto `out`; an empty token
/// adds nothing.
fn parse_token(raw: &str, out: &mut Vec<FaultModel>) -> Result<(), ParseFaultError> {
    let token = raw.trim();
    if token.is_empty() {
        return Ok(());
    }
    let (name, args) = split_args(token)?;
    let name = name.trim();
    // The dynamic-fault mnemonics are case-sensitive: the leading
    // lowercase `d` distinguishes dRDF/dIRF from the static DRF-family
    // tokens (`drdf` etc. still reach the case-insensitive match below).
    match name {
        "dRDF" => return by_bit(out, token, args, FaultModel::DynamicReadDestructive),
        "dDRDF" => {
            return by_bit(
                out,
                token,
                args,
                FaultModel::DynamicDeceptiveReadDestructive,
            )
        }
        "dIRF" => return by_bit(out, token, args, FaultModel::DynamicIncorrectRead),
        _ => {}
    }
    let mut buf = [0u8; 4];
    match ascii_upper(name, &mut buf) {
        b"SAF" => by_bit(out, token, args, FaultModel::StuckAt),
        b"SA0" => {
            out.push(FaultModel::StuckAt(Bit::Zero));
            Ok(())
        }
        b"SA1" => {
            out.push(FaultModel::StuckAt(Bit::One));
            Ok(())
        }
        b"TF" => by_dir(out, token, args, FaultModel::Transition),
        b"SOF" => {
            out.push(FaultModel::StuckOpen);
            Ok(())
        }
        b"ADF" | b"AF" => {
            match args {
                None => out.extend([
                    FaultModel::AddressDecoder(AdfKind::Write),
                    FaultModel::AddressDecoder(AdfKind::Read),
                ]),
                Some("w" | "W") => out.push(FaultModel::AddressDecoder(AdfKind::Write)),
                Some("r" | "R") => out.push(FaultModel::AddressDecoder(AdfKind::Read)),
                Some(other) => {
                    return Err(err(token, format!("expected <w> or <r>, got {other:?}")))
                }
            }
            Ok(())
        }
        b"CFIN" => by_dir(out, token, args, FaultModel::CouplingInversion),
        b"CFID" => {
            match args {
                None => {
                    for d in TransitionDir::ALL {
                        out.extend(Bit::ALL.map(|b| FaultModel::CouplingIdempotent(d, b)));
                    }
                }
                Some(a) => {
                    let (d, b) = a
                        .split_once(',')
                        .ok_or_else(|| err(token, "expected <dir,value>, e.g. CFid<u,0>"))?;
                    out.push(FaultModel::CouplingIdempotent(
                        parse_dir(token, d)?,
                        parse_bit(token, b)?,
                    ));
                }
            }
            Ok(())
        }
        b"CFST" => {
            match args {
                None => {
                    for s in Bit::ALL {
                        out.extend(Bit::ALL.map(|f| FaultModel::CouplingState(s, f)));
                    }
                }
                Some(a) => {
                    let (s, f) = a
                        .split_once(',')
                        .ok_or_else(|| err(token, "expected <state,value>, e.g. CFst<1,0>"))?;
                    out.push(FaultModel::CouplingState(
                        parse_bit(token, s)?,
                        parse_bit(token, f)?,
                    ));
                }
            }
            Ok(())
        }
        b"RDF" => by_bit(out, token, args, FaultModel::ReadDestructive),
        b"DRDF" => by_bit(out, token, args, FaultModel::DeceptiveReadDestructive),
        b"IRF" => by_bit(out, token, args, FaultModel::IncorrectRead),
        b"DRF" => by_bit(out, token, args, FaultModel::DataRetention),
        b"LCF" => by_bit(out, token, args, FaultModel::LinkedIdempotent),
        _ => Err(err(
            token,
            format!("unknown fault model {:?}", name.to_ascii_uppercase()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_row5_fault_list() {
        let fl = parse_fault_list("SAF, TF, ADF, CFin, CFid").unwrap();
        // 2 + 2 + 2 + 2 + 4
        assert_eq!(fl.len(), 12);
    }

    #[test]
    fn qualified_tokens() {
        assert_eq!(
            parse_fault_list("CFid<u,0>").unwrap(),
            vec![FaultModel::CouplingIdempotent(TransitionDir::Up, Bit::Zero)]
        );
        assert_eq!(
            parse_fault_list("CFid<↑,1>").unwrap(),
            vec![FaultModel::CouplingIdempotent(TransitionDir::Up, Bit::One)]
        );
        assert_eq!(
            parse_fault_list("TF<d>").unwrap(),
            vec![FaultModel::Transition(TransitionDir::Down)]
        );
        assert_eq!(
            parse_fault_list("SA1").unwrap(),
            vec![FaultModel::StuckAt(Bit::One)]
        );
        assert_eq!(
            parse_fault_list("DRF<0>").unwrap(),
            vec![FaultModel::DataRetention(Bit::Zero)]
        );
        assert_eq!(
            parse_fault_list("ADF<w>").unwrap(),
            vec![FaultModel::AddressDecoder(AdfKind::Write)]
        );
    }

    #[test]
    fn separators_and_case() {
        let a = parse_fault_list("saf+tf").unwrap();
        let b = parse_fault_list("SAF, TF").unwrap();
        assert_eq!(a, b);
        assert_eq!(parse_fault_list("").unwrap(), Vec::new());
    }

    #[test]
    fn display_roundtrip() {
        // Property: every variant's printed form re-parses to exactly
        // itself — including the linked and dynamic extensions.
        for model in FaultModel::all_extended() {
            let parsed = parse_fault_list(&model.to_string()).unwrap();
            assert_eq!(parsed, vec![model], "roundtrip of {model}");
        }
    }

    #[test]
    fn dynamic_tokens_are_case_sensitive() {
        assert_eq!(
            parse_fault_list("dRDF<0>").unwrap(),
            vec![FaultModel::DynamicReadDestructive(Bit::Zero)]
        );
        assert_eq!(
            parse_fault_list("dRDF").unwrap(),
            vec![
                FaultModel::DynamicReadDestructive(Bit::Zero),
                FaultModel::DynamicReadDestructive(Bit::One),
            ]
        );
        assert_eq!(
            parse_fault_list("dDRDF<1>").unwrap(),
            vec![FaultModel::DynamicDeceptiveReadDestructive(Bit::One)]
        );
        assert_eq!(
            parse_fault_list("dIRF").unwrap().len(),
            2,
            "family token expands both polarities"
        );
        // A lowercased `drdf` is still the static deceptive read fault.
        assert_eq!(
            parse_fault_list("drdf").unwrap(),
            Bit::ALL.map(FaultModel::DeceptiveReadDestructive).to_vec()
        );
    }

    #[test]
    fn linked_tokens() {
        assert_eq!(
            parse_fault_list("LCF").unwrap(),
            Bit::ALL.map(FaultModel::LinkedIdempotent).to_vec()
        );
        assert_eq!(
            parse_fault_list("lcf<1>").unwrap(),
            vec![FaultModel::LinkedIdempotent(Bit::One)]
        );
        assert!(parse_fault_list("LCF<x>").is_err());
    }

    #[test]
    fn errors_carry_token() {
        let e = parse_fault_list("SAF, BOGUS").unwrap_err();
        assert_eq!(e.token, "BOGUS");
        assert!(e.to_string().contains("BOGUS"));
        assert!(parse_fault_list("CFid<u").is_err());
        assert!(parse_fault_list("CFid<x,0>").is_err());
        assert!(parse_fault_list("TF<2>").is_err());
        assert!(parse_fault_list("CFid<u0>").is_err());
    }
}
