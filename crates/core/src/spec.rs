//! The run spec: one typed description of a figure sweep — which figure,
//! and the knobs (file size `F`, context size `C`, seed, workload size) a
//! user may turn on its grid. The `rr` sweep, trace and diverge subcommands
//! parse their flags into a [`RunSpec`] and `POST /jobs` deserializes its
//! body into one, so both reach a [`SweepGrid`] through [`RunSpec::to_grid`].

use std::fmt;

use serde::Serialize;

use crate::cli::Args;
use crate::sweep::SweepGrid;

/// The workload seed every figure uses unless told otherwise: the paper's
/// year.
pub const DEFAULT_SEED: u64 = 1993;

/// The environment variable that replaces [`DEFAULT_SEED`] as the default
/// seed of command-line runs (the HTTP API ignores it).
pub const SEED_ENV: &str = "RR_SEED";

/// The command-line default seed from `RR_SEED`, when it is set to a
/// number. The only reader of that variable.
pub fn env_seed() -> Option<u64> {
    std::env::var(SEED_ENV).ok().and_then(|s| s.parse().ok())
}

/// One figure sweep: which figure, and the knobs that shape its grid.
///
/// Every field but `kind` is optional; an absent field takes the figure's
/// default, so the same knobs give the same grid (and therefore the same
/// fingerprint and the same stored points) from the CLI and from HTTP.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RunSpec {
    /// Figure family: `"fig5"`, `"fig6"`, or `"homogeneous"`.
    pub kind: String,
    /// Register file size `F` — one panel. Absent: the full figure grid
    /// (`fig5`/`fig6`) or `128` (`homogeneous`).
    pub file: Option<u32>,
    /// Homogeneous context size `C` (default 8; ignored by `fig5`/`fig6`).
    pub context: Option<u32>,
    /// Workload seed (default [`DEFAULT_SEED`]).
    pub seed: Option<u64>,
    /// Threads per workload (default: the figures' 64).
    pub threads: Option<u64>,
    /// Useful cycles per thread (default: the figures' 20000).
    pub work: Option<u64>,
}

/// The field names of a [`RunSpec`], in declaration order.
const FIELDS: [&str; 6] = ["kind", "file", "context", "seed", "threads", "work"];

/// Why a [`RunSpec`] names no runnable grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// `kind` is not one of the figure families.
    UnknownKind(String),
    /// `threads` is zero.
    ZeroThreads,
    /// `work` is zero.
    ZeroWork,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownKind(kind) => {
                write!(f, "unknown kind `{kind}`; expected fig5, fig6, or homogeneous")
            }
            SpecError::ZeroThreads => write!(f, "threads must be >= 1"),
            SpecError::ZeroWork => write!(f, "work must be >= 1"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<SpecError> for String {
    fn from(e: SpecError) -> String {
        e.to_string()
    }
}

impl RunSpec {
    /// Reads the grid flags (`--file`, `--context`, `--seed`, `--threads`,
    /// `--work`) a subcommand was given. Flags its table lacks stay unset.
    ///
    /// # Errors
    ///
    /// A flag value that does not parse, as `bad {name} `{value}``.
    pub fn from_args(kind: &str, args: &Args) -> Result<RunSpec, String> {
        Ok(RunSpec {
            kind: kind.to_string(),
            file: args.get("--file")?,
            context: args.get("--context")?,
            seed: args.get("--seed")?,
            threads: args.get("--threads")?,
            work: args.get("--work")?,
        })
    }

    /// The seed this spec runs with.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// The figure's title, as the panel headings print it.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownKind`].
    pub fn title(&self) -> Result<&'static str, SpecError> {
        match self.kind.as_str() {
            "fig5" => Ok("Figure 5 (cache faults)"),
            "fig6" => Ok("Figure 6 (synchronization faults)"),
            "homogeneous" => Ok("Section 3.4 (homogeneous contexts)"),
            other => Err(SpecError::UnknownKind(other.to_string())),
        }
    }

    /// Expands the spec into the grid it names, defaults applied.
    ///
    /// # Errors
    ///
    /// Rejects unknown kinds and zero `threads` or `work`.
    pub fn to_grid(&self) -> Result<SweepGrid, SpecError> {
        let seed = self.seed();
        let mut grid = match (self.kind.as_str(), self.file) {
            ("fig5", Some(f)) => SweepGrid::figure5_panel(f, seed),
            ("fig5", None) => SweepGrid::figure5(seed),
            ("fig6", Some(f)) => SweepGrid::figure6_panel(f, seed),
            ("fig6", None) => SweepGrid::figure6(seed),
            ("homogeneous", f) => {
                SweepGrid::homogeneous(f.unwrap_or(128), self.context.unwrap_or(8), seed)
            }
            (other, _) => return Err(SpecError::UnknownKind(other.to_string())),
        };
        if let Some(threads) = self.threads {
            if threads == 0 {
                return Err(SpecError::ZeroThreads);
            }
            grid.base.threads = usize::try_from(threads).unwrap_or(usize::MAX);
        }
        if let Some(work) = self.work {
            if work == 0 {
                return Err(SpecError::ZeroWork);
            }
            grid.base.work_per_thread = work;
        }
        Ok(grid)
    }

    /// A human-readable job label for listings and logs.
    pub fn label(&self) -> String {
        let knobs = [
            ("F", self.file.map(u64::from)),
            ("C", self.context.map(u64::from)),
            ("seed", Some(self.seed())),
            ("threads", self.threads),
            ("work", self.work),
        ];
        let knobs: String =
            knobs.iter().filter_map(|(name, v)| v.map(|v| format!(" {name}={v}"))).collect();
        format!("{}{knobs}", self.kind)
    }
}

// Hand-written: the vendored serde derive requires every named field to be
// present, but optional fields may simply be absent from a client's JSON —
// and a field the spec does not have is an error, not something to skip.
impl serde::Deserialize for RunSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(pairs) = v else {
            return Err(serde::Error::expected("run spec object", v));
        };
        if let Some((name, _)) = pairs.iter().find(|(k, _)| !FIELDS.contains(&k.as_str())) {
            return Err(serde::Error(format!(
                "unknown field `{name}`; expected one of {}",
                FIELDS.join(", ")
            )));
        }
        // An absent field is unset, like an explicit `null`.
        fn optional<T: serde::Deserialize>(
            v: &serde::Value,
            name: &str,
        ) -> Result<Option<T>, serde::Error> {
            v.get(name).map_or(Ok(None), |_| serde::field(v, "RunSpec", name))
        }
        Ok(RunSpec {
            kind: serde::field(v, "RunSpec", "kind")?,
            file: optional(v, "file")?,
            context: optional(v, "context")?,
            seed: optional(v, "seed")?,
            threads: optional(v, "threads")?,
            work: optional(v, "work")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands;
    use proptest::prelude::*;

    /// A valid spec. `context` is set only for `homogeneous`, the one
    /// sweep subcommand whose flag table has `--context`.
    fn valid() -> impl Strategy<Value = RunSpec> {
        fn knob<S: Strategy + 'static>(values: S) -> impl Strategy<Value = Option<S::Value>>
        where
            S::Value: Clone + fmt::Debug,
        {
            prop_oneof![Just(None), values.prop_map(Some)]
        }
        (
            prop_oneof![Just("fig5"), Just("fig6"), Just("homogeneous")],
            knob(prop_oneof![Just(64u32), Just(128), Just(256), any::<u32>()]),
            knob(1u32..64),
            knob(any::<u64>()),
            knob(1u64..128),
            knob(1u64..100_000),
        )
            .prop_map(|(kind, file, context, seed, threads, work)| RunSpec {
                kind: kind.to_string(),
                file,
                context: if kind == "homogeneous" { context } else { None },
                seed,
                threads,
                work,
            })
    }

    /// The `rr <kind>` command line that states exactly the spec's knobs.
    fn command_line(spec: &RunSpec) -> Vec<String> {
        let knobs = [
            ("--file", spec.file.map(u64::from)),
            ("--context", spec.context.map(u64::from)),
            ("--seed", spec.seed),
            ("--threads", spec.threads),
            ("--work", spec.work),
        ];
        knobs
            .into_iter()
            .filter_map(|(flag, v)| v.map(|v| [flag.to_string(), v.to_string()]))
            .flatten()
            .collect()
    }

    fn parse(body: &str) -> Result<RunSpec, serde::Error> {
        serde_json::from_str(body)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes parse to a spec or an error, never a panic, and
        /// a parsed spec expands to a grid or a typed error.
        #[test]
        fn arbitrary_bodies_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
            if let Ok(spec) = parse(&String::from_utf8_lossy(&bytes)) {
                let _ = spec.to_grid();
            }
        }

        /// Every truncation of a valid body, and byte flips anywhere in it,
        /// parse or fail cleanly.
        #[test]
        fn truncated_and_flipped_bodies_never_panic(
            spec in valid(),
            flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..4),
        ) {
            let body = serde_json::to_string(&spec).unwrap();
            for cut in 0..body.len() {
                prop_assert!(parse(&body[..cut]).is_err(), "a cut body is incomplete JSON");
            }
            let mut bytes = body.into_bytes();
            for (at, mask) in flips {
                let i = at % bytes.len();
                bytes[i] ^= mask;
            }
            if let Ok(spec) = parse(&String::from_utf8_lossy(&bytes)) {
                let _ = spec.to_grid();
            }
        }

        /// A valid spec serializes and parses back equal, and expands.
        #[test]
        fn valid_specs_round_trip(spec in valid()) {
            let body = serde_json::to_string(&spec).unwrap();
            prop_assert_eq!(parse(&body).unwrap(), spec.clone());
            prop_assert!(spec.to_grid().is_ok());
        }

        /// `rr <kind> --file … --seed …` and the `POST /jobs` body with the
        /// same knobs parse to the same spec, so they run the same grid.
        #[test]
        fn cli_flags_and_json_give_the_same_spec(spec in valid()) {
            let command = commands::command(&spec.kind).unwrap();
            let args = crate::cli::parse(command, &command_line(&spec)).unwrap().unwrap();
            let from_cli = RunSpec::from_args(&spec.kind, &args).unwrap();
            let from_json = parse(&serde_json::to_string(&spec).unwrap()).unwrap();
            prop_assert_eq!(&from_cli, &spec);
            prop_assert_eq!(&from_json, &spec);
        }
    }

    #[test]
    fn defaults_and_validation() {
        let spec = |kind: &str| RunSpec { kind: kind.to_string(), ..RunSpec::default() };
        assert_eq!(spec("fig5").to_grid(), Ok(SweepGrid::figure5(DEFAULT_SEED)));
        let homogeneous = spec("homogeneous").to_grid();
        assert_eq!(homogeneous, Ok(SweepGrid::homogeneous(128, 8, DEFAULT_SEED)));
        assert_eq!(spec("fig7").to_grid(), Err(SpecError::UnknownKind("fig7".into())));
        let zero = |threads, work| RunSpec { threads, work, ..spec("fig6") }.to_grid();
        assert_eq!(zero(Some(0), None), Err(SpecError::ZeroThreads));
        assert_eq!(zero(None, Some(0)), Err(SpecError::ZeroWork));
        let typo = parse(r#"{"kind": "fig5", "fiel": 64}"#).unwrap_err().to_string();
        assert!(typo.contains("unknown field `fiel`"), "{typo}");
    }
}
