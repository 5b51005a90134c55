//! Server configuration: the `LIP_SERVE_*` knobs, parsed strictly.
//!
//! Same convention as [`lip_runtime::SessionConfig`]: the environment
//! is read in exactly one place ([`ServeConfig::from_env`]), every
//! variable goes through the testable [`ServeConfig::apply`] seam, and
//! a typo is a [`ConfigError`] — never a silent default.

use lip_runtime::{ConfigError, SessionConfig};

use crate::protocol::ErrCode;

/// The environment variables [`ServeConfig::from_env`] honors.
pub const SERVE_ENV_VARS: [&str; 4] = [
    "LIP_SERVE_ADDR",
    "LIP_SERVE_POOL",
    "LIP_SERVE_QUEUE",
    "LIP_SERVE_BUDGET",
];

/// Everything a [`crate::Server`] is configured by.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Listen address (`LIP_SERVE_ADDR`); port 0 binds an ephemeral
    /// port, read back via [`crate::Server::addr`].
    pub addr: std::net::SocketAddr,
    /// Pool worker count (`LIP_SERVE_POOL`, ≥ 1). Shards are pinned to
    /// workers by config fingerprint; parallelism *within* a request
    /// comes from each session's own fork-join pool.
    pub pool: usize,
    /// Bound on queued-but-not-yet-running requests across the server
    /// (`LIP_SERVE_QUEUE`, ≥ 1); excess traffic gets `overloaded`.
    pub queue: usize,
    /// Admission budget: the work-unit estimates of queued + running
    /// requests may not exceed this (`LIP_SERVE_BUDGET`, ≥ 1).
    pub budget: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            pool: 4,
            queue: 64,
            budget: 10_000_000_000,
        }
    }
}

impl ServeConfig {
    /// Reads the `LIP_SERVE_*` environment variables. Unset variables
    /// keep their defaults; set-but-invalid values are errors.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on the first variable whose value does
    /// not parse strictly.
    pub fn from_env() -> Result<ServeConfig, ConfigError> {
        let mut cfg = ServeConfig::default();
        for var in SERVE_ENV_VARS {
            if let Ok(value) = std::env::var(var) {
                cfg.apply(var, &value)?;
            }
        }
        Ok(cfg)
    }

    /// Applies one `variable = value` pair under the same strict rules
    /// as [`ServeConfig::from_env`] (the unit-testable seam).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an unknown variable or a value that
    /// does not parse.
    pub fn apply(&mut self, var: &str, value: &str) -> Result<(), ConfigError> {
        let err = |reason: String| ConfigError {
            var: var.to_owned(),
            reason,
        };
        match var {
            "LIP_SERVE_ADDR" => {
                self.addr = value.parse().map_err(|_| {
                    err(format!(
                        "not a socket address: `{value}` (expected e.g. `127.0.0.1:7070`)"
                    ))
                })?;
            }
            "LIP_SERVE_POOL" => self.pool = parse_at_least_one(value).map_err(err)?,
            "LIP_SERVE_QUEUE" => self.queue = parse_at_least_one(value).map_err(err)?,
            "LIP_SERVE_BUDGET" => {
                self.budget = match value.parse::<u64>() {
                    Ok(v) if v >= 1 => v,
                    Ok(v) => return Err(err(format!("budget must be at least 1 unit, got {v}"))),
                    Err(_) => return Err(err(format!("not an integer: `{value}`"))),
                };
            }
            other => {
                return Err(ConfigError {
                    var: other.to_owned(),
                    reason: format!(
                        "unknown configuration variable (expected one of {SERVE_ENV_VARS:?})"
                    ),
                })
            }
        }
        Ok(())
    }
}

fn parse_at_least_one(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(v) if v >= 1 => Ok(v),
        Ok(v) => Err(format!("must be at least 1, got {v}")),
        Err(_) => Err(format!("not an integer: `{value}`")),
    }
}

/// Builds a [`SessionConfig`] from a request's raw `config` pairs.
/// Every pair routes through the strict parsers: [`SessionConfig::apply`]
/// (wire key `fission` → `LIP_FISSION`, and so on) plus the
/// builder-only numeric field `nthreads`.
///
/// # Errors
///
/// `(ErrCode::ConfigError, detail)` on the first unknown key or
/// unparseable value.
pub fn session_config_from_pairs(
    pairs: &[(String, String)],
) -> Result<SessionConfig, (ErrCode, String)> {
    let mut cfg = SessionConfig::default();
    for (key, value) in pairs {
        let var = match key.as_str() {
            // Retired keys `bench_e2e` still sends (`lip_runtime::session::compat`).
            "backend" if value == "bytecode" => continue,
            "opt" if value == "fuse" => continue,
            "pred" if value == "compiled" => continue,
            "par_min" => "LIP_PRED_PAR_MIN",
            "fission" => "LIP_FISSION",
            "obs" => "LIP_OBS",
            "nthreads" => {
                cfg.nthreads = parse_at_least_one(value)
                    .map_err(|e| (ErrCode::ConfigError, format!("nthreads: {e}")))?;
                continue;
            }
            other => {
                return Err((
                    ErrCode::ConfigError,
                    format!(
                        "unknown config `{other}: {value}` (expected par_min, fission, obs \
                         or nthreads)"
                    ),
                ))
            }
        };
        cfg.apply(var, value)
            .map_err(|e| (ErrCode::ConfigError, e.to_string()))?;
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One strict-parsing unit test per environment variable, matching
    // the `SessionConfig` convention: valid values land, typos are
    // `ConfigError`s carrying the variable and value, and a failed
    // apply never clobbers the config.

    #[test]
    fn lip_serve_addr_parses_strictly() {
        let mut cfg = ServeConfig::default();
        cfg.apply("LIP_SERVE_ADDR", "0.0.0.0:7070").expect("valid");
        assert_eq!(cfg.addr, "0.0.0.0:7070".parse().unwrap());
        cfg.apply("LIP_SERVE_ADDR", "[::1]:9000").expect("valid");
        for bad in ["localhost", "127.0.0.1", "127.0.0.1:notaport", ""] {
            let err = cfg.apply("LIP_SERVE_ADDR", bad).unwrap_err();
            assert_eq!(err.var, "LIP_SERVE_ADDR", "{bad}");
            assert!(err.reason.contains(bad), "{err}");
        }
        assert_eq!(cfg.addr, "[::1]:9000".parse().unwrap());
    }

    #[test]
    fn lip_serve_pool_parses_strictly() {
        let mut cfg = ServeConfig::default();
        cfg.apply("LIP_SERVE_POOL", "8").expect("valid");
        assert_eq!(cfg.pool, 8);
        cfg.apply("LIP_SERVE_POOL", "1").expect("valid");
        assert_eq!(cfg.pool, 1);
        for bad in ["0", "-2", "two", "1.5", ""] {
            let err = cfg.apply("LIP_SERVE_POOL", bad).unwrap_err();
            assert_eq!(err.var, "LIP_SERVE_POOL", "{bad}");
        }
        assert_eq!(cfg.pool, 1);
    }

    #[test]
    fn lip_serve_queue_parses_strictly() {
        let mut cfg = ServeConfig::default();
        cfg.apply("LIP_SERVE_QUEUE", "256").expect("valid");
        assert_eq!(cfg.queue, 256);
        for bad in ["0", "-1", "deep", ""] {
            let err = cfg.apply("LIP_SERVE_QUEUE", bad).unwrap_err();
            assert_eq!(err.var, "LIP_SERVE_QUEUE", "{bad}");
        }
        assert_eq!(cfg.queue, 256);
    }

    #[test]
    fn lip_serve_budget_parses_strictly() {
        let mut cfg = ServeConfig::default();
        cfg.apply("LIP_SERVE_BUDGET", "5000000").expect("valid");
        assert_eq!(cfg.budget, 5_000_000);
        for bad in ["0", "-9", "lots", "1e6", ""] {
            let err = cfg.apply("LIP_SERVE_BUDGET", bad).unwrap_err();
            assert_eq!(err.var, "LIP_SERVE_BUDGET", "{bad}");
        }
        assert_eq!(cfg.budget, 5_000_000);
    }

    #[test]
    fn unknown_serve_variables_are_rejected() {
        let mut cfg = ServeConfig::default();
        let err = cfg.apply("LIP_SERVE_TYPO", "x").unwrap_err();
        assert!(err.reason.contains("unknown configuration variable"));
        assert_eq!(cfg, ServeConfig::default());
    }

    #[test]
    fn wire_config_pairs_reuse_the_strict_session_parsers() {
        let cfg = session_config_from_pairs(&[
            ("backend".into(), "bytecode".into()),
            ("opt".into(), "fuse".into()),
            ("pred".into(), "compiled".into()),
            ("par_min".into(), "64".into()),
            ("fission".into(), "off".into()),
            ("obs".into(), "metrics".into()),
            ("nthreads".into(), "2".into()),
        ])
        .expect("valid");
        assert_eq!(cfg.par_min, 64);
        assert!(!cfg.fission);
        assert_eq!(cfg.nthreads, 2);

        // Typos and retired values: config_error naming the value.
        for (key, value) in [
            ("fission", "maybe"),
            ("backend", "treewalk"),
            ("opt", "none"),
            ("pred", "tree"),
            ("bakend", "vm"),
            ("spawn_cost", "777"),
            ("nthreads", "0"),
        ] {
            let (code, detail) =
                session_config_from_pairs(&[(key.into(), value.into())]).unwrap_err();
            assert_eq!(code, ErrCode::ConfigError, "{key}={value}");
            assert!(detail.contains(value), "{detail}");
        }
    }
}
