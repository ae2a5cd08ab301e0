//! The one command line of every harness binary and of `sweep_server`.
//!
//! [`FLAGS`] is the single flag table: name, value hint and help text per
//! flag, each in one [`Group`]. A binary names the groups it accepts and
//! calls [`Cli::parse`] once, first thing in `main`. The usage line, the
//! `--help` text and the book's "Flags every binary accepts" table are all
//! printed from the same table. An unknown argument, `--help`, a repeated
//! flag, a value-taking flag without its value, or an unparsable `--scale`
//! or `--jobs` prints the usage and exits with status 2 before any work.
//!
//! The parsed command line also owns the process's [`SweepSession`]:
//! `--metrics-out` enables its telemetry, `--spans-out` its span
//! collector, and `--resume` / `--no-result-cache` pick its result-store
//! policy. [`Cli::sweep`] is the one sweep entry of every binary: it runs
//! a [`SweepSpec`] through the session, reports the run, and writes the
//! `--metrics-out` and `--spans-out` files.

use crate::engine::ResultCache;
use crate::experiments::phase_report;
use crate::runner::{PrefetcherKind, SystemConfig};
use crate::service::{parse_scale, SweepOutcome, SweepSession, SweepSpec};
use cbws_telemetry::{detail, status, warn, Spans, Telemetry};
use cbws_workloads::{Scale, WorkloadSpec};
use std::fs::File;
use std::io::BufWriter;
use std::str::FromStr;

/// Which binaries accept a flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// `simulate`'s input, configuration and export flags.
    Simulate,
    /// `trace_info`'s positional workload and its listing flag.
    TraceInfo,
    /// `sweep_server`'s listener, admission and result-store flags.
    Server,
    /// Every harness binary: the sweep settings and the artifact outputs.
    Sweep,
    /// Every binary, `sweep_server` included: console verbosity.
    Log,
}

/// The groups every harness binary accepts: the book's "Flags every binary
/// accepts" table.
pub const COMMON: &[Group] = &[Group::Sweep, Group::Log];

/// One row of the flag table.
#[derive(Debug)]
pub struct Flag {
    /// `--name`, or `<name>` for a positional argument.
    pub name: &'static str,
    /// The value hint of a value-taking flag; `None` for a switch.
    pub value: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
    /// The binaries that accept it.
    pub group: Group,
}

const fn flag(
    group: Group,
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        value,
        help,
        group,
    }
}

/// Every flag of every binary, in usage order.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    flag(Group::Simulate, "--workload", Some("NAME"),
        "registered workload to run (default `stencil-default`; `trace_info --list` names them all)"),
    flag(Group::Simulate, "--trace", Some("FILE.json"),
        "run an exported JSON trace instead of a registered workload"),
    flag(Group::Simulate, "--prefetcher", Some("NAME"),
        "run one configuration, e.g. `CBWS+SMS` (default: the paper's seven)"),
    flag(Group::Simulate, "--dram", None,
        "use the banked-DRAM memory model instead of the flat memory latency"),
    flag(Group::Simulate, "--export", Some("FILE.json"), "write the trace to FILE.json"),
    flag(Group::TraceInfo, "<workload>", None, "the workload to profile"),
    flag(Group::TraceInfo, "--list", None, "list the registered workloads"),
    flag(Group::Server, "--addr", Some("HOST:PORT"),
        "address to bind (default `127.0.0.1:0`, an ephemeral port)"),
    flag(Group::Server, "--queue", Some("N"),
        "requests admitted at once; more are answered 429 (default 8)"),
    flag(Group::Server, "--jobs", Some("N"),
        "engine worker threads per sweep; `0` or absent = all cores"),
    flag(Group::Server, "--timeout-s", Some("SECS"),
        "default per-request timeout (default 600)"),
    flag(Group::Server, "--quota-bytes", Some("N"),
        "per-client result-store write quota (default: none)"),
    flag(Group::Server, "--no-result-cache", None,
        "serve every request without the persistent result store"),
    flag(Group::Sweep, "--scale", Some("tiny|small|full|huge"),
        "trace length per workload (default `full`; `huge` is 12× full and streams from the \
         trace store; each artifact's manifest records its scale)"),
    flag(Group::Sweep, "--jobs", Some("N"),
        "worker threads for the work-stealing sweep engine; `0` or absent = all cores"),
    flag(Group::Sweep, "--resume", None,
        "report how many jobs an interrupted sweep left behind; only those are simulated \
         (the rest come from the result store)"),
    flag(Group::Sweep, "--no-result-cache", None,
        "turn the persistent result store off for this run (every job simulates)"),
    flag(Group::Sweep, "--metrics-out", Some("F"),
        "write the metrics registry to F as JSON (engine and store counters; `simulate` adds \
         the simulator's)"),
    flag(Group::Sweep, "--spans-out", Some("F"),
        "write the span timeline to F as Chrome trace-event JSON (open it in Perfetto)"),
    flag(Group::Log, "--quiet", None,
        "suppress console tables (CSVs, SVGs, and manifests are still written)"),
    flag(Group::Log, "--progress", None, "verbose per-phase and heartbeat logging"),
    flag(Group::Log, "--verbose", None, "the same as `--progress`"),
];

impl Flag {
    /// The flag as the usage line shows it: name, then value hint.
    pub fn synopsis(&self) -> String {
        match self.value {
            Some(v) => format!("{} {v}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// The rows of [`FLAGS`] a binary accepting `groups` accepts.
pub fn flags_of(groups: &[Group]) -> impl Iterator<Item = &'static Flag> + '_ {
    FLAGS.iter().filter(move |f| groups.contains(&f.group))
}

/// The usage text of binary `bin`: one usage line, then one help line per
/// flag.
fn usage(bin: &str, groups: &[Group]) -> String {
    let mut line = format!("usage: {bin}");
    let mut help = String::new();
    for f in flags_of(groups) {
        let shown = f.synopsis();
        line.push_str(&format!(" [{shown}]"));
        help.push_str(&format!("\n  {shown:<30} {}", f.help));
    }
    line + &help
}

/// A parsed command line and the sweep session it asks for.
#[derive(Debug)]
pub struct Cli {
    bin: &'static str,
    groups: &'static [Group],
    /// The arguments given, by table name, with their values.
    given: Vec<(&'static str, Option<String>)>,
    /// `--scale` (default full).
    pub scale: Scale,
    /// `--jobs` (default `0`: all cores).
    pub jobs: usize,
    session: SweepSession,
}

impl Cli {
    /// Parses the process arguments for binary `bin`, which accepts the
    /// flags of `groups`, sets the console verbosity and routes the shared
    /// trace store's metrics and spans to the session. On any error, prints
    /// it with the usage and exits with status 2.
    pub fn parse(bin: &'static str, groups: &'static [Group]) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let cli = Cli::parse_from(bin, groups, &args).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{}", usage(bin, groups));
            std::process::exit(2)
        });
        cbws_telemetry::log::apply_cli_flags(&args);
        // Trace-store reads outside a sweep (Figs. 1, 3 and 5, `trace_info`,
        // `simulate`'s serial runs) report to the session's sinks too.
        let store = cbws_workloads::trace_store::shared();
        store.set_telemetry(cli.session.telemetry.clone());
        store.set_spans(cli.session.spans.clone());
        cli
    }

    /// Parses `args` (without the program name) for binary `bin`.
    pub fn parse_from<S: AsRef<str>>(
        bin: &'static str,
        groups: &'static [Group],
        args: &[S],
    ) -> Result<Cli, String> {
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut rest = args.iter().map(AsRef::as_ref);
        while let Some(arg) = rest.next() {
            if arg == "--help" || arg == "-h" {
                return Err("help requested".into());
            }
            let flag = if arg.starts_with('-') {
                flags_of(groups).find(|f| f.name == arg)
            } else {
                flags_of(groups).find(|f| f.name.starts_with('<'))
            }
            .ok_or_else(|| format!("unknown argument `{arg}`"))?;
            if given.iter().any(|(name, _)| *name == flag.name) {
                return Err(match flag.value {
                    None if !arg.starts_with('-') => format!("unexpected argument `{arg}`"),
                    _ => format!("{} given twice", flag.name),
                });
            }
            let value = match flag.value {
                Some(_) => match rest.next() {
                    Some(v) if !v.starts_with("--") => Some(v.to_string()),
                    _ => return Err(format!("{} needs a value", flag.name)),
                },
                None if !arg.starts_with('-') => Some(arg.to_string()),
                None => None,
            };
            given.push((flag.name, value));
        }
        let mut cli = Cli {
            bin,
            groups,
            given,
            scale: Scale::Full,
            jobs: 0,
            session: SweepSession::default(),
        };
        if let Some(v) = cli.value("--scale") {
            cli.scale = parse_scale(v)?;
        }
        if let Some(v) = cli.value("--jobs") {
            cli.jobs = v
                .parse()
                .map_err(|_| format!("--jobs takes a worker count, not `{v}`"))?;
        }
        if cli.has("--metrics-out") {
            cli.session.telemetry = Telemetry::enabled_default();
        }
        if cli.has("--spans-out") {
            cli.session.spans = Spans::enabled();
        }
        // The result store is on unless `--no-result-cache` turns it off.
        if !cli.has("--no-result-cache") {
            cli.session.result_cache = ResultCache::Shared;
        } else if cli.has("--resume") {
            warn!("--resume has no effect with --no-result-cache; the result store stays off");
        }
        Ok(cli)
    }

    /// True when the switch or flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value given to flag `name` (or to the positional `<name>`).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of flag `name` parsed as a `T`; an unparsable value fails
    /// like any other usage error.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.fail(&format!("bad {name} `{v}`")))
        })
    }

    /// Prints `msg` and the usage, and exits with status 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}\n{}", usage(self.bin, self.groups));
        std::process::exit(2)
    }

    /// The session every sweep of this process runs under.
    pub fn session(&self) -> &SweepSession {
        &self.session
    }

    /// A spec for `workloads × kinds` at this command line's scale and
    /// worker count, under the default system configuration.
    pub fn spec(
        &self,
        workloads: Vec<&'static WorkloadSpec>,
        kinds: impl IntoIterator<Item = PrefetcherKind>,
    ) -> SweepSpec {
        SweepSpec {
            workloads,
            kinds: kinds.into_iter().collect(),
            scale: self.scale,
            jobs: self.jobs,
            system: SystemConfig::default(),
            stream_threshold_bytes: None,
        }
    }

    /// Runs `spec` through the session, attributed to this binary; reports
    /// the run's rate, result-store hits (the resumption split under
    /// `--resume`) and phase timings; then writes the output files.
    pub fn sweep(&self, spec: &SweepSpec) -> SweepOutcome {
        let outcome = self.session.run(self.bin, spec, None);
        let run = &outcome.run;
        status!(
            "[engine] {} jobs at {} scale on {} workers in {:.2} s ({:.1} jobs/s, {:.0}% utilization)",
            run.job_count,
            spec.scale,
            run.workers,
            run.wall_seconds,
            run.jobs_per_sec(),
            run.utilization * 100.0
        );
        if !matches!(self.session.result_cache, ResultCache::Off) {
            let (hits, misses) = (run.store_hits(), run.store_misses());
            if self.has("--resume") {
                status!(
                    "[engine] resume: {hits} of {} jobs already in the result store, \
                     {misses} simulated",
                    run.job_count
                );
            } else {
                status!("[engine] result store: {hits} hits, {misses} misses");
            }
        }
        detail!("[engine] phase timings:\n{}", phase_report(&run.phases()));
        self.write_outputs();
        outcome
    }

    /// Writes the session's metrics to the `--metrics-out` file and its
    /// spans to the `--spans-out` file (each only when given). Best-effort,
    /// like the CSVs; each call rewrites the files with everything so far.
    pub fn write_outputs(&self) {
        type Writer<'a> = &'a dyn Fn(BufWriter<File>) -> std::io::Result<()>;
        let outputs: [(&str, Writer); 2] = [
            ("--metrics-out", &|w| {
                self.session.telemetry.write_metrics_json(w)
            }),
            ("--spans-out", &|w| self.session.spans.write_chrome_trace(w)),
        ];
        for (flag, write) in outputs {
            let Some(path) = self.value(flag) else {
                continue;
            };
            match File::create(path).and_then(|f| write(BufWriter::new(f))) {
                Ok(()) => status!("[{}] wrote {path}", self.bin),
                Err(e) => warn!("cannot write {path}: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbws_workloads::by_name;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse_from("test", COMMON, args)
    }

    #[test]
    fn result_cache_mode_parses_flags() {
        let cache = |args: &[&str]| parse(args).unwrap().session().result_cache.clone();
        assert!(matches!(cache(&[]), ResultCache::Shared));
        assert!(matches!(
            cache(&["--scale", "tiny", "--resume"]),
            ResultCache::Shared
        ));
        assert!(matches!(cache(&["--no-result-cache"]), ResultCache::Off));
        // Conflicting flags: no-cache wins (a warning is emitted).
        assert!(matches!(
            cache(&["--resume", "--no-result-cache"]),
            ResultCache::Off
        ));
    }

    #[test]
    fn common_flags_parse_once_into_typed_fields() {
        let cli = parse(&["--scale", "tiny", "--jobs", "3", "--metrics-out", "m.json"]).unwrap();
        assert_eq!(cli.scale, Scale::Tiny);
        assert_eq!(cli.jobs, 3);
        assert_eq!(cli.value("--metrics-out"), Some("m.json"));
        assert!(cli.session().telemetry.is_enabled());
        assert!(!cli.session().spans.is_enabled());
        let defaults = parse(&["--quiet"]).unwrap();
        assert_eq!((defaults.scale, defaults.jobs), (Scale::Full, 0));
        assert!(defaults.has("--quiet") && !defaults.has("--progress"));
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for args in [
            &["--bogus-flag"][..],
            &["--help"],
            &["-h"],
            &["--scale", "bogus"],
            &["--scale", "smal"],
            &["--jobs", "x"],
            &["--jobs", "-1"],
            &["--scale"],
            &["--metrics-out", "--quiet"],
            &["--scale", "tiny", "--scale", "full"],
            &["stray"],
            // Another binary's flags.
            &["--workload", "nw"],
            &["--addr", "127.0.0.1:0"],
        ] {
            assert!(parse(args).is_err(), "{args:?} parsed");
        }
    }

    #[test]
    fn own_groups_and_positionals() {
        const TRACE_INFO: &[Group] = &[Group::TraceInfo, Group::Sweep, Group::Log];
        let cli = Cli::parse_from("trace_info", TRACE_INFO, &["nw", "--scale", "tiny"]).unwrap();
        assert_eq!(cli.value("<workload>"), Some("nw"));
        assert!(Cli::parse_from("trace_info", TRACE_INFO, &["nw", "mxm"]).is_err());
        assert!(Cli::parse_from("trace_info", TRACE_INFO, &["--list"]).is_ok());

        const SERVER: &[Group] = &[Group::Server, Group::Log];
        let cli = Cli::parse_from(
            "sweep_server",
            SERVER,
            &["--addr", "127.0.0.1:0", "--jobs", "1"],
        )
        .unwrap();
        assert_eq!(cli.jobs, 1);
        assert_eq!(
            cli.parsed::<String>("--addr").as_deref(),
            Some("127.0.0.1:0")
        );
        assert!(Cli::parse_from("sweep_server", SERVER, &["--scale", "tiny"]).is_err());
    }

    #[test]
    fn usage_names_every_flag_of_its_groups() {
        let text = usage("simulate", &[Group::Simulate, Group::Sweep, Group::Log]);
        assert!(
            text.starts_with("usage: simulate [--workload NAME]"),
            "{text}"
        );
        for f in flags_of(&[Group::Simulate, Group::Sweep, Group::Log]) {
            assert!(text.contains(f.name) && text.contains(f.help), "{text}");
        }
        assert!(!text.contains("--addr"), "{text}");
    }

    #[test]
    fn sweep_reports_timing() {
        let cli = parse(&["--scale", "tiny", "--jobs", "2", "--no-result-cache"]).unwrap();
        let outcome = cli.sweep(&cli.spec(vec![by_name("nw").unwrap()], PrefetcherKind::ALL));
        let run = &outcome.run;
        assert_eq!(run.records.len(), PrefetcherKind::ALL.len());
        assert_eq!(run.workers, 2);
        assert!(run.wall_seconds > 0.0);
        assert!(run.phases().contains_key("simulate"));
        assert_eq!(run.store_hits() + run.store_misses(), 0);
        assert_eq!(outcome.manifest.binary, "test");
        assert_eq!(outcome.manifest.scale, "tiny");
    }
}
